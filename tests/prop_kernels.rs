//! Property tests for the vectorised scan kernels and zone-map pruning.
//!
//! Random tables (dictionary, boolean, integer, and float columns, each
//! with NULLs), random predicates over every compiled kernel form, random
//! group-by subsets, random row weighting (none, constant, per row), an
//! optional bitmask-exclusion mask over a table that carries per-row
//! sample-membership bitmasks, and an optional row limit are executed
//! five ways:
//!
//! 1. the **scalar** reference loop (`KernelMode::Scalar`), pruned and
//!    unpruned (`PruneMode::On` / `PruneMode::Off`),
//! 2. the **vectorised** kernels (`KernelMode::Vectorized`), pruned and
//!    unpruned — which, depending on the drawn group-by, take the dense
//!    group-id path, the hash path, or the ungrouped path,
//! 3. a naive row-at-a-time evaluator written here, independent of the
//!    executor (selection by a plain `bool` per row, tallies by
//!    `AggState::update` in row order).
//!
//! All four kernel × prune outputs must agree *bit-for-bit*, group order
//! included — that is the determinism contract, and it is what the
//! weighted, bitmask-filtered scans of the paper's UNION ALL rewrite rely
//! on. The naive evaluator pins them to ground truth: measures are small
//! integers and weights are powers of two, so sums are exact and even the
//! order-sensitive tally fields must match to the last bit (the naive
//! loop feeds `update` in ascending row order, exactly the order the
//! contract promises).

use aqp::prelude::*;
use aqp::query::{AggState, PruneMode};
use aqp::storage::BitSet;
use proptest::prelude::*;
use std::collections::HashMap;

const CATS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Exactly representable row weights (inverse sampling rates).
const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Width of the sample-membership bitmask.
const MASK_BITS: usize = 3;

/// One generated row: dict group, bool group, int group, int measure,
/// float measure, per-row weight index into [`WEIGHTS`] and membership
/// bits. `None` encodes NULL.
#[derive(Debug, Clone)]
struct Row {
    g: Option<usize>,
    b: Option<bool>,
    k: Option<i64>,
    x: Option<i64>,
    y: Option<i64>,
    w: usize,
    m: u32,
}

/// Turn a raw draw into `None` with probability ~3/20 (the vendored
/// proptest has no `option` module, so NULLs are coded by hand).
fn opt<T>(null_draw: u32, v: T) -> Option<T> {
    (null_draw >= 3).then_some(v)
}

fn rows() -> impl Strategy<Value = Vec<Row>> {
    collection::vec(
        (
            (0u32..20, 0usize..CATS.len()),
            (0u32..20, 0u32..2),
            (0u32..20, -4i64..4),
            (0u32..20, -50i64..50),
            (0u32..20, 0i64..40),
            (0usize..WEIGHTS.len(), 0u32..1 << MASK_BITS),
        )
            .prop_map(|(g, b, k, x, y, (w, m))| Row {
                g: opt(g.0, g.1),
                b: opt(b.0, b.1 == 0),
                k: opt(k.0, k.1),
                x: opt(x.0, x.1),
                y: opt(y.0, y.1),
                w,
                m,
            }),
        1..200,
    )
}

/// Where the drawn values sit relative to the predicates. Every table
/// fits in one zone-map block, so pruning engages only when the whole
/// table satisfies or fails a predicate: `AllMatch` and `NoneMatch` move
/// the values (and drop NULLs) so that every predicate shape yields a
/// block-wide take or skip.
#[derive(Debug, Clone, Copy)]
enum Regime {
    Mixed,
    AllMatch,
    NoneMatch,
}

fn regime() -> impl Strategy<Value = Regime> {
    (0usize..3).prop_map(|i| [Regime::Mixed, Regime::AllMatch, Regime::NoneMatch][i])
}

fn steer(rows: &mut [Row], regime: Regime) {
    for r in rows {
        match regime {
            Regime::Mixed => {}
            Regime::AllMatch => {
                // g in {alpha, gamma}, k >= 0, y <= 5: every leaf of every
                // predicate shape holds on every row.
                r.g = Some(if r.g.unwrap_or(0) % 2 == 0 { 0 } else { 2 });
                r.k = Some(r.k.unwrap_or(0).abs());
                r.y = Some(r.y.unwrap_or(0) % 6);
            }
            Regime::NoneMatch => {
                // g in {beta, delta, epsilon}, k < 0, x <= 0, y >= 20: no
                // row satisfies any predicate shape.
                r.g = r.g.map(|g| [1, 3, 4][g % 3]);
                r.k = r.k.map(|k| -k.abs() - 1);
                r.x = r.x.map(|x| -x.abs());
                r.y = r.y.map(|y| 20 + y % 20);
            }
        }
    }
}

/// Predicate shapes covering every compiled kernel: dictionary IN-list,
/// integer compare, float compare, and an AND/OR/NOT combination.
#[derive(Debug, Clone, Copy)]
enum PredKind {
    None,
    DictIn,
    IntCmp,
    FloatCmp,
    Combo,
}

fn pred_kind() -> impl Strategy<Value = PredKind> {
    (0usize..5).prop_map(|i| {
        [
            PredKind::None,
            PredKind::DictIn,
            PredKind::IntCmp,
            PredKind::FloatCmp,
            PredKind::Combo,
        ][i]
    })
}

fn build_pred(kind: PredKind) -> Option<Expr> {
    match kind {
        PredKind::None => None,
        PredKind::DictIn => Some(Expr::in_set("g", vec!["alpha".into(), "gamma".into()])),
        PredKind::IntCmp => Some(Expr::cmp("k", CmpOp::Ge, 0i64)),
        PredKind::FloatCmp => Some(Expr::cmp("y", CmpOp::Lt, 20.0f64)),
        PredKind::Combo => Some(Expr::Or(vec![
            Expr::And(vec![
                Expr::cmp("x", CmpOp::Gt, 0i64),
                Expr::Not(Box::new(Expr::in_set("g", vec!["beta".into()]))),
            ]),
            Expr::cmp("y", CmpOp::Le, 5.0f64),
        ])),
    }
}

/// Naive per-row predicate matching the executor's NULL-is-false leaves.
fn naive_pred(kind: PredKind, r: &Row) -> bool {
    match kind {
        PredKind::None => true,
        PredKind::DictIn => r.g.is_some_and(|g| CATS[g] == "alpha" || CATS[g] == "gamma"),
        PredKind::IntCmp => r.k.is_some_and(|k| k >= 0),
        PredKind::FloatCmp => r.y.is_some_and(|y| (y as f64) < 20.0),
        PredKind::Combo => {
            let left = r.x.is_some_and(|x| x > 0) && r.g.is_none_or(|g| CATS[g] != "beta");
            let right = r.y.is_some_and(|y| (y as f64) <= 5.0);
            left || right
        }
    }
}

/// Group-by subsets: ungrouped, all-dict/bool (dense path), and mixes
/// that include the integer column (hash path).
fn group_sets() -> impl Strategy<Value = Vec<&'static str>> {
    (0usize..6).prop_map(|i| {
        [
            vec![],
            vec!["g"],
            vec!["g", "b"],
            vec!["k"],
            vec!["g", "k"],
            vec!["b", "k", "g"],
        ][i]
        .clone()
    })
}

/// How rows are weighted: unweighted, one constant from [`WEIGHTS`], or
/// each row's own [`WEIGHTS`] entry.
#[derive(Debug, Clone, Copy)]
enum WeightKind {
    Unweighted,
    Constant(f64),
    PerRow,
}

fn weight_kind() -> impl Strategy<Value = WeightKind> {
    (0usize..3, 0usize..WEIGHTS.len()).prop_map(|(kind, w)| match kind {
        0 => WeightKind::Unweighted,
        1 => WeightKind::Constant(WEIGHTS[w]),
        _ => WeightKind::PerRow,
    })
}

fn row_weight(kind: WeightKind, r: &Row) -> f64 {
    match kind {
        WeightKind::Unweighted => 1.0,
        WeightKind::Constant(w) => w,
        WeightKind::PerRow => WEIGHTS[r.w],
    }
}

fn bits(m: u32) -> BitSet {
    BitSet::from_bits(MASK_BITS, (0..MASK_BITS).filter(|b| m & (1 << b) != 0))
}

/// The rows as a table; with `with_bitmask`, each row also carries its
/// membership bits in the table's bitmask column.
fn to_table(rows: &[Row], with_bitmask: bool) -> Table {
    let plain = plain_table(rows);
    if !with_bitmask {
        return plain;
    }
    let mut t = Table::empty("t", plain.schema().clone());
    t.enable_bitmask(MASK_BITS);
    for (i, r) in rows.iter().enumerate() {
        t.push_row_from_with_mask(&plain, i, &bits(r.m)).unwrap();
    }
    t
}

fn plain_table(rows: &[Row]) -> Table {
    let schema = SchemaBuilder::new()
        .field("g", DataType::Utf8)
        .field("b", DataType::Bool)
        .field("k", DataType::Int64)
        .field("x", DataType::Int64)
        .field("y", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("t", schema);
    let val = |o: Option<Value>| o.unwrap_or(Value::Null);
    for r in rows {
        t.push_row(&[
            val(r.g.map(|g| CATS[g].into())),
            val(r.b.map(Value::Bool)),
            val(r.k.map(Value::Int64)),
            val(r.x.map(Value::Int64)),
            val(r.y.map(|y| Value::Float64(y as f64))),
        ])
        .unwrap();
    }
    t
}

/// The scan inputs besides the query: weighting, bitmask exclusion and
/// row limit.
#[derive(Debug, Clone, Copy)]
struct ScanInputs {
    weight: WeightKind,
    exclude: Option<u32>,
    row_limit: Option<usize>,
}

/// Naive evaluation: take the first `row_limit` rows, drop rows whose
/// membership bits meet the exclusion mask or that fail [`naive_pred`],
/// group into a map keyed by the owned key values, and feed
/// [`AggState::update`] in row order with the row's weight — the exact
/// sequence the executor promises for every kernel and prune mode.
fn naive(
    rows: &[Row],
    kind: PredKind,
    groups: &[&str],
    inputs: ScanInputs,
) -> HashMap<Vec<Value>, [AggState; 3]> {
    let mut out: HashMap<Vec<Value>, [AggState; 3]> = HashMap::new();
    let limit = inputs.row_limit.unwrap_or(rows.len());
    let kept = rows[..limit.min(rows.len())]
        .iter()
        .filter(|r| inputs.exclude.is_none_or(|mask| r.m & mask == 0))
        .filter(|r| naive_pred(kind, r));
    for r in kept {
        let w = row_weight(inputs.weight, r);
        let key: Vec<Value> = groups
            .iter()
            .map(|&g| match g {
                "g" => r.g.map_or(Value::Null, |g| CATS[g].into()),
                "b" => r.b.map_or(Value::Null, Value::Bool),
                _ => r.k.map_or(Value::Null, Value::Int64),
            })
            .collect();
        let states = out.entry(key).or_default();
        states[0].update(1.0, w);
        if let Some(x) = r.x {
            states[1].update(x as f64, w);
        }
        if let Some(y) = r.y {
            states[2].update(y as f64, w);
        }
    }
    if groups.is_empty() && out.is_empty() {
        out.insert(Vec::new(), Default::default());
    }
    out
}

fn bits_equal(a: &AggState, b: &AggState) -> bool {
    a.rows == b.rows
        && a.sum_w.to_bits() == b.sum_w.to_bits()
        && a.sum_wx.to_bits() == b.sum_wx.to_bits()
        && a.sum_x.to_bits() == b.sum_x.to_bits()
        && a.sum_x_sq.to_bits() == b.sum_x_sq.to_bits()
        && a.var_acc.to_bits() == b.var_acc.to_bits()
        && a.var_acc_w.to_bits() == b.var_acc_w.to_bits()
        && a.cov_acc.to_bits() == b.cov_acc.to_bits()
        && a.min.to_bits() == b.min.to_bits()
        && a.max.to_bits() == b.max.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernels_match_scalar_and_naive_reference(
        rows in rows(),
        regime in regime(),
        kind in pred_kind(),
        groups in group_sets(),
        threads in 1usize..4,
        morsel_rows in (0usize..3).prop_map(|i| [7usize, 64, 1024][i]),
        weight in weight_kind(),
        exclude in (0u32..2 << MASK_BITS).prop_map(|m| (m < 1 << MASK_BITS).then_some(m)),
        row_limit in (0usize..400).prop_map(|n| (n < 200).then_some(n)),
        pruning in (0usize..2).prop_map(|i| [PruneMode::On, PruneMode::Off][i]),
    ) {
        let mut rows = rows;
        steer(&mut rows, regime);
        let table = to_table(&rows, exclude.is_some());
        let per_row: Vec<f64> = rows.iter().map(|r| WEIGHTS[r.w]).collect();
        let inputs = ScanInputs { weight, exclude, row_limit };
        let mut b = Query::builder()
            .count()
            .sum("x")
            .aggregate(AggExpr::avg("y", "avg_y"));
        for &g in &groups {
            b = b.group_by(g);
        }
        if let Some(p) = build_pred(kind) {
            b = b.filter(p);
        }
        let q = b.build().unwrap();
        let exclude_mask = exclude.map(bits);
        let base = ExecOptions {
            weight: match weight {
                WeightKind::Unweighted => Weighting::Unweighted,
                WeightKind::Constant(w) => Weighting::Constant(w),
                WeightKind::PerRow => Weighting::PerRow(&per_row),
            },
            bitmask_exclude: exclude_mask.as_ref(),
            parallelism: threads,
            row_limit,
            morsel_rows,
            ..ExecOptions::default()
        };
        let exec = |kernels, pruning| {
            let opts = ExecOptions { kernels, pruning, ..base };
            aqp::query::execute(&DataSource::Wide(&table), &q, &opts).unwrap()
        };

        // Every kernel × prune combination: bit-identical to the scalar
        // unpruned scan, group order included.
        let reference = exec(KernelMode::Scalar, PruneMode::Off);
        for (kernels, prune) in [
            (KernelMode::Scalar, PruneMode::On),
            (KernelMode::Vectorized, PruneMode::Off),
            (KernelMode::Vectorized, PruneMode::On),
        ] {
            let out = exec(kernels, prune);
            prop_assert_eq!(out.rows_scanned, reference.rows_scanned);
            prop_assert_eq!(out.truncated, reference.truncated);
            prop_assert_eq!(reference.num_groups(), out.num_groups());
            for (a, b) in reference.groups.iter().zip(&out.groups) {
                prop_assert_eq!(&a.key, &b.key, "group order diverged ({:?}, {:?})", kernels, prune);
                for (sa, sb) in a.aggs.iter().zip(&b.aggs) {
                    prop_assert!(
                        bits_equal(sa, sb),
                        "tally diverged at key {:?} ({:?}, {:?}): {:?} vs {:?}",
                        a.key, kernels, prune, sa, sb
                    );
                }
            }
        }

        // Vectorised vs the naive row loop: exact ground truth (integer
        // measures and power-of-two weights make every float tally
        // exactly representable).
        let vect = exec(KernelMode::Vectorized, pruning);
        let truth = naive(&rows, kind, &groups, inputs);
        prop_assert_eq!(vect.num_groups(), truth.len(), "group count vs naive");
        for g in &vect.groups {
            let want = truth.get(&g.key);
            prop_assert!(want.is_some(), "spurious group {:?}", g.key);
            for (sa, sb) in g.aggs.iter().zip(want.unwrap()) {
                prop_assert!(bits_equal(sa, sb), "naive mismatch at key {:?}: {:?} vs {:?}", g.key, sa, sb);
            }
        }
    }
}
