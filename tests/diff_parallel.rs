//! Differential oracle for morsel-driven parallel execution.
//!
//! Two independent checks, combined across aggregate types, group-by
//! arities (including past the fast-key limit), NULLs and predicates:
//!
//! 1. **Determinism** — answers at 2/4/8 threads are *bit-identical* to
//!    the 1-thread answer, for the exact executor and for the UNION-ALL
//!    rewrite plan served by [`SmallGroupSampler`]. Morsel boundaries and
//!    the merge order of partial states depend only on the row count, so
//!    scheduling can never leak into results.
//! 2. **Correctness** — the exact executor's parallel answers equal a
//!    naive row-at-a-time reference evaluator written independently of
//!    the morsel machinery (integer-valued measures compare exactly;
//!    fractional sums within a tight relative tolerance, since a straight
//!    left-to-right float sum legitimately rounds differently from the
//!    morsel-ordered fold).

use aqp::prelude::*;
use aqp::query::plan::QueryBuilder;
use aqp::query::AggState;
use std::collections::HashMap;

/// Deterministic splitmix-style generator: no rand dependency, stable
/// across platforms.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let z = *state ^ (*state >> 31);
    z.wrapping_mul(0x9e3779b97f4a7c15) >> 17
}

/// Mixed-type table with NULLs in a group column and both measures.
/// `c0..c6` provide a 7-column grouping set that exceeds the executor's
/// compact-key width and exercises the heap-key fallback.
fn test_table(rows: usize, seed: u64) -> Table {
    let mut b = SchemaBuilder::new()
        .field("cat", DataType::Utf8)
        .field("sub", DataType::Int64);
    for i in 0..7 {
        b = b.field(format!("c{i}"), DataType::Int64);
    }
    let schema = b
        .field("val", DataType::Float64)
        .field("amt", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("t", schema);
    let mut s = seed.wrapping_mul(0x517cc1b727220a95).wrapping_add(1);
    let cats = ["a", "b", "c", "d"];
    for _ in 0..rows {
        let mut row: Vec<Value> = Vec::with_capacity(11);
        row.push(if next(&mut s).is_multiple_of(10) {
            Value::Null
        } else {
            cats[(next(&mut s) % 4) as usize].into()
        });
        row.push(((next(&mut s) % 5) as i64).into());
        for i in 0..7u64 {
            row.push(((next(&mut s) % (i + 2)) as i64).into());
        }
        // Fractional measure: sums depend on accumulation order in the
        // low bits. Integer-valued measure: sums are exact at any order.
        row.push(if next(&mut s).is_multiple_of(8) {
            Value::Null
        } else {
            (0.01 + (next(&mut s) % 13) as f64 / 7.0).into()
        });
        row.push(if next(&mut s).is_multiple_of(9) {
            Value::Null
        } else {
            ((next(&mut s) % 101) as f64).into()
        });
        t.push_row(&row).unwrap();
    }
    t
}

/// Naive reference tally for one aggregate over one group.
#[derive(Clone, Default)]
struct RefAgg {
    rows: u64,
    non_null: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Row-at-a-time reference evaluator: no morsels, no hashing tricks —
/// a `Vec<Value>` per row and a linear predicate walk.
fn reference(
    table: &Table,
    query: &Query,
) -> HashMap<Vec<Value>, Vec<RefAgg>> {
    let idx: HashMap<&str, usize> = table
        .schema()
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut out: HashMap<Vec<Value>, Vec<RefAgg>> = HashMap::new();
    for r in 0..table.num_rows() {
        let row = table.row(r);
        if let Some(p) = &query.predicate {
            if !eval_pred(p, &row, &idx) {
                continue;
            }
        }
        let key: Vec<Value> = query.group_by.iter().map(|g| row[idx[g.as_str()]].clone()).collect();
        let states = out.entry(key).or_insert_with(|| {
            vec![
                RefAgg {
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    ..RefAgg::default()
                };
                query.aggregates.len()
            ]
        });
        for (i, agg) in query.aggregates.iter().enumerate() {
            let st = &mut states[i];
            st.rows += 1;
            match agg.func {
                AggFunc::Count => {
                    st.non_null += 1;
                    st.sum += 1.0;
                }
                _ => {
                    let col = agg.column.as_ref().unwrap();
                    if let Some(x) = row[idx[col.as_str()]].as_f64() {
                        st.non_null += 1;
                        st.sum += x;
                        st.min = st.min.min(x);
                        st.max = st.max.max(x);
                    }
                }
            }
        }
    }
    // Ungrouped aggregation always yields one row, even over zero matches.
    if query.group_by.is_empty() && out.is_empty() {
        out.insert(
            Vec::new(),
            vec![
                RefAgg {
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    ..RefAgg::default()
                };
                query.aggregates.len()
            ],
        );
    }
    out
}

/// Reference predicate walk. Only the type pairings the queries below use
/// are implemented; semantics mirror the executor (NULL at a leaf is
/// false, `Not` is plain negation).
fn eval_pred(e: &Expr, row: &[Value], idx: &HashMap<&str, usize>) -> bool {
    match e {
        Expr::Cmp { column, op, literal } => {
            let v = &row[idx[column.as_str()]];
            match (v, literal) {
                (Value::Int64(a), Value::Int64(b)) => op.evaluate(a.cmp(b)),
                (Value::Float64(a), lit) => match lit.as_f64() {
                    Some(b) => op.evaluate(a.total_cmp(&b)),
                    None => false,
                },
                (Value::Utf8(a), Value::Utf8(b)) => op.evaluate(a.as_str().cmp(b.as_str())),
                _ => false,
            }
        }
        Expr::InSet { column, values } => {
            let v = &row[idx[column.as_str()]];
            !v.is_null() && values.contains(v)
        }
        Expr::And(es) => es.iter().all(|e| eval_pred(e, row, idx)),
        Expr::Or(es) => es.iter().any(|e| eval_pred(e, row, idx)),
        Expr::Not(e) => !eval_pred(e, row, idx),
    }
}

/// The query grid: every aggregate function, 0/1/2/7 grouping columns,
/// and predicates over every compiled form (dict IN-list, int/float
/// comparisons, AND/OR/NOT).
fn query_grid() -> Vec<Query> {
    let all_aggs = |b: QueryBuilder| -> QueryBuilder {
        b.count()
            .sum("val")
            .sum("amt")
            .aggregate(AggExpr::avg("amt", "avg_amt"))
            .aggregate(AggExpr::min("val", "min_val"))
            .aggregate(AggExpr::max("amt", "max_amt"))
    };
    let mut queries = vec![
        all_aggs(Query::builder()).build().unwrap(),
        all_aggs(Query::builder()).group_by("cat").build().unwrap(),
        all_aggs(Query::builder())
            .group_by("cat")
            .group_by("sub")
            .filter(Expr::in_set("cat", vec!["a".into(), "c".into()]))
            .build()
            .unwrap(),
        all_aggs(Query::builder())
            .group_by("sub")
            .filter(Expr::Or(vec![
                Expr::cmp("val", CmpOp::Ge, 0.5f64),
                Expr::Not(Box::new(Expr::cmp("sub", CmpOp::Le, 2i64))),
            ]))
            .build()
            .unwrap(),
        // Predicate selecting nothing: ungrouped must still yield one row.
        Query::builder()
            .count()
            .sum("amt")
            .filter(Expr::cmp("sub", CmpOp::Gt, 99i64))
            .build()
            .unwrap(),
    ];
    // 7-column grouping: past MAX_FAST_KEY, uses the slow-key path.
    let mut seven = Query::builder().count().sum("amt");
    for i in 0..7 {
        seven = seven.group_by(format!("c{i}"));
    }
    queries.push(seven.build().unwrap());
    queries
}

fn run_at(table: &Table, q: &Query, threads: usize, morsel_rows: usize) -> aqp::query::QueryOutput {
    let opts = ExecOptions {
        parallelism: threads,
        morsel_rows,
        ..ExecOptions::default()
    };
    let mut out = aqp::query::execute(&DataSource::Wide(table), q, &opts).unwrap();
    out.sort_by_key();
    out
}

/// Run with an explicit kernel mode, *without* sorting, so group order —
/// which the determinism contract also covers — is compared as produced.
fn run_mode(
    table: &Table,
    q: &Query,
    threads: usize,
    morsel_rows: usize,
    kernels: KernelMode,
) -> aqp::query::QueryOutput {
    let opts = ExecOptions {
        parallelism: threads,
        morsel_rows,
        kernels,
        ..ExecOptions::default()
    };
    aqp::query::execute(&DataSource::Wide(table), q, &opts).unwrap()
}

fn assert_states_bit_identical(a: &AggState, b: &AggState, ctx: &str) {
    assert_eq!(a.rows, b.rows, "{ctx}: rows");
    for (x, y, field) in [
        (a.sum_w, b.sum_w, "sum_w"),
        (a.sum_wx, b.sum_wx, "sum_wx"),
        (a.sum_x, b.sum_x, "sum_x"),
        (a.sum_x_sq, b.sum_x_sq, "sum_x_sq"),
        (a.var_acc, b.var_acc, "var_acc"),
        (a.var_acc_w, b.var_acc_w, "var_acc_w"),
        (a.cov_acc, b.cov_acc, "cov_acc"),
        (a.min, b.min, "min"),
        (a.max, b.max, "max"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {field} {x} vs {y}");
    }
}

#[test]
fn parallel_exact_answers_bit_identical_across_threads() {
    // morsel_rows 64 forces ~40 morsels on 2500 rows, so any
    // scheduling-dependent merge order would have every chance to show.
    let t = test_table(2_500, 7);
    for (qi, q) in query_grid().iter().enumerate() {
        let base = run_at(&t, q, 1, 64);
        for threads in [2, 4, 8] {
            let par = run_at(&t, q, threads, 64);
            assert_eq!(base.num_groups(), par.num_groups(), "query {qi} @ {threads}");
            for (a, b) in base.groups.iter().zip(&par.groups) {
                assert_eq!(a.key, b.key, "query {qi} @ {threads}");
                for (sa, sb) in a.aggs.iter().zip(&b.aggs) {
                    assert_states_bit_identical(
                        sa,
                        sb,
                        &format!("query {qi} @ {threads} threads, key {:?}", a.key),
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_exact_answers_match_naive_reference() {
    let t = test_table(2_500, 11);
    for (qi, q) in query_grid().iter().enumerate() {
        let truth = reference(&t, q);
        for threads in [1, 4] {
            let out = run_at(&t, q, threads, 64);
            assert_eq!(
                out.num_groups(),
                truth.len(),
                "query {qi} @ {threads}: group count"
            );
            for g in &out.groups {
                let ctx = format!("query {qi} @ {threads}, key {:?}", g.key);
                let want = truth.get(&g.key).unwrap_or_else(|| panic!("{ctx}: spurious group"));
                for ((agg, st), rf) in q.aggregates.iter().zip(&g.aggs).zip(want) {
                    match agg.func {
                        AggFunc::Count => {
                            assert_eq!(st.rows, rf.rows, "{ctx}: COUNT rows");
                            assert_eq!(st.sum_w, rf.sum, "{ctx}: COUNT");
                        }
                        AggFunc::Sum | AggFunc::Avg => {
                            assert_eq!(st.rows, rf.non_null, "{ctx}: non-null rows");
                            let got = if agg.func == AggFunc::Avg {
                                if rf.non_null == 0 {
                                    continue;
                                }
                                st.sum_wx / st.sum_w
                            } else {
                                st.sum_wx
                            };
                            let want = if agg.func == AggFunc::Avg {
                                rf.sum / rf.non_null as f64
                            } else {
                                rf.sum
                            };
                            // Integer-valued "amt" sums are exact; the
                            // fractional "val" sums may differ from the
                            // left-to-right reference only in rounding.
                            let tol = 1e-12 * want.abs().max(1.0);
                            assert!(
                                (got - want).abs() <= tol,
                                "{ctx}: {} got {got} want {want}",
                                agg.alias
                            );
                        }
                        AggFunc::Min => {
                            assert_eq!(st.min.to_bits(), rf.min.to_bits(), "{ctx}: MIN");
                        }
                        AggFunc::Max => {
                            assert_eq!(st.max.to_bits(), rf.max.to_bits(), "{ctx}: MAX");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn scalar_and_vectorized_kernels_bit_identical() {
    // The vectorised kernels (selection vectors, typed aggregation loops,
    // dense group ids) must reproduce the scalar reference loop exactly:
    // same groups, in the same order, with every tally field agreeing to
    // the last bit — at every thread count, across the whole query grid
    // (which covers the dense path, the hash fast-key path, and the
    // slow-key path past MAX_FAST_KEY).
    let t = test_table(2_500, 13);
    for (qi, q) in query_grid().iter().enumerate() {
        for threads in [1, 4, 8] {
            let scalar = run_mode(&t, q, threads, 64, KernelMode::Scalar);
            let vect = run_mode(&t, q, threads, 64, KernelMode::Vectorized);
            assert_eq!(scalar.rows_scanned, vect.rows_scanned, "query {qi} @ {threads}");
            assert_eq!(scalar.num_groups(), vect.num_groups(), "query {qi} @ {threads}");
            for (a, b) in scalar.groups.iter().zip(&vect.groups) {
                assert_eq!(a.key, b.key, "query {qi} @ {threads}: group order");
                for (sa, sb) in a.aggs.iter().zip(&b.aggs) {
                    assert_states_bit_identical(
                        sa,
                        sb,
                        &format!("query {qi} @ {threads} threads, key {:?}", a.key),
                    );
                }
            }
        }
    }
}

#[test]
fn union_all_rewrite_plan_bit_identical_across_threads() {
    // The sampler's answer path is the paper's UNION ALL over strata
    // (small-group tables + bitmask-filtered overall sample). Thread
    // count must not perturb a single bit of estimate or interval.
    let t = test_table(3_000, 3);
    let mut sampler = SmallGroupSampler::build(
        &t,
        SmallGroupConfig {
            seed: 5,
            ..SmallGroupConfig::with_rates(0.1, 0.5)
        },
    )
    .unwrap();

    let queries = [
        Query::builder().count().group_by("cat").build().unwrap(),
        Query::builder()
            .count()
            .sum("amt")
            .aggregate(AggExpr::avg("val", "avg_val"))
            .group_by("cat")
            .group_by("sub")
            .build()
            .unwrap(),
        Query::builder()
            .sum("val")
            .filter(Expr::in_set("cat", vec!["a".into(), "b".into()]))
            .build()
            .unwrap(),
    ];

    for (qi, q) in queries.iter().enumerate() {
        sampler.set_threads(1);
        let mut base = sampler.answer(q, 0.95).unwrap();
        base.sort_by_key();
        for threads in [2, 4, 8] {
            sampler.set_threads(threads);
            let mut par = sampler.answer(q, 0.95).unwrap();
            par.sort_by_key();
            assert_eq!(base.groups.len(), par.groups.len(), "query {qi} @ {threads}");
            for (a, b) in base.groups.iter().zip(&par.groups) {
                assert_eq!(a.key, b.key, "query {qi} @ {threads}");
                for (va, vb) in a.values.iter().zip(&b.values) {
                    assert_eq!(
                        va.value().to_bits(),
                        vb.value().to_bits(),
                        "query {qi} @ {threads}: estimate for {:?}",
                        a.key
                    );
                    assert_eq!(va.ci.lo.to_bits(), vb.ci.lo.to_bits(), "query {qi} @ {threads}");
                    assert_eq!(va.ci.hi.to_bits(), vb.ci.hi.to_bits(), "query {qi} @ {threads}");
                    assert_eq!(va.is_exact(), vb.is_exact(), "query {qi} @ {threads}");
                }
            }
        }
    }
}

#[test]
fn parallel_sgs_build_produces_identical_families() {
    // Parallel preprocessing: per-worker group-frequency histograms are
    // merged in morsel order before the small-group/overall split, so the
    // resulting sample family must be byte-identical at any thread count.
    let t = test_table(3_000, 9);
    let build = |threads: usize| {
        SmallGroupSampler::build(
            &t,
            SmallGroupConfig {
                seed: 5,
                preprocess_threads: threads,
                ..SmallGroupConfig::with_rates(0.1, 0.5)
            },
        )
        .unwrap()
    };
    let base = build(1);
    let q = Query::builder()
        .count()
        .sum("amt")
        .group_by("cat")
        .build()
        .unwrap();
    let mut base_ans = base.answer(&q, 0.95).unwrap();
    base_ans.sort_by_key();
    for threads in [2, 4, 8] {
        let other = build(threads);
        assert_eq!(
            base.catalog().to_string(),
            other.catalog().to_string(),
            "catalog @ {threads} threads"
        );
        let mut ans = other.answer(&q, 0.95).unwrap();
        ans.sort_by_key();
        assert_eq!(base_ans.groups.len(), ans.groups.len());
        for (a, b) in base_ans.groups.iter().zip(&ans.groups) {
            assert_eq!(a.key, b.key);
            for (va, vb) in a.values.iter().zip(&b.values) {
                assert_eq!(va.value().to_bits(), vb.value().to_bits(), "build @ {threads}");
            }
        }
    }
}
