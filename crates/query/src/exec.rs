//! The hash group-by executor.
//!
//! Executes a [`Query`] against a [`DataSource`] in a single scan:
//! compiled-predicate filter → compact group-key extraction → per-group
//! [`AggState`] accumulation. Three features exist specifically for the
//! AQP runtime of the paper:
//!
//! * **weights** ([`Weighting`]) — every row can carry an inverse-sampling-
//!   rate weight (constant for uniform samples, per-row for congress-style
//!   stratified samples); weight 1 gives exact evaluation;
//! * **bitmask exclusion** — rows whose sample-membership bitmask intersects
//!   a given mask are skipped, which is the paper's
//!   `WHERE bitmask & M = 0` double-counting filter (Section 4.2.2);
//! * **morsel-driven parallelism** — every scan is decomposed into
//!   fixed-size morsels whose partial group maps are folded in morsel
//!   order ([`crate::parallel`]), so answers are bit-identical at any
//!   thread count (std scoped threads, no dependencies).
//!
//! Each morsel runs through one of two interchangeable implementations,
//! selected by [`ExecOptions::kernels`]:
//!
//! * the **scalar** reference loop (`Scan::run_range`) — row at a time,
//!   simple enough to audit by eye; and
//! * the **vectorised** kernels (the `kernel` module, the default) —
//!   selection vectors, typed columnar filters, and a dense group-id fast
//!   path, producing *bit-identical* partial maps several times faster.
//!
//! Because both paths share the same predicate leaves, the same
//! [`AggState::update`] arithmetic in the same ascending row order, and
//! the same morsel-order fold, their outputs are byte-for-byte equal —
//! a property the differential suites force on every commit. Group maps
//! use the deterministic [`crate::hash`] hasher, so even map iteration
//! order is reproducible across runs, modes, and thread counts.

use crate::error::{QueryError, QueryResult};
use crate::expr::{compile, CompiledExpr};
use crate::kernel::{run_morsel_vectorized, DensePlan, GroupKey, GroupMap, MAX_FAST_KEY};
use crate::output::{AggState, GroupResult, QueryOutput};
use crate::parallel::{merge_group_maps, run_morsels_cancellable};
use crate::plan::Query;
use crate::prune::{PruneDecision, PrunePlan};
use crate::source::{DataSource, ResolvedColumn};
use aqp_storage::{BitSet, Value, DEFAULT_MORSEL_ROWS};
use std::time::Instant;

/// Per-row weighting applied during aggregation.
#[derive(Debug, Clone, Copy)]
pub enum Weighting<'a> {
    /// Every row has weight 1 (exact evaluation, or 100 %-rate strata).
    Unweighted,
    /// Every row has the same weight (inverse of a uniform sampling rate).
    Constant(f64),
    /// `weights[row]` per row (stratified samples with varying rates).
    PerRow(&'a [f64]),
}

impl Weighting<'_> {
    #[inline]
    fn weight(&self, row: usize) -> f64 {
        match self {
            Weighting::Unweighted => 1.0,
            Weighting::Constant(w) => *w,
            Weighting::PerRow(ws) => ws[row],
        }
    }
}

/// Which per-morsel scan implementation [`execute`] runs.
///
/// Both produce byte-identical output (the differential oracle enforces
/// it); the choice only affects speed. [`ExecOptions::kernels`] is the
/// one place it is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The row-at-a-time reference loop.
    Scalar,
    /// The batch kernels of the vectorised pipeline (the default).
    #[default]
    Vectorized,
}

/// Whether [`execute`] consults zone maps to skip (or take wholesale)
/// morsels before touching column data.
///
/// Pruning never changes the answer — only which work is avoided — by
/// the same bit-identity contract as [`KernelMode`], and the differential
/// oracle compares the two settings on every commit.
/// [`ExecOptions::pruning`] is the one place it is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// Zone-map pruning on (the default).
    #[default]
    On,
    /// Every morsel goes down the ordinary scan path.
    Off,
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions<'a> {
    /// Row weighting (default: unweighted).
    pub weight: Weighting<'a>,
    /// Skip rows whose bitmask intersects this mask (sample tables only).
    pub bitmask_exclude: Option<&'a BitSet>,
    /// Worker threads for the scan (1 = run morsels inline). The answer is
    /// bit-identical at every value: morsel boundaries and the merge order
    /// of partial states depend only on the row count and `morsel_rows`.
    pub parallelism: usize,
    /// Stop the scan after this many rows (a per-query budget used by
    /// degraded serving). [`QueryOutput::truncated`] reports whether the
    /// limit actually cut the scan short.
    pub row_limit: Option<usize>,
    /// Rows per scan morsel (default [`DEFAULT_MORSEL_ROWS`]). Changing it
    /// changes float rounding in merged aggregates; it exists as a knob so
    /// tests can force many morsels on small tables. Clamped to ≥ 1.
    pub morsel_rows: usize,
    /// Scan implementation (default [`KernelMode::Vectorized`]). Never
    /// affects the answer, only how fast it is computed.
    pub kernels: KernelMode,
    /// Zone-map block pruning (default [`PruneMode::On`]). Never affects
    /// the answer, only which morsels avoid work.
    pub pruning: PruneMode,
}

impl Default for ExecOptions<'static> {
    fn default() -> Self {
        ExecOptions {
            weight: Weighting::Unweighted,
            bitmask_exclude: None,
            parallelism: 1,
            row_limit: None,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            kernels: KernelMode::default(),
            pruning: PruneMode::default(),
        }
    }
}

/// Execute `query` against `source`.
pub fn execute(
    source: &DataSource<'_>,
    query: &Query,
    opts: &ExecOptions<'_>,
) -> QueryResult<QueryOutput> {
    if query.aggregates.is_empty() {
        return Err(QueryError::InvalidQuery("no aggregates".into()));
    }
    if let Weighting::PerRow(ws) = opts.weight {
        if ws.len() != source.num_rows() {
            return Err(QueryError::InvalidQuery(format!(
                "per-row weights: {} weights for {} rows",
                ws.len(),
                source.num_rows()
            )));
        }
    }

    // Resolve group-by columns.
    let group_cols: Vec<ResolvedColumn<'_>> = query
        .group_by
        .iter()
        .map(|name| source.resolve(name))
        .collect::<QueryResult<_>>()?;

    // Resolve each aggregate to its per-scan plan, validating types. The
    // function match and the input-column unwrap happen exactly once here,
    // not once per row in the scan loop.
    let aggs: Vec<AggStep<'_>> = query
        .aggregates
        .iter()
        .map(|agg| match (&agg.column, agg.func.needs_column()) {
            (None, false) => Ok(AggStep::CountStar),
            (Some(name), true) => {
                let col = source.resolve(name)?;
                if !col.data_type().is_numeric() {
                    return Err(QueryError::InvalidAggregate {
                        reason: format!(
                            "{}({name}) over non-numeric column of type {}",
                            agg.func,
                            col.data_type()
                        ),
                    });
                }
                Ok(AggStep::Column(col))
            }
            (None, true) => Err(QueryError::InvalidAggregate {
                reason: format!("{} requires a column", agg.func),
            }),
            (Some(_), false) => Err(QueryError::InvalidAggregate {
                reason: "COUNT(*) takes no column".into(),
            }),
        })
        .collect::<QueryResult<_>>()?;

    // Compile the predicate.
    let predicate = query
        .predicate
        .as_ref()
        .map(|p| compile(p, source))
        .transpose()?;

    // Bitmask exclusion requires the source to actually carry a bitmask.
    let bitmask = match opts.bitmask_exclude {
        Some(mask) => match source.bitmask() {
            Some(col) => Some((col, mask)),
            None => {
                return Err(QueryError::InvalidQuery(
                    "bitmask filter requested but source has no bitmask column".into(),
                ))
            }
        },
        None => None,
    };

    let total_rows = source.num_rows();
    let n = match opts.row_limit {
        Some(limit) => total_rows.min(limit),
        None => total_rows,
    };
    let truncated = n < total_rows;
    let num_aggs = query.aggregates.len();
    let vectorized = opts.kernels == KernelMode::Vectorized;
    let scan = Scan {
        group_cols: &group_cols,
        aggs: &aggs,
        predicate: predicate.as_ref(),
        bitmask,
        weight: opts.weight,
        dense: if vectorized {
            DensePlan::build(&group_cols)
        } else {
            None
        },
    };
    let kernel = if !vectorized {
        "scalar"
    } else if scan.dense.is_some() {
        "vectorized-dense"
    } else {
        "vectorized-hash"
    };

    // Lower the predicate onto the source table's zone maps (computing
    // them lazily if the table was built before zone maps existed).
    // Pruning reasons about physical fact/wide-table blocks, so the fact
    // table anchors the star case; dimension-column leaves are opaque.
    let prune_plan = if opts.pruning == PruneMode::On {
        let table = match source {
            DataSource::Wide(t) => *t,
            DataSource::Star(s) => s.fact(),
        };
        predicate.as_ref().and_then(|p| PrunePlan::build(p, table))
    } else {
        None
    };

    // Morsel-driven scan: workers produce one partial map per morsel;
    // folding the partials in morsel order makes the result bit-identical
    // at every thread count. The parallelism == 1 path runs the very same
    // decomposition inline — a direct whole-range accumulation would round
    // float sums differently and break the determinism contract.
    //
    // Span timers live on this control thread only, bracketing the whole
    // scoped-thread region; worker closures touch no observability state,
    // so instrumentation cannot perturb the morsel-order merge. The scan
    // honours the cancel token installed on this thread by
    // `cancel::install`, if any.
    let token = crate::cancel::current();
    let (partials, schedule, cancelled) = {
        let _span = aqp_obs::span("query.scan");
        run_morsels_cancellable(n, opts.morsel_rows, opts.parallelism, token.as_ref(), |m| {
            // Workers return plain data (map, matched rows, wall time,
            // prune outcome); all profiling bookkeeping happens on the
            // control thread.
            let started = Instant::now();
            let (decision, blocks) = match &prune_plan {
                Some(p) => (p.decide(m.start, m.end), p.blocks(m.start, m.end) as u64),
                None => (PruneDecision::Scan, 0),
            };
            let (map, matched) = match decision {
                // No row can match: the empty partial map is exactly what
                // either scan implementation returns for a fully-filtered
                // morsel, so the merge fold is unchanged bit for bit.
                PruneDecision::SkipAll => (GroupMap::default(), 0),
                other => {
                    let use_predicate = other != PruneDecision::TakeAll;
                    if vectorized {
                        run_morsel_vectorized(&scan, m.start, m.end, num_aggs, use_predicate)
                    } else {
                        let mut map = GroupMap::default();
                        let matched =
                            scan.run_range(m.start, m.end, num_aggs, &mut map, use_predicate);
                        (map, matched)
                    }
                }
            };
            let prune = (decision, blocks, (m.end - m.start) as u64);
            (map, matched, started.elapsed(), prune)
        })
    };
    if cancelled {
        // An incomplete morsel set must never be folded into an answer:
        // which morsels ran depends on the OS schedule, and a partial fold
        // would break the executor's determinism contract. Report the
        // cancellation and let the caller pick a cheaper plan instead.
        aqp_obs::counter("aqp_query_cancelled_total", &[]).inc();
        // Report *which* condition tripped, not merely whether a deadline
        // existed: an explicit cancel() on a deadline-carrying token is a
        // cancellation, not a timeout (cause() gives Explicit precedence).
        return Err(QueryError::Cancelled {
            deadline: token.as_ref().and_then(|t| t.cause())
                == Some(crate::cancel::CancelCause::Deadline),
        });
    }
    aqp_obs::counter("aqp_rows_scanned_total", &[]).inc_by(n as u64);
    aqp_obs::counter("aqp_query_scans_total", &[]).inc();
    let mut rows_out = 0u64;
    let mut morsel_ns = Vec::with_capacity(partials.len());
    let mut partial_bytes = 0u64;
    let mut blocks_skipped = 0u64;
    let mut blocks_taken = 0u64;
    let mut blocks_scanned = 0u64;
    let mut rows_pruned = 0u64;
    let merge_span = aqp_obs::span("query.merge");
    let mut groups = GroupMap::default();
    for (partial, matched, elapsed, (decision, blocks, morsel_rows)) in partials {
        rows_out += matched;
        morsel_ns.push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        partial_bytes += map_bytes(partial.len(), num_aggs);
        match decision {
            PruneDecision::SkipAll => {
                blocks_skipped += blocks;
                rows_pruned += morsel_rows;
            }
            PruneDecision::TakeAll => blocks_taken += blocks,
            PruneDecision::Scan => blocks_scanned += blocks,
        }
        merge_group_maps(&mut groups, partial);
    }
    drop(merge_span);
    if prune_plan.is_some() {
        // Register all three outcomes (even at zero) so one pruned query
        // makes the full metric family greppable in exports.
        for (outcome, count) in [
            ("skip", blocks_skipped),
            ("take", blocks_taken),
            ("scan", blocks_scanned),
        ] {
            aqp_obs::counter("aqp_prune_blocks_total", &[("outcome", outcome)]).inc_by(count);
        }
    }
    // Logical memory: all per-morsel partial maps coexist before the fold,
    // plus the merged table they fold into (see aqp_obs::mem).
    let merged_bytes = map_bytes(groups.len(), num_aggs);
    let _mem = aqp_obs::mem::reserve(partial_bytes + merged_bytes);
    aqp_obs::profile::record_scan(aqp_obs::ScanStats {
        rows_in: n as u64,
        rows_out,
        claims: schedule.claims,
        morsel_ns,
        mem_peak_bytes: partial_bytes + merged_bytes,
        mem_current_bytes: merged_bytes,
        kernel: kernel.to_string(),
        blocks_skipped,
        blocks_taken,
        blocks_scanned,
        rows_pruned,
    });
    let _finalize_span = aqp_obs::span("query.finalize");

    // Aggregation without GROUP BY always yields exactly one row.
    if query.group_by.is_empty() && groups.is_empty() {
        groups.insert(
            GroupKey::Fast {
                codes: [0; MAX_FAST_KEY],
                nulls: 0,
                len: 0,
            },
            vec![AggState::new(); num_aggs],
        );
    }

    // Decode keys.
    let mut out_groups = Vec::with_capacity(groups.len());
    for (key, aggs) in groups {
        let key_values = decode_key(&key, &group_cols);
        out_groups.push(GroupResult {
            key: key_values,
            aggs,
        });
    }

    Ok(QueryOutput {
        group_names: query.group_by.clone(),
        agg_aliases: query.aggregates.iter().map(|a| a.alias.clone()).collect(),
        groups: out_groups,
        rows_scanned: n,
        truncated,
    })
}

/// Logical working-set estimate for a group map: per-entry key + state
/// vector + hash-table slot overhead. An estimator for the profiler and
/// the `aqp_obs::mem` ledger, not allocator truth (`unsafe` is denied, so
/// there is no global-allocator hook to measure real allocations).
fn map_bytes(entries: usize, num_aggs: usize) -> u64 {
    let per_entry = std::mem::size_of::<GroupKey>()
        + std::mem::size_of::<Vec<AggState>>()
        + num_aggs * std::mem::size_of::<AggState>()
        + 16;
    (entries * per_entry) as u64
}

fn decode_key(key: &GroupKey, group_cols: &[ResolvedColumn<'_>]) -> Vec<Value> {
    match key {
        GroupKey::Fast { codes, nulls, len } => (0..*len as usize)
            .map(|i| group_cols[i].decode_key(codes[i], nulls & (1 << i) != 0))
            .collect(),
        GroupKey::Slow(parts) => parts
            .iter()
            .enumerate()
            .map(|(i, (code, null))| group_cols[i].decode_key(*code, *null))
            .collect(),
    }
}

/// One aggregate's pre-resolved scan plan: what each surviving row feeds
/// into [`AggState::update`], with the function match and the
/// input-column `Option` unwrap done once at plan time rather than per
/// row (SUM/AVG/MIN/MAX all accumulate the same state; they differ only
/// in finalisation).
pub(crate) enum AggStep<'a> {
    /// COUNT(*): every surviving row contributes x = 1.
    CountStar,
    /// A column aggregate: the row's numeric value, nulls skipped.
    Column(ResolvedColumn<'a>),
}

/// Everything a scan partition needs, shareable across threads.
pub(crate) struct Scan<'a, 'b> {
    /// Resolved GROUP BY columns, in query order.
    pub(crate) group_cols: &'b [ResolvedColumn<'a>],
    /// Pre-resolved aggregate plans, in query order.
    pub(crate) aggs: &'b [AggStep<'a>],
    /// Compiled predicate, if the query has one.
    pub(crate) predicate: Option<&'b CompiledExpr<'a>>,
    /// Bitmask column + exclusion mask for the double-counting filter.
    pub(crate) bitmask: Option<(&'a aqp_storage::BitmaskColumn, &'b BitSet)>,
    /// Row weighting.
    pub(crate) weight: Weighting<'b>,
    /// Dense group-id plan; `Some` only when the vectorised path runs and
    /// every group column is dictionary/bool-coded (see [`DensePlan`]).
    pub(crate) dense: Option<DensePlan>,
}

impl Scan<'_, '_> {
    /// Scan `start..end` row at a time, accumulating into `groups`.
    /// Returns the number of rows that survived the bitmask and predicate
    /// filters (the operator's rows-out, for the profiler). With
    /// `use_predicate` false — a zone-map `TakeAll` morsel, every row
    /// proven to match — the per-row predicate test is skipped; the
    /// bitmask filter still applies.
    ///
    /// This is the scalar **reference implementation**: the vectorised
    /// kernels in [`crate::kernel`] must replicate its behaviour bit for
    /// bit, and the differential suites compare the two on every commit.
    pub(crate) fn run_range(
        &self,
        start: usize,
        end: usize,
        num_aggs: usize,
        groups: &mut GroupMap,
        use_predicate: bool,
    ) -> u64 {
        let fast = self.group_cols.len() <= MAX_FAST_KEY;
        let mut matched = 0u64;
        for row in start..end {
            if let Some((col, mask)) = self.bitmask {
                if col.row_intersects(row, mask) {
                    continue;
                }
            }
            if use_predicate {
                if let Some(p) = self.predicate {
                    if !p.eval(row) {
                        continue;
                    }
                }
            }
            matched += 1;
            let key = if fast {
                let mut codes = [0u64; MAX_FAST_KEY];
                let mut nulls = 0u8;
                for (i, col) in self.group_cols.iter().enumerate() {
                    let (code, is_null) = col.key_code(row);
                    codes[i] = code;
                    if is_null {
                        nulls |= 1 << i;
                    }
                }
                GroupKey::Fast {
                    codes,
                    nulls,
                    len: self.group_cols.len() as u8,
                }
            } else {
                GroupKey::Slow(self.group_cols.iter().map(|c| c.key_code(row)).collect())
            };

            let w = self.weight.weight(row);
            let states = groups
                .entry(key)
                .or_insert_with(|| vec![AggState::new(); num_aggs]);
            for (i, step) in self.aggs.iter().enumerate() {
                match step {
                    AggStep::CountStar => states[i].update(1.0, w),
                    AggStep::Column(col) => {
                        if let Some(x) = col.numeric(row) {
                            states[i].update(x, w);
                        }
                    }
                }
            }
        }
        matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::plan::AggExpr;
    use aqp_storage::{DataType, SchemaBuilder, Table};
    use std::sync::Arc;

    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .field("t.cat", DataType::Utf8)
            .field("t.sub", DataType::Int64)
            .field("t.val", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        let rows: Vec<(&str, i64, f64)> = vec![
            ("a", 1, 10.0),
            ("a", 1, 20.0),
            ("a", 2, 30.0),
            ("b", 1, 40.0),
            ("b", 2, 50.0),
            ("b", 2, 60.0),
            ("c", 3, 70.0),
        ];
        for (c, s, v) in rows {
            t.push_row(&[c.into(), s.into(), v.into()]).unwrap();
        }
        t
    }

    fn count_query(group: &[&str]) -> Query {
        let mut b = Query::builder().count();
        for g in group {
            b = b.group_by(*g);
        }
        b.build().unwrap()
    }

    fn run(t: &Table, q: &Query) -> QueryOutput {
        execute(&DataSource::Wide(t), q, &ExecOptions::default()).unwrap()
    }

    #[test]
    fn ungrouped_count() {
        let t = table();
        let out = run(&t, &count_query(&[]));
        assert_eq!(out.num_groups(), 1);
        assert_eq!(out.groups[0].aggs[0].rows, 7);
        assert_eq!(out.groups[0].aggs[0].sum_w, 7.0);
    }

    #[test]
    fn grouped_count() {
        let t = table();
        let mut out = run(&t, &count_query(&["t.cat"]));
        out.sort_by_key();
        assert_eq!(out.num_groups(), 3);
        let counts: Vec<u64> = out.groups.iter().map(|g| g.aggs[0].rows).collect();
        assert_eq!(counts, vec![3, 3, 1]);
        assert_eq!(out.groups[0].key, vec![Value::Utf8("a".into())]);
    }

    #[test]
    fn multi_column_group_sum() {
        let t = table();
        let q = Query::builder()
            .count()
            .sum("t.val")
            .group_by("t.cat")
            .group_by("t.sub")
            .build()
            .unwrap();
        let mut out = run(&t, &q);
        out.sort_by_key();
        assert_eq!(out.num_groups(), 5);
        // (a,1): count 2, sum 30.
        let g = out
            .group(&[Value::Utf8("a".into()), Value::Int64(1)])
            .unwrap();
        assert_eq!(g.aggs[0].rows, 2);
        assert_eq!(g.aggs[1].sum_wx, 30.0);
        assert_eq!(g.aggs[1].min, 10.0);
        assert_eq!(g.aggs[1].max, 20.0);
    }

    #[test]
    fn predicate_filters() {
        let t = table();
        let q = Query::builder()
            .count()
            .group_by("t.cat")
            .filter(Expr::in_set("t.sub", vec![2i64.into()]))
            .build()
            .unwrap();
        let mut out = run(&t, &q);
        out.sort_by_key();
        assert_eq!(out.num_groups(), 2);
        assert_eq!(out.group(&[Value::Utf8("a".into())]).unwrap().aggs[0].rows, 1);
        assert_eq!(out.group(&[Value::Utf8("b".into())]).unwrap().aggs[0].rows, 2);
    }

    #[test]
    fn dict_in_set_predicate() {
        let t = table();
        let q = Query::builder()
            .count()
            .filter(Expr::in_set("t.cat", vec!["a".into(), "zz".into()]))
            .build()
            .unwrap();
        let out = run(&t, &q);
        assert_eq!(out.groups[0].aggs[0].rows, 3, "zz not in dictionary, a matches 3");
    }

    #[test]
    fn float_and_int_comparisons() {
        let t = table();
        let q = Query::builder()
            .count()
            .filter(Expr::And(vec![
                Expr::cmp("t.val", CmpOp::Ge, 30.0f64),
                Expr::cmp("t.sub", CmpOp::Lt, 3i64),
            ]))
            .build()
            .unwrap();
        assert_eq!(run(&t, &q).groups[0].aggs[0].rows, 4);
        // Int literal against float column coerces.
        let q = Query::builder()
            .count()
            .filter(Expr::cmp("t.val", CmpOp::Gt, 60i64))
            .build()
            .unwrap();
        assert_eq!(run(&t, &q).groups[0].aggs[0].rows, 1);
    }

    #[test]
    fn or_and_not() {
        let t = table();
        let q = Query::builder()
            .count()
            .filter(Expr::Or(vec![
                Expr::eq("t.cat", "c"),
                Expr::Not(Box::new(Expr::cmp("t.sub", CmpOp::Le, 2i64))),
            ]))
            .build()
            .unwrap();
        assert_eq!(run(&t, &q).groups[0].aggs[0].rows, 1, "both branches match row 6 only");
    }

    #[test]
    fn constant_weight_scales() {
        let t = table();
        let q = count_query(&["t.cat"]);
        let opts = ExecOptions {
            weight: Weighting::Constant(10.0),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        let g = out.group(&[Value::Utf8("a".into())]).unwrap();
        assert_eq!(g.aggs[0].rows, 3);
        assert_eq!(g.aggs[0].sum_w, 30.0);
        assert!(g.aggs[0].var_acc > 0.0);
    }

    #[test]
    fn per_row_weights() {
        let t = table();
        let weights = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let q = count_query(&[]);
        let opts = ExecOptions {
            weight: Weighting::PerRow(&weights),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        assert_eq!(out.groups[0].aggs[0].sum_w, 28.0);
        // Wrong-length weights rejected.
        let bad = vec![1.0];
        let opts = ExecOptions {
            weight: Weighting::PerRow(&bad),
            ..ExecOptions::default()
        };
        assert!(execute(&DataSource::Wide(&t), &q, &opts).is_err());
    }

    #[test]
    fn bitmask_exclusion() {
        let src = table();
        let mut t = Table::empty("s", Arc::clone(src.schema()));
        t.enable_bitmask(2);
        t.push_row_from_with_mask(&src, 0, &BitSet::from_bits(2, [0])).unwrap();
        t.push_row_from_with_mask(&src, 1, &BitSet::from_bits(2, [1])).unwrap();
        t.push_row_from_with_mask(&src, 2, &BitSet::with_capacity(2)).unwrap();

        let q = count_query(&[]);
        let mask = BitSet::from_bits(2, [0]);
        let opts = ExecOptions {
            bitmask_exclude: Some(&mask),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        assert_eq!(out.groups[0].aggs[0].rows, 2, "row with bit 0 skipped");

        // Requesting a bitmask filter on a mask-less table is an error.
        assert!(execute(&DataSource::Wide(&src), &q, &opts).is_err());
    }

    #[test]
    fn unknown_column_and_bad_aggregates() {
        let t = table();
        let q = count_query(&["t.zzz"]);
        assert!(matches!(
            execute(&DataSource::Wide(&t), &q, &ExecOptions::default()),
            Err(QueryError::UnknownColumn { .. })
        ));
        let q = Query::builder().sum("t.cat").build().unwrap();
        assert!(matches!(
            execute(&DataSource::Wide(&t), &q, &ExecOptions::default()),
            Err(QueryError::InvalidAggregate { .. })
        ));
    }

    #[test]
    fn min_max_avg() {
        let t = table();
        let q = Query::builder()
            .aggregate(AggExpr::min("t.val", "mn"))
            .aggregate(AggExpr::max("t.val", "mx"))
            .aggregate(AggExpr::avg("t.val", "av"))
            .build()
            .unwrap();
        let out = run(&t, &q);
        let aggs = &out.groups[0].aggs;
        assert_eq!(aggs[0].min, 10.0);
        assert_eq!(aggs[1].max, 70.0);
        // AVG consumers divide sum_wx by sum_w.
        assert!((aggs[2].sum_wx / aggs[2].sum_w - 40.0).abs() < 1e-9);
    }

    #[test]
    fn nulls_excluded_from_aggregates_and_predicates() {
        let schema = SchemaBuilder::new()
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        t.push_row(&[1.0f64.into()]).unwrap();
        t.push_row(&[Value::Null]).unwrap();
        t.push_row(&[3.0f64.into()]).unwrap();

        let q = Query::builder().count().sum("x").build().unwrap();
        let out = run(&t, &q);
        assert_eq!(out.groups[0].aggs[0].rows, 3, "COUNT(*) counts all rows");
        assert_eq!(out.groups[0].aggs[1].rows, 2, "SUM skips nulls");
        assert_eq!(out.groups[0].aggs[1].sum_wx, 4.0);

        let q = Query::builder()
            .count()
            .filter(Expr::cmp("x", CmpOp::Ge, 0.0f64))
            .build()
            .unwrap();
        assert_eq!(run(&t, &q).groups[0].aggs[0].rows, 2, "null fails predicate");
    }

    #[test]
    fn null_group_keys() {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        t.push_row(&[Value::Null]).unwrap();
        t.push_row(&["x".into()]).unwrap();
        t.push_row(&[Value::Null]).unwrap();
        let out = run(&t, &count_query(&["g"]));
        assert_eq!(out.num_groups(), 2);
        let null_group = out.group(&[Value::Null]).unwrap();
        assert_eq!(null_group.aggs[0].rows, 2);
    }

    #[test]
    fn empty_input_grouped_vs_ungrouped() {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Int64)
            .build()
            .unwrap();
        let t = Table::empty("t", schema);
        let out = run(&t, &count_query(&["g"]));
        assert_eq!(out.num_groups(), 0, "grouped query over empty table: no groups");
        let out = run(&t, &count_query(&[]));
        assert_eq!(out.num_groups(), 1, "ungrouped query always yields one row");
        assert_eq!(out.groups[0].aggs[0].rows, 0);
    }

    #[test]
    fn more_than_max_fast_key_columns() {
        let mut b = SchemaBuilder::new();
        for i in 0..8 {
            b = b.field(format!("c{i}"), DataType::Int64);
        }
        let schema = b.build().unwrap();
        let mut t = Table::empty("t", schema);
        for r in 0..10i64 {
            let row: Vec<Value> = (0..8).map(|c| Value::Int64(r % (c + 1))).collect();
            t.push_row(&row).unwrap();
        }
        let cols: Vec<String> = (0..8).map(|i| format!("c{i}")).collect();
        let q = Query::builder()
            .count()
            .group_by_all(cols.clone())
            .build()
            .unwrap();
        let out = run(&t, &q);
        let total: u64 = out.groups.iter().map(|g| g.aggs[0].rows).sum();
        assert_eq!(total, 10);
        assert!(out.num_groups() > 1);
    }

    #[test]
    fn parallel_bit_identical_to_serial() {
        // Spans several morsels; float values with non-trivial rounding so
        // any merge-order deviation would show up in the low bits.
        let schema = SchemaBuilder::new()
            .field("g", DataType::Int64)
            .field("v", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for i in 0..20_000i64 {
            t.push_row(&[(i % 37).into(), (0.1 + (i % 11) as f64 / 7.0).into()])
                .unwrap();
        }
        let q = Query::builder()
            .count()
            .sum("v")
            .group_by("g")
            .filter(Expr::cmp("v", CmpOp::Ge, 0.3f64))
            .build()
            .unwrap();
        let mut serial = run(&t, &q);
        serial.sort_by_key();
        for threads in [2, 4, 8] {
            let opts = ExecOptions {
                parallelism: threads,
                ..ExecOptions::default()
            };
            let mut parallel = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
            parallel.sort_by_key();
            assert_eq!(serial.num_groups(), parallel.num_groups());
            for (a, b) in serial.groups.iter().zip(&parallel.groups) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.aggs[0].rows, b.aggs[0].rows);
                assert_eq!(
                    a.aggs[1].sum_wx.to_bits(),
                    b.aggs[1].sum_wx.to_bits(),
                    "SUM must be bit-identical at {threads} threads"
                );
                assert_eq!(a.aggs[1].sum_x_sq.to_bits(), b.aggs[1].sum_x_sq.to_bits());
            }
        }
    }

    #[test]
    fn tiny_morsels_still_deterministic() {
        // Force many morsels on a small table: every morsel size must give
        // the same answer across thread counts (morsel boundaries are a
        // function of row count only).
        let t = table();
        let q = Query::builder()
            .count()
            .sum("t.val")
            .group_by("t.cat")
            .build()
            .unwrap();
        let base = {
            let opts = ExecOptions {
                morsel_rows: 2,
                ..ExecOptions::default()
            };
            let mut out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
            out.sort_by_key();
            out
        };
        for threads in [2, 4, 8] {
            let opts = ExecOptions {
                morsel_rows: 2,
                parallelism: threads,
                ..ExecOptions::default()
            };
            let mut out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
            out.sort_by_key();
            assert_eq!(base.num_groups(), out.num_groups());
            for (a, b) in base.groups.iter().zip(&out.groups) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.aggs[1].sum_wx.to_bits(), b.aggs[1].sum_wx.to_bits());
            }
        }
    }

    #[test]
    fn row_limit_truncates_scan() {
        let t = table();
        let q = count_query(&[]);
        let opts = ExecOptions {
            row_limit: Some(4),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        assert_eq!(out.groups[0].aggs[0].rows, 4);
        assert_eq!(out.rows_scanned, 4);
        assert!(out.truncated);

        // A limit at least as large as the table is a no-op.
        let opts = ExecOptions {
            row_limit: Some(100),
            ..ExecOptions::default()
        };
        let out = execute(&DataSource::Wide(&t), &q, &opts).unwrap();
        assert_eq!(out.groups[0].aggs[0].rows, 7);
        assert_eq!(out.rows_scanned, 7);
        assert!(!out.truncated);
    }

    #[test]
    fn star_source_execution() {
        use crate::join::{Dimension, StarSchema};
        // Dimension: 2 parts.
        let dschema = SchemaBuilder::new()
            .field("part.partkey", DataType::Int64)
            .field("part.brand", DataType::Utf8)
            .build()
            .unwrap();
        let mut dim = Table::empty("part", dschema);
        dim.push_row(&[1i64.into(), "X".into()]).unwrap();
        dim.push_row(&[2i64.into(), "Y".into()]).unwrap();
        // Fact: 5 rows.
        let fschema = SchemaBuilder::new()
            .field("f.partkey", DataType::Int64)
            .field("f.qty", DataType::Float64)
            .build()
            .unwrap();
        let mut fact = Table::empty("f", fschema);
        for (fk, q) in [(1i64, 10.0), (2, 20.0), (1, 30.0), (1, 40.0), (2, 50.0)] {
            fact.push_row(&[fk.into(), q.into()]).unwrap();
        }
        let star = StarSchema::new(
            fact,
            vec![Dimension::new(dim, "part.partkey", "f.partkey")],
        )
        .unwrap();

        let q = Query::builder()
            .count()
            .sum("f.qty")
            .group_by("part.brand")
            .build()
            .unwrap();
        let mut out = execute(&DataSource::Star(&star), &q, &ExecOptions::default()).unwrap();
        out.sort_by_key();
        let gx = out.group(&[Value::Utf8("X".into())]).unwrap();
        assert_eq!(gx.aggs[0].rows, 3);
        assert_eq!(gx.aggs[1].sum_wx, 80.0);

        // The same query over the denormalised view gives identical results.
        let wide = star.denormalize("wide").unwrap();
        let mut out2 = execute(&DataSource::Wide(&wide), &q, &ExecOptions::default()).unwrap();
        out2.sort_by_key();
        assert_eq!(out.num_groups(), out2.num_groups());
        for (a, b) in out.groups.iter().zip(&out2.groups) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.aggs[1].sum_wx, b.aggs[1].sum_wx);
        }

        // Predicates on dimension columns work against the star.
        let q = Query::builder()
            .count()
            .filter(Expr::eq("part.brand", "Y"))
            .build()
            .unwrap();
        let out = execute(&DataSource::Star(&star), &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.groups[0].aggs[0].rows, 2);
    }

    #[test]
    fn scalar_and_vectorized_bit_identical() {
        // Dense path (dict group-by), hash path (int group-by), and an
        // ungrouped query, each with a predicate + nulls in play, must be
        // byte-identical between the two implementations — including the
        // (unspecified) group output order, which the deterministic hasher
        // makes a pure function of the data.
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("k", DataType::Int64)
            .field("v", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for i in 0..10_000i64 {
            let g: Value = if i % 13 == 0 {
                Value::Null
            } else {
                ["p", "q", "r", "s"][(i % 4) as usize].into()
            };
            let v: Value = if i % 7 == 0 {
                Value::Null
            } else {
                (0.1 + (i % 23) as f64 / 9.0).into()
            };
            t.push_row(&[g, (i % 331).into(), v]).unwrap();
        }
        for group in [vec!["g"], vec!["k"], vec![]] {
            let mut b = Query::builder()
                .count()
                .sum("v")
                .aggregate(AggExpr::min("v", "mn"))
                .filter(Expr::cmp("v", CmpOp::Ge, 0.4f64));
            for g in &group {
                b = b.group_by(*g);
            }
            let q = b.build().unwrap();
            let outs: Vec<QueryOutput> = [KernelMode::Scalar, KernelMode::Vectorized]
                .iter()
                .map(|&mode| {
                    let opts = ExecOptions {
                        kernels: mode,
                        parallelism: 4,
                        ..ExecOptions::default()
                    };
                    execute(&DataSource::Wide(&t), &q, &opts).unwrap()
                })
                .collect();
            let (s, v) = (&outs[0], &outs[1]);
            assert_eq!(s.num_groups(), v.num_groups(), "group {group:?}");
            for (a, b) in s.groups.iter().zip(&v.groups) {
                assert_eq!(a.key, b.key, "same groups in the same order");
                assert_eq!(a.aggs[0].rows, b.aggs[0].rows);
                assert_eq!(a.aggs[1].sum_wx.to_bits(), b.aggs[1].sum_wx.to_bits());
                assert_eq!(a.aggs[2].min.to_bits(), b.aggs[2].min.to_bits());
            }
        }
    }
}
