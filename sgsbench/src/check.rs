//! Output checks and accuracy against the `execute` oracle.

use aqp_core::ApproxAnswer;
use aqp_query::{DataSource, Query};
use aqp_serving::WireAnswer;
use aqp_storage::{Table, Value};
use aqp_workload::harness::{approx_map, exact_answer_threaded};
use aqp_workload::metrics::metric_report;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// A fingerprint of everything an answer says on the wire except the
/// per-request fields (trace id, timing, cache flag). Two answers with
/// equal fingerprints agree at wire precision: floats are hashed by bits,
/// after the same mapping of non-finite values the JSON codec applies
/// (`null`, decoded as 0 for an estimate and NaN for a bound).
pub fn fingerprint(a: &WireAnswer) -> u64 {
    let mut h = DefaultHasher::new();
    a.tier.hash(&mut h);
    a.partial.hash(&mut h);
    a.deadline_limited.hash(&mut h);
    a.rows_scanned.hash(&mut h);
    a.group_names.hash(&mut h);
    a.agg_aliases.hash(&mut h);
    a.groups.len().hash(&mut h);
    for g in &a.groups {
        for k in &g.key {
            k.to_json().hash(&mut h);
        }
        for v in &g.values {
            let est = if v.estimate.is_finite() {
                v.estimate
            } else {
                0.0
            };
            est.to_bits().hash(&mut h);
            for bound in [v.lo, v.hi] {
                (if bound.is_finite() {
                    bound.to_bits()
                } else {
                    u64::MAX
                })
                .hash(&mut h);
            }
            v.exact.hash(&mut h);
        }
    }
    h.finish()
}

/// True values of one query, per aggregate, keyed by group.
#[derive(Debug, Clone)]
pub struct Truth {
    per_agg: Vec<HashMap<Vec<Value>, f64>>,
    /// Wall time of the oracle's `execute`, milliseconds.
    pub execute_ms: f64,
    /// Rows the oracle scanned.
    pub rows: usize,
}

/// Run the oracle: `aqp_query::execute` over the whole view.
pub fn oracle(view: &Table, query: &Query, threads: usize) -> Result<Truth, String> {
    let exact = exact_answer_threaded(&DataSource::Wide(view), query, threads)
        .map_err(|e| format!("oracle: {e}"))?;
    Ok(Truth {
        per_agg: exact.per_agg,
        execute_ms: exact.elapsed.as_secs_f64() * 1e3,
        rows: exact.view_rows,
    })
}

/// How one answer compares with the truth.
#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    /// The paper's RelErr (missed groups count as 100% error), averaged
    /// over the query's aggregates.
    pub rel_err: f64,
    /// The paper's PctGroups: percentage of true groups missing.
    pub pct_groups_missed: f64,
    /// Answer cells (group × aggregate) compared.
    pub cells: usize,
    /// Cells whose interval covers the true value.
    pub covered: usize,
    /// Sum of relative half-widths over cells with a non-zero estimate.
    pub halfwidth_rel_sum: f64,
    /// Cells counted in `halfwidth_rel_sum`.
    pub halfwidth_cells: usize,
    /// Groups whose every value is flagged exact.
    pub exact_groups: usize,
    /// Groups in the answer.
    pub groups: usize,
    /// Why the answer fails a correctness check, if it does.
    pub failure: Option<String>,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Compare `answer` with `truth`. Values flagged exact must equal it, and
/// an answer may hold no group the truth lacks.
pub fn assess(answer: &ApproxAnswer, truth: &Truth) -> Accuracy {
    let mut acc = Accuracy {
        groups: answer.groups.len(),
        ..Accuracy::default()
    };
    let aggs = truth.per_agg.len().max(1);
    for (i, exact) in truth.per_agg.iter().enumerate() {
        let report = metric_report(exact, &approx_map(answer, i));
        acc.rel_err += report.rel_err / aggs as f64;
        acc.pct_groups_missed += report.pct_groups / aggs as f64;
        if report.spurious_groups > 0 {
            acc.failure = Some(format!(
                "{} groups absent from the truth",
                report.spurious_groups
            ));
        }
    }
    for g in &answer.groups {
        if g.values.iter().all(|v| v.is_exact()) {
            acc.exact_groups += 1;
        }
        for (i, v) in g.values.iter().enumerate() {
            let Some(&truth_value) = truth.per_agg.get(i).and_then(|m| m.get(&g.key)) else {
                continue;
            };
            let estimate = v.value();
            let (lo, hi) = (v.ci.lo, v.ci.hi);
            acc.cells += 1;
            let tol = 1e-9 * truth_value.abs().max(1.0);
            if lo - tol <= truth_value && truth_value <= hi + tol {
                acc.covered += 1;
            }
            if estimate != 0.0 && lo.is_finite() && hi.is_finite() {
                acc.halfwidth_rel_sum += (hi - lo) / 2.0 / estimate.abs();
                acc.halfwidth_cells += 1;
            }
            if v.is_exact() && !close(estimate, truth_value) {
                acc.failure = Some(format!(
                    "group {:?} value {estimate} is flagged exact but the truth is {truth_value}",
                    g.key
                ));
            }
        }
    }
    acc
}
