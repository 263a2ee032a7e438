//! # aqp-query
//!
//! The relational executor substrate for the dynamic-sample-selection AQP
//! system. It executes the paper's query class — select–project–(foreign-key
//! join)–group-by–aggregate over a single fact table or a star schema
//! (Section 4: "queries against a single fact table without any joins or ...
//! over a 'star schema' where a fact table is joined to a number of
//! dimension tables using foreign-key joins") — and nothing more general,
//! because sampling-based AQP is provably hopeless for arbitrary joins
//! (\[3, 12\]).
//!
//! Pieces:
//!
//! * [`Expr`] / [`CmpOp`] — predicate expressions with typed fast paths
//!   (IN-lists over dictionary codes, range scans over numeric slices);
//! * [`Query`] — aggregation queries with group-bys ([`AggFunc`]:
//!   COUNT/SUM/AVG/MIN/MAX);
//! * [`StarSchema`] — a fact table plus dimensions with precomputed
//!   fact-row → dimension-row join maps, and join-synopsis
//!   denormalisation (after \[3\]);
//! * [`execute`] — the hash group-by executor. It accepts per-row
//!   [`Weighting`]s (inverse sampling rates) and an optional bitmask
//!   exclusion filter, which is exactly the shape of the rewritten sample
//!   queries of paper Section 4.2.2 (`WHERE bitmask & M = 0`, aggregates
//!   scaled by the inverse sampling rate). Each scan morsel runs either a
//!   scalar reference loop or the vectorised kernels (selection vectors,
//!   typed columnar filters, dense group ids), chosen per call by
//!   [`ExecOptions::kernels`] (default vectorised); the two are
//!   bit-identical by contract;
//! * [`QueryOutput`] / [`AggState`] — per-group raw tallies (weighted and
//!   unweighted sums, sums of squares) from which the AQP layer forms
//!   estimates and confidence intervals.
//!
//! Everything order-sensitive (group maps, their merge fold) hashes with
//! the deterministic, seedless [`hash::FxHasher`], so whole query outputs
//! — group order included — are reproducible across runs, thread counts,
//! and kernel modes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cancel;
pub mod error;
pub mod exec;
pub mod expr;
pub mod hash;
mod kernel;
pub mod join;
pub mod output;
pub mod parallel;
pub mod plan;
mod prune;
mod selection;
pub mod source;

pub use cancel::{CancelCause, CancelToken};
pub use error::{QueryError, QueryResult};
pub use exec::{execute, ExecOptions, KernelMode, PruneMode, Weighting};
pub use expr::{CmpOp, Expr};
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use join::{Dimension, StarSchema};
pub use output::{AggState, GroupResult, QueryOutput};
pub use parallel::{
    merge_group_maps, run_morsels, run_morsels_cancellable, run_morsels_traced, MorselSchedule,
};
pub use plan::{AggExpr, AggFunc, Query};
pub use source::DataSource;
