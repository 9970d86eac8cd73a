//! Runtime Analyzer: data-driven over-eviction from stack-trace aggregation
//! (§5 of the paper).
//!
//! When the monitor detects an implicit failure — a job hang or an MFU
//! decline — there is no log line or exit code pointing at a machine. The
//! analyzer instead asks the on-demand tracer for the stack traces of every
//! training-related process, clusters them by string matching, treats the
//! dominant clusters as healthy, maps the outlier ranks to machines, finds the
//! parallel group those outliers share, and evicts that whole group rather
//! than chasing the exact root cause.
//!
//! The three steps of Fig. 7 map onto the modules here:
//!
//! 1. [`process_tree`] — parse the per-pod process tree to identify
//!    training-related processes,
//! 2. [`aggregation`] — aggregate stack traces into groups by fingerprint and
//!    split them into dominant (healthy) and outlier groups,
//! 3. [`eviction`] — find the outliers' shared parallel group and produce the
//!    over-eviction decision.
//!
//! [`failslow`] adds the repeated-round vote used for MFU-decline incidents,
//! and [`RuntimeAnalyzer`] ties everything together.

pub mod aggregation;
pub mod analyzer;
pub mod eviction;
pub mod failslow;
pub mod process_tree;

pub use aggregation::{AggregationResult, StackCluster};
pub use analyzer::RuntimeAnalyzer;
pub use eviction::EvictionDecision;
pub use failslow::FailSlowVoter;
pub use process_tree::ProcessTree;

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::aggregation::{AggregationResult, StackCluster};
    pub use crate::analyzer::RuntimeAnalyzer;
    pub use crate::eviction::EvictionDecision;
    pub use crate::failslow::FailSlowVoter;
    pub use crate::process_tree::ProcessTree;
}
