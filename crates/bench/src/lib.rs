//! Benchmark harness shared library.
//!
//! Every table and figure of the paper's evaluation (§2 and §8) has a
//! corresponding function in [`experiments`] that runs the relevant workload
//! on the simulator and renders the same rows/series the paper reports. The
//! `reproduce` binary (`cargo run --release -p byterobust-bench --bin
//! reproduce`) is the one entry point that runs them: it prints every table,
//! times each section, and writes the `BENCH_*.json` perf records.

pub mod experiments;
pub mod perf;
pub mod table;

pub use perf::{FleetBenchStats, MegaBenchStats, PerfRecorder};
pub use table::Table;

/// Whether the harness should run scaled-down experiments (set the
/// `BYTEROBUST_FAST=1` environment variable). Full-scale runs simulate the
/// paper's three-month 9,600-GPU deployments; fast mode shortens the
/// simulated duration (not the cluster size) so CI finishes quickly.
pub fn fast_mode() -> bool {
    std::env::var("BYTEROBUST_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Whether the harness fans independent seeded simulations out over
/// `std::thread::scope` threads. Output is byte-identical either way (pinned
/// by the determinism tests); only the wall clock changes.
///
/// Resolution order: `BYTEROBUST_SERIAL=1` forces single-threaded (the
/// determinism reference and a profiling convenience), `BYTEROBUST_PARALLEL=1`
/// forces threads, and otherwise threads are used exactly when the host
/// exposes more than one CPU — on a single-core host the fan-out only adds
/// scheduling overhead.
pub fn parallel_harness() -> bool {
    let flag = |name: &str| std::env::var(name).map(|v| v == "1").unwrap_or(false);
    if flag("BYTEROBUST_SERIAL") {
        return false;
    }
    if flag("BYTEROBUST_PARALLEL") {
        return true;
    }
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}
