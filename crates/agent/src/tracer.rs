//! On-demand stack-trace capture (the py-spy / flight-recorder stand-in).
//!
//! The tracer does nothing until the controller requests an aggregation
//! analysis; it then samples the stacks of every training-related process and
//! ships them to the Runtime Analyzer as one [`StackCapture`]: ranks grouped
//! by stack template, with no per-rank stack materialized. Capturing is not
//! free — py-spy attaches to every process on every pod — so the capture
//! latency is tracked and charged to the incident's localization time.

use byterobust_sim::SimDuration;
use byterobust_trainsim::{StackCapture, TrainingRuntime};

/// The on-demand tracer sub-module of the Robust Agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnDemandTracer {
    /// Time to attach to all processes and sample their stacks across the job.
    pub capture_latency: SimDuration,
    /// Number of captures performed so far (observability).
    pub captures_taken: u64,
}

impl Default for OnDemandTracer {
    fn default() -> Self {
        OnDemandTracer {
            capture_latency: SimDuration::from_secs(25),
            captures_taken: 0,
        }
    }
}

impl OnDemandTracer {
    /// Creates a tracer with the default capture latency.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures the stacks of every training-related process in the job.
    /// Returns the capture and the time it took.
    pub fn capture(&mut self, runtime: &TrainingRuntime) -> (StackCapture, SimDuration) {
        self.captures_taken += 1;
        (runtime.capture(), self.capture_latency)
    }

    /// Captures repeatedly for fail-slow analysis: `rounds` captures spaced
    /// `interval` apart. The runtime does not change between rounds, so every
    /// round would capture the same stacks: one capture is taken and stands
    /// for all of them, while `captures_taken` and the elapsed time still
    /// count every round.
    pub fn capture_rounds(
        &mut self,
        runtime: &TrainingRuntime,
        rounds: usize,
        interval: SimDuration,
    ) -> (StackCapture, SimDuration) {
        self.captures_taken += rounds as u64;
        let elapsed = self.capture_latency + interval.mul(rounds as u64);
        (runtime.capture(), elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_trainsim::JobSpec;

    #[test]
    fn capture_returns_all_stacks_and_counts() {
        let runtime = TrainingRuntime::new(JobSpec::small_test());
        let mut tracer = OnDemandTracer::new();
        let (capture, latency) = tracer.capture(&runtime);
        assert!(!capture.groups.is_empty());
        assert_eq!(latency, SimDuration::from_secs(25));
        assert_eq!(tracer.captures_taken, 1);
    }

    #[test]
    fn capture_rounds_accumulates_time() {
        let runtime = TrainingRuntime::new(JobSpec::small_test());
        let mut tracer = OnDemandTracer::new();
        let (capture, elapsed) = tracer.capture_rounds(&runtime, 5, SimDuration::from_secs(10));
        assert_eq!(capture, runtime.capture());
        assert_eq!(elapsed, SimDuration::from_secs(25 + 50));
        assert_eq!(tracer.captures_taken, 5);
    }
}
