//! On-demand stack-trace capture (the py-spy / flight-recorder stand-in).
//!
//! The tracer does nothing until the controller requests an aggregation
//! analysis; it then samples the stacks of every training-related process and
//! ships them to the Runtime Analyzer. Capturing is not free — py-spy attaches
//! to every process on every pod — so the capture latency is tracked and
//! charged to the incident's localization time.

use byterobust_sim::SimDuration;
use byterobust_trainsim::{StackTrace, TrainingRuntime};

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
    /// Returns the stacks and the time the capture took.
    pub fn capture(&mut self, runtime: &TrainingRuntime) -> (Vec<StackTrace>, SimDuration) {
        self.captures_taken += 1;
        (runtime.capture_stacks(), self.capture_latency)
    }

    /// Captures repeatedly for fail-slow analysis: `rounds` captures spaced
    /// `interval` apart. Returns the captures and the total elapsed time.
    pub fn capture_rounds(
        &mut self,
        runtime: &TrainingRuntime,
        rounds: usize,
        interval: SimDuration,
    ) -> (Vec<Vec<StackTrace>>, SimDuration) {
        let mut captures = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            captures.push(runtime.capture_stacks());
        }
        self.captures_taken += rounds as u64;
        let elapsed = self.capture_latency + interval.mul(rounds as u64);
        (captures, elapsed)
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
        let (stacks, latency) = tracer.capture(&runtime);
        assert!(!stacks.is_empty());
        assert_eq!(latency, SimDuration::from_secs(25));
        assert_eq!(tracer.captures_taken, 1);
    }

    #[test]
    fn capture_rounds_accumulates_time() {
        let runtime = TrainingRuntime::new(JobSpec::small_test());
        let mut tracer = OnDemandTracer::new();
        let (captures, elapsed) = tracer.capture_rounds(&runtime, 5, SimDuration::from_secs(10));
        assert_eq!(captures.len(), 5);
        assert_eq!(elapsed, SimDuration::from_secs(25 + 50));
        assert_eq!(tracer.captures_taken, 5);
    }
}
