//! The Runtime Analyzer facade.
//!
//! Ties the three aggregation steps together and exposes the two entry points
//! the Robust Controller uses:
//!
//! * [`RuntimeAnalyzer::analyze_hang`] — one-shot analysis for job hangs and
//!   NCCL-timeout style incidents,
//! * [`RuntimeAnalyzer::analyze_fail_slow`] — repeated-round analysis for MFU
//!   decline incidents.
//!
//! Both return an [`EvictionDecision`] plus the time the analysis took, which
//! the controller charges against the incident's unproductive time.

use byterobust_parallelism::ParallelTopology;
use byterobust_sim::SimDuration;
use byterobust_trainsim::StackCapture;

use crate::aggregation::AggregationResult;
use crate::eviction::EvictionDecision;
use crate::failslow::FailSlowVoter;

/// Analyzer tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// Dominance ratio for outlier classification.
    pub dominance_ratio: f64,
    /// Time to capture stacks from every pod and ship them to the analyzer
    /// (py-spy sampling plus upload; tens of seconds in production).
    pub capture_latency: SimDuration,
    /// Time to run the aggregation itself.
    pub aggregation_latency: SimDuration,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            dominance_ratio: AggregationResult::DEFAULT_DOMINANCE_RATIO,
            capture_latency: SimDuration::from_secs(30),
            aggregation_latency: SimDuration::from_secs(5),
        }
    }
}

/// Result of one analyzer invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisOutcome {
    /// The aggregation clusters (for observability / the event log).
    pub aggregation: AggregationResult,
    /// The recommended eviction.
    pub decision: EvictionDecision,
    /// How long the analysis took (charged as unproductive localization time).
    pub duration: SimDuration,
}

/// The Runtime Analyzer (control-plane component, §3).
#[derive(Debug, Clone, Default)]
pub struct RuntimeAnalyzer {
    /// Configuration.
    pub config: AnalyzerConfig,
}

impl RuntimeAnalyzer {
    /// Creates an analyzer with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// One-shot hang analysis: aggregate one stack capture and over-evict the
    /// shared parallel group of the outliers.
    pub fn analyze_hang(
        &self,
        topology: &ParallelTopology,
        capture: StackCapture,
    ) -> AnalysisOutcome {
        let aggregation =
            AggregationResult::from_capture_with_ratio(capture, self.config.dominance_ratio);
        let decision = EvictionDecision::from_outliers(topology, &aggregation.outlier_ranks());
        AnalysisOutcome {
            aggregation,
            decision,
            duration: self.config.capture_latency + self.config.aggregation_latency,
        }
    }

    /// Repeated-round fail-slow analysis: `rounds` aggregation rounds taken
    /// 10 s apart of a runtime that does not change between them, so one
    /// capture stands for every round and is aggregated once; the voter
    /// still records each round. The verdict is the group with the most
    /// cumulative flags.
    pub fn analyze_fail_slow(
        &self,
        topology: &ParallelTopology,
        capture: StackCapture,
        rounds: usize,
    ) -> AnalysisOutcome {
        let aggregation =
            AggregationResult::from_capture_with_ratio(capture, self.config.dominance_ratio);
        let outliers = aggregation.outlier_ranks();
        let mut voter = FailSlowVoter::new();
        for _ in 0..rounds {
            voter.record_round(topology, &outliers);
        }
        let decision = voter.verdict(topology);
        let duration = self.config.capture_latency
            + voter.round_interval.mul(rounds as u64)
            + self.config.aggregation_latency;
        AnalysisOutcome {
            aggregation,
            decision,
            duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::MachineId;
    use byterobust_trainsim::{JobSpec, TrainingRuntime};

    #[test]
    fn hang_analysis_isolates_victim_within_a_group() {
        let mut rt = TrainingRuntime::new(JobSpec::small_test());
        let victim = MachineId(7);
        rt.inject_hang(vec![victim]);
        let analyzer = RuntimeAnalyzer::new();
        let outcome = analyzer.analyze_hang(rt.topology(), rt.capture());
        assert!(!outcome.decision.is_empty());
        assert!(
            outcome.decision.machines.contains(&victim),
            "victim must be in the eviction set"
        );
        assert!(outcome.duration >= SimDuration::from_secs(30));
        // Over-eviction stays bounded: far fewer machines than the job.
        assert!(outcome.decision.machines.len() <= rt.job().machines() / 2);
    }

    #[test]
    fn healthy_capture_evicts_nothing() {
        let rt = TrainingRuntime::new(JobSpec::small_test());
        let analyzer = RuntimeAnalyzer::new();
        let outcome = analyzer.analyze_hang(rt.topology(), rt.capture());
        assert!(outcome.decision.is_empty());
    }

    #[test]
    fn fail_slow_analysis_finds_persistent_degrader() {
        let mut rt = TrainingRuntime::new(JobSpec::small_test());
        let victim = MachineId(2);
        rt.inject_fail_slow(vec![victim], 3.0);
        let analyzer = RuntimeAnalyzer::new();
        let outcome = analyzer.analyze_fail_slow(rt.topology(), rt.capture(), 5);
        assert!(outcome.decision.machines.contains(&victim));
        // 5 rounds at 10s plus capture and aggregation latency.
        assert!(outcome.duration >= SimDuration::from_secs(50));
    }

    #[test]
    fn fail_slow_with_no_rounds_evicts_nothing() {
        let mut rt = TrainingRuntime::new(JobSpec::small_test());
        rt.inject_fail_slow(vec![MachineId(2)], 3.0);
        let analyzer = RuntimeAnalyzer::new();
        let outcome = analyzer.analyze_fail_slow(rt.topology(), rt.capture(), 0);
        assert!(outcome.decision.is_empty());
    }
}
