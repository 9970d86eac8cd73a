//! The analyzer's grouped capture path against its per-rank oracle.
//!
//! `TrainingRuntime::capture` groups ranks by stack template and
//! `AggregationResult::from_capture` builds the clusters from those groups;
//! the oracle materializes one `StackTrace` per process
//! (`TrainingRuntime::capture_stacks`) and groups them by the literal string
//! match of their fingerprints (`AggregationResult::aggregate`). For every
//! fault kind, on the small, Fig. 7 and both 9,600-GPU job shapes, the two
//! must agree cluster for cluster, and so must the analyzer's eviction
//! decisions built on them.

use byterobust::prelude::*;

/// The Fig. 7 example job: TP=2, PP=4, DP=4 over 16 two-GPU machines.
fn fig7_job() -> JobSpec {
    JobSpec {
        parallelism: ParallelismConfig::fig7_example(),
        ..JobSpec::small_test()
    }
}

/// One runtime per scenario: no fault, single- and multi-victim hangs with
/// victims in the first, a middle and the last pipeline stage, single- and
/// multi-victim fail-slow, NaN and crash.
fn scenarios(job: &JobSpec) -> Vec<(String, TrainingRuntime)> {
    let machines = job.machines() as u32;
    let first = MachineId(0);
    let middle = MachineId(machines / 2);
    let last = MachineId(machines - 1);
    let mut out = Vec::new();
    let mut add = |name: String, inject: &dyn Fn(&mut TrainingRuntime)| {
        let mut runtime = TrainingRuntime::new(job.clone());
        inject(&mut runtime);
        out.push((name, runtime));
    };
    add("none".to_string(), &|_| {});
    for victim in [first, middle, last] {
        add(format!("hang {victim}"), &|rt| rt.inject_hang(vec![victim]));
    }
    add("hang first+last".to_string(), &|rt| {
        rt.inject_hang(vec![first, last])
    });
    add("hang first+middle+last".to_string(), &|rt| {
        rt.inject_hang(vec![first, middle, last])
    });
    add(format!("fail-slow {middle}"), &|rt| {
        rt.inject_fail_slow(vec![middle], 3.0)
    });
    add("fail-slow first+last".to_string(), &|rt| {
        rt.inject_fail_slow(vec![first, last], 2.0)
    });
    add(format!("nan {middle}"), &|rt| rt.inject_nan(vec![middle]));
    add("crash".to_string(), &|rt| rt.inject_crash());
    out
}

/// The fail-slow verdict the analyzer reached before captures were grouped:
/// one per-rank capture aggregated per round, each round's outliers voted.
fn oracle_fail_slow(runtime: &TrainingRuntime, rounds: usize) -> EvictionDecision {
    let mut voter = FailSlowVoter::new();
    for _ in 0..rounds {
        let round = AggregationResult::aggregate(&runtime.capture_stacks());
        voter.record_round(runtime.topology(), &round.outlier_ranks());
    }
    voter.verdict(runtime.topology())
}

/// Asserts, for every scenario on `job`, equal aggregations and equal
/// analyzer decisions from the grouped capture and the per-rank oracle.
fn assert_matches_oracle(spec: &str, job: &JobSpec) {
    let analyzer = RuntimeAnalyzer::new();
    for (scenario, runtime) in scenarios(job) {
        let at = format!("{spec}, {scenario}");
        let capture = runtime.capture();
        let stacks = runtime.capture_stacks();
        assert_eq!(capture.process_count, stacks.len(), "{at}");

        let grouped = AggregationResult::from_capture(capture.clone());
        let oracle = AggregationResult::aggregate(&stacks);
        assert_eq!(grouped, oracle, "{at}");
        assert_eq!(
            grouped.outlier_clusters(),
            oracle.outlier_clusters(),
            "{at}"
        );
        assert_eq!(grouped.outlier_ranks(), oracle.outlier_ranks(), "{at}");

        let topology = runtime.topology();
        assert_eq!(
            analyzer.analyze_hang(topology, capture.clone()).decision,
            EvictionDecision::from_outliers(topology, &oracle.outlier_ranks()),
            "{at}"
        );
        assert_eq!(
            analyzer.analyze_fail_slow(topology, capture, 5).decision,
            oracle_fail_slow(&runtime, 5),
            "{at}"
        );
    }
}

#[test]
fn small_test_matches_the_per_rank_oracle() {
    assert_matches_oracle("small_test", &JobSpec::small_test());
}

#[test]
fn fig7_example_matches_the_per_rank_oracle() {
    assert_matches_oracle("fig7_example", &fig7_job());
}

#[test]
fn production_dense_matches_the_per_rank_oracle() {
    assert_matches_oracle("production_dense", &JobSpec::production_dense());
}

#[test]
fn production_moe_matches_the_per_rank_oracle() {
    assert_matches_oracle("production_moe", &JobSpec::production_moe());
}

/// The scenarios above do reach the interesting shapes: outliers for every
/// hang and fail-slow, on both P2P directions for a multi-victim hang, and
/// none where every rank is in the same phase.
#[test]
fn oracle_scenarios_cover_outliers_and_clean_captures() {
    let job = JobSpec::production_dense();
    for (scenario, runtime) in scenarios(&job) {
        let result = AggregationResult::from_capture(runtime.capture());
        let fingerprints: Vec<&str> = result
            .outlier_clusters()
            .iter()
            .map(|c| c.fingerprint.as_str())
            .collect();
        // NaN and crash leave every rank in gradient synchronization.
        let clean = ["none", "crash"].contains(&scenario.as_str()) || scenario.starts_with("nan");
        assert_eq!(result.has_outliers(), !clean, "{scenario}");
        if scenario == "hang first+middle+last" {
            assert!(fingerprints.iter().any(|f| f.contains("isend")));
            assert!(fingerprints.iter().any(|f| f.contains("irecv")));
        }
    }
}
