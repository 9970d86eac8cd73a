//! Cross-crate integration tests: end-to-end job lifecycles exercising the
//! full control plane (monitor → controller → diagnoser/analyzer → recovery →
//! checkpointing) against the cluster and workload substrates.

use byterobust::prelude::*;

fn run_small(seed: u64) -> JobReport {
    JobLifecycle::new(JobConfig::small_test(), seed).run()
}

#[test]
fn small_job_survives_its_incidents_with_reasonable_ettr() {
    let report = run_small(1);
    assert!(!report.incidents.is_empty());
    let ettr = report.ettr.cumulative_ettr();
    assert!(ettr > 0.55 && ettr <= 1.0, "ettr = {ettr}");
    assert!(report.final_step > 100, "job should make real progress");
}

#[test]
fn every_incident_is_attributed_and_charged() {
    let report = run_small(2);
    for incident in &report.incidents {
        // Manual restarts have zero detection time; everything else must have
        // been detected and must have taken non-zero unproductive time.
        if incident.category != FaultCategory::ManualRestart {
            assert!(!incident.cost.detection.is_zero(), "{incident:?}");
        }
        assert!(!incident.cost.total().is_zero());
        // Evictions only happen for incidents that implicate machines.
        if incident.root_cause == RootCause::Human {
            assert_eq!(incident.evicted_count, 0, "{incident:?}");
        }
    }
}

#[test]
fn manual_restarts_never_reschedule_machines() {
    let report = run_small(3);
    for incident in report
        .incidents
        .iter()
        .filter(|i| i.category == FaultCategory::ManualRestart)
    {
        assert_eq!(incident.mechanism.table4_label(), "AutoFT-HU");
        assert_eq!(incident.evicted_count, 0);
        // In-place hot updates cost about a minute of scheduling, far below a
        // full requeue.
        assert!(incident.cost.scheduling < SimDuration::from_mins(3));
    }
}

#[test]
fn implicit_failures_are_resolved_without_human_intervention() {
    // Across a few seeds, collect implicit failures and check that they are
    // handled by the analyzer or the automated stop-time path.
    let mut implicit_seen = 0;
    for seed in 4..10 {
        let report = run_small(seed);
        for incident in report
            .incidents
            .iter()
            .filter(|i| i.category == FaultCategory::Implicit)
        {
            implicit_seen += 1;
            assert!(
                matches!(
                    incident.mechanism,
                    ResolutionMechanism::AnalyzerEviction
                        | ResolutionMechanism::StopTimeEviction
                        | ResolutionMechanism::ImmediateEviction
                        | ResolutionMechanism::DualPhaseReplay
                        | ResolutionMechanism::Reattempt
                        | ResolutionMechanism::Rollback
                ),
                "unexpected mechanism {:?}",
                incident.mechanism
            );
        }
    }
    assert!(
        implicit_seen > 0,
        "expected at least one implicit failure across seeds"
    );
}

#[test]
fn ettr_accounting_is_consistent() {
    let report = run_small(11);
    let total = report.ettr.total_time();
    let productive = report.ettr.productive_time();
    let unproductive = report.ettr.unproductive_time();
    assert_eq!(total, productive + unproductive);
    // The sum of per-incident costs equals the tracked unproductive time.
    let incident_total: SimDuration = report.incidents.iter().map(|i| i.cost.total()).sum();
    assert_eq!(incident_total, unproductive);
    // Cumulative ETTR equals the ratio of the totals.
    let expected = productive.as_secs_f64() / total.as_secs_f64();
    assert!((report.ettr.cumulative_ettr() - expected).abs() < 1e-12);
}

#[test]
fn same_seed_reproduces_the_same_run_bit_for_bit() {
    let a = run_small(13);
    let b = run_small(13);
    assert_eq!(a.incidents.len(), b.incidents.len());
    for (x, y) in a.incidents.iter().zip(b.incidents.iter()) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.mechanism, y.mechanism);
        assert_eq!(x.cost.total(), y.cost.total());
    }
    assert_eq!(a.final_step, b.final_step);
    assert_eq!(
        a.ettr.cumulative_ettr().to_bits(),
        b.ettr.cumulative_ettr().to_bits()
    );
}

#[test]
fn moe_jobs_see_more_rollbacks_and_restarts_than_dense() {
    // §8.1.3: MoE training integrates more custom optimizations, increasing
    // the likelihood of rollbacks and manual restarts. Compare incident-rate
    // normalized counts over a shortened horizon.
    let mut dense_cfg = JobConfig::production_dense_three_months();
    dense_cfg.duration = SimDuration::from_days(3);
    let mut moe_cfg = JobConfig::production_moe_one_month();
    moe_cfg.duration = SimDuration::from_days(3);
    let dense = JobLifecycle::new(dense_cfg, 17).run();
    let moe = JobLifecycle::new(moe_cfg, 17).run();
    let manual = |r: &JobReport| {
        r.incidents
            .iter()
            .filter(|i| i.category == FaultCategory::ManualRestart)
            .count()
    };
    assert!(
        manual(&moe) >= manual(&dense),
        "moe manual restarts {} < dense {}",
        manual(&moe),
        manual(&dense)
    );
}

/// One header line per production job and one line per dossier: when, what,
/// how it was resolved, what the analyzer concluded, and what it cost.
fn render_production_history(report: &JobReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let dossiers = report.incident_store.all();
    writeln!(
        out,
        "== {} | incidents {} | final step {} | ETTR {:.9}",
        report.job_name,
        dossiers.len(),
        report.final_step,
        report.ettr.cumulative_ettr()
    )
    .unwrap();
    for d in dossiers {
        let evicted: Vec<String> = d.evicted.iter().map(|m| m.to_string()).collect();
        writeln!(
            out,
            "{} {:?} {:?} {:?}->{:?} {} [{}] over={} cost_ms={}",
            d.at.as_millis(),
            d.kind,
            d.mechanism,
            d.root_cause,
            d.concluded_cause,
            d.classification.rec_code,
            evicted.join(","),
            d.over_evicted,
            d.cost.total().as_millis()
        )
        .unwrap();
    }
    out
}

#[test]
fn production_histories_match_the_pinned_fixture() {
    // The two 9,600-GPU production jobs at seed 11, pinned across commits:
    // this is the only tier-1 check that the production-scale analyzer path
    // (stack aggregation over hundreds of machines) still concludes and
    // evicts exactly as before. If a change moves it on purpose, regenerate
    // the fixture from this rendering and say why in the commit.
    let expected = include_str!("fixtures/production_seed11.txt");
    let mut rendered = String::new();
    for config in [
        JobConfig::production_dense_three_months(),
        JobConfig::production_moe_one_month(),
    ] {
        rendered.push_str(&render_production_history(
            &JobLifecycle::new(config, 11).run(),
        ));
    }
    if let Some((line, (got, want))) = rendered
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "production history diverged from the fixture at line {}:\n  got:  {got}\n  want: {want}",
            line + 1
        );
    }
    assert_eq!(rendered, expected, "production history length changed");
}
