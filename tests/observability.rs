//! Observability-plane integration tests: the merged sim-time trace must be
//! a pure function of the seed — byte-identical across schedulers, warehouse
//! spill on/off, and an idle broker — and the cause-chain walker must
//! reconstruct every incident's detection → diagnosis → recovery path from
//! spans alone, agreeing with the incident store's recorded classification.
//!
//! The alerting plane inherits the same contract: with a rule set attached,
//! the alert timeline is byte-identical across the whole determinism matrix
//! (schedulers, spill, host threading, idle broker), attaching rules is
//! invisible to the rendered report and the trace, and the default rules hit
//! the lead-time acceptance bar on the large drill.

use std::sync::OnceLock;

use byterobust::prelude::*;

/// One shared small-drill run; several tests read the same report.
fn small() -> &'static FleetReport {
    static REPORT: OnceLock<FleetReport> = OnceLock::new();
    REPORT.get_or_init(|| FleetRunner::new(FleetConfig::small_drill(), 20250916).run())
}

/// One shared large-drill run (the acceptance-scale drill: ~24 jobs over a
/// four-digit machine count).
fn large() -> &'static FleetReport {
    static REPORT: OnceLock<FleetReport> = OnceLock::new();
    REPORT.get_or_init(|| FleetRunner::new(FleetConfig::large_drill(), 20250916 + 41).run())
}

/// One shared small-drill run with the default alert rules attached.
fn rules_small() -> &'static FleetReport {
    static REPORT: OnceLock<FleetReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        FleetRunner::new(
            FleetConfig::small_drill().with_alert_rules(RuleSet::default_rules()),
            20250916,
        )
        .run()
    })
}

/// One shared large-drill run with the default alert rules attached.
fn rules_large() -> &'static FleetReport {
    static REPORT: OnceLock<FleetReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        FleetRunner::new(
            FleetConfig::large_drill().with_alert_rules(RuleSet::default_rules()),
            20250916 + 41,
        )
        .run()
    })
}

/// A unique directory for spill segments; callers clean it up best effort.
fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("byterobust-obs-test-{tag}-{}", std::process::id()))
}

#[test]
fn trace_is_byte_identical_across_schedulers_on_the_small_drill() {
    let heap = small();
    let naive =
        FleetRunner::new(FleetConfig::small_drill(), 20250916).run_with(SchedulerKind::NaiveScan);
    assert!(!heap.trace.spans.is_empty(), "the drill must leave a trace");
    assert_eq!(
        heap.trace.export_json(),
        naive.trace.export_json(),
        "small_drill: heap and naive-scan traces must be byte-identical"
    );
    // The wall-clock domain is where the schedulers ARE allowed to differ.
    assert_ne!(heap.scheduler_ops, naive.scheduler_ops);
}

#[test]
fn trace_is_byte_identical_across_schedulers_on_the_large_drill() {
    let heap = large();
    let naive = FleetRunner::new(FleetConfig::large_drill(), 20250916 + 41)
        .run_with(SchedulerKind::NaiveScan);
    assert_eq!(
        heap.trace.export_json(),
        naive.trace.export_json(),
        "large_drill: heap and naive-scan traces must be byte-identical"
    );
}

#[test]
fn trace_is_byte_identical_with_warehouse_spill_on_the_small_drill() {
    let dir = spill_dir("spill-small");
    let memory = small();
    let spilled = FleetRunner::new(
        FleetConfig::small_drill().with_warehouse_storage(WarehouseStorage::new(8, &dir)),
        20250916,
    )
    .run();
    assert!(
        spilled.warehouse.spill_stats().segments_written >= 1,
        "the tiny budget must actually spill"
    );
    assert_eq!(
        memory.trace.export_json(),
        spilled.trace.export_json(),
        "small_drill: spill on/off traces must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_is_byte_identical_with_warehouse_spill_on_the_large_drill() {
    let dir = spill_dir("spill-large");
    let memory = large();
    let spilled = FleetRunner::new(
        FleetConfig::large_drill().with_warehouse_storage(WarehouseStorage::new(32, &dir)),
        20250916 + 41,
    )
    .run();
    assert!(spilled.warehouse.spill_stats().segments_written >= 1);
    assert_eq!(
        memory.trace.export_json(),
        spilled.trace.export_json(),
        "large_drill: spill on/off traces must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_is_byte_identical_with_an_idle_broker() {
    // A comfortably provisioned fleet: the broker never intervenes, so it
    // must leave no spans — the trace, like the rendered report, is
    // byte-identical with the broker on or off.
    let calm = FleetConfig::small_drill().with_pool_override(64);
    let off = FleetRunner::new(calm.clone().without_broker(), 20250916 + 50).run();
    let on = FleetRunner::new(
        calm.with_broker(BrokerConfig {
            admission_limit: None,
            reserve_for_priority: 1,
        }),
        20250916 + 50,
    )
    .run();
    assert!(on.broker.as_ref().is_some_and(|b| !b.has_activity()));
    assert_eq!(
        off.trace.export_json(),
        on.trace.export_json(),
        "idle broker must be invisible in the trace"
    );
}

#[test]
fn trace_round_trips_through_the_codec_on_fleet_data() {
    let report = small();
    let exported = report.trace.export_json();
    let imported = Trace::import_json(&exported).expect("own export must re-import");
    assert_eq!(
        imported.export_json(),
        exported,
        "a second export is a fixed point"
    );
    assert_eq!(imported.spans.len(), report.trace.spans.len());
    // The Chrome export is deterministic too (it feeds a CI artifact).
    assert_eq!(report.trace.to_chrome_json(), imported.to_chrome_json());
}

#[test]
fn trace_diagnose_reconstructs_every_incident_on_the_large_drill() {
    // The acceptance criterion: for EVERY incident of the ~24-job drill, the
    // cause chain walked out of spans alone must agree with the incident
    // store's recorded classification — mechanism, concluded root cause, and
    // the exact eviction set.
    let report = large();
    let mut verified = 0usize;
    for job in &report.jobs {
        for dossier in job.report.incident_store.all() {
            let chain =
                trace_diagnose(&report.trace, &job.label, dossier.seq).unwrap_or_else(|| {
                    panic!("{}#{}: no cause chain in the trace", job.label, dossier.seq)
                });
            assert_eq!(
                chain.mechanism, dossier.mechanism,
                "{}#{}: reconstructed mechanism disagrees with the dossier",
                job.label, dossier.seq
            );
            assert_eq!(
                chain.concluded_cause, dossier.concluded_cause,
                "{}#{}: reconstructed cause disagrees with the dossier",
                job.label, dossier.seq
            );
            assert_eq!(
                chain.evicted, dossier.evicted,
                "{}#{}: reconstructed eviction set disagrees with the dossier",
                job.label, dossier.seq
            );
            assert!(chain.opened_at <= chain.closed_at);
            assert!(!chain.path.is_empty(), "the chain must name its path");
            verified += 1;
        }
    }
    assert_eq!(verified, report.total_incidents());
    assert_eq!(
        trace_diagnose_all(&report.trace).len(),
        verified,
        "the bulk walker finds exactly one chain per incident"
    );
    assert!(verified > 100, "the large drill must be incident-rich");
}

#[test]
fn trace_query_surface_filters_consistently() {
    let report = small();
    let trace = &report.trace;
    // Kind filter: the sum over all kinds is the whole trace.
    let by_kind: usize = SpanKind::ALL
        .iter()
        .map(|&kind| trace_get(trace, &TraceQuery::new().kind(kind)).len())
        .sum();
    assert_eq!(by_kind, trace.spans.len());
    // Scope filter: per-job scopes plus the fleet scope partition the trace.
    let by_scope: usize = trace
        .scopes()
        .iter()
        .map(|scope| trace_get(trace, &TraceQuery::new().scope(scope)).len())
        .sum();
    assert_eq!(by_scope, trace.spans.len());
    // Incident filter: each job's incident count matches its store.
    for job in &report.jobs {
        for dossier in job.report.incident_store.all() {
            let spans = trace_get(
                trace,
                &TraceQuery::new()
                    .scope(&job.label)
                    .kind(SpanKind::Incident)
                    .incident(dossier.seq),
            );
            assert_eq!(
                spans.len(),
                1,
                "{}#{}: exactly one incident root span",
                job.label,
                dossier.seq
            );
        }
    }
    // A window covering everything is a no-op filter; an empty window at the
    // far end matches nothing.
    let horizon = trace.spans.iter().map(|s| s.end).max().unwrap();
    assert_eq!(
        trace_get(trace, &TraceQuery::new().window(SimTime::ZERO, horizon)).len(),
        trace.spans.len()
    );
}

#[test]
fn alert_timeline_is_byte_identical_across_schedulers_and_spill() {
    let heap = rules_small();
    assert!(
        !heap.alerts.alerts.is_empty(),
        "the default rules must fire on the small drill"
    );
    let timeline = heap.alerts.export_json();
    let naive = FleetRunner::new(
        FleetConfig::small_drill().with_alert_rules(RuleSet::default_rules()),
        20250916,
    )
    .run_with(SchedulerKind::NaiveScan);
    assert_eq!(
        timeline,
        naive.alerts.export_json(),
        "heap vs naive-scan alert timelines must be byte-identical"
    );
    let dir = spill_dir("alert-spill");
    let spilled = FleetRunner::new(
        FleetConfig::small_drill()
            .with_alert_rules(RuleSet::default_rules())
            .with_warehouse_storage(WarehouseStorage::new(8, &dir)),
        20250916,
    )
    .run();
    assert!(spilled.warehouse.spill_stats().segments_written >= 1);
    assert_eq!(
        timeline,
        spilled.alerts.export_json(),
        "spill on/off alert timelines must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn alert_timeline_is_byte_identical_across_schedulers_on_the_large_drill() {
    let heap = rules_large();
    let naive = FleetRunner::new(
        FleetConfig::large_drill().with_alert_rules(RuleSet::default_rules()),
        20250916 + 41,
    )
    .run_with(SchedulerKind::NaiveScan);
    assert_eq!(
        heap.alerts.export_json(),
        naive.alerts.export_json(),
        "large_drill: heap and naive-scan alert timelines must be byte-identical"
    );
}

#[test]
fn alert_timeline_is_byte_identical_across_host_threads() {
    // The alert engine evaluates in sim time only — running the drill on a
    // spawned host thread must reproduce the timeline byte-for-byte.
    let main_thread = rules_small().alerts.export_json();
    let spawned = std::thread::spawn(|| {
        FleetRunner::new(
            FleetConfig::small_drill().with_alert_rules(RuleSet::default_rules()),
            20250916,
        )
        .run()
        .alerts
        .export_json()
    })
    .join()
    .expect("drill thread panicked");
    assert_eq!(
        main_thread, spawned,
        "host threading must be invisible to the alert timeline"
    );
}

#[test]
fn alert_rules_are_invisible_to_the_report_and_trace() {
    // Attaching a rule set must not perturb the deterministic outputs: the
    // rendered report and the trace stay byte-identical, and a rules-off run
    // carries an empty timeline.
    let bare = small();
    let ruled = rules_small();
    assert!(bare.alerts.alerts.is_empty());
    assert_eq!(
        bare.render(),
        ruled.render(),
        "alert rules must not perturb the rendered report"
    );
    assert_eq!(
        bare.trace.export_json(),
        ruled.trace.export_json(),
        "alert rules must not perturb the trace"
    );
}

#[test]
fn alert_timeline_is_byte_identical_with_an_idle_broker() {
    let calm = FleetConfig::small_drill()
        .with_pool_override(64)
        .with_alert_rules(RuleSet::default_rules());
    let off = FleetRunner::new(calm.clone().without_broker(), 20250916 + 50).run();
    let on = FleetRunner::new(
        calm.with_broker(BrokerConfig {
            admission_limit: None,
            reserve_for_priority: 1,
        }),
        20250916 + 50,
    )
    .run();
    assert!(on.broker.as_ref().is_some_and(|b| !b.has_activity()));
    assert_eq!(
        off.alerts.export_json(),
        on.alerts.export_json(),
        "idle broker must be invisible in the alert timeline"
    );
}

#[test]
fn alert_timeline_round_trips_through_the_codec_on_fleet_data() {
    let report = rules_small();
    let exported = report.alerts.export_json();
    let imported = AlertTimeline::import_json(&exported).expect("own export must re-import");
    assert_eq!(
        imported.export_json(),
        exported,
        "a second export is a fixed point"
    );
    assert_eq!(imported.alerts.len(), report.alerts.alerts.len());
    // The digest (a CI artifact) is reproducible from the re-import alone.
    assert_eq!(imported.render_digest(), report.render_alert_digest());
}

#[test]
fn default_rules_hit_the_lead_time_acceptance_bar_on_the_large_drill() {
    // The acceptance criterion: on the incident-rich drill the default rules
    // cover >= 90% of injected faults, and in the median the covering alert
    // fires strictly before the controller's own detection completes.
    let report = rules_large();
    let faults = report.fault_windows();
    assert_eq!(
        faults.len(),
        report.total_incidents(),
        "one ground-truth window per recorded incident"
    );
    let card = score_alerts(&report.alerts, &faults);
    assert!(
        card.recall >= 0.9,
        "default rules must cover >= 90% of faults (got {:.3})",
        card.recall
    );
    assert!(
        card.median_lead_secs > 0.0,
        "median detection lead must be strictly positive (got {:.0}s)",
        card.median_lead_secs
    );
    assert!(
        card.precision > 0.0 && card.precision <= 1.0,
        "precision must be a meaningful ratio (got {:.3})",
        card.precision
    );
}

#[test]
fn fixture_rule_sets_are_pinned_to_the_builtins() {
    // The CI fixtures under ci/ are the builtins' own exports, byte for
    // byte — drift in either direction fails here first.
    for (path, rules) in [
        ("ci/alert_rules.json", RuleSet::default_rules()),
        ("ci/alert_rules_degraded.json", RuleSet::degraded_rules()),
    ] {
        let on_disk = std::fs::read_to_string(path)
            .unwrap_or_else(|err| panic!("{path}: fixture must be readable ({err})"));
        assert_eq!(
            on_disk,
            rules.export_json(),
            "{path}: fixture must match the builtin's export"
        );
        let imported = RuleSet::import_json(&on_disk)
            .unwrap_or_else(|err| panic!("{path}: fixture must parse ({err})"));
        assert_eq!(imported, rules);
    }
}
