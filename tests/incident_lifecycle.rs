//! Integration tests for the incident lifecycle subsystem: the flight
//! recorder, classification matrix, postmortem generator and incident store,
//! exercised through real `JobLifecycle` runs rather than synthetic dossiers.

use byterobust::prelude::*;

fn run_small(seed: u64) -> JobReport {
    JobLifecycle::new(JobConfig::small_test(), seed).run()
}

#[test]
fn store_holds_one_dossier_per_incident_in_order() {
    let report = run_small(21);
    assert!(!report.incidents.is_empty());
    assert_eq!(report.incident_store.len(), report.incidents.len());
    for (record, dossier) in report.incidents.iter().zip(report.incident_store.all()) {
        assert_eq!(dossier.at, record.at);
        assert_eq!(dossier.kind, record.kind);
        assert_eq!(dossier.category, record.category);
        assert_eq!(dossier.root_cause, record.root_cause);
        assert_eq!(dossier.mechanism, record.mechanism);
        assert_eq!(dossier.cost, record.cost);
        assert_eq!(dossier.evicted.len(), record.evicted_count);
        assert_eq!(dossier.over_evicted, record.over_evicted);
    }
}

#[test]
fn every_capture_is_a_frozen_coherent_window() {
    let report = run_small(22);
    let monitor = Monitor::new();
    for dossier in report.incident_store.all() {
        // The window closes exactly when the incident's unproductive time
        // ends.
        assert_eq!(dossier.closed_at(), dossier.at + dossier.cost.total());
        let window = dossier.window();
        // Every incident detects exactly once, after the Table 3 latency of
        // its symptom: the one detection model. The charged cost and the
        // window's detection both carry it, and the window opens with it.
        let table = monitor.detection_time_with_inspection(dossier.kind);
        assert_eq!(dossier.cost.detection, table, "incident #{}", dossier.seq);
        let detected: Vec<_> = window
            .iter()
            .filter_map(|entry| match entry.event {
                RecorderEvent::Detected { kind, latency } => Some((kind, latency)),
                _ => None,
            })
            .collect();
        assert_eq!(
            detected,
            [(dossier.kind, table)],
            "detection events in window of incident #{}",
            dossier.seq
        );
        assert_eq!(window[0].at, dossier.at + table);
        // Every incident resumes, last, when it closes, from the step the
        // dossier records.
        assert_eq!(
            window.last().map(|entry| (entry.at, &entry.event)),
            Some((
                dossier.closed_at(),
                &RecorderEvent::Resumed {
                    step: dossier.resumed_step
                }
            )),
            "no closing resume event in window of incident #{}",
            dossier.seq
        );
        // Phase transitions in the window reproduce the cost breakdown.
        let phase_total: byterobust::sim::SimDuration = window
            .iter()
            .filter_map(|entry| match entry.event {
                RecorderEvent::PhaseTransition { duration, .. } => Some(duration),
                _ => None,
            })
            .sum();
        assert_eq!(
            phase_total,
            dossier.cost.total(),
            "incident #{}",
            dossier.seq
        );
        // Every evicted machine has an eviction event in the evidence.
        for &machine in &dossier.evicted {
            assert!(
                dossier.capture.evidence.iter().any(|entry| matches!(
                    entry.event,
                    RecorderEvent::Eviction { machine: m, .. } if m == machine
                )),
                "no eviction event for {machine} in incident #{}",
                dossier.seq
            );
        }
        // The evidence never restates the timeline.
        assert!(dossier.capture.evidence.iter().all(|entry| !matches!(
            entry.event,
            RecorderEvent::Detected { .. }
                | RecorderEvent::PhaseTransition { .. }
                | RecorderEvent::Resumed { .. }
        )));
    }
}

#[test]
fn postmortem_phase_costs_sum_to_incident_record_total() {
    let report = run_small(23);
    for record in &report.incidents {
        // Find the matching dossier through the store's time-window query.
        let hits = report.incident_store.query(
            &IncidentQuery::any().window(record.at, record.at + SimDuration::from_millis(1)),
        );
        assert_eq!(
            hits.len(),
            1,
            "expected exactly one dossier at {}",
            record.at
        );
        let postmortem = report.incident_store.postmortem(hits[0].seq).unwrap();
        assert_eq!(postmortem.phase_cost_sum(), record.cost.total());
        assert_eq!(postmortem.total_cost, record.cost.total());
    }
}

#[test]
fn store_queries_partition_the_incidents() {
    let report = run_small(24);
    let store = &report.incident_store;
    // Category filters partition the store.
    let by_category: usize = [
        FaultCategory::Explicit,
        FaultCategory::Implicit,
        FaultCategory::ManualRestart,
    ]
    .iter()
    .map(|&category| store.query(&IncidentQuery::any().category(category)).len())
    .sum();
    assert_eq!(by_category, store.len());
    // Severity counts partition the store.
    let by_severity: usize = store.severity_counts().values().sum();
    assert_eq!(by_severity, store.len());
    // The severity-floor query is cumulative.
    let sev4_floor = store
        .query(&IncidentQuery::any().at_least(Severity::Sev4))
        .len();
    assert_eq!(sev4_floor, store.len());
    let sev1_floor = store
        .query(&IncidentQuery::any().at_least(Severity::Sev1))
        .len();
    assert!(
        sev1_floor
            <= store
                .query(&IncidentQuery::any().at_least(Severity::Sev2))
                .len()
    );
    // Machine queries return exactly the dossiers naming the machine.
    for dossier in store.all() {
        for &machine in &dossier.evicted {
            let hits = store.query(&IncidentQuery::any().machine(machine));
            assert!(hits.iter().any(|d| d.seq == dossier.seq));
        }
    }
}

#[test]
fn report_aggregates_agree_with_the_raw_records() {
    // The report's aggregates are incident-store queries; cross-check them
    // against a direct fold over the raw records.
    let report = run_small(25);
    let mut expected_counts = std::collections::BTreeMap::new();
    for incident in &report.incidents {
        let category = match incident.category {
            FaultCategory::Explicit => "Explicit",
            FaultCategory::Implicit => "Implicit",
            FaultCategory::ManualRestart => "Manual Restart",
        };
        *expected_counts
            .entry((incident.mechanism.table4_label(), category))
            .or_insert(0usize) += 1;
    }
    assert_eq!(report.resolution_counts(), expected_counts);

    let expected_evictions: usize = report.incidents.iter().map(|i| i.evicted_count).sum();
    assert_eq!(report.eviction_stats().0, expected_evictions);
}

#[test]
fn manual_restarts_classify_as_routine_and_evictions_escalate() {
    let report = run_small(26);
    for dossier in report.incident_store.all() {
        if dossier.category == FaultCategory::ManualRestart {
            assert_eq!(dossier.severity(), Severity::Sev4, "#{}", dossier.seq);
            assert_eq!(dossier.classification().rec_code, "REC-HU");
        }
        if !dossier.evicted.is_empty() {
            assert!(
                dossier
                    .classification()
                    .escalations
                    .contains(&Escalation::HardwareTicket),
                "eviction without hardware ticket in #{}",
                dossier.seq
            );
            assert!(
                dossier.severity().is_at_least(Severity::Sev3),
                "eviction classified below Sev3 in #{}",
                dossier.seq
            );
        }
    }
}

#[test]
fn incident_store_is_deterministic_per_seed() {
    let a = run_small(27);
    let b = run_small(27);
    assert_eq!(a.incident_store, b.incident_store);
}

#[test]
fn explicit_incidents_carry_telemetry_context() {
    // The lifecycle's telemetry tap feeds the recorder's background ring, so
    // explicit machine-attributed incidents should see their own telemetry
    // signature in the capture's pre-incident context.
    let report = run_small(28);
    let mut telemetry_seen = 0;
    for dossier in report.incident_store.all() {
        let has_signature = byterobust::incident::telemetry_signature(dossier.kind).is_some();
        let context_telemetry = dossier
            .capture
            .context
            .iter()
            .chain(dossier.capture.evidence.iter())
            .any(|entry| matches!(entry.event, RecorderEvent::Telemetry(_)));
        if has_signature && context_telemetry {
            telemetry_seen += 1;
        }
    }
    assert!(telemetry_seen > 0, "no incident carried telemetry context");
}
