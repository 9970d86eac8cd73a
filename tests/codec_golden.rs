//! Golden wire-format fixture: the exact bytes of every codec document kind,
//! exported from one small deterministic fleet run and pinned across commits.
//!
//! Round-trip tests compare a build with itself, so a renamed, reordered or
//! dropped key passes them. This test compares against bytes written by an
//! earlier build instead. Small documents are stored in full, so a diff
//! shows the changed key; a document over [`FULL_TEXT_LIMIT`] bytes is
//! stored as its byte length plus an FNV-1a-64 digest.
//!
//! Every pinned document must also re-import and re-export to the same
//! bytes, so the fixture pins what the decoders accept as well.
//!
//! The fixture moves for one of two reasons. If the wire format changed,
//! bump `FORMAT_VERSION`. If the `small_drill` history changed, the other
//! history fixtures move with it. Either way, regenerate the fixture from
//! [`golden`]'s output and say why in the commit.

use std::fmt::Write as _;
use std::path::PathBuf;

use byterobust::obs::{HistogramSnapshot, LatencyHistogram};
use byterobust::prelude::*;

/// Documents up to this many bytes are pinned as full text.
const FULL_TEXT_LIMIT: usize = 20 * 1024;

/// The run every document is exported from.
const SEED: u64 = 20250916;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends one pinned document: a `## name` header with its byte length,
/// then either the full text or its digest.
fn pin(out: &mut String, name: &str, text: &str) {
    if text.len() <= FULL_TEXT_LIMIT {
        let _ = writeln!(out, "## {name} ({} bytes)", text.len());
        let _ = writeln!(out, "{text}");
    } else {
        let _ = writeln!(
            out,
            "## {name} ({} bytes, fnv1a64 {:016x})",
            text.len(),
            fnv1a64(text.as_bytes())
        );
    }
}

/// Asserts that `import` accepts `text` and that the result re-exports to
/// the same bytes.
fn assert_fixed_point<T>(
    name: &str,
    text: &str,
    import: impl Fn(&str) -> Result<T, CodecError>,
    export: impl Fn(&T) -> String,
) {
    let back = import(text).unwrap_or_else(|err| panic!("{name}: own export rejected: {err}"));
    assert_eq!(export(&back), text, "{name}: re-export changed the bytes");
}

/// A unique directory for this test's spill segments.
fn spill_dir() -> PathBuf {
    std::env::temp_dir().join(format!("byterobust-codec-golden-{}", std::process::id()))
}

/// Exports every document kind from one small drill (default alert rules,
/// warehouse spill on) and renders the fixture text.
fn golden() -> String {
    let dir = spill_dir();
    let report = FleetRunner::new(
        FleetConfig::small_drill()
            .with_alert_rules(RuleSet::default_rules())
            .with_warehouse_storage(WarehouseStorage::new(8, &dir)),
        SEED,
    )
    .run();
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("the drill spills segments")
        .map(|entry| entry.expect("readable spill dir").path())
        .collect();
    segments.sort();
    let segment_texts: Vec<(String, String)> = segments
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (
                name,
                std::fs::read_to_string(path).expect("readable segment"),
            )
        })
        .collect();
    assert!(!segment_texts.is_empty(), "the tiny budget must spill");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# codec golden: small_drill seed {SEED}, default alert rules, spill budget 8"
    );

    // Incident store and job report: the first job in full, plus a
    // two-dossier store small enough to read.
    let job = &report.jobs[0];
    let store_json = job.report.incident_store.export_json();
    assert_fixed_point("store", &store_json, IncidentStore::import_json, |s| {
        s.export_json()
    });
    pin(
        &mut out,
        &format!("incident store {}", job.label),
        &store_json,
    );
    let mut head = IncidentStore::new();
    for dossier in job.report.incident_store.all().iter().take(2) {
        head.insert(dossier.as_ref().clone());
    }
    let head_json = head.export_json();
    assert_fixed_point("store head", &head_json, IncidentStore::import_json, |s| {
        s.export_json()
    });
    pin(&mut out, "incident store head", &head_json);
    let report_json = job.report.export_json();
    assert_fixed_point("job report", &report_json, JobReport::import_json, |r| {
        r.export_json()
    });
    pin(&mut out, &format!("job report {}", job.label), &report_json);

    // Warehouse and the spill segments it wrote.
    let warehouse_json = report.warehouse.export_json();
    assert_fixed_point(
        "warehouse",
        &warehouse_json,
        IncidentWarehouse::import_json,
        |w| w.export_json(),
    );
    pin(&mut out, "warehouse", &warehouse_json);
    for (name, text) in &segment_texts {
        pin(&mut out, &format!("spill segment {name}"), text);
    }

    // Trace: the whole run, plus its first spans in full.
    let trace_json = report.trace.export_json();
    assert_fixed_point("trace", &trace_json, Trace::import_json, |t| {
        t.export_json()
    });
    pin(&mut out, "trace", &trace_json);
    let trace_head = Trace {
        spans: report.trace.spans.iter().take(12).cloned().collect(),
    };
    pin(&mut out, "trace head", &trace_head.export_json());

    // Alert timeline, scorecard and both built-in rule sets.
    let timeline_json = report.alerts.export_json();
    assert_fixed_point(
        "alert timeline",
        &timeline_json,
        AlertTimeline::import_json,
        |t| t.export_json(),
    );
    pin(&mut out, "alert timeline", &timeline_json);
    let card_json = score_alerts(&report.alerts, &report.fault_windows()).export_json();
    assert_fixed_point("scorecard", &card_json, AlertScorecard::import_json, |c| {
        c.export_json()
    });
    pin(&mut out, "alert scorecard", &card_json);
    for rules in [RuleSet::default_rules(), RuleSet::degraded_rules()] {
        let rules_json = rules.export_json();
        assert_fixed_point("rule set", &rules_json, RuleSet::import_json, |r| {
            r.export_json()
        });
        pin(&mut out, &format!("rule set {}", rules.name), &rules_json);
    }

    // Metrics registry: sim-time facts of the run, so the bytes are
    // deterministic.
    let mut registry = MetricsRegistry::new();
    registry.set_counter("run.events", report.events_processed as u64);
    registry.set_counter("run.incidents", report.total_incidents() as u64);
    for (kind, count) in report.trace.counts_by_kind() {
        registry.set_counter(&format!("trace.spans.{}", kind.label()), count as u64);
    }
    registry.set_gauge(
        "warehouse.attribution_accuracy",
        report.warehouse.attribution_accuracy(),
    );
    registry.set_gauge("alerts.recall_floor", 0.25);
    let costs = LatencyHistogram::new();
    for job in &report.jobs {
        for dossier in job.report.incident_store.all() {
            costs.record(dossier.cost.total().as_millis());
        }
    }
    registry
        .histograms
        .push(("incident.cost_ms".to_string(), costs.snapshot()));
    registry
        .histograms
        .push(("empty".to_string(), HistogramSnapshot::default()));
    let metrics_json = registry.export_json();
    assert_fixed_point(
        "metrics",
        &metrics_json,
        MetricsRegistry::import_json,
        |m| m.export_json(),
    );
    pin(&mut out, "metrics registry", &metrics_json);

    // Every query arm, and the run's answer to each.
    let machine = job.report.incident_store.all()[0]
        .evicted
        .first()
        .copied()
        .unwrap_or(MachineId(0));
    let queries = [
        FleetQuery::Incidents(IncidentQuery::any().at_least(Severity::Sev2)),
        FleetQuery::Incidents(
            IncidentQuery::any()
                .category(FaultCategory::Explicit)
                .window(SimTime::from_hours(1), SimTime::from_hours(48)),
        ),
        FleetQuery::Dossiers(IncidentQuery::any().machine(machine)),
        FleetQuery::Digest,
        FleetQuery::Spans(TraceQuery {
            scope: Some(job.label.clone()),
            kind: Some(SpanKind::Evict),
            incident: None,
            machine: None,
            from: None,
            until: Some(SimTime::from_hours(200)),
        }),
        FleetQuery::Alerts(AlertQuery::any()),
        FleetQuery::Alerts(AlertQuery::any().severity(AlertSeverity::Page).escalated()),
    ];
    for (index, query) in queries.iter().enumerate() {
        let query_json = query.export_json();
        assert_fixed_point("query", &query_json, FleetQuery::import_json, |q| {
            q.export_json()
        });
        pin(&mut out, &format!("fleet query {index}"), &query_json);
        let response_json = report.answer(query).export_json();
        assert_fixed_point(
            "response",
            &response_json,
            QueryResponse::import_json,
            |r| r.export_json(),
        );
        pin(&mut out, &format!("query response {index}"), &response_json);
    }
    // Spilled shards fault in from the segments until here.
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn every_document_kind_matches_the_golden_wire_format() {
    let expected = include_str!("fixtures/codec_golden.txt");
    let rendered = golden();
    if let Some((line, (got, want))) = rendered
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "codec output diverged from the golden fixture at line {}:\n  got:  {got}\n  want: {want}",
            line + 1
        );
    }
    assert_eq!(rendered, expected, "codec golden length changed");
}
