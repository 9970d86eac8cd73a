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
//! bytes, so the fixture pins what the decoders accept as well. Seeded byte
//! mutations of every pinned document must import as `Ok` or a
//! [`CodecError`], never a panic.
//!
//! The fixture moves for one of two reasons. If the wire format changed,
//! bump `FORMAT_VERSION`. If the `small_drill` history changed, the other
//! history fixtures move with it. Either way, regenerate the fixture from
//! [`golden`]'s output and say why in the commit.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use byterobust::fleet::warehouse::SEGMENT_FORMAT;
use byterobust::incident::codec::{parse_document, render_document};
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

/// Reads a document and writes it back: `Ok` with the re-exported bytes, or
/// the import's error.
type Reimport = fn(&str) -> Result<String, CodecError>;

/// One pinned document: its fixture name, its bytes, and how to read it.
struct Document {
    name: String,
    text: String,
    reimport: Reimport,
}

impl Document {
    fn new(name: impl Into<String>, text: String, reimport: Reimport) -> Document {
        Document {
            name: name.into(),
            text,
            reimport,
        }
    }
}

/// Reads a spill segment the way the warehouse's fault-in does (header,
/// owning job, store) and writes it back the way the warehouse wrote it.
fn reimport_segment(text: &str) -> Result<String, CodecError> {
    let document = parse_document(text, SEGMENT_FORMAT)?;
    let job: String = document.field("job")?;
    let store: IncidentStore = document.field("store")?;
    Ok(render_document(SEGMENT_FORMAT, |w| {
        w.member("job", &job);
        w.member("store", &store);
    }))
}

/// A directory for one drill's spill segments, unique per call: the tests
/// of this file run concurrently, and each deletes its own directory.
fn spill_dir() -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "byterobust-codec-golden-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Exports every document kind from one small drill (default alert rules,
/// warehouse spill on), in fixture order.
fn documents() -> Vec<Document> {
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
    let mut documents = Vec::new();

    // Incident store and job report: the first job in full, plus a
    // two-dossier store small enough to read.
    let label = &report.jobs[0].label;
    let job = report.job_report(0);
    let store_reimport: Reimport = |t| IncidentStore::import_json(t).map(|s| s.export_json());
    documents.push(Document::new(
        format!("incident store {label}"),
        job.incident_store.export_json(),
        store_reimport,
    ));
    let mut head = IncidentStore::new();
    for dossier in job.incident_store.all().iter().take(2) {
        head.insert(dossier.as_ref().clone());
    }
    documents.push(Document::new(
        "incident store head",
        head.export_json(),
        store_reimport,
    ));
    documents.push(Document::new(
        format!("job report {label}"),
        job.export_json(),
        |t| JobReport::import_json(t).map(|r| r.export_json()),
    ));

    // Warehouse and the spill segments it wrote.
    documents.push(Document::new(
        "warehouse",
        report.warehouse.export_json(),
        |t| IncidentWarehouse::import_json(t).map(|w| w.export_json()),
    ));
    for (name, text) in segment_texts {
        documents.push(Document::new(
            format!("spill segment {name}"),
            text,
            reimport_segment,
        ));
    }

    // Trace: the whole run, plus its first spans in full.
    let trace_reimport: Reimport = |t| Trace::import_json(t).map(|t| t.export_json());
    documents.push(Document::new(
        "trace",
        report.trace.export_json(),
        trace_reimport,
    ));
    let trace_head = Trace {
        spans: report.trace.spans.iter().take(12).cloned().collect(),
    };
    documents.push(Document::new(
        "trace head",
        trace_head.export_json(),
        trace_reimport,
    ));

    // Alert timeline, scorecard and both built-in rule sets.
    documents.push(Document::new(
        "alert timeline",
        report.alerts.export_json(),
        |t| AlertTimeline::import_json(t).map(|t| t.export_json()),
    ));
    documents.push(Document::new(
        "alert scorecard",
        score_alerts(&report.alerts, &report.fault_windows()).export_json(),
        |t| AlertScorecard::import_json(t).map(|c| c.export_json()),
    ));
    for rules in [RuleSet::default_rules(), RuleSet::degraded_rules()] {
        documents.push(Document::new(
            format!("rule set {}", rules.name),
            rules.export_json(),
            |t| RuleSet::import_json(t).map(|r| r.export_json()),
        ));
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
        for dossier in report.warehouse.shard(&job.label).unwrap_or_default().all() {
            costs.record(dossier.cost.total().as_millis());
        }
    }
    registry
        .histograms
        .push(("incident.cost_ms".to_string(), costs.snapshot()));
    registry
        .histograms
        .push(("empty".to_string(), HistogramSnapshot::default()));
    documents.push(Document::new(
        "metrics registry",
        registry.export_json(),
        |t| MetricsRegistry::import_json(t).map(|m| m.export_json()),
    ));

    // Every query arm, and the run's answer to each.
    let machine = job.incident_store.all()[0]
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
            scope: Some(label.clone()),
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
        documents.push(Document::new(
            format!("fleet query {index}"),
            query.export_json(),
            |t| FleetQuery::import_json(t).map(|q| q.export_json()),
        ));
        documents.push(Document::new(
            format!("query response {index}"),
            report.answer(query).export_json(),
            |t| QueryResponse::import_json(t).map(|r| r.export_json()),
        ));
    }
    // Spilled shards fault in from the segments until here.
    let _ = std::fs::remove_dir_all(&dir);
    documents
}

/// Renders the fixture text, asserting on the way that every document's
/// importer accepts it and re-exports the same bytes, so the fixture pins
/// what the decoders accept as well.
fn golden() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# codec golden: small_drill seed {SEED}, default alert rules, spill budget 8"
    );
    for document in documents() {
        let back = (document.reimport)(&document.text)
            .unwrap_or_else(|err| panic!("{}: own export rejected: {err}", document.name));
        assert_eq!(
            back, document.text,
            "{}: re-export changed the bytes",
            document.name
        );
        pin(&mut out, &document.name, &document.text);
    }
    out
}

#[test]
fn decoded_segments_share_equal_neighbouring_contexts() {
    // A segment writes each dossier's context in full; decoding gives equal
    // neighbours one shared allocation again, and writes the same bytes.
    let (mut neighbours, mut shared) = (0, 0);
    for document in documents() {
        if !document.name.starts_with("spill segment ") {
            continue;
        }
        let store: IncidentStore = parse_document(&document.text, SEGMENT_FORMAT)
            .and_then(|segment| segment.field("store"))
            .unwrap_or_else(|err| panic!("{}: {err}", document.name));
        for pair in store.all().windows(2) {
            let (before, after) = (&pair[0].capture.context, &pair[1].capture.context);
            neighbours += 1;
            if before == after {
                assert!(
                    std::sync::Arc::ptr_eq(before, after),
                    "{}: #{} and #{} decode equal contexts into two allocations",
                    document.name,
                    pair[0].seq,
                    pair[1].seq
                );
                shared += 1;
            }
        }
        assert_eq!(
            reimport_segment(&document.text).as_deref(),
            Ok(document.text.as_str()),
            "{}: the round trip changed the bytes",
            document.name
        );
    }
    assert!(
        shared > 0,
        "no two neighbouring dossiers of {neighbours} pairs share a context"
    );
}

/// Mutations of each pinned document.
const MUTATIONS: usize = 1_000;

/// The first occurrence of each distinct non-empty string value in `text`
/// (a string after `:` or `[`), as byte ranges. Enum variants are written
/// as string values, so corrupting each one reaches every enum decoder's
/// reject path, however rare the variant is in the document.
fn string_values(text: &str) -> Vec<Range<usize>> {
    let bytes = text.as_bytes();
    let mut seen = std::collections::BTreeSet::new();
    let mut values = Vec::new();
    for at in 1..bytes.len() {
        if bytes[at] != b'"' || !matches!(bytes[at - 1], b':' | b'[') {
            continue;
        }
        let start = at + 1;
        let Some(len) = text[start..].find('"') else {
            break;
        };
        if len > 0 && seen.insert(&text[start..start + len]) {
            values.push(start..start + len);
        }
    }
    values
}

/// `text` with the first byte of one string value changed: an ASCII
/// letter flips case (`Data` becomes `data`), anything else becomes `q`.
/// The document stays well-formed JSON, so the decoder sees the value.
fn corrupt_value(text: &str, value: &Range<usize>) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let first = &mut bytes[value.start];
    *first = if first.is_ascii_alphabetic() {
        *first ^ 0x20
    } else {
        b'q'
    };
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One seeded mutation of `text`: a bit flip, a deleted run of up to eight
/// bytes, an inserted byte (JSON punctuation, a digit or a letter, or any
/// byte), or a truncation. Bytes that stop being UTF-8 are replaced, since
/// every importer reads text.
fn mutate(text: &str, rng: &mut SimRng) -> String {
    const PUNCTUATION: &[u8] = b"{}[]\":,-.0123456789eEtfnul\\ ";
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.index(bytes.len());
    match rng.index(4) {
        0 => bytes[at] ^= 1 << rng.index(8),
        1 => {
            let end = (at + 1 + rng.index(8)).min(bytes.len());
            bytes.drain(at..end);
        }
        2 => {
            let byte = if rng.chance(0.5) {
                *rng.choose(PUNCTUATION)
            } else {
                rng.index(256) as u8
            };
            bytes.insert(at, byte);
        }
        _ => bytes.truncate(at),
    }
    String::from_utf8_lossy(&bytes).into_owned()
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

#[test]
fn seeded_mutations_of_every_pinned_document_fail_cleanly() {
    // Every importer must answer a corrupted document with `Ok` or a
    // `CodecError`; a panic fails the test. Each document first has each
    // distinct string value corrupted once, then takes seeded random
    // mutations up to `MUTATIONS`, from its own stream seeded from its
    // name, so a failure replays alone. Two workers share the documents:
    // each import parses the whole text, so the run is bound by parse
    // speed.
    let documents = documents();
    let next = AtomicUsize::new(0);
    let (accepted, rejected) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let (mut accepted, mut rejected) = (0usize, 0usize);
                    while let Some(document) = documents.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let values = string_values(&document.text);
                        let mut rng = SimRng::new(fnv1a64(document.name.as_bytes()));
                        let corrupted = values
                            .iter()
                            .map(|value| corrupt_value(&document.text, value));
                        let mutated =
                            (values.len()..MUTATIONS).map(|_| mutate(&document.text, &mut rng));
                        for text in corrupted.chain(mutated) {
                            match (document.reimport)(&text) {
                                Ok(_) => accepted += 1,
                                Err(_) => rejected += 1,
                            }
                        }
                    }
                    (accepted, rejected)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("no import panicked"))
            .fold((0, 0), |(a, r), (wa, wr)| (a + wa, r + wr))
    });
    eprintln!("mutated imports: {accepted} accepted, {rejected} rejected");
    assert!(accepted + rejected >= documents.len() * MUTATIONS);
    assert!(rejected > accepted, "most mutations corrupt the document");
}
