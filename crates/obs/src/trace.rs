//! Sim-time tracing: a zero-alloc-on-hot-path span recorder and the owned,
//! queryable, serializable trace it finishes into.
//!
//! The recording side ([`TraceRecorder`]) is deliberately austere: a span is
//! a fixed-size record (interned `&'static str` name, span id, parent link,
//! sim-time start/end, and three optional scalar tags), pushed onto a `Vec`.
//! Opening, tagging, and closing spans allocates nothing once the vector has
//! warmed up, so instrumentation can sit inside the controller's incident
//! path and the fleet runner's event loop without perturbing the benchmarks
//! they observe.
//!
//! The finished side ([`Trace`]) is the document form: owned names (so an
//! imported trace round-trips exactly), a `scope` per span (the job label,
//! or `fleet` for runner/broker/warehouse spans), and globally re-assigned
//! ids after [`Trace::merge`] interleaves per-job traces into canonical
//! `(start, scope, local id)` order. Export goes through the in-repo codec
//! (`export_json`/`import_json`, format [`TRACE_FORMAT`]) and through
//! [`Trace::to_chrome_json`] for `chrome://tracing` / Perfetto.

use std::collections::HashMap;

use byterobust_cluster::MachineId;
use byterobust_incident::codec::{
    parse_document, render_document, CodecError, Decode, EncodeMembers, JsonWriter,
};
use byterobust_incident::{string_enum_codec, struct_codec};
use byterobust_sim::SimTime;

/// Format header written by [`Trace::export_json`] and checked by
/// [`Trace::import_json`].
pub const TRACE_FORMAT: &str = "byterobust-trace";

/// The span taxonomy: what part of the machinery a span instruments. The
/// kind is a query axis ([`crate::query::TraceQuery::kind`]); the span name
/// carries the finer verdict (e.g. `diagnose/faulty-machines`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The root span of one incident: detection through resume.
    Incident,
    /// Detection latency (monitor inspection interval).
    Detect,
    /// Hierarchical stop-time diagnosis; the name carries the conclusion.
    Diagnose,
    /// Runtime Analyzer aggregation analysis (hang / fail-slow).
    Analyze,
    /// Dual-phase replay; the name carries hit/miss.
    Replay,
    /// One machine eviction (instant; the machine tag names the victim).
    Evict,
    /// Recovery: scheduling, pod build, checkpoint load, recompute.
    Restore,
    /// One fleet scheduler pick: a job advancing one segment.
    JobStep,
    /// Broker admission control (queue hold / release) and grant residuals.
    Admission,
    /// Broker slot preemption.
    Preemption,
    /// Broker cross-job machine migration.
    Migration,
    /// Cross-job incident warehouse insert.
    Warehouse,
}

impl SpanKind {
    /// Every kind, in taxonomy order (also the digest rendering order).
    pub const ALL: [SpanKind; 12] = [
        SpanKind::Incident,
        SpanKind::Detect,
        SpanKind::Diagnose,
        SpanKind::Analyze,
        SpanKind::Replay,
        SpanKind::Evict,
        SpanKind::Restore,
        SpanKind::JobStep,
        SpanKind::Admission,
        SpanKind::Preemption,
        SpanKind::Migration,
        SpanKind::Warehouse,
    ];

    /// Stable lowercase label (digest lines, Chrome categories).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Incident => "incident",
            SpanKind::Detect => "detect",
            SpanKind::Diagnose => "diagnose",
            SpanKind::Analyze => "analyze",
            SpanKind::Replay => "replay",
            SpanKind::Evict => "evict",
            SpanKind::Restore => "restore",
            SpanKind::JobStep => "job-step",
            SpanKind::Admission => "admission",
            SpanKind::Preemption => "preemption",
            SpanKind::Migration => "migration",
            SpanKind::Warehouse => "warehouse",
        }
    }
}

/// Interned span names. Instrumentation sites and the diagnosis walker
/// ([`crate::query::trace_diagnose`]) must agree on these strings; keeping
/// them in one table makes that agreement a compile-time fact.
pub mod names {
    /// Detection span under every incident root.
    pub const DETECT: &str = "detect";
    /// Stop-time diagnosis concluded faulty machines (→ stop-time eviction).
    pub const DIAGNOSE_FAULTY_MACHINES: &str = "diagnose/faulty-machines";
    /// Stop-time diagnosis suspected user code (→ rollback).
    pub const DIAGNOSE_USER_CODE: &str = "diagnose/user-code";
    /// Stop-time diagnosis passed everything (→ reattempt).
    pub const DIAGNOSE_ALL_PASSED: &str = "diagnose/all-passed";
    /// Aggregation analysis found outlier machines (→ analyzer eviction).
    pub const ANALYZE_OUTLIERS: &str = "analyze/outliers";
    /// Aggregation analysis found nothing (falls back to stop-time).
    pub const ANALYZE_NO_OUTLIERS: &str = "analyze/no-outliers";
    /// Dual-phase replay located suspects (→ replay eviction).
    pub const REPLAY_HIT: &str = "replay/hit";
    /// Dual-phase replay found nothing reproducible.
    pub const REPLAY_MISS: &str = "replay/miss";
    /// A correct eviction (the machine was a true culprit).
    pub const EVICT: &str = "evict";
    /// An over-eviction (the machine was collateral).
    pub const EVICT_OVER: &str = "evict/over";
    /// The recovery span: scheduling through recompute.
    pub const RESTORE: &str = "restore";
    /// Code rollback applied during recovery.
    pub const RESTORE_ROLLBACK: &str = "restore/rollback";
    /// Pending hot update merged into the restart.
    pub const RESTORE_HOT_UPDATE: &str = "restore/hot-update";
    /// Standby pool ran dry; the grant needed broker help or rescheduling.
    pub const RESTORE_STARVED: &str = "restore/starved";
    /// Training resumed (value = resumed step).
    pub const RESUME: &str = "resume";
    /// One fleet scheduler pick (value = job index).
    pub const JOB_STEP: &str = "step";
    /// A job held in the admission queue at time zero (value = job index).
    pub const ADMISSION_HOLD: &str = "admission/hold";
    /// A queued job admitted once capacity freed up (value = job index).
    pub const ADMISSION_RELEASE: &str = "admission/release";
    /// A replenishment slot preempted from a lower-priority job.
    pub const PREEMPT_SLOT: &str = "preempt/slot";
    /// A spare machine migrated between jobs (machine tag = the mover).
    pub const MIGRATE_MACHINE: &str = "migrate/machine";
    /// Machines that fell through to the full reschedule path (value = count).
    pub const GRANT_RESIDUAL: &str = "grant/residual";
    /// Ready standbys withheld for the critical tier (value = count).
    pub const GRANT_RESERVE_HELD: &str = "grant/reserve-held";
    /// One dossier inserted into the warehouse (value = incident seq).
    pub const WAREHOUSE_INSERT: &str = "warehouse/insert";
}

/// Recorder-local handle to an open (or closed) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Sentinel for "no parent" / "no machine" inside the fixed-size record.
const NONE_U32: u32 = u32::MAX;
/// Sentinel for "no incident tag".
const NONE_U64: u64 = u64::MAX;

/// The fixed-size in-memory span record. Everything is `Copy`; the only
/// heap the recorder touches is the spans vector itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RawSpan {
    parent: u32,
    kind: SpanKind,
    name: &'static str,
    start: SimTime,
    end: SimTime,
    incident: u64,
    machine: u32,
    value: u64,
}

/// Records sim-time spans for one scope (one job's controller, or the fleet
/// runner). Allocation-free per span after vector warm-up.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    spans: Vec<RawSpan>,
    enabled: bool,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            spans: Vec::new(),
            enabled: true,
        }
    }
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Turns the recorder off: every subsequent [`open`](TraceRecorder::open)
    /// returns a sentinel id and records nothing, and the tag setters ignore
    /// the sentinel. Mega-scale drills run lean — millions of per-incident
    /// spans would dominate both memory and the trace merge — while the
    /// recorder stays a plumb-through so call sites are unconditional.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Opens a span at `start` (its end is `start` until closed via
    /// `TraceRecorder::close`).
    pub fn open(
        &mut self,
        kind: SpanKind,
        name: &'static str,
        parent: Option<SpanId>,
        start: SimTime,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(NONE_U32);
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(RawSpan {
            parent: parent.map_or(NONE_U32, |p| p.0),
            kind,
            name,
            start,
            end: start,
            incident: NONE_U64,
            machine: NONE_U32,
            value: 0,
        });
        id
    }

    /// Records an instant event (a zero-width span) at `at`.
    pub fn instant(
        &mut self,
        kind: SpanKind,
        name: &'static str,
        parent: Option<SpanId>,
        at: SimTime,
    ) -> SpanId {
        self.open(kind, name, parent, at)
    }

    /// Closes a span at `end`. No-op on a disabled recorder's sentinel id.
    pub fn close(&mut self, span: SpanId, end: SimTime) {
        if span.0 == NONE_U32 {
            return;
        }
        self.spans[span.0 as usize].end = end;
    }

    /// Tags a span with the incident sequence number it belongs to.
    pub fn set_incident(&mut self, span: SpanId, seq: u64) {
        if span.0 == NONE_U32 {
            return;
        }
        self.spans[span.0 as usize].incident = seq;
    }

    /// Tags a span with a machine.
    pub fn set_machine(&mut self, span: SpanId, machine: MachineId) {
        if span.0 == NONE_U32 {
            return;
        }
        self.spans[span.0 as usize].machine = machine.0;
    }

    /// Tags a span with a free scalar payload (latency ms, step, count...).
    pub fn set_value(&mut self, span: SpanId, value: u64) {
        if span.0 == NONE_U32 {
            return;
        }
        self.spans[span.0 as usize].value = value;
    }

    /// Freezes the recording into the owned document form, labelling every
    /// span with `scope` (a job label, or `fleet`). Ids stay recorder-local
    /// (insertion order); [`Trace::merge`] re-assigns them globally.
    pub fn snapshot(&self, scope: &str) -> Trace {
        Trace {
            spans: self
                .spans
                .iter()
                .enumerate()
                .map(|(i, raw)| TraceSpan {
                    id: i as u64,
                    parent: (raw.parent != NONE_U32).then(|| u64::from(raw.parent)),
                    kind: raw.kind,
                    name: raw.name.to_string(),
                    scope: scope.to_string(),
                    start: raw.start,
                    end: raw.end,
                    incident: (raw.incident != NONE_U64).then_some(raw.incident),
                    machine: (raw.machine != NONE_U32).then_some(MachineId(raw.machine)),
                    value: raw.value,
                })
                .collect(),
        }
    }
}

/// One span in a finished trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Trace-unique id (scope-local before [`Trace::merge`], global after).
    pub id: u64,
    /// Parent span id within the same scope, if any.
    pub parent: Option<u64>,
    /// Taxonomy kind.
    pub kind: SpanKind,
    /// Span name (interned at record time, owned here).
    pub name: String,
    /// The scope that recorded it: a job label, or `fleet`.
    pub scope: String,
    /// Sim-time start.
    pub start: SimTime,
    /// Sim-time end (== start for instant events).
    pub end: SimTime,
    /// The incident sequence number the span belongs to, if any.
    pub incident: Option<u64>,
    /// The machine the span is about, if any.
    pub machine: Option<MachineId>,
    /// Free scalar payload (latency ms, step, count...).
    pub value: u64,
}

impl TraceSpan {
    /// Whether this is an instant event (zero sim-time width).
    pub fn is_instant(&self) -> bool {
        self.start == self.end
    }
}

/// A finished sim-time trace: the deterministic record of what the machinery
/// did over one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Spans in canonical order: `(start, scope, local id)` after a merge,
    /// insertion order within a single-scope snapshot.
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// Interleaves several scope-local traces into one, in canonical
    /// `(start, scope, local id)` order, re-assigning globally sequential
    /// ids (and remapping parent links accordingly). Deterministic: the
    /// result depends only on the input span sets, not on thread timing or
    /// the order the parts were produced in.
    pub fn merge(parts: impl IntoIterator<Item = Trace>) -> Trace {
        let mut spans: Vec<TraceSpan> = parts.into_iter().flat_map(|part| part.spans).collect();
        spans.sort_by(|a, b| (a.start, &a.scope, a.id).cmp(&(b.start, &b.scope, b.id)));
        // Each span's scope as a small index, and per scope a table of
        // `(local id, merged id)` sorted by local id: a parent is remapped
        // by a binary search in its own scope's table, with no scope string
        // cloned or hashed per lookup.
        let mut scope_index: HashMap<&str, usize> = HashMap::new();
        let mut tables: Vec<Vec<(u64, u64)>> = Vec::new();
        let scope_of: Vec<usize> = spans
            .iter()
            .enumerate()
            .map(|(new_id, span)| {
                let fresh = tables.len();
                let scope = *scope_index.entry(span.scope.as_str()).or_insert(fresh);
                if scope == fresh {
                    tables.push(Vec::new());
                }
                tables[scope].push((span.id, new_id as u64));
                scope
            })
            .collect();
        for table in &mut tables {
            table.sort_unstable();
        }
        for ((new_id, span), &scope) in spans.iter_mut().enumerate().zip(&scope_of) {
            let table = &tables[scope];
            span.parent = span.parent.and_then(|old| {
                // A local id seen twice in one scope maps to its last
                // occurrence in canonical order.
                let end = table.partition_point(|&(id, _)| id <= old);
                (end > 0 && table[end - 1].0 == old).then(|| table[end - 1].1)
            });
            span.id = new_id as u64;
        }
        Trace { spans }
    }

    /// Span count per kind, in [`SpanKind::ALL`] order. The digest source:
    /// deterministic, so safe to render.
    pub fn counts_by_kind(&self) -> Vec<(SpanKind, usize)> {
        SpanKind::ALL
            .iter()
            .map(|&kind| (kind, self.spans.iter().filter(|s| s.kind == kind).count()))
            .collect()
    }

    /// The distinct scopes present, sorted.
    pub fn scopes(&self) -> Vec<&str> {
        let mut scopes: Vec<&str> = self.spans.iter().map(|s| s.scope.as_str()).collect();
        scopes.sort_unstable();
        scopes.dedup();
        scopes
    }

    /// Exports the trace as a self-describing JSON document. Deterministic:
    /// equal traces export byte-identical text, and an imported trace
    /// re-exports to the exact input bytes.
    pub fn export_json(&self) -> String {
        render_document(TRACE_FORMAT, |w| self.encode_members(w))
    }

    /// Imports a trace written by [`Trace::export_json`]. Never panics:
    /// corruption, truncation, and future versions come back as positioned
    /// [`CodecError`]s.
    pub fn import_json(text: &str) -> Result<Trace, CodecError> {
        Trace::decode(&parse_document(text, TRACE_FORMAT)?)
    }

    /// Renders the trace in the Chrome trace-event JSON format, loadable in
    /// `chrome://tracing` or Perfetto. One synthetic thread per scope;
    /// sim-time milliseconds map onto trace microseconds. Deterministic.
    pub fn to_chrome_json(&self) -> String {
        let scopes = self.scopes();
        let tid_of =
            |scope: &str| -> u64 { scopes.iter().position(|s| *s == scope).unwrap_or(0) as u64 };
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("traceEvents");
            w.array(|w| {
                for (tid, scope) in scopes.iter().enumerate() {
                    w.object(|w| {
                        w.member("name", "thread_name");
                        w.member("ph", "M");
                        w.member("pid", &0u64);
                        w.member("tid", &(tid as u64));
                        w.key("args");
                        w.object(|w| w.member("name", *scope));
                    });
                }
                for span in &self.spans {
                    let ts = span.start.as_millis() * 1000;
                    w.object(|w| {
                        w.member("name", &span.name);
                        w.member("cat", span.kind.label());
                        if span.is_instant() {
                            w.member("ph", "i");
                            w.member("s", "t");
                            w.member("ts", &ts);
                        } else {
                            w.member("ph", "X");
                            w.member("ts", &ts);
                            w.member(
                                "dur",
                                &((span.end.as_millis() - span.start.as_millis()) * 1000),
                            );
                        }
                        w.member("pid", &0u64);
                        w.member("tid", &tid_of(&span.scope));
                        w.key("args");
                        w.object(|w| {
                            w.member("id", &span.id);
                            if let Some(seq) = span.incident {
                                w.member("incident", &seq);
                            }
                            if let Some(machine) = span.machine {
                                w.member("machine", &u64::from(machine.0));
                            }
                            if span.value != 0 {
                                w.member("value", &span.value);
                            }
                        });
                    });
                }
            });
            w.member("displayTimeUnit", "ms");
        });
        w.finish()
    }
}

// ---------------------------------------------------------------------------
// Codec impls
// ---------------------------------------------------------------------------

string_enum_codec!(SpanKind by label);
struct_codec!(TraceSpan {
    id,
    parent,
    kind,
    name,
    scope,
    start,
    end,
    incident,
    machine,
    value,
});
struct_codec!(Trace { spans });

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_incident::codec::{ErrorPosition, JsonValue, FORMAT_VERSION};

    fn sample_trace() -> Trace {
        let mut job = TraceRecorder::new();
        let root = job.open(
            SpanKind::Incident,
            "job-hang",
            None,
            SimTime::from_secs(100),
        );
        job.set_incident(root, 7);
        let detect = job.open(
            SpanKind::Detect,
            names::DETECT,
            Some(root),
            SimTime::from_secs(100),
        );
        job.close(detect, SimTime::from_secs(130));
        job.set_value(detect, 30_000);
        let evict = job.instant(
            SpanKind::Evict,
            names::EVICT,
            Some(root),
            SimTime::from_secs(200),
        );
        job.set_machine(evict, MachineId(5));
        job.set_incident(evict, 7);
        job.close(root, SimTime::from_secs(400));

        let mut fleet = TraceRecorder::new();
        let step = fleet.open(
            SpanKind::JobStep,
            names::JOB_STEP,
            None,
            SimTime::from_secs(90),
        );
        fleet.close(step, SimTime::from_secs(400));
        fleet.instant(
            SpanKind::Warehouse,
            names::WAREHOUSE_INSERT,
            Some(step),
            SimTime::from_secs(400),
        );

        Trace::merge([job.snapshot("job-a"), fleet.snapshot("fleet")])
    }

    #[test]
    fn merge_orders_canonically_and_remaps_parents() {
        let trace = sample_trace();
        assert_eq!(trace.spans.len(), 5);
        // Ids are globally sequential in (start, scope, local id) order.
        for (i, span) in trace.spans.iter().enumerate() {
            assert_eq!(span.id, i as u64);
        }
        let starts: Vec<u64> = trace.spans.iter().map(|s| s.start.as_millis()).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "spans sorted by start time");
        // Parent links survived the remap: the evict instant's parent is the
        // incident root, in the same scope.
        let evict = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Evict)
            .unwrap();
        let parent = &trace.spans[evict.parent.unwrap() as usize];
        assert_eq!(parent.kind, SpanKind::Incident);
        assert_eq!(parent.scope, evict.scope);
        // Merging in the other order yields the identical trace.
        let again = sample_trace();
        assert_eq!(again, trace);
    }

    #[test]
    fn export_import_is_an_exact_fixed_point() {
        let trace = sample_trace();
        let text = trace.export_json();
        let back = Trace::import_json(&text).expect("import succeeds");
        assert_eq!(back, trace);
        assert_eq!(back.export_json(), text);
    }

    #[test]
    fn corrupted_trace_documents_fail_with_positioned_errors() {
        let good = sample_trace().export_json();

        let truncated = &good[..good.len() / 2];
        let err = Trace::import_json(truncated).expect_err("truncated must fail");
        assert!(matches!(err.at, ErrorPosition::Byte { .. }), "{err}");

        let wrong_kind = good.replacen("\"kind\":\"incident\"", "\"kind\":\"not-a-kind\"", 1);
        let err = Trace::import_json(&wrong_kind).expect_err("bad kind must fail");
        assert!(err.to_string().contains("unknown SpanKind"), "{err}");

        let foreign = good.replace(TRACE_FORMAT, "some-other-format");
        let err = Trace::import_json(&foreign).expect_err("foreign format must fail");
        assert!(err.to_string().contains("unexpected format"), "{err}");

        let current = format!("\"version\":{FORMAT_VERSION}");
        let future = good.replacen(&current, &format!("\"version\":{}", FORMAT_VERSION + 1), 1);
        assert_ne!(future, good, "the document has no `{current}` header");
        let err = Trace::import_json(&future).expect_err("future version must fail");
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    #[test]
    fn chrome_export_names_every_scope_and_span() {
        let trace = sample_trace();
        let chrome = trace.to_chrome_json();
        let doc = JsonValue::parse(&chrome).expect("chrome export is valid JSON");
        let JsonValue::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents is an array");
        };
        // 2 thread_name metadata events + 5 spans.
        assert_eq!(events.len(), 7);
        let metadata = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str().unwrap() == "M")
            .count();
        assert_eq!(metadata, 2);
        // Complete events carry ts+dur in microseconds.
        let incident = events
            .iter()
            .find(|e| e.get("cat").map(|c| c.as_str().unwrap()) == Some("incident"))
            .unwrap();
        assert_eq!(incident.get("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(incident.get("ts").unwrap().as_u64().unwrap(), 100_000_000);
        assert_eq!(incident.get("dur").unwrap().as_u64().unwrap(), 300_000_000);
        // Deterministic rendering.
        assert_eq!(trace.to_chrome_json(), chrome);
    }

    #[test]
    fn recorder_raw_spans_are_fixed_size_records() {
        // The hot-path guarantee: a raw span is Copy and carries no owned
        // heap data (names are interned statics).
        fn assert_copy<T: Copy>() {}
        assert_copy::<RawSpan>();
        let mut recorder = TraceRecorder::new();
        recorder.spans.reserve(16);
        let capacity = recorder.spans.capacity();
        for i in 0..16 {
            let span = recorder.open(SpanKind::JobStep, names::JOB_STEP, None, SimTime::ZERO);
            recorder.set_value(span, i);
            recorder.close(span, SimTime::from_secs(i));
        }
        // No reallocation happened while recording within capacity.
        assert_eq!(recorder.spans.capacity(), capacity);
        assert_eq!(recorder.spans.len(), 16);
    }
}
