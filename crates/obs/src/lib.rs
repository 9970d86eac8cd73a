//! The observability plane: what the reproduction can see about *itself*.
//!
//! `crates/telemetry` holds the simulated workload's signals (the stand-in for
//! wandb/DCGM/dmesg); this crate observes the machinery that reacts to it —
//! recovery phases, broker decisions, scheduler behavior, warehouse activity.
//! It is split into two strictly separated domains:
//!
//! 1. **Sim-time tracing** ([`trace`], [`query`]) — spans and instant events
//!    stamped with *simulated* time. Everything here is a pure function of
//!    the seed: traces are byte-identical across serial/parallel harnesses,
//!    warehouse spill on/off, and heap/naive schedulers, so they may feed
//!    deterministic reports and byte-diff oracles. The hot recording path
//!    allocates nothing per span beyond the amortized `Vec` growth: span
//!    names are interned `&'static str`s and every other field is a fixed-
//!    size scalar.
//! 2. **Wall-clock self-profiling** ([`metrics`]) — counters, gauges, and
//!    log-scale latency histograms measured in *host* time (or host-side op
//!    counts). These numbers vary run to run and machine to machine, so they
//!    must NEVER appear in a deterministic rendering; they surface only in
//!    telemetry sinks (`BENCH_obs.json`, stderr).
//!
//! The query surface ([`query::trace_get`]) filters a finished [`Trace`] by
//! scope, span kind, incident, machine, and sim-time window; the diagnosis
//! walker ([`query::trace_diagnose`]) reconstructs each incident's
//! detection → diagnosis → recovery cause chain *from spans alone* and is
//! conformance-tested against the incident store's recorded classification.
//!
//! The alerting plane ([`rules`], [`alert`]) lives entirely in domain 1:
//! declarative [`rules::RuleSet`]s (JSON-loadable detection policy) are
//! evaluated *during* the run by an [`alert::AlertEngine`] fed from a
//! [`alert::SignalBus`] of sim-time samples, producing an
//! [`alert::AlertTimeline`] that is byte-identical across the whole
//! determinism matrix — and [`alert::score_alerts`] grades a timeline
//! against ground-truth injected faults (recall, time-weighted precision,
//! and the detection lead-time distribution vs the controller's own
//! detection spans).

pub mod alert;
pub mod metrics;
pub mod query;
pub mod rules;
pub mod trace;

pub use alert::{
    score_alerts, Alert, AlertEngine, AlertScorecard, AlertTimeline, FaultWindow, Sample,
    SignalBus, SignalId, SCORECARD_FORMAT, SIGNAL_RING_SLOTS, TIMELINE_FORMAT,
};
pub use metrics::{
    HistogramSnapshot, LatencyHistogram, MetricsRegistry, HISTOGRAM_BUCKETS, METRICS_FORMAT,
};
pub use query::{trace_diagnose, trace_diagnose_all, trace_get, CauseChain, TraceQuery};
pub use rules::{signals, Aggregate, AlertRule, AlertSeverity, Detector, RuleSet, RULES_FORMAT};
pub use trace::{names, SpanId, SpanKind, Trace, TraceRecorder, TraceSpan, TRACE_FORMAT};
