//! Streaming sim-time alert engine: signals, lifecycle, and lead-time
//! scoring.
//!
//! This module is the *evaluation* half of the alerting plane (the rules
//! themselves live in [`crate::rules`]). The flow during a fleet run:
//!
//! 1. The runner registers named signals on a [`SignalBus`] and publishes
//!    samples as events happen — incidents, evictions, pool occupancy,
//!    broker queue depth — each stamped with the current sim time. Every
//!    signal keeps a fixed-size ring of recent samples
//!    ([`SIGNAL_RING_SLOTS`]); publishing and the rolling-window aggregates
//!    (`sum` / `rate` / `max` / newest-minus-oldest) never allocate.
//! 2. After each event the runner calls [`AlertEngine::evaluate`]. Rules
//!    whose detector turns true open an alert (`fired_at = now`); an alert
//!    whose condition stays true past its `escalate_after` escalates; one
//!    whose condition has been false for `clear_after` resolves. All three
//!    stamps are sim time, so the whole lifecycle is a pure function of the
//!    seed — byte-identical across schedulers, spill modes, and host
//!    threading, exactly like the trace.
//! 3. [`AlertEngine::finish`] canonicalizes the result into an
//!    [`AlertTimeline`] (sorted, sequence-numbered, codec-exportable), and
//!    [`score_alerts`] grades a timeline against ground truth: for each
//!    injected fault ([`FaultWindow`]), did some alert fire at or before
//!    the controller's *own* detection completed, and by how much lead
//!    time? The resulting [`AlertScorecard`] carries recall, time-weighted
//!    precision, and the lead distribution into `BENCH_obs.json`.
//!
//! Everything here lives in the deterministic sim-time domain of the
//! two-domain observability contract — no wall-clock reads anywhere.

use byterobust_incident::codec::{
    parse_document, render_document, CodecError, Decode, EncodeMembers,
};
use byterobust_incident::struct_codec;
use byterobust_sim::{SimDuration, SimTime};

use crate::rules::{Aggregate, AlertRule, AlertSeverity, Detector, RuleSet};

/// Format header written by [`AlertTimeline::export_json`].
pub const TIMELINE_FORMAT: &str = "byterobust-alert-timeline";

/// Format header written by [`AlertScorecard::export_json`].
pub const SCORECARD_FORMAT: &str = "byterobust-alert-scorecard";

/// Samples retained per signal. Windows only ever look backwards from `now`,
/// so a bounded ring suffices; a window that would reach past the 512 newest
/// samples sees a (deterministically) truncated view, which in practice
/// never happens for the shipped rule windows.
pub const SIGNAL_RING_SLOTS: usize = 512;

/// One published observation: a value at a sim-time instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the observation was made.
    pub at: SimTime,
    /// The observed value.
    pub value: f64,
}

/// Handle for a registered signal (index into the bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalId(usize);

/// A fixed-capacity ring of recent samples. Allocated once at registration;
/// publishing overwrites the oldest slot when full.
#[derive(Debug, Clone)]
struct Ring {
    slots: Vec<Sample>,
    /// Next write position.
    head: usize,
    /// Live sample count (saturates at capacity).
    len: usize,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: vec![
                Sample {
                    at: SimTime::ZERO,
                    value: 0.0,
                };
                SIGNAL_RING_SLOTS
            ],
            head: 0,
            len: 0,
        }
    }

    fn push(&mut self, sample: Sample) {
        self.slots[self.head] = sample;
        self.head = (self.head + 1) % SIGNAL_RING_SLOTS;
        self.len = (self.len + 1).min(SIGNAL_RING_SLOTS);
    }

    /// Samples newest-first. Samples are published in nondecreasing `at`
    /// order, so callers can stop at the first one outside their window.
    fn newest_first(&self) -> impl Iterator<Item = Sample> + '_ {
        (0..self.len)
            .map(move |k| self.slots[(self.head + SIGNAL_RING_SLOTS - 1 - k) % SIGNAL_RING_SLOTS])
    }
}

/// Registry of named signals, each with a sample ring. The publisher (the
/// fleet runner) and the rules agree on names via
/// [`crate::rules::signals`].
#[derive(Debug, Clone, Default)]
pub struct SignalBus {
    names: Vec<String>,
    rings: Vec<Ring>,
}

impl SignalBus {
    /// An empty bus.
    pub fn new() -> SignalBus {
        SignalBus::default()
    }

    /// Registers `name` (idempotent) and returns its id. Allocates the ring
    /// here, once, so [`SignalBus::publish`] never does.
    pub fn register(&mut self, name: &str) -> SignalId {
        if let Some(id) = self.id(name) {
            return id;
        }
        self.names.push(name.to_string());
        self.rings.push(Ring::new());
        SignalId(self.names.len() - 1)
    }

    /// Looks a signal up by name.
    pub fn id(&self, name: &str) -> Option<SignalId> {
        self.names.iter().position(|n| n == name).map(SignalId)
    }

    /// Publishes a sample. Samples must arrive in nondecreasing `at` order
    /// (the event loop guarantees this); the call never allocates.
    pub fn publish(&mut self, id: SignalId, at: SimTime, value: f64) {
        self.rings[id.0].push(Sample { at, value });
    }

    /// Samples inside the half-open window `(now - window, now]`,
    /// newest-first. Membership is computed without `SimTime` subtraction
    /// (which panics on underflow near time zero); samples after `now` are
    /// skipped, and the scan stops at the first sample behind the window.
    fn window_samples(
        &self,
        id: SignalId,
        window: SimDuration,
        now: SimTime,
    ) -> impl Iterator<Item = Sample> + '_ {
        self.rings[id.0]
            .newest_first()
            .skip_while(move |sample| sample.at > now)
            .take_while(move |sample| sample.at + window > now)
    }

    /// Sum of samples in the window.
    pub fn window_sum(&self, id: SignalId, window: SimDuration, now: SimTime) -> f64 {
        self.window_samples(id, window, now)
            .map(|sample| sample.value)
            .sum()
    }

    /// Largest sample value in the window, or 0 when it is empty.
    pub fn window_max(&self, id: SignalId, window: SimDuration, now: SimTime) -> f64 {
        self.window_samples(id, window, now)
            .fold(0.0_f64, |max, sample| max.max(sample.value))
    }

    /// Per-hour rate: the window sum divided by the window length in hours.
    pub fn window_rate(&self, id: SignalId, window: SimDuration, now: SimTime) -> f64 {
        let hours = window.as_hours_f64();
        if hours <= 0.0 {
            return 0.0;
        }
        self.window_sum(id, window, now) / hours
    }

    /// Newest in-window value minus oldest in-window value (0 with fewer
    /// than two in-window samples) — growth of a cumulative gauge.
    pub fn window_change(&self, id: SignalId, window: SimDuration, now: SimTime) -> f64 {
        let mut newest: Option<f64> = None;
        let mut oldest = 0.0;
        let mut count = 0usize;
        for sample in self.window_samples(id, window, now) {
            if newest.is_none() {
                newest = Some(sample.value);
            }
            oldest = sample.value;
            count += 1;
        }
        match newest {
            Some(new) if count >= 2 => new - oldest,
            _ => 0.0,
        }
    }
}

/// One alert instance: a rule that fired, with its full sim-time lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Canonical position in the timeline (assigned by
    /// [`AlertEngine::finish`]).
    pub seq: u64,
    /// Name of the rule that fired.
    pub rule: String,
    /// The signal the rule watches.
    pub signal: String,
    /// Severity copied from the rule.
    pub severity: AlertSeverity,
    /// When the detector first turned true.
    pub fired_at: SimTime,
    /// When the alert escalated (condition continuously true past the
    /// rule's `escalate_after`), if it did.
    pub escalated_at: Option<SimTime>,
    /// When the alert resolved (condition false for `clear_after`), or
    /// `None` if still firing when the run ended.
    pub resolved_at: Option<SimTime>,
    /// Largest detector reading observed while the alert was open.
    pub peak: f64,
}

/// The canonical per-run alert record: every alert, sorted by
/// `(fired_at, rule, seq)`. Byte-identical across schedulers, spill modes,
/// and host threading for a given seed and rule set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlertTimeline {
    /// Name of the rule set that produced the timeline (empty when alerting
    /// was not enabled).
    pub rule_set: String,
    /// Alerts in canonical order.
    pub alerts: Vec<Alert>,
}

impl AlertTimeline {
    /// Count of alerts that escalated.
    pub fn escalated(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.escalated_at.is_some())
            .count()
    }

    /// Count of alerts still firing when the run ended.
    pub fn unresolved(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.resolved_at.is_none())
            .count()
    }

    /// Renders the human-readable digest: a severity summary line plus one
    /// line per alert, all sim-time stamps. Deterministic.
    pub fn render_digest(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== alert digest ({}) ==\n", self.rule_set));
        if self.alerts.is_empty() {
            out.push_str("  no alerts fired\n");
            return out;
        }
        let mut by_severity = String::new();
        for severity in AlertSeverity::ALL {
            let count = self
                .alerts
                .iter()
                .filter(|a| a.severity == severity)
                .count();
            if count > 0 {
                if !by_severity.is_empty() {
                    by_severity.push_str(", ");
                }
                by_severity.push_str(&format!("{count} {}", severity.label()));
            }
        }
        out.push_str(&format!(
            "  {} alert(s): {by_severity}; {} escalated, {} unresolved\n",
            self.alerts.len(),
            self.escalated(),
            self.unresolved(),
        ));
        for alert in &self.alerts {
            out.push_str(&format!(
                "  #{} [{}] {} on {}: fired {}",
                alert.seq,
                alert.severity.label(),
                alert.rule,
                alert.signal,
                alert.fired_at,
            ));
            if let Some(at) = alert.escalated_at {
                out.push_str(&format!(", escalated {at}"));
            }
            match alert.resolved_at {
                Some(at) => out.push_str(&format!(", resolved {at}")),
                None => out.push_str(", unresolved at exit"),
            }
            out.push_str(&format!(", peak {}\n", alert.peak));
        }
        out
    }

    /// Exports the timeline as a self-describing JSON document (format
    /// [`TIMELINE_FORMAT`]). Deterministic; an import re-exports to the
    /// exact same bytes.
    pub fn export_json(&self) -> String {
        render_document(TIMELINE_FORMAT, |w| self.encode_members(w))
    }

    /// Imports a document written by [`AlertTimeline::export_json`]. Never
    /// panics; corruption comes back as a positioned [`CodecError`].
    pub fn import_json(text: &str) -> Result<AlertTimeline, CodecError> {
        AlertTimeline::decode(&parse_document(text, TIMELINE_FORMAT)?)
    }
}

/// Per-rule evaluation state inside the engine.
#[derive(Debug, Clone)]
struct RuleState {
    /// Bound lazily by name; a rule whose signal never registers is inert.
    signal: Option<SignalId>,
    /// The open alert, if the rule is currently firing.
    active: Option<OpenAlert>,
}

#[derive(Debug, Clone, Copy)]
struct OpenAlert {
    fired_at: SimTime,
    escalated_at: Option<SimTime>,
    /// Set while the condition is false but `clear_after` has not elapsed.
    false_since: Option<SimTime>,
    peak: f64,
}

/// Evaluates a [`RuleSet`] against a [`SignalBus`] as sim time advances.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    set_name: String,
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    completed: Vec<Alert>,
}

impl AlertEngine {
    /// Builds an engine for `rules`. Signals are bound by name on first
    /// evaluation, so registration order on the bus does not matter.
    pub fn new(rules: &RuleSet) -> AlertEngine {
        AlertEngine {
            set_name: rules.name.clone(),
            rules: rules.rules.clone(),
            states: vec![
                RuleState {
                    signal: None,
                    active: None,
                };
                rules.rules.len()
            ],
            completed: Vec::new(),
        }
    }

    /// Evaluates every rule at sim time `now`. Call after each event, with
    /// nondecreasing `now` — the lifecycle stamps are exactly the
    /// evaluation instants, which makes them a pure function of the seed.
    pub fn evaluate(&mut self, bus: &SignalBus, now: SimTime) {
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            if state.signal.is_none() {
                state.signal = bus.id(&rule.signal);
            }
            let Some(signal) = state.signal else { continue };
            let (firing, reading) = detect(&rule.detector, bus, signal, now);
            match state.active.as_mut() {
                Some(open) => {
                    open.peak = open.peak.max(reading);
                    if firing {
                        open.false_since = None;
                        if open.escalated_at.is_none() {
                            if let Some(after) = rule.escalate_after {
                                if now >= open.fired_at + after {
                                    open.escalated_at = Some(now);
                                }
                            }
                        }
                    } else {
                        let since = *open.false_since.get_or_insert(now);
                        if now >= since + rule.clear_after {
                            let open = state.active.take().expect("active alert");
                            self.completed.push(Alert {
                                seq: 0,
                                rule: rule.name.clone(),
                                signal: rule.signal.clone(),
                                severity: rule.severity,
                                fired_at: open.fired_at,
                                escalated_at: open.escalated_at,
                                resolved_at: Some(now),
                                peak: open.peak,
                            });
                        }
                    }
                }
                None if firing => {
                    state.active = Some(OpenAlert {
                        fired_at: now,
                        escalated_at: None,
                        false_since: None,
                        peak: reading,
                    });
                }
                None => {}
            }
        }
    }

    /// Closes the books: alerts still open stay `resolved_at: None`, and
    /// the full set is sorted into canonical `(fired_at, rule, insertion)`
    /// order with sequence numbers assigned.
    pub fn finish(mut self) -> AlertTimeline {
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            if let Some(open) = state.active.take() {
                self.completed.push(Alert {
                    seq: 0,
                    rule: rule.name.clone(),
                    signal: rule.signal.clone(),
                    severity: rule.severity,
                    fired_at: open.fired_at,
                    escalated_at: open.escalated_at,
                    resolved_at: None,
                    peak: open.peak,
                });
            }
        }
        let mut alerts = self.completed;
        alerts.sort_by(|a, b| (a.fired_at, &a.rule).cmp(&(b.fired_at, &b.rule)));
        for (seq, alert) in alerts.iter_mut().enumerate() {
            alert.seq = seq as u64;
        }
        AlertTimeline {
            rule_set: self.set_name,
            alerts,
        }
    }
}

/// Evaluates one detector: `(is it firing, the current reading)`.
fn detect(detector: &Detector, bus: &SignalBus, signal: SignalId, now: SimTime) -> (bool, f64) {
    match *detector {
        Detector::Threshold {
            aggregate,
            window,
            threshold,
        } => {
            let reading = match aggregate {
                Aggregate::Sum => bus.window_sum(signal, window, now),
                Aggregate::Rate => bus.window_rate(signal, window, now),
                Aggregate::Max => bus.window_max(signal, window, now),
            };
            (reading >= threshold, reading)
        }
        Detector::RateOfChange { window, delta } => {
            let reading = bus.window_change(signal, window, now);
            (reading >= delta, reading)
        }
        Detector::BurnRate {
            short_window,
            long_window,
            budget_per_hour,
            burn,
        } => {
            let short = bus.window_rate(signal, short_window, now);
            let long = bus.window_rate(signal, long_window, now);
            let bar = burn * budget_per_hour;
            (short >= bar && long >= bar, short)
        }
    }
}

// ---------------------------------------------------------------------------
// Lead-time scoring against ground truth
// ---------------------------------------------------------------------------

/// Ground truth for one injected fault, in sim time: when it was injected,
/// when the controller's own detection phase completed, and when the full
/// recovery closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultWindow {
    /// Fault injection instant.
    pub injected_at: SimTime,
    /// End of the controller's detection phase (`injected_at + detection`).
    pub detected_at: SimTime,
    /// End of the full recovery (`injected_at + total cost`).
    pub closed_at: SimTime,
}

/// How a rule set performed against ground truth. Exportable via the codec
/// (format [`SCORECARD_FORMAT`]) and embedded in `BENCH_obs.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertScorecard {
    /// Name of the scored rule set.
    pub rule_set: String,
    /// Ground-truth fault count.
    pub faults: usize,
    /// Faults some alert fired for at or before the controller's own
    /// detection completed.
    pub covered_faults: usize,
    /// Total alerts in the timeline.
    pub alerts: usize,
    /// Alerts that escalated.
    pub escalated: usize,
    /// Alerts unresolved at the end of the run.
    pub unresolved: usize,
    /// `covered_faults / faults` (1 when there are no faults).
    pub recall: f64,
    /// Time-weighted precision: of the total sim time blanketed by alerts,
    /// the fraction overlapping some fault's `[injected_at, closed_at]`
    /// span (1 when no alerts fired).
    pub precision: f64,
    /// Median detection lead over covered faults, seconds. Lead for one
    /// fault is `detected_at -` the earliest covering alert's `fired_at` —
    /// strictly positive means the alert plane beat the controller.
    pub median_lead_secs: f64,
    /// Mean detection lead over covered faults, seconds.
    pub mean_lead_secs: f64,
    /// Largest detection lead over covered faults, seconds.
    pub max_lead_secs: f64,
}

impl AlertScorecard {
    /// Exports the scorecard as a self-describing JSON document.
    pub fn export_json(&self) -> String {
        render_document(SCORECARD_FORMAT, |w| self.encode_members(w))
    }

    /// Imports a document written by [`AlertScorecard::export_json`].
    pub fn import_json(text: &str) -> Result<AlertScorecard, CodecError> {
        AlertScorecard::decode(&parse_document(text, SCORECARD_FORMAT)?)
    }
}

/// Grades a timeline against ground truth. See [`AlertScorecard`] for the
/// exact definitions; the computation is pure and deterministic.
pub fn score_alerts(timeline: &AlertTimeline, faults: &[FaultWindow]) -> AlertScorecard {
    // The scoring horizon caps unresolved alerts: the latest instant any
    // fault closed or any alert was stamped.
    let mut horizon = SimTime::ZERO;
    for fault in faults {
        horizon = horizon.max(fault.closed_at);
    }
    for alert in &timeline.alerts {
        horizon = horizon.max(alert.fired_at);
        if let Some(at) = alert.resolved_at {
            horizon = horizon.max(at);
        }
    }

    // Coverage + lead per fault: the earliest alert that fired at or before
    // the controller's detection completed and had not resolved before the
    // fault was injected.
    let mut leads_secs: Vec<f64> = Vec::new();
    let mut covered_faults = 0usize;
    for fault in faults {
        let earliest = timeline
            .alerts
            .iter()
            .filter(|alert| {
                alert.fired_at <= fault.detected_at
                    && alert
                        .resolved_at
                        .is_none_or(|resolved| resolved >= fault.injected_at)
            })
            .map(|alert| alert.fired_at)
            .min();
        if let Some(fired_at) = earliest {
            covered_faults += 1;
            leads_secs.push(fault.detected_at.since(fired_at).as_secs_f64());
        }
    }
    leads_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite leads"));

    // Time-weighted precision: |union(alerts) ∩ union(faults)| / |union(alerts)|.
    let alert_union = merge_intervals(
        timeline
            .alerts
            .iter()
            .map(|alert| (alert.fired_at, alert.resolved_at.unwrap_or(horizon))),
    );
    let fault_union = merge_intervals(
        faults
            .iter()
            .map(|fault| (fault.injected_at, fault.closed_at)),
    );
    let alert_millis: u64 = alert_union
        .iter()
        .map(|(start, end)| end.since(*start).as_millis())
        .sum();
    let overlap_millis = intersect_millis(&alert_union, &fault_union);
    let precision = if alert_millis == 0 {
        1.0
    } else {
        overlap_millis as f64 / alert_millis as f64
    };

    let recall = if faults.is_empty() {
        1.0
    } else {
        covered_faults as f64 / faults.len() as f64
    };
    let median_lead_secs = if leads_secs.is_empty() {
        0.0
    } else if leads_secs.len() % 2 == 1 {
        leads_secs[leads_secs.len() / 2]
    } else {
        (leads_secs[leads_secs.len() / 2 - 1] + leads_secs[leads_secs.len() / 2]) / 2.0
    };
    let mean_lead_secs = if leads_secs.is_empty() {
        0.0
    } else {
        leads_secs.iter().sum::<f64>() / leads_secs.len() as f64
    };
    let max_lead_secs = leads_secs.last().copied().unwrap_or(0.0);

    AlertScorecard {
        rule_set: timeline.rule_set.clone(),
        faults: faults.len(),
        covered_faults,
        alerts: timeline.alerts.len(),
        escalated: timeline.escalated(),
        unresolved: timeline.unresolved(),
        recall,
        precision,
        median_lead_secs,
        mean_lead_secs,
        max_lead_secs,
    }
}

/// Sorts and merges possibly-overlapping `[start, end]` intervals into a
/// disjoint, ascending list.
fn merge_intervals(intervals: impl Iterator<Item = (SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    let mut sorted: Vec<(SimTime, SimTime)> =
        intervals.filter(|(start, end)| end >= start).collect();
    sorted.sort();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(sorted.len());
    for (start, end) in sorted {
        match merged.last_mut() {
            Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Total overlap, in milliseconds, between two disjoint ascending interval
/// lists.
fn intersect_millis(a: &[(SimTime, SimTime)], b: &[(SimTime, SimTime)]) -> u64 {
    let mut total = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let start = a[i].0.max(b[j].0);
        let end = a[i].1.min(b[j].1);
        if end > start {
            total += end.since(start).as_millis();
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

// ---------------------------------------------------------------------------
// Codec impls
// ---------------------------------------------------------------------------

struct_codec!(Alert {
    seq,
    rule,
    signal,
    severity,
    fired_at,
    escalated_at,
    resolved_at,
    peak,
});
struct_codec!(AlertTimeline { rule_set, alerts });
struct_codec!(AlertScorecard {
    rule_set,
    faults,
    covered_faults,
    alerts,
    escalated,
    unresolved,
    recall,
    precision,
    median_lead_secs,
    mean_lead_secs,
    max_lead_secs,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::signals;
    use byterobust_incident::codec::{ErrorPosition, FORMAT_VERSION};

    fn hours(h: u64) -> SimDuration {
        SimDuration::from_hours(h)
    }

    fn at_hours(h: u64) -> SimTime {
        SimTime::ZERO + hours(h)
    }

    #[test]
    fn sample_is_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Sample>();
        assert_copy::<SignalId>();
        assert_copy::<FaultWindow>();
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let mut bus = SignalBus::new();
        let id = bus.register("test/counter");
        let total = SIGNAL_RING_SLOTS + 88;
        for k in 0..total {
            bus.publish(id, SimTime::from_millis(k as u64), 1.0);
        }
        let now = SimTime::from_millis(total as u64);
        // A window covering everything still only sees the ring's capacity.
        let sum = bus.window_sum(id, SimDuration::from_days(1), now);
        assert_eq!(sum, SIGNAL_RING_SLOTS as f64);
    }

    #[test]
    fn window_aggregates_respect_the_window() {
        let mut bus = SignalBus::new();
        let id = bus.register("test/values");
        bus.publish(id, at_hours(1), 5.0);
        bus.publish(id, at_hours(3), 2.0);
        bus.publish(id, at_hours(5), 3.0);
        let now = at_hours(6);
        // 3h window (exclusive lower edge at t+3h): samples at 5h and... the
        // 3h sample sits exactly on the edge and is excluded.
        assert_eq!(bus.window_sum(id, hours(3), now), 3.0);
        assert_eq!(bus.window_sum(id, hours(4), now), 5.0);
        assert_eq!(bus.window_max(id, hours(6), now), 5.0);
        assert_eq!(bus.window_rate(id, hours(4), now), 5.0 / 4.0);
        // Change over a window holding all three samples: newest − oldest.
        assert_eq!(bus.window_change(id, hours(6), now), 3.0 - 5.0);
        // One in-window sample → no change reading.
        assert_eq!(bus.window_change(id, hours(3), now), 0.0);
        // Empty window, and near-zero-time publishes, never underflow.
        assert_eq!(bus.window_sum(id, hours(1), now), 0.0);
        assert_eq!(bus.window_max(id, hours(48), SimTime::ZERO), 0.0);
    }

    fn one_rule_set(rule: AlertRule) -> RuleSet {
        RuleSet {
            name: "test".to_string(),
            rules: vec![rule],
        }
    }

    #[test]
    fn threshold_alert_walks_the_full_lifecycle() {
        let set = one_rule_set(AlertRule {
            name: "burst".to_string(),
            signal: signals::INCIDENTS.to_string(),
            detector: Detector::Threshold {
                aggregate: Aggregate::Sum,
                window: hours(2),
                threshold: 2.0,
            },
            severity: AlertSeverity::Page,
            escalate_after: Some(hours(3)),
            clear_after: hours(1),
        });
        let mut bus = SignalBus::new();
        let id = bus.register(signals::INCIDENTS);
        let mut engine = AlertEngine::new(&set);

        // Two incidents an hour apart: fires at the second.
        bus.publish(id, at_hours(1), 1.0);
        engine.evaluate(&bus, at_hours(1));
        bus.publish(id, at_hours(2), 1.0);
        engine.evaluate(&bus, at_hours(2));
        // Keep it true long enough to escalate.
        bus.publish(id, at_hours(3), 1.0);
        engine.evaluate(&bus, at_hours(3));
        bus.publish(id, at_hours(4), 1.0);
        engine.evaluate(&bus, at_hours(4));
        bus.publish(id, at_hours(5), 1.0);
        engine.evaluate(&bus, at_hours(5));
        // Quiet: condition false at 8h, still false at 10h → resolves
        // (clear_after 1h elapsed).
        engine.evaluate(&bus, at_hours(8));
        engine.evaluate(&bus, at_hours(10));

        let timeline = engine.finish();
        assert_eq!(timeline.rule_set, "test");
        assert_eq!(timeline.alerts.len(), 1);
        let alert = &timeline.alerts[0];
        assert_eq!(alert.seq, 0);
        assert_eq!(alert.rule, "burst");
        assert_eq!(alert.fired_at, at_hours(2));
        assert_eq!(alert.escalated_at, Some(at_hours(5)));
        assert_eq!(alert.resolved_at, Some(at_hours(10)));
        assert_eq!(alert.peak, 2.0);
        assert_eq!(timeline.escalated(), 1);
        assert_eq!(timeline.unresolved(), 0);
        let digest = timeline.render_digest();
        assert!(digest.contains("1 alert(s): 1 page"), "{digest}");
        assert!(digest.contains("escalated t+5.00h"), "{digest}");
    }

    #[test]
    fn rate_of_change_and_burn_rate_detectors_fire() {
        let mut bus = SignalBus::new();
        let gauge = bus.register(signals::POOL_SHORTFALL);
        let counter = bus.register(signals::INCIDENTS);
        let set = RuleSet {
            name: "combo".to_string(),
            rules: vec![
                AlertRule {
                    name: "growth".to_string(),
                    signal: signals::POOL_SHORTFALL.to_string(),
                    detector: Detector::RateOfChange {
                        window: hours(4),
                        delta: 2.0,
                    },
                    severity: AlertSeverity::Ticket,
                    escalate_after: None,
                    clear_after: SimDuration::ZERO,
                },
                AlertRule {
                    name: "burn".to_string(),
                    signal: signals::INCIDENTS.to_string(),
                    detector: Detector::BurnRate {
                        short_window: hours(1),
                        long_window: hours(4),
                        budget_per_hour: 1.0,
                        burn: 2.0,
                    },
                    severity: AlertSeverity::Page,
                    escalate_after: None,
                    clear_after: SimDuration::ZERO,
                },
            ],
        };
        let mut engine = AlertEngine::new(&set);

        // Flat gauge, sparse incidents: nothing fires.
        bus.publish(gauge, at_hours(1), 4.0);
        bus.publish(counter, at_hours(1), 1.0);
        engine.evaluate(&bus, at_hours(1));
        // Gauge jumps by 3 within the window → rate-of-change fires. Burn:
        // 8 incidents in the last hour is 8/h short AND (9 over 4h) > 2/h
        // long → fires too.
        bus.publish(gauge, at_hours(2), 7.0);
        for _ in 0..8 {
            bus.publish(counter, at_hours(2), 1.0);
        }
        engine.evaluate(&bus, at_hours(2));
        let timeline = engine.finish();
        let names: Vec<&str> = timeline.alerts.iter().map(|a| a.rule.as_str()).collect();
        assert_eq!(
            names,
            ["burn", "growth"],
            "both fire at t+2h, sorted by rule"
        );
        assert_eq!(timeline.unresolved(), 2);
    }

    #[test]
    fn unbound_rules_are_inert() {
        let set = one_rule_set(AlertRule {
            name: "ghost".to_string(),
            signal: "never/registered".to_string(),
            detector: Detector::Threshold {
                aggregate: Aggregate::Max,
                window: hours(1),
                threshold: 0.0,
            },
            severity: AlertSeverity::Ticket,
            escalate_after: None,
            clear_after: SimDuration::ZERO,
        });
        let bus = SignalBus::new();
        let mut engine = AlertEngine::new(&set);
        engine.evaluate(&bus, at_hours(1));
        assert!(engine.finish().alerts.is_empty());
    }

    fn fault(injected_h: u64, detect_mins: u64, close_h: u64) -> FaultWindow {
        FaultWindow {
            injected_at: at_hours(injected_h),
            detected_at: at_hours(injected_h) + SimDuration::from_mins(detect_mins),
            closed_at: at_hours(close_h),
        }
    }

    fn alert(seq: u64, fired_h: u64, resolved_h: Option<u64>) -> Alert {
        Alert {
            seq,
            rule: "r".to_string(),
            signal: signals::INCIDENTS.to_string(),
            severity: AlertSeverity::Page,
            fired_at: at_hours(fired_h),
            escalated_at: None,
            resolved_at: resolved_h.map(at_hours),
            peak: 1.0,
        }
    }

    #[test]
    fn scoring_computes_recall_precision_and_leads() {
        let timeline = AlertTimeline {
            rule_set: "test".to_string(),
            alerts: vec![alert(0, 2, Some(4)), alert(1, 10, Some(11))],
        };
        let faults = [
            // Covered by alert #0: fired at 2h ≤ detected 2h30m; lead 30m.
            fault(2, 30, 4),
            // Missed: both alerts resolved before injection or fired after
            // detection (alert #1 fired 10h > detected 6h06m).
            fault(6, 6, 7),
            // Covered by alert #1: fired 10h ≤ detected 10h12m; lead 12m.
            fault(10, 12, 11),
        ];
        let card = score_alerts(&timeline, &faults);
        assert_eq!(card.faults, 3);
        assert_eq!(card.covered_faults, 2);
        assert_eq!(card.alerts, 2);
        assert!((card.recall - 2.0 / 3.0).abs() < 1e-12);
        // Alert time: [2,4] ∪ [10,11] = 3h. Overlap with fault spans
        // ([2,4] ∪ [6,7] ∪ [10,11]): all 3h → precision 1.
        assert_eq!(card.precision, 1.0);
        assert_eq!(card.median_lead_secs, (30.0 * 60.0 + 12.0 * 60.0) / 2.0);
        assert_eq!(card.max_lead_secs, 30.0 * 60.0);

        // An always-on alert blanket: recall perfect, precision poor.
        let blanket = AlertTimeline {
            rule_set: "blanket".to_string(),
            alerts: vec![alert(0, 0, None)],
        };
        let blanket_card = score_alerts(&blanket, &faults);
        assert_eq!(blanket_card.recall, 1.0);
        assert!(blanket_card.precision < card.precision);
        assert_eq!(blanket_card.unresolved, 1);

        // No alerts at all: vacuous precision, zero recall.
        let silent = AlertTimeline {
            rule_set: "silent".to_string(),
            alerts: vec![],
        };
        let silent_card = score_alerts(&silent, &faults);
        assert_eq!(silent_card.recall, 0.0);
        assert_eq!(silent_card.precision, 1.0);
        assert_eq!(silent_card.median_lead_secs, 0.0);
    }

    #[test]
    fn timeline_export_import_is_an_exact_fixed_point() {
        let timeline = AlertTimeline {
            rule_set: "test".to_string(),
            alerts: vec![
                alert(0, 1, Some(2)),
                Alert {
                    escalated_at: Some(at_hours(5)),
                    ..alert(1, 4, None)
                },
            ],
        };
        let text = timeline.export_json();
        let back = AlertTimeline::import_json(&text).expect("own export must re-import");
        assert_eq!(back, timeline);
        assert_eq!(back.export_json(), text);
        assert_eq!(back.render_digest(), timeline.render_digest());
    }

    #[test]
    fn scorecard_export_import_is_an_exact_fixed_point() {
        let card = score_alerts(
            &AlertTimeline {
                rule_set: "test".to_string(),
                alerts: vec![alert(0, 2, Some(4))],
            },
            &[fault(2, 30, 4)],
        );
        let text = card.export_json();
        let back = AlertScorecard::import_json(&text).expect("own export must re-import");
        assert_eq!(back, card);
        assert_eq!(back.export_json(), text);
    }

    #[test]
    fn corrupted_alert_documents_fail_with_positioned_errors() {
        let timeline = AlertTimeline {
            rule_set: "test".to_string(),
            alerts: vec![alert(0, 1, Some(2))],
        };
        let good = timeline.export_json();

        let truncated = &good[..good.len() - 10];
        let err = AlertTimeline::import_json(truncated).expect_err("truncated must fail");
        assert!(matches!(err.at, ErrorPosition::Byte { .. }), "{err}");

        let foreign = good.replace(TIMELINE_FORMAT, "some-other-format");
        let err = AlertTimeline::import_json(&foreign).expect_err("foreign format must fail");
        assert!(err.to_string().contains("unexpected format"), "{err}");

        let current = format!("\"version\":{FORMAT_VERSION}");
        let future = good.replacen(&current, &format!("\"version\":{}", FORMAT_VERSION + 1), 1);
        assert_ne!(future, good, "the document has no `{current}` header");
        let err = AlertTimeline::import_json(&future).expect_err("future version must fail");
        assert!(err.to_string().contains("unsupported version"), "{err}");

        // A timeline is not a scorecard: cross-format loads are rejected.
        let err = AlertScorecard::import_json(&good).expect_err("wrong format must fail");
        assert!(err.to_string().contains("unexpected format"), "{err}");

        let card = score_alerts(&timeline, &[fault(1, 30, 2)]);
        let good_card = card.export_json();
        let truncated = &good_card[..good_card.len() / 2];
        let err = AlertScorecard::import_json(truncated).expect_err("truncated must fail");
        assert!(matches!(err.at, ErrorPosition::Byte { .. }), "{err}");
    }
}
