//! Declarative alerting rules: detection policy as data.
//!
//! A [`RuleSet`] is a plain document — JSON-loadable through the in-repo
//! codec (format [`RULES_FORMAT`]) — that names which signal each rule
//! watches and which [`Detector`] decides when it is unhealthy. The engine
//! ([`crate::alert::AlertEngine`]) evaluates the set in *sim time* during
//! the run, so swapping a rule file changes detection policy without
//! touching a line of code: the fleet drill loads one via
//! `BYTEROBUST_ALERT_RULES`, and CI ships two committed fixtures
//! (`ci/alert_rules.json` plus a degraded variant) whose precision/recall
//! trade-off the `alerts_panel` bench scores against ground-truth injected
//! faults.
//!
//! Three detector families cover the classic SLO shapes:
//!
//! * [`Detector::Threshold`] — a rolling-window aggregate (sum / per-hour
//!   rate / max) compared against a bound. "≥ 4 evictions in 2 h".
//! * [`Detector::RateOfChange`] — newest-minus-oldest over the window, for
//!   cumulative gauges. "shortfall count grew this window".
//! * [`Detector::BurnRate`] — the multi-window burn-rate pattern: the same
//!   budget must be burning too fast over a short *and* a long window
//!   before the rule fires, which suppresses one-sample blips.

use byterobust_incident::codec::{
    check_format, CodecError, Decode, Encode, JsonValue, FORMAT_VERSION,
};
use byterobust_sim::SimDuration;

/// Format header written by [`RuleSet::export_json`] and checked by
/// [`RuleSet::import_json`].
pub const RULES_FORMAT: &str = "byterobust-alert-rules";

/// Well-known signal names the fleet runner publishes. Rules reference
/// signals by these strings; keeping them in one table makes the agreement
/// between publisher and rule file a compile-time fact (for the built-in
/// sets) and an easily checked one (for user-supplied files).
pub mod signals {
    /// One sample (value 1) per incident, fleet-wide, at injection time.
    pub const INCIDENTS: &str = "fleet/incidents";
    /// Machines evicted per incident.
    pub const EVICTIONS: &str = "fleet/evictions";
    /// Total unproductive seconds per incident.
    pub const RECOVERY_SECS: &str = "fleet/recovery-secs";
    /// Ready standbys in the shared pool, sampled every scheduler step.
    pub const POOL_READY: &str = "fleet/pool-ready";
    /// Cumulative machines the pool could not cover, sampled every step.
    pub const POOL_SHORTFALL: &str = "fleet/pool-shortfall-machines";
    /// Jobs held in the broker's admission queue, sampled every step.
    pub const BROKER_QUEUE: &str = "fleet/broker-queue";

    /// Per-phase recovery duration signal, e.g.
    /// `fleet/recovery-phase/detection` (seconds per incident).
    pub fn recovery_phase(phase_name: &str) -> String {
        format!("fleet/recovery-phase/{}", phase_name.replace(' ', "-"))
    }

    /// Per-job incident signal, e.g. `job/dense-small/incidents`.
    pub fn job_incidents(label: &str) -> String {
        format!("job/{label}/incidents")
    }
}

/// How urgent a firing rule is. The digest and the scorecard split counts by
/// severity; the simulation attaches no behavior to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Page a human now.
    Page,
    /// File a ticket; follow up in working hours.
    Ticket,
}

impl AlertSeverity {
    /// Every severity, in rendering order.
    pub const ALL: [AlertSeverity; 2] = [AlertSeverity::Page, AlertSeverity::Ticket];

    /// Stable lowercase label (digest lines, codec tag).
    pub fn label(self) -> &'static str {
        match self {
            AlertSeverity::Page => "page",
            AlertSeverity::Ticket => "ticket",
        }
    }
}

/// The rolling-window aggregate a [`Detector::Threshold`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Sum of sample values in the window.
    Sum,
    /// Sum divided by the window length in hours (a per-hour rate).
    Rate,
    /// Largest sample value in the window (0 when the window is empty).
    Max,
}

impl Aggregate {
    /// Every aggregate, in codec-tag order.
    pub const ALL: [Aggregate; 3] = [Aggregate::Sum, Aggregate::Rate, Aggregate::Max];

    /// Stable lowercase label (codec tag).
    pub fn label(self) -> &'static str {
        match self {
            Aggregate::Sum => "sum",
            Aggregate::Rate => "rate",
            Aggregate::Max => "max",
        }
    }
}

/// When a rule considers its signal unhealthy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detector {
    /// Fires while `aggregate(signal over window) >= threshold`.
    Threshold {
        /// Which window aggregate to compare.
        aggregate: Aggregate,
        /// Rolling window length.
        window: SimDuration,
        /// The bound.
        threshold: f64,
    },
    /// Fires while the newest in-window sample exceeds the oldest by at
    /// least `delta` — rate-of-change over cumulative gauges.
    RateOfChange {
        /// Rolling window length.
        window: SimDuration,
        /// Minimum growth across the window.
        delta: f64,
    },
    /// Multi-window burn rate: fires while the per-hour rate of the signal
    /// is at least `burn × budget_per_hour` over the short *and* the long
    /// window simultaneously.
    BurnRate {
        /// The fast window (catches the spike).
        short_window: SimDuration,
        /// The slow window (confirms it is sustained).
        long_window: SimDuration,
        /// The healthy per-hour budget for the signal.
        budget_per_hour: f64,
        /// Multiplier over the budget that counts as burning.
        burn: f64,
    },
}

/// One declarative rule: a named detector over a named signal, plus its
/// lifecycle policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (unique within a set; keys the digest and scorecard).
    pub name: String,
    /// The signal the rule watches (see [`signals`]).
    pub signal: String,
    /// When the signal is unhealthy.
    pub detector: Detector,
    /// How urgent a firing is.
    pub severity: AlertSeverity,
    /// Escalate an alert that has been firing continuously for this long
    /// (`None` never escalates).
    pub escalate_after: Option<SimDuration>,
    /// Resolve once the condition has been false for this long.
    pub clear_after: SimDuration,
}

/// A named, ordered set of rules — the unit the codec loads and the engine
/// evaluates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleSet {
    /// Set name (surfaced in the digest and the scorecard).
    pub name: String,
    /// Rules in evaluation order.
    pub rules: Vec<AlertRule>,
}

impl RuleSet {
    /// The default policy shipped as `ci/alert_rules.json`: broad enough to
    /// cover essentially every injected fault (the engine sees the incident
    /// signal the moment the runner publishes it), conservative enough that
    /// alerts clear between bursts.
    pub fn default_rules() -> RuleSet {
        RuleSet {
            name: "default".to_string(),
            rules: vec![
                AlertRule {
                    name: "incident-activity".to_string(),
                    signal: signals::INCIDENTS.to_string(),
                    detector: Detector::Threshold {
                        aggregate: Aggregate::Sum,
                        window: SimDuration::from_hours(1),
                        threshold: 1.0,
                    },
                    severity: AlertSeverity::Page,
                    escalate_after: Some(SimDuration::from_hours(6)),
                    clear_after: SimDuration::ZERO,
                },
                AlertRule {
                    name: "eviction-burst".to_string(),
                    signal: signals::EVICTIONS.to_string(),
                    detector: Detector::Threshold {
                        aggregate: Aggregate::Sum,
                        window: SimDuration::from_hours(2),
                        threshold: 4.0,
                    },
                    severity: AlertSeverity::Page,
                    escalate_after: Some(SimDuration::from_hours(4)),
                    clear_after: SimDuration::ZERO,
                },
                AlertRule {
                    name: "recovery-stall".to_string(),
                    signal: signals::RECOVERY_SECS.to_string(),
                    detector: Detector::Threshold {
                        aggregate: Aggregate::Max,
                        window: SimDuration::from_hours(3),
                        threshold: 3_600.0,
                    },
                    severity: AlertSeverity::Ticket,
                    escalate_after: None,
                    clear_after: SimDuration::ZERO,
                },
                AlertRule {
                    name: "pool-pressure".to_string(),
                    signal: signals::POOL_SHORTFALL.to_string(),
                    detector: Detector::RateOfChange {
                        window: SimDuration::from_hours(6),
                        delta: 1.0,
                    },
                    severity: AlertSeverity::Page,
                    escalate_after: Some(SimDuration::from_hours(6)),
                    clear_after: SimDuration::ZERO,
                },
                AlertRule {
                    name: "incident-burn".to_string(),
                    signal: signals::INCIDENTS.to_string(),
                    detector: Detector::BurnRate {
                        short_window: SimDuration::from_hours(1),
                        long_window: SimDuration::from_hours(6),
                        budget_per_hour: 2.0,
                        burn: 1.5,
                    },
                    severity: AlertSeverity::Ticket,
                    escalate_after: None,
                    clear_after: SimDuration::ZERO,
                },
                AlertRule {
                    name: "admission-wait".to_string(),
                    signal: signals::BROKER_QUEUE.to_string(),
                    detector: Detector::Threshold {
                        aggregate: Aggregate::Max,
                        window: SimDuration::from_hours(1),
                        threshold: 1.0,
                    },
                    severity: AlertSeverity::Ticket,
                    escalate_after: None,
                    clear_after: SimDuration::ZERO,
                },
            ],
        }
    }

    /// The degraded variant (`ci/alert_rules_degraded.json`): every
    /// threshold raised far enough that only dense bursts fire. High
    /// precision, poor recall — the cautionary end of the trade-off.
    pub fn degraded_rules() -> RuleSet {
        RuleSet {
            name: "degraded".to_string(),
            rules: vec![
                AlertRule {
                    name: "incident-activity".to_string(),
                    signal: signals::INCIDENTS.to_string(),
                    detector: Detector::Threshold {
                        aggregate: Aggregate::Sum,
                        window: SimDuration::from_hours(1),
                        threshold: 12.0,
                    },
                    severity: AlertSeverity::Page,
                    escalate_after: Some(SimDuration::from_hours(6)),
                    clear_after: SimDuration::ZERO,
                },
                AlertRule {
                    name: "eviction-burst".to_string(),
                    signal: signals::EVICTIONS.to_string(),
                    detector: Detector::Threshold {
                        aggregate: Aggregate::Sum,
                        window: SimDuration::from_hours(1),
                        threshold: 40.0,
                    },
                    severity: AlertSeverity::Page,
                    escalate_after: None,
                    clear_after: SimDuration::ZERO,
                },
                AlertRule {
                    name: "incident-burn".to_string(),
                    signal: signals::INCIDENTS.to_string(),
                    detector: Detector::BurnRate {
                        short_window: SimDuration::from_hours(1),
                        long_window: SimDuration::from_hours(6),
                        budget_per_hour: 12.0,
                        burn: 2.0,
                    },
                    severity: AlertSeverity::Ticket,
                    escalate_after: None,
                    clear_after: SimDuration::ZERO,
                },
            ],
        }
    }

    /// Exports the set as a self-describing JSON document. Deterministic:
    /// equal sets export byte-identical text, and an imported set re-exports
    /// to the exact input bytes.
    pub fn export_json(&self) -> String {
        JsonValue::object(vec![
            ("format", JsonValue::Str(RULES_FORMAT.to_string())),
            ("version", JsonValue::U64(FORMAT_VERSION)),
            ("name", self.name.encode()),
            ("rules", self.rules.encode()),
        ])
        .render()
    }

    /// Imports a set written by [`RuleSet::export_json`]. Never panics:
    /// corruption, truncation, and future versions come back as positioned
    /// [`CodecError`]s.
    pub fn import_json(text: &str) -> Result<RuleSet, CodecError> {
        let document = JsonValue::parse(text)?;
        check_format(&document, RULES_FORMAT)?;
        Ok(RuleSet {
            name: document.field("name")?,
            rules: document.field("rules")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Codec impls
// ---------------------------------------------------------------------------

impl Encode for AlertSeverity {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.label().to_string())
    }
}

impl Decode for AlertSeverity {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let text = value.as_str()?;
        AlertSeverity::ALL
            .iter()
            .find(|severity| severity.label() == text)
            .copied()
            .ok_or_else(|| CodecError::other(format!("unknown AlertSeverity `{text}`")))
    }
}

impl Encode for Aggregate {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.label().to_string())
    }
}

impl Decode for Aggregate {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let text = value.as_str()?;
        Aggregate::ALL
            .iter()
            .find(|aggregate| aggregate.label() == text)
            .copied()
            .ok_or_else(|| CodecError::other(format!("unknown Aggregate `{text}`")))
    }
}

impl Encode for Detector {
    fn encode(&self) -> JsonValue {
        match self {
            Detector::Threshold {
                aggregate,
                window,
                threshold,
            } => JsonValue::object(vec![
                ("type", JsonValue::Str("threshold".to_string())),
                ("aggregate", aggregate.encode()),
                ("window", window.encode()),
                ("threshold", threshold.encode()),
            ]),
            Detector::RateOfChange { window, delta } => JsonValue::object(vec![
                ("type", JsonValue::Str("rate-of-change".to_string())),
                ("window", window.encode()),
                ("delta", delta.encode()),
            ]),
            Detector::BurnRate {
                short_window,
                long_window,
                budget_per_hour,
                burn,
            } => JsonValue::object(vec![
                ("type", JsonValue::Str("burn-rate".to_string())),
                ("short_window", short_window.encode()),
                ("long_window", long_window.encode()),
                ("budget_per_hour", budget_per_hour.encode()),
                ("burn", burn.encode()),
            ]),
        }
    }
}

impl Decode for Detector {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let tag: String = value.field("type")?;
        match tag.as_str() {
            "threshold" => Ok(Detector::Threshold {
                aggregate: value.field("aggregate")?,
                window: value.field("window")?,
                threshold: value.field("threshold")?,
            }),
            "rate-of-change" => Ok(Detector::RateOfChange {
                window: value.field("window")?,
                delta: value.field("delta")?,
            }),
            "burn-rate" => Ok(Detector::BurnRate {
                short_window: value.field("short_window")?,
                long_window: value.field("long_window")?,
                budget_per_hour: value.field("budget_per_hour")?,
                burn: value.field("burn")?,
            }),
            other => Err(CodecError::other(format!("unknown Detector `{other}`"))),
        }
    }
}

impl Encode for AlertRule {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", self.name.encode()),
            ("signal", self.signal.encode()),
            ("detector", self.detector.encode()),
            ("severity", self.severity.encode()),
            ("escalate_after", self.escalate_after.encode()),
            ("clear_after", self.clear_after.encode()),
        ])
    }
}

impl Decode for AlertRule {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(AlertRule {
            name: value.field("name")?,
            signal: value.field("signal")?,
            detector: value.field("detector")?,
            severity: value.field("severity")?,
            escalate_after: value.field("escalate_after")?,
            clear_after: value.field("clear_after")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_incident::codec::ErrorPosition;

    #[test]
    fn builtin_sets_are_distinct_and_named() {
        let default = RuleSet::default_rules();
        let degraded = RuleSet::degraded_rules();
        assert_eq!(default.name, "default");
        assert_eq!(degraded.name, "degraded");
        assert_ne!(default, degraded);
        // Every built-in rule watches a well-known fleet signal.
        for set in [&default, &degraded] {
            for rule in &set.rules {
                assert!(rule.signal.starts_with("fleet/"), "{}", rule.signal);
            }
        }
    }

    #[test]
    fn rule_set_export_import_is_an_exact_fixed_point() {
        for set in [RuleSet::default_rules(), RuleSet::degraded_rules()] {
            let text = set.export_json();
            let back = RuleSet::import_json(&text).expect("own export must re-import");
            assert_eq!(back, set);
            assert_eq!(back.export_json(), text);
        }
    }

    #[test]
    fn corrupted_rule_documents_fail_with_positioned_errors() {
        let good = RuleSet::default_rules().export_json();

        let truncated = &good[..good.len() / 2];
        let err = RuleSet::import_json(truncated).expect_err("truncated must fail");
        assert!(matches!(err.at, ErrorPosition::Byte { .. }), "{err}");

        let foreign = good.replace(RULES_FORMAT, "some-other-format");
        let err = RuleSet::import_json(&foreign).expect_err("foreign format must fail");
        assert!(err.to_string().contains("unexpected format"), "{err}");

        let future = good.replacen("\"version\":1", "\"version\":99", 1);
        let err = RuleSet::import_json(&future).expect_err("future version must fail");
        assert!(err.to_string().contains("unsupported version"), "{err}");

        let bad_detector = good.replacen("\"type\":\"threshold\"", "\"type\":\"psychic\"", 1);
        let err = RuleSet::import_json(&bad_detector).expect_err("unknown detector must fail");
        assert!(err.to_string().contains("unknown Detector"), "{err}");

        let bad_severity = good.replacen("\"severity\":\"page\"", "\"severity\":\"shrug\"", 1);
        let err = RuleSet::import_json(&bad_severity).expect_err("unknown severity must fail");
        assert!(err.to_string().contains("unknown AlertSeverity"), "{err}");
    }

    #[test]
    fn signal_name_helpers_are_stable() {
        assert_eq!(
            signals::recovery_phase("pod build"),
            "fleet/recovery-phase/pod-build"
        );
        assert_eq!(signals::job_incidents("moe-03"), "job/moe-03/incidents");
    }
}
