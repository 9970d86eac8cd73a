//! The postmortem generator: renders a closed incident into a structured,
//! human-readable postmortem artifact.
//!
//! A [`Postmortem`] is generated from an [`IncidentDossier`]
//! — the frozen flight-recorder capture plus the resolution record and its
//! classification — and carries the incident timeline, the evidence each
//! subsystem contributed, the unproductive-time breakdown by recovery phase
//! (summing exactly to the incident's `FailoverCost::total()`), the evicted
//! machines, and the recommended follow-ups derived from the classification
//! matrix.

use std::fmt::Write as _;

use byterobust_cluster::{FaultCategory, FaultKind, MachineId, RootCause};
use byterobust_recovery::FailoverCost;
use byterobust_sim::{SimDuration, SimTime};

use crate::classify::Severity;
use crate::mechanism::ResolutionMechanism;
use crate::recorder::{RecorderEntry, RecoveryPhase};
use crate::store::IncidentDossier;

/// Unproductive time charged to one recovery phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCost {
    /// The phase.
    pub phase: RecoveryPhase,
    /// Time charged to it.
    pub duration: SimDuration,
}

impl PhaseCost {
    /// Decomposes a [`FailoverCost`] into the six chronological phases. The
    /// durations sum exactly to `cost.total()`.
    pub fn breakdown(cost: &FailoverCost) -> Vec<PhaseCost> {
        vec![
            PhaseCost {
                phase: RecoveryPhase::Detection,
                duration: cost.detection,
            },
            PhaseCost {
                phase: RecoveryPhase::Localization,
                duration: cost.localization,
            },
            PhaseCost {
                phase: RecoveryPhase::Scheduling,
                duration: cost.scheduling,
            },
            PhaseCost {
                phase: RecoveryPhase::PodBuild,
                duration: cost.pod_build,
            },
            PhaseCost {
                phase: RecoveryPhase::CheckpointLoad,
                duration: cost.checkpoint_load,
            },
            PhaseCost {
                phase: RecoveryPhase::Recompute,
                duration: cost.recompute,
            },
        ]
    }
}

/// A structured postmortem for one closed incident.
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// Incident sequence number.
    pub seq: u64,
    /// One-line headline, e.g. `"SEV-3 CUDA Error resolved by Stop-time eviction"`.
    pub title: String,
    /// Assigned severity.
    pub severity: Severity,
    /// The `REC-*` classification code.
    pub rec_code: &'static str,
    /// Symptom.
    pub kind: FaultKind,
    /// Incident category.
    pub category: FaultCategory,
    /// Ground-truth root cause (only the simulator knows it).
    pub root_cause: RootCause,
    /// The root cause the control plane concluded from its evidence — what a
    /// production postmortem would actually record.
    pub concluded_cause: RootCause,
    /// Mechanism that resolved the incident.
    pub mechanism: ResolutionMechanism,
    /// When the incident opened.
    pub opened_at: SimTime,
    /// When the incident closed.
    pub closed_at: SimTime,
    /// Pre-incident background context from the flight recorder.
    pub context: Vec<RecorderEntry>,
    /// The incident window: every event recorded while the incident was
    /// active, in order.
    pub timeline: Vec<RecorderEntry>,
    /// Unproductive time broken down by recovery phase; sums to
    /// [`Postmortem::total_cost`].
    pub phase_costs: Vec<PhaseCost>,
    /// Total unproductive time.
    pub total_cost: SimDuration,
    /// Machines evicted while resolving the incident.
    pub evicted: Vec<MachineId>,
    /// Whether healthy machines were knowingly evicted.
    pub over_evicted: bool,
    /// The optimizer step training resumed from.
    pub resumed_step: u64,
    /// Recommended follow-ups, rendered from the classification's
    /// escalations.
    pub follow_ups: Vec<String>,
}

impl Postmortem {
    /// Generates the postmortem for a stored incident dossier.
    pub fn for_dossier(dossier: &IncidentDossier) -> Postmortem {
        let title = format!(
            "{} {} resolved by {}",
            dossier.classification.severity.label(),
            dossier.kind.symptom_name(),
            dossier.mechanism.display_name()
        );
        let mut follow_ups: Vec<String> = dossier
            .classification
            .escalations
            .iter()
            .map(|escalation| escalation.description().to_string())
            .collect();
        if !dossier.evicted.is_empty() {
            let machines: Vec<String> = dossier
                .evicted
                .iter()
                .map(|machine| machine.to_string())
                .collect();
            follow_ups.push(format!(
                "track repair & re-admission of: {}",
                machines.join(", ")
            ));
        }
        // The capture window is in insertion order; phase transitions are
        // recorded at incident close, so re-sort chronologically (stable, so
        // simultaneous events keep their causal order).
        let mut timeline = dossier.capture.window.clone();
        timeline.sort_by_key(|entry| entry.at);
        Postmortem {
            seq: dossier.seq,
            title,
            severity: dossier.classification.severity,
            rec_code: dossier.classification.rec_code,
            kind: dossier.kind,
            category: dossier.category,
            root_cause: dossier.root_cause,
            concluded_cause: dossier.concluded_cause,
            mechanism: dossier.mechanism,
            opened_at: dossier.capture.opened_at,
            closed_at: dossier.capture.closed_at,
            context: dossier.capture.context.to_vec(),
            timeline,
            phase_costs: PhaseCost::breakdown(&dossier.cost),
            total_cost: dossier.cost.total(),
            evicted: dossier.evicted.to_vec(),
            over_evicted: dossier.over_evicted,
            resumed_step: dossier.resumed_step,
            follow_ups,
        }
    }

    /// The sum of the per-phase costs; by construction equal to
    /// [`Postmortem::total_cost`].
    pub fn phase_cost_sum(&self) -> SimDuration {
        self.phase_costs.iter().map(|pc| pc.duration).sum()
    }

    /// Renders the postmortem as a plain-text document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== Postmortem: incident #{} ====", self.seq);
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(
            out,
            "classification: {} {} | category: {:?} | root cause: {:?}",
            self.severity.label(),
            self.rec_code,
            self.category,
            self.root_cause,
        );
        let _ = writeln!(
            out,
            "concluded cause: {:?}{}",
            self.concluded_cause,
            if self.concluded_cause == self.root_cause {
                " (matches ground truth)"
            } else {
                " (MISATTRIBUTED)"
            }
        );
        let _ = writeln!(
            out,
            "window: {} -> {} | unproductive: {}",
            self.opened_at, self.closed_at, self.total_cost
        );

        if !self.context.is_empty() {
            let _ = writeln!(
                out,
                "\n-- pre-incident context ({} entries)",
                self.context.len()
            );
            for entry in &self.context {
                let _ = writeln!(out, "  {entry}");
            }
        }

        let _ = writeln!(out, "\n-- timeline ({} events)", self.timeline.len());
        for entry in &self.timeline {
            let _ = writeln!(out, "  {entry}");
        }

        let _ = writeln!(out, "\n-- unproductive time by phase");
        for pc in &self.phase_costs {
            if !pc.duration.is_zero() {
                let _ = writeln!(out, "  {:<16} {}", pc.phase.name(), pc.duration);
            }
        }
        let _ = writeln!(out, "  {:<16} {}", "total", self.total_cost);

        if self.evicted.is_empty() {
            let _ = writeln!(out, "\n-- evictions: none");
        } else {
            let machines: Vec<String> = self
                .evicted
                .iter()
                .map(|machine| machine.to_string())
                .collect();
            let _ = writeln!(
                out,
                "\n-- evictions: {}{}",
                machines.join(", "),
                if self.over_evicted {
                    " (includes over-evictions)"
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "-- training resumed from step {}", self.resumed_step);

        if self.follow_ups.is_empty() {
            let _ = writeln!(out, "\n-- follow-ups: none");
        } else {
            let _ = writeln!(out, "\n-- follow-ups");
            for follow_up in &self.follow_ups {
                let _ = writeln!(out, "  * {follow_up}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassificationInput;
    use crate::recorder::{IncidentCapture, RecorderEvent};

    fn dossier() -> IncidentDossier {
        let cost = FailoverCost {
            detection: SimDuration::from_secs(10),
            localization: SimDuration::from_secs(300),
            scheduling: SimDuration::from_secs(60),
            pod_build: SimDuration::ZERO,
            checkpoint_load: SimDuration::from_secs(30),
            recompute: SimDuration::from_secs(45),
        };
        let classification = ClassificationInput {
            category: FaultCategory::Explicit,
            root_cause: RootCause::Infrastructure,
            mechanism: ResolutionMechanism::StopTimeEviction,
            blast_radius: 1,
            over_evicted: false,
            reproducible: true,
            downtime: cost.total(),
        }
        .classify();
        let mut capture = IncidentCapture::empty(42, FaultKind::CudaError, SimTime::from_hours(5));
        capture.closed_at = SimTime::from_hours(5) + cost.total();
        capture.window.push(RecorderEntry {
            at: capture.opened_at,
            event: RecorderEvent::Detected {
                kind: FaultKind::CudaError,
                latency: SimDuration::from_secs(10),
            },
        });
        capture.window.push(RecorderEntry {
            at: capture.closed_at,
            event: RecorderEvent::Eviction {
                machine: MachineId(7),
                over_eviction: false,
            },
        });
        IncidentDossier {
            seq: 42,
            at: SimTime::from_hours(5),
            kind: FaultKind::CudaError,
            category: FaultCategory::Explicit,
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Infrastructure,
            mechanism: ResolutionMechanism::StopTimeEviction,
            cost,
            evicted: Box::new([MachineId(7)]),
            over_evicted: false,
            resumed_step: 1234,
            classification,
            capture,
        }
    }

    #[test]
    fn phase_costs_sum_to_failover_total() {
        let d = dossier();
        let postmortem = Postmortem::for_dossier(&d);
        assert_eq!(postmortem.phase_cost_sum(), d.cost.total());
        assert_eq!(postmortem.total_cost, d.cost.total());
        // Every phase appears exactly once, in chronological order.
        let phases: Vec<RecoveryPhase> = postmortem.phase_costs.iter().map(|pc| pc.phase).collect();
        assert_eq!(phases, RecoveryPhase::ALL.to_vec());
    }

    #[test]
    fn render_contains_the_essentials() {
        let postmortem = Postmortem::for_dossier(&dossier());
        let text = postmortem.render();
        assert!(text.contains("incident #42"));
        assert!(text.contains("SEV-3"));
        assert!(text.contains("REC-EV2"));
        assert!(text.contains("CUDA Error"));
        assert!(text.contains("detected CUDA Error"));
        assert!(text.contains("evicted machine-7"));
        assert!(text.contains("resumed from step 1234"));
        assert!(text.contains("hardware repair ticket"));
    }

    #[test]
    fn follow_ups_track_evicted_machines() {
        let postmortem = Postmortem::for_dossier(&dossier());
        assert!(postmortem
            .follow_ups
            .iter()
            .any(|f| f.contains("repair & re-admission") && f.contains("machine-7")));
    }
}
