//! The failure-classification matrix: `REC-*` severity classes and
//! escalation rules.
//!
//! Production incident response keys on a small classification matrix: given
//! *what kind* of incident it was (category, root cause), *how* it was
//! resolved (mechanism), and *how much* of the fleet it touched (blast
//! radius), assign a severity class and decide which follow-up channels must
//! be notified. This module reproduces that shape for the simulator: every
//! closed incident is classified into [`Severity`] `Sev1`–`Sev4` under a
//! stable `REC-*` code, with [`Escalation`]s that feed the operational
//! backlog (hardware tickets, stress-test sweeps, code audits, capacity
//! reviews, on-call pages).

use byterobust_cluster::{FaultCategory, RootCause};
use byterobust_sim::SimDuration;

use crate::mechanism::ResolutionMechanism;

/// Severity classes, most severe first. The derived ordering makes `Sev1`
/// compare *smallest*, so "at least Sev2" is `severity <= Severity::Sev2`;
/// use [`Severity::is_at_least`] rather than spelling that out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Fleet-level impact or prolonged outage; a human is paged.
    Sev1,
    /// Significant impact: multi-machine blast radius, over-eviction, or an
    /// SDC-class fault that escaped stop-time checks.
    Sev2,
    /// Routine single-machine hardware loss or a code defect rolled back.
    Sev3,
    /// Fully absorbed: transient reattempt or planned hot update.
    Sev4,
}

impl Severity {
    /// All severities, most severe first.
    pub const ALL: [Severity; 4] = [
        Severity::Sev1,
        Severity::Sev2,
        Severity::Sev3,
        Severity::Sev4,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Sev1 => "SEV-1",
            Severity::Sev2 => "SEV-2",
            Severity::Sev3 => "SEV-3",
            Severity::Sev4 => "SEV-4",
        }
    }

    /// Whether `self` is at least as severe as `floor`.
    pub fn is_at_least(self, floor: Severity) -> bool {
        self <= floor
    }

    /// The more severe of two severities.
    pub fn escalate_to(self, other: Severity) -> Severity {
        self.min(other)
    }
}

/// Follow-up channels an incident can escalate into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Escalation {
    /// Page the on-call operator (Sev1 only).
    PageOncall,
    /// File a hardware repair ticket for the evicted machines.
    HardwareTicket,
    /// Queue the implicated (or over-evicted) machines for a background
    /// stress-test sweep to separate true culprits from healthy hostages.
    StressTestSweep,
    /// Audit the rolled-back code change before it is re-landed.
    CodeReviewAudit,
    /// Review warm-standby pool sizing: the blast radius consumed an unusual
    /// share of the reserve.
    CapacityReview,
}

impl Escalation {
    /// Human-readable description for postmortem follow-up lists.
    pub fn description(self) -> &'static str {
        match self {
            Escalation::PageOncall => "page the on-call operator for manual review",
            Escalation::HardwareTicket => "file a hardware repair ticket for the evicted machines",
            Escalation::StressTestSweep => {
                "queue implicated machines for a background stress-test sweep"
            }
            Escalation::CodeReviewAudit => "audit the rolled-back code change before re-landing",
            Escalation::CapacityReview => "review warm-standby pool sizing against blast radius",
        }
    }
}

/// Everything the matrix keys on for one incident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationInput {
    /// Incident category (explicit / implicit / manual restart).
    pub category: FaultCategory,
    /// Ground-truth root cause.
    pub root_cause: RootCause,
    /// Mechanism that finally resolved the incident.
    pub mechanism: ResolutionMechanism,
    /// Number of machines evicted (the blast radius).
    pub blast_radius: usize,
    /// Whether healthy machines were knowingly evicted.
    pub over_evicted: bool,
    /// Whether the fault reproduced under stop-time diagnostics.
    pub reproducible: bool,
    /// Total unproductive time the incident cost.
    pub downtime: SimDuration,
}

/// The classification the matrix assigns.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Assigned severity class.
    pub severity: Severity,
    /// Stable `REC-*` code naming the matrix row that fired.
    pub rec_code: &'static str,
    /// Escalations to follow up on, most urgent first, deduplicated. Most
    /// incidents have none, so a boxed slice: 16 bytes and no spare capacity.
    pub escalations: Box<[Escalation]>,
}

/// The classification matrix with its escalation thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationMatrix {
    /// Blast radius at or above which an incident is at least Sev2.
    pub sev2_blast_radius: usize,
    /// Blast radius at or above which an incident is Sev1 (a whole pipeline
    /// stage or more went down at once).
    pub sev1_blast_radius: usize,
    /// Downtime at or above which an incident is Sev1 regardless of blast
    /// radius (the paper keeps unproductive time well under an hour per
    /// incident; exceeding it means the automation failed to contain it).
    pub sev1_downtime: SimDuration,
    /// Blast radius at or above which a capacity review is queued.
    pub capacity_review_blast_radius: usize,
}

impl ClassificationMatrix {
    /// The default thresholds used by the reproduction.
    pub fn byterobust_default() -> Self {
        ClassificationMatrix {
            sev2_blast_radius: 2,
            sev1_blast_radius: 8,
            sev1_downtime: SimDuration::from_hours(2),
            capacity_review_blast_radius: 4,
        }
    }

    /// Classifies one incident: picks the base `REC-*` row from the
    /// resolution mechanism, then applies the escalation rules (blast radius,
    /// over-eviction, irreproducibility, downtime) which can only *raise*
    /// severity, never lower it.
    pub fn classify(&self, input: &ClassificationInput) -> Classification {
        // Base row: how the incident was resolved.
        let (mut severity, rec_code) = match input.mechanism {
            ResolutionMechanism::HotUpdate => (Severity::Sev4, "REC-HU"),
            ResolutionMechanism::Reattempt => (Severity::Sev4, "REC-RT"),
            ResolutionMechanism::Rollback => (Severity::Sev3, "REC-RB"),
            ResolutionMechanism::ImmediateEviction => (Severity::Sev3, "REC-EV1"),
            ResolutionMechanism::StopTimeEviction => (Severity::Sev3, "REC-EV2"),
            ResolutionMechanism::DualPhaseReplay => (Severity::Sev2, "REC-RPL"),
            ResolutionMechanism::AnalyzerEviction => (Severity::Sev2, "REC-AGG"),
        };
        let mut escalations = Vec::new();

        // Machine loss always feeds the repair pipeline.
        if input.blast_radius > 0 {
            escalations.push(Escalation::HardwareTicket);
        }
        // Multi-machine blast radius raises severity.
        if input.blast_radius >= self.sev2_blast_radius {
            severity = severity.escalate_to(Severity::Sev2);
        }
        // Over-eviction means healthy machines are hostage until a stress
        // sweep clears them (§9's false-positive discussion).
        if input.over_evicted {
            severity = severity.escalate_to(Severity::Sev2);
            escalations.push(Escalation::StressTestSweep);
        }
        // An SDC-class fault that did not reproduce under stop-time checks is
        // exactly the kind that recurs; sweep it even if eviction "worked".
        if !input.reproducible {
            severity = severity.escalate_to(Severity::Sev2);
            escalations.push(Escalation::StressTestSweep);
        }
        // Rollbacks audit the offending change.
        if input.mechanism == ResolutionMechanism::Rollback
            || input.root_cause == RootCause::UserCode
        {
            escalations.push(Escalation::CodeReviewAudit);
        }
        // Large evictions dent the standby reserve.
        if input.blast_radius >= self.capacity_review_blast_radius {
            escalations.push(Escalation::CapacityReview);
        }
        // Catastrophic blast radius or uncontained downtime pages a human.
        if input.blast_radius >= self.sev1_blast_radius || input.downtime >= self.sev1_downtime {
            severity = Severity::Sev1;
        }
        if severity == Severity::Sev1 {
            escalations.push(Escalation::PageOncall);
        }

        escalations.sort();
        escalations.dedup();
        Classification {
            severity,
            rec_code,
            escalations: escalations.into(),
        }
    }
}

impl Default for ClassificationMatrix {
    fn default() -> Self {
        ClassificationMatrix::byterobust_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(mechanism: ResolutionMechanism, blast_radius: usize) -> ClassificationInput {
        ClassificationInput {
            category: FaultCategory::Explicit,
            root_cause: RootCause::Infrastructure,
            mechanism,
            blast_radius,
            over_evicted: false,
            reproducible: true,
            downtime: SimDuration::from_mins(20),
        }
    }

    #[test]
    fn severity_ordering_and_floor() {
        assert!(Severity::Sev1.is_at_least(Severity::Sev2));
        assert!(Severity::Sev2.is_at_least(Severity::Sev2));
        assert!(!Severity::Sev3.is_at_least(Severity::Sev2));
        assert_eq!(Severity::Sev3.escalate_to(Severity::Sev2), Severity::Sev2);
        assert_eq!(Severity::Sev2.escalate_to(Severity::Sev4), Severity::Sev2);
    }

    #[test]
    fn hot_update_and_reattempt_are_routine() {
        let matrix = ClassificationMatrix::byterobust_default();
        let hot = matrix.classify(&ClassificationInput {
            category: FaultCategory::ManualRestart,
            root_cause: RootCause::Human,
            ..input(ResolutionMechanism::HotUpdate, 0)
        });
        assert_eq!(hot.severity, Severity::Sev4);
        assert_eq!(hot.rec_code, "REC-HU");
        assert!(hot.escalations.is_empty());

        let reattempt = matrix.classify(&ClassificationInput {
            root_cause: RootCause::Transient,
            ..input(ResolutionMechanism::Reattempt, 0)
        });
        assert_eq!(reattempt.severity, Severity::Sev4);
        assert!(reattempt.escalations.is_empty());
    }

    #[test]
    fn single_machine_eviction_is_sev3_with_hardware_ticket() {
        let matrix = ClassificationMatrix::byterobust_default();
        let class = matrix.classify(&input(ResolutionMechanism::ImmediateEviction, 1));
        assert_eq!(class.severity, Severity::Sev3);
        assert_eq!(class.rec_code, "REC-EV1");
        assert_eq!(*class.escalations, [Escalation::HardwareTicket]);
    }

    #[test]
    fn blast_radius_escalates_severity() {
        let matrix = ClassificationMatrix::byterobust_default();
        assert_eq!(
            matrix
                .classify(&input(ResolutionMechanism::StopTimeEviction, 1))
                .severity,
            Severity::Sev3
        );
        assert_eq!(
            matrix
                .classify(&input(ResolutionMechanism::StopTimeEviction, 2))
                .severity,
            Severity::Sev2
        );
        let catastrophic = matrix.classify(&input(ResolutionMechanism::StopTimeEviction, 8));
        assert_eq!(catastrophic.severity, Severity::Sev1);
        assert!(catastrophic.escalations.contains(&Escalation::PageOncall));
        assert!(catastrophic
            .escalations
            .contains(&Escalation::CapacityReview));
    }

    #[test]
    fn over_eviction_queues_stress_sweep() {
        let matrix = ClassificationMatrix::byterobust_default();
        let class = matrix.classify(&ClassificationInput {
            category: FaultCategory::Implicit,
            over_evicted: true,
            ..input(ResolutionMechanism::AnalyzerEviction, 4)
        });
        assert_eq!(class.severity, Severity::Sev2);
        assert_eq!(class.rec_code, "REC-AGG");
        assert!(class.escalations.contains(&Escalation::StressTestSweep));
        assert!(class.escalations.contains(&Escalation::CapacityReview));
    }

    #[test]
    fn irreproducible_sdc_is_at_least_sev2() {
        let matrix = ClassificationMatrix::byterobust_default();
        let class = matrix.classify(&ClassificationInput {
            category: FaultCategory::Implicit,
            reproducible: false,
            ..input(ResolutionMechanism::StopTimeEviction, 1)
        });
        assert!(class.severity.is_at_least(Severity::Sev2));
        assert!(class.escalations.contains(&Escalation::StressTestSweep));
    }

    #[test]
    fn rollback_audits_the_change() {
        let matrix = ClassificationMatrix::byterobust_default();
        let class = matrix.classify(&ClassificationInput {
            root_cause: RootCause::UserCode,
            ..input(ResolutionMechanism::Rollback, 0)
        });
        assert_eq!(class.severity, Severity::Sev3);
        assert_eq!(class.rec_code, "REC-RB");
        assert_eq!(*class.escalations, [Escalation::CodeReviewAudit]);
    }

    #[test]
    fn uncontained_downtime_pages_oncall() {
        let matrix = ClassificationMatrix::byterobust_default();
        let class = matrix.classify(&ClassificationInput {
            downtime: SimDuration::from_hours(3),
            ..input(ResolutionMechanism::Reattempt, 0)
        });
        assert_eq!(class.severity, Severity::Sev1);
        assert!(class.escalations.contains(&Escalation::PageOncall));
    }
}
