//! The escalation-backlog drainer.
//!
//! The classification matrix doesn't just label incidents — it queues work
//! (`IncidentStore::escalation_backlog()`). Until now nothing consumed that
//! queue. The drainer closes the loop for the one escalation with an in-run
//! effect: a [`Escalation::StressTestSweep`] dispatches a
//! [`SelectiveStressTester`] sweep over the incident's evicted machines;
//! when the sweep completes, machines that pass (the over-evicted hostages —
//! per the *recorded* per-machine eviction flags in the capture, not injector
//! state) are returned to the shared warm-standby pool, while confirmed
//! culprits stay out with their hardware tickets. The remaining escalation
//! kinds are tallied so the fleet report can show the full backlog.

use std::collections::BTreeMap;

use byterobust_agent::SelectiveStressTester;
use byterobust_cluster::MachineId;
use byterobust_incident::{Escalation, IncidentDossier, RecorderEvent};
use byterobust_sim::{SimDuration, SimTime};

/// Sweep duration when the baseline has no symptom-specific stress test
/// (matches the tester's generic machine-sweep figure).
const GENERIC_SWEEP: SimDuration = SimDuration::from_secs(400);

/// A dispatched, not-yet-finished stress-test sweep.
#[derive(Debug, Clone, PartialEq)]
struct SweepTicket {
    job: String,
    seq: u64,
    passed: Vec<MachineId>,
    failed: Vec<MachineId>,
    dispatched_at: SimTime,
    completes_at: SimTime,
}

/// A finished sweep: which machines cleared it and which were confirmed
/// faulty.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedSweep {
    /// Job whose incident queued the sweep.
    pub job: String,
    /// The incident's sequence number within that job.
    pub seq: u64,
    /// Machines that passed — healthy hostages of an over-eviction, eligible
    /// to re-enter the warm-standby pool.
    pub passed: Vec<MachineId>,
    /// Machines that failed — confirmed culprits, staying with their
    /// hardware tickets.
    pub failed: Vec<MachineId>,
    /// When the sweep was queued (the incident's close time).
    pub dispatched_at: SimTime,
    /// When the sweep finished.
    pub completed_at: SimTime,
}

/// Consumes the escalation backlog as incidents close.
#[derive(Debug, Clone, Default)]
pub struct BacklogDrainer {
    tester: SelectiveStressTester,
    pending: Vec<SweepTicket>,
    /// The earliest `completes_at` in `pending` (`None` when it is empty),
    /// so a tick with nothing due returns without touching `pending`.
    next_due: Option<SimTime>,
    completed: Vec<CompletedSweep>,
    sweeps_dispatched: usize,
    escalation_counts: BTreeMap<Escalation, usize>,
}

impl BacklogDrainer {
    /// An empty drainer.
    pub fn new() -> Self {
        BacklogDrainer::default()
    }

    /// Consumes a closed incident's escalations, classifying the dossier
    /// once (a dossier stores no classification). Every escalation is
    /// tallied; a `StressTestSweep` over a non-empty eviction set
    /// additionally dispatches a sweep that completes after the tester's
    /// symptom-specific duration.
    pub fn dispatch(&mut self, job: &str, dossier: &IncidentDossier, now: SimTime) {
        for &escalation in dossier.classification().escalations.iter() {
            *self.escalation_counts.entry(escalation).or_insert(0) += 1;
            if escalation != Escalation::StressTestSweep || dossier.evicted.is_empty() {
                continue;
            }
            self.sweeps_dispatched += 1;
            // Per-machine pass/fail from the *recorded* eviction events (the
            // capture's evidence; the rebuilt timeline holds none): an
            // over-eviction flag means the machine was a healthy hostage and
            // will pass the sweep. Dossiers without per-machine events fall
            // back to the incident-level flag.
            let mut over_flags: BTreeMap<MachineId, bool> = BTreeMap::new();
            for entry in dossier.capture.evidence.iter() {
                if let RecorderEvent::Eviction {
                    machine,
                    over_eviction,
                } = entry.event
                {
                    over_flags.insert(machine, over_eviction);
                }
            }
            let mut passed = Vec::new();
            let mut failed = Vec::new();
            for &machine in &dossier.evicted {
                let over = over_flags
                    .get(&machine)
                    .copied()
                    .unwrap_or(dossier.over_evicted);
                if over {
                    passed.push(machine);
                } else {
                    failed.push(machine);
                }
            }
            // The sweep is scheduled off what the control plane *concluded*,
            // not the injector's hidden ground truth — same recorded-data
            // contract as the pass/fail flags above.
            let duration = self
                .tester
                .resolution_time(dossier.kind, dossier.concluded_cause)
                .unwrap_or(GENERIC_SWEEP);
            self.enqueue(SweepTicket {
                job: job.to_string(),
                seq: dossier.seq,
                passed,
                failed,
                dispatched_at: now,
                completes_at: now + duration,
            });
        }
    }

    fn enqueue(&mut self, ticket: SweepTicket) {
        self.next_due = Some(
            self.next_due
                .map_or(ticket.completes_at, |due| due.min(ticket.completes_at)),
        );
        self.pending.push(ticket);
    }

    /// Completes every sweep due by `now`, in (completion time, job, seq)
    /// order, and returns the newly completed batch. The caller restocks the
    /// standby pool with each sweep's `passed` machines. O(1) when nothing
    /// is due.
    pub fn tick(&mut self, now: SimTime) -> Vec<CompletedSweep> {
        if self.next_due.is_none_or(|due| due > now) {
            return Vec::new();
        }
        let (due, pending): (Vec<SweepTicket>, Vec<SweepTicket>) = self
            .pending
            .drain(..)
            .partition(|ticket| ticket.completes_at <= now);
        self.pending = pending;
        self.next_due = self.pending.iter().map(|ticket| ticket.completes_at).min();
        let mut batch: Vec<CompletedSweep> = due
            .into_iter()
            .map(|ticket| CompletedSweep {
                completed_at: ticket.completes_at,
                job: ticket.job,
                seq: ticket.seq,
                passed: ticket.passed,
                failed: ticket.failed,
                dispatched_at: ticket.dispatched_at,
            })
            .collect();
        batch.sort_by(|a, b| (a.completed_at, &a.job, a.seq).cmp(&(b.completed_at, &b.job, b.seq)));
        self.completed.extend(batch.iter().cloned());
        batch
    }

    /// Sweeps dispatched so far (completed or not).
    pub fn sweeps_dispatched(&self) -> usize {
        self.sweeps_dispatched
    }

    /// Every completed sweep, in completion order.
    pub fn completed(&self) -> &[CompletedSweep] {
        &self.completed
    }

    /// How many of each escalation kind the backlog produced.
    pub fn escalation_counts(&self) -> &BTreeMap<Escalation, usize> {
        &self.escalation_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::{FaultKind, RootCause};
    use byterobust_incident::{IncidentCapture, RecorderEntry, ResolutionMechanism};
    use byterobust_recovery::FailoverCost;

    /// An analyzer group over-eviction: machine 2 is the culprit, 0/1/3 are
    /// hostages, all recorded per-machine in the capture.
    fn over_evicting_dossier() -> IncidentDossier {
        let at = SimTime::from_hours(2);
        let cost = FailoverCost {
            detection: SimDuration::from_mins(10),
            localization: SimDuration::from_mins(5),
            scheduling: SimDuration::from_secs(60),
            pod_build: SimDuration::ZERO,
            checkpoint_load: SimDuration::from_secs(20),
            recompute: SimDuration::from_secs(30),
        };
        let evicted: Vec<MachineId> = (0..4).map(MachineId).collect();
        let capture = IncidentCapture {
            evidence: (0..4u32)
                .map(|machine| RecorderEntry {
                    at,
                    event: RecorderEvent::Eviction {
                        machine: MachineId(machine),
                        over_eviction: machine != 2,
                    },
                })
                .collect(),
            ..IncidentCapture::default()
        };
        let dossier = IncidentDossier {
            seq: 7,
            at,
            kind: FaultKind::JobHang,
            category: FaultKind::JobHang.category(),
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Infrastructure,
            mechanism: ResolutionMechanism::AnalyzerEviction,
            cost,
            evicted: evicted.into(),
            over_evicted: true,
            resumed_step: 500,
            reproducible: true,
            capture,
        };
        assert!(dossier
            .classification()
            .escalations
            .contains(&Escalation::StressTestSweep));
        dossier
    }

    #[test]
    fn sweep_separates_hostages_from_culprits() {
        let mut drainer = BacklogDrainer::new();
        let dossier = over_evicting_dossier();
        let closed_at = dossier.closed_at();
        drainer.dispatch("alpha", &dossier, closed_at);
        assert_eq!(drainer.sweeps_dispatched(), 1);
        assert_eq!(drainer.pending.len(), 1);

        // Not due yet.
        assert!(drainer.tick(closed_at).is_empty());
        // The JobHang sweep takes 1800 s.
        let done = drainer.tick(closed_at + SimDuration::from_secs(1800));
        assert_eq!(done.len(), 1);
        let sweep = &done[0];
        assert_eq!(sweep.job, "alpha");
        assert_eq!(
            sweep.passed,
            vec![MachineId(0), MachineId(1), MachineId(3)],
            "hostages pass the sweep"
        );
        assert_eq!(sweep.failed, vec![MachineId(2)], "the culprit fails");
        assert_eq!(sweep.passed.len() + sweep.failed.len(), 4);
        assert_eq!(drainer.pending.len(), 0);
        assert_eq!(drainer.completed().len(), 1);
    }

    /// The reference `tick` is compared against: the version without the
    /// early return, which partitions every pending ticket on every call
    /// and sorts the due ones.
    fn reference_tick(pending: &mut Vec<SweepTicket>, now: SimTime) -> Vec<CompletedSweep> {
        let (due, rest): (Vec<SweepTicket>, Vec<SweepTicket>) = pending
            .drain(..)
            .partition(|ticket| ticket.completes_at <= now);
        *pending = rest;
        let mut batch: Vec<CompletedSweep> = due
            .into_iter()
            .map(|ticket| CompletedSweep {
                completed_at: ticket.completes_at,
                job: ticket.job,
                seq: ticket.seq,
                passed: ticket.passed,
                failed: ticket.failed,
                dispatched_at: ticket.dispatched_at,
            })
            .collect();
        batch.sort_by(|a, b| (a.completed_at, &a.job, a.seq).cmp(&(b.completed_at, &b.job, b.seq)));
        batch
    }

    #[test]
    fn tick_matches_the_partition_reference_on_seeded_ticket_sets() {
        for seed in 0..50 {
            let mut rng = byterobust_sim::SimRng::new(seed);
            let mut drainer = BacklogDrainer::new();
            let mut reference = Vec::new();
            let mut now = SimTime::ZERO;
            let mut completed = 0;
            for _ in 0..200 {
                // Dispatch a few tickets (durations collide on purpose, so
                // ties on completion time are ordered by job and seq), then
                // tick forward by a random step, sometimes zero.
                for _ in 0..rng.range_u64(0, 3) {
                    let ticket = SweepTicket {
                        job: format!("job-{}", rng.range_u64(0, 4)),
                        seq: rng.range_u64(0, 1000),
                        passed: vec![MachineId(rng.range_u64(0, 64) as u32)],
                        failed: Vec::new(),
                        dispatched_at: now,
                        completes_at: now + SimDuration::from_secs(100 * rng.range_u64(0, 20)),
                    };
                    reference.push(ticket.clone());
                    drainer.enqueue(ticket);
                }
                now += SimDuration::from_secs(rng.range_u64(0, 400));
                let batch = drainer.tick(now);
                assert_eq!(batch, reference_tick(&mut reference, now), "seed {seed}");
                completed += batch.len();
                assert_eq!(drainer.pending, reference, "seed {seed}");
            }
            assert!(completed > 0, "seed {seed} completed no sweep");
            assert_eq!(drainer.completed().len(), completed);
        }
    }

    #[test]
    fn non_sweep_escalations_are_tallied_not_dispatched() {
        let mut drainer = BacklogDrainer::new();
        let dossier = over_evicting_dossier();
        drainer.dispatch("alpha", &dossier, dossier.at);
        let counts = drainer.escalation_counts();
        assert_eq!(counts[&Escalation::HardwareTicket], 1);
        assert_eq!(counts[&Escalation::StressTestSweep], 1);
        assert_eq!(counts[&Escalation::CapacityReview], 1);
        assert!(!counts.contains_key(&Escalation::PageOncall));
    }
}
