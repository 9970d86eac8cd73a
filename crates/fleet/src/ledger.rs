//! The fleet-level repeat-offender ledger.
//!
//! Every closed incident names the machines it implicated — evicted machines
//! plus machines mentioned in the flight-recorder capture (the same
//! "involves" semantics as `IncidentQuery::machine`). The ledger counts those
//! mentions per machine *across jobs*; machines at or above the threshold
//! are fed into every job's `Monitor` as repeat offenders, which lowers
//! their eviction threshold (the controller evicts them on a fault-time
//! telemetry signature alone, skipping stop-time diagnostics). This
//! reproduces the paper's repeated-occurrence heuristics from recorded data
//! instead of injector ground truth.

use std::collections::BTreeMap;
use std::sync::Arc;

use byterobust_cluster::MachineId;
use byterobust_incident::IncidentDossier;

/// Cross-job per-machine incident counts with an offender threshold.
#[derive(Debug, Clone)]
pub struct RepeatOffenderLedger {
    threshold: usize,
    counts: BTreeMap<MachineId, usize>,
    /// Scratch buffer for the per-incident implicated-machine set, reused
    /// across [`RepeatOffenderLedger::observe`] calls so the fleet hot loop
    /// does not allocate per incident.
    scratch: Vec<MachineId>,
}

impl RepeatOffenderLedger {
    /// A ledger flagging machines implicated in at least `threshold`
    /// incidents.
    pub fn new(threshold: usize) -> Self {
        RepeatOffenderLedger {
            threshold: threshold.max(1),
            counts: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The offender threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Records a closed incident's implicated machines. Returns `true` when
    /// the offender set changed (a machine crossed the threshold with this
    /// incident) — callers only need to re-publish the set to the monitors
    /// when this happens.
    pub fn observe(&mut self, dossier: &IncidentDossier) -> bool {
        self.scratch.clear();
        self.scratch.extend_from_slice(&dossier.evicted);
        dossier.machines_mentioned_into(&mut self.scratch);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let mut crossed = false;
        for &machine in &self.scratch {
            let count = self.counts.entry(machine).or_insert(0);
            *count += 1;
            crossed |= *count == self.threshold;
        }
        crossed
    }

    /// The offender set as a freshly shared slice, for cheap `Arc`-clone
    /// distribution into every job's monitor.
    pub fn offenders_shared(&self) -> Arc<[MachineId]> {
        Arc::from(self.offenders())
    }

    /// Machines at or above the threshold, sorted — the set pushed into each
    /// job's monitor.
    pub fn offenders(&self) -> Vec<MachineId> {
        self.counts
            .iter()
            .filter(|(_, &count)| count >= self.threshold)
            .map(|(&machine, _)| machine)
            .collect()
    }

    /// Offenders with their counts, sorted by machine — for the fleet report.
    pub fn offender_counts(&self) -> Vec<(MachineId, usize)> {
        self.counts
            .iter()
            .filter(|(_, &count)| count >= self.threshold)
            .map(|(&machine, &count)| (machine, count))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::{FaultKind, RootCause};
    use byterobust_incident::{IncidentCapture, ResolutionMechanism};
    use byterobust_recovery::FailoverCost;
    use byterobust_sim::{SimDuration, SimTime};

    fn dossier(seq: u64, evicted: Vec<MachineId>) -> IncidentDossier {
        let cost = FailoverCost {
            detection: SimDuration::from_secs(30),
            localization: SimDuration::from_secs(60),
            ..FailoverCost::default()
        };
        IncidentDossier {
            seq,
            at: SimTime::from_hours(seq),
            kind: FaultKind::CudaError,
            category: FaultKind::CudaError.category(),
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Infrastructure,
            mechanism: ResolutionMechanism::ImmediateEviction,
            cost,
            evicted: evicted.into(),
            over_evicted: false,
            resumed_step: 0,
            reproducible: true,
            capture: IncidentCapture::default(),
        }
    }

    #[test]
    fn offenders_cross_the_threshold() {
        let mut ledger = RepeatOffenderLedger::new(2);
        assert!(
            !ledger.observe(&dossier(1, vec![MachineId(3)])),
            "one incident is below the threshold — the set did not change"
        );
        assert!(ledger.offenders().is_empty());
        assert_eq!(ledger.counts[&MachineId(3)], 1);
        // Second incident (in another job, same fleet machine).
        assert!(
            ledger.observe(&dossier(1, vec![MachineId(3), MachineId(5)])),
            "machine 3 crossed the threshold — the set changed"
        );
        assert_eq!(ledger.offenders(), vec![MachineId(3)]);
        assert_eq!(ledger.offender_counts(), vec![(MachineId(3), 2)]);
        assert_eq!(ledger.counts[&MachineId(5)], 1);
        assert_eq!(ledger.offenders_shared().as_ref(), &[MachineId(3)]);
        // A third incident on an existing offender leaves the set unchanged.
        assert!(!ledger.observe(&dossier(2, vec![MachineId(3)])));
    }

    #[test]
    fn duplicate_mentions_within_one_incident_count_once() {
        let mut ledger = RepeatOffenderLedger::new(2);
        // Evicted and mentioned in the capture: still one incident.
        let mut d = dossier(1, vec![MachineId(4)]);
        d.capture.evidence = Box::new([byterobust_incident::RecorderEntry {
            at: d.at,
            event: byterobust_incident::RecorderEvent::Eviction {
                machine: MachineId(4),
                over_eviction: false,
            },
        }]);
        ledger.observe(&d);
        assert_eq!(ledger.counts[&MachineId(4)], 1);
    }
}
