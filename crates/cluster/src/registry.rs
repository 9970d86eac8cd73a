//! The fleet-shared machine registry.
//!
//! Before the fleet broker existed, "which job is this machine serving?" was
//! not recorded anywhere: every job's `Cluster` privately owned its machines
//! and the shared standby pool was an anonymous counter. The registry lifts
//! that per-job state to fleet level: it tracks, per machine id, which job's
//! cluster currently holds it, which of those machines are donatable warm
//! spares, the machine's fleet-wide incident history, and every cross-job
//! migration — so a broker can plan a migration from pure bookkeeping
//! (without touching any job's cluster) and the machine's repeat-offender
//! history demonstrably survives the move (history is keyed by `MachineId`,
//! and the id never changes).
//!
//! Note on namespaces: concurrent jobs deliberately share one fleet-wide
//! `MachineId` namespace (see the fleet crate docs), so two jobs' *built*
//! clusters can both contain `MachineId(3)`. Membership here is therefore a
//! per-job set rather than a single machine → job map, and a migration is
//! only planned when the receiving job does not already hold the id.

use std::collections::{BTreeMap, BTreeSet};

use byterobust_sim::SimTime;

use crate::ids::MachineId;

/// One cross-job machine migration, in fleet event order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The machine that moved (same id before and after).
    pub machine: MachineId,
    /// Job index the machine left.
    pub from_job: usize,
    /// Job index the machine joined.
    pub to_job: usize,
    /// When the migration was granted.
    pub at: SimTime,
}

/// Fleet-wide machine bookkeeping shared across every job in a fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetMachineRegistry {
    /// Per-job: every machine id currently in that job's cluster.
    members: Vec<BTreeSet<MachineId>>,
    /// Per-job: the subset that is a donatable warm spare right now.
    spares: Vec<BTreeSet<MachineId>>,
    /// Fleet-wide per-machine incident involvement (evictions recorded
    /// against the machine across every job, before and after migrations).
    incident_counts: BTreeMap<MachineId, usize>,
    /// Every migration performed, in grant order.
    migrations: Vec<MigrationRecord>,
}

impl FleetMachineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one job's cluster membership. Jobs must be registered in
    /// index order, starting from zero.
    pub fn register_job(&mut self, job: usize, members: &[MachineId], spares: &[MachineId]) {
        assert_eq!(job, self.members.len(), "register jobs in index order");
        self.members.push(members.iter().copied().collect());
        self.spares.push(spares.iter().copied().collect());
    }

    /// Number of registered jobs.
    pub fn job_count(&self) -> usize {
        self.members.len()
    }

    /// Replaces a job's donatable-spare set (called after the job activated
    /// standbys of its own).
    pub fn sync_spares(&mut self, job: usize, spares: &[MachineId]) {
        self.spares[job] = spares.iter().copied().collect();
    }

    /// Donatable spares a job currently holds.
    pub fn spare_count(&self, job: usize) -> usize {
        self.spares[job].len()
    }

    /// Whether a job's cluster currently holds a machine id.
    pub fn job_has(&self, job: usize, machine: MachineId) -> bool {
        self.members[job].contains(&machine)
    }

    /// Plans the best donation for `to_job`: among the `allowed` donor jobs,
    /// the most over-provisioned one (most spares, ties to the lowest job
    /// index) that still keeps `donor_keeps` spares for itself and has a
    /// spare id the receiver does not already hold. Returns
    /// `(donor_job, machine)` without mutating anything; commit with
    /// [`FleetMachineRegistry::migrate`].
    pub fn best_donor(
        &self,
        to_job: usize,
        allowed: &[usize],
        donor_keeps: usize,
    ) -> Option<(usize, MachineId)> {
        let mut best: Option<(usize, usize, MachineId)> = None;
        for &job in allowed {
            if job == to_job {
                continue;
            }
            // A donor keeps a reserve of its own: donating it would just move
            // the starvation to the donor on its next eviction.
            if self.spares[job].len() <= donor_keeps {
                continue;
            }
            let Some(&machine) = self.spares[job]
                .iter()
                .find(|id| !self.members[to_job].contains(id))
            else {
                continue;
            };
            let better = match best {
                None => true,
                Some((count, index, _)) => {
                    self.spares[job].len() > count
                        || (self.spares[job].len() == count && job < index)
                }
            };
            if better {
                best = Some((self.spares[job].len(), job, machine));
            }
        }
        best.map(|(_, job, machine)| (job, machine))
    }

    /// Commits a migration planned by [`FleetMachineRegistry::best_donor`]:
    /// moves the id between the jobs' member sets, drops it from the donor's
    /// spares, and appends the record.
    pub fn migrate(&mut self, machine: MachineId, from_job: usize, to_job: usize, at: SimTime) {
        assert!(
            self.spares[from_job].remove(&machine),
            "donor must hold the spare"
        );
        assert!(self.members[from_job].remove(&machine));
        assert!(
            self.members[to_job].insert(machine),
            "receiver already holds {machine}"
        );
        self.migrations.push(MigrationRecord {
            machine,
            from_job,
            to_job,
            at,
        });
    }

    /// Records an incident's evicted machines against their fleet-wide
    /// history.
    pub fn note_incident(&mut self, machines: &[MachineId]) {
        for &machine in machines {
            *self.incident_counts.entry(machine).or_insert(0) += 1;
        }
    }

    /// Fleet-wide incidents recorded against a machine, across every job it
    /// has served (unchanged by migration — the id is the identity).
    pub fn incident_count(&self, machine: MachineId) -> usize {
        self.incident_counts.get(&machine).copied().unwrap_or(0)
    }

    /// Every migration performed so far, in grant order.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<MachineId> {
        range.map(MachineId).collect()
    }

    fn registry() -> FleetMachineRegistry {
        let mut reg = FleetMachineRegistry::new();
        // Job 0: 4 machines, spares 4..5. Job 1 (fat donor): 8 machines,
        // spares 8..12. Job 2: overlaps job 0's namespace, one spare.
        reg.register_job(0, &ids(0..6), &ids(4..6));
        reg.register_job(1, &ids(0..12), &ids(8..12));
        reg.register_job(2, &ids(0..6), &ids(5..6));
        reg
    }

    #[test]
    fn best_donor_prefers_the_most_over_provisioned_job() {
        let reg = registry();
        let (donor, machine) = reg.best_donor(0, &[1, 2], 1).expect("job 1 can donate");
        assert_eq!(donor, 1);
        // Smallest donor spare the receiver does not already hold: job 0
        // holds 0..6, so 8 is the first eligible.
        assert_eq!(machine, MachineId(8));
    }

    #[test]
    fn donors_keep_their_last_spare_and_skip_colliding_ids() {
        let reg = registry();
        // Job 2 has one spare: never donates.
        assert_eq!(reg.best_donor(0, &[2], 1), None);
        // Job 0's spares (4, 5) are both already members of job 2.
        assert_eq!(reg.best_donor(2, &[0], 1), None);
    }

    #[test]
    fn migration_moves_membership_and_keeps_history() {
        let mut reg = registry();
        reg.note_incident(&[MachineId(8)]);
        assert_eq!(reg.incident_count(MachineId(8)), 1);
        let (donor, machine) = reg.best_donor(0, &[1], 1).unwrap();
        reg.migrate(machine, donor, 0, SimTime::from_secs(60));
        assert!(reg.job_has(0, machine));
        assert!(!reg.job_has(1, machine));
        assert_eq!(reg.spare_count(1), 3);
        // The machine's fleet-wide incident history survives the move.
        reg.note_incident(&[machine]);
        assert_eq!(reg.incident_count(machine), 2);
        assert_eq!(
            reg.migrations(),
            &[MigrationRecord {
                machine,
                from_job: 1,
                to_job: 0,
                at: SimTime::from_secs(60),
            }]
        );
        // The receiver now holds the id, so a second donation of it is
        // impossible and the next plan picks a different machine.
        let (_, next) = reg.best_donor(0, &[1], 1).unwrap();
        assert_ne!(next, machine);
    }

    #[test]
    fn sync_spares_replaces_the_donatable_set() {
        let mut reg = registry();
        reg.sync_spares(1, &ids(8..9));
        assert_eq!(reg.spare_count(1), 1);
        assert_eq!(
            reg.best_donor(0, &[1], 1),
            None,
            "one spare is kept, not donated"
        );
    }
}
