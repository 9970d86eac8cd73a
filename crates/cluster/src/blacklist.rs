//! Machine blacklist.
//!
//! When the controller evicts machines it blocks their IP addresses so the
//! scheduler cannot hand them back to the job (§4.2 step 4). The blacklist
//! records when and why each machine was blocked, supports release after
//! repair, and tracks repeat offenders.

use std::collections::HashMap;

use byterobust_sim::SimTime;

use crate::fault::FaultKind;
use crate::ids::MachineId;

/// One blacklist entry.
#[derive(Debug, Clone)]
pub struct BlacklistEntry {
    /// When the machine was blocked.
    pub since: SimTime,
    /// The symptom that led to the eviction.
    pub reason: FaultKind,
    /// How many times this machine has been blacklisted over the job lifetime.
    pub times_blacklisted: u32,
    /// Whether the eviction was an over-eviction (the machine itself was not
    /// proven faulty, it merely shared a parallel group with outliers).
    pub over_evicted: bool,
}

/// The set of machines currently blocked from scheduling.
#[derive(Debug, Clone, Default)]
pub struct Blacklist {
    entries: HashMap<MachineId, BlacklistEntry>,
    /// Historical count of blacklisting events per machine (survives release).
    history: HashMap<MachineId, u32>,
}

impl Blacklist {
    /// Creates an empty blacklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks a machine. Returns the updated entry.
    pub fn block(
        &mut self,
        machine: MachineId,
        at: SimTime,
        reason: FaultKind,
        over_evicted: bool,
    ) -> &BlacklistEntry {
        let count = self.history.entry(machine).or_insert(0);
        *count += 1;
        let entry = BlacklistEntry {
            since: at,
            reason,
            times_blacklisted: *count,
            over_evicted,
        };
        self.entries.insert(machine, entry);
        self.entries.get(&machine).expect("just inserted")
    }

    /// Releases a machine (after repair / exoneration).
    pub fn release(&mut self, machine: MachineId) -> Option<BlacklistEntry> {
        self.entries.remove(&machine)
    }

    /// Whether a machine is currently blocked.
    pub fn contains(&self, machine: MachineId) -> bool {
        self.entries.contains_key(&machine)
    }

    /// The entry for a currently-blocked machine.
    pub fn entry(&self, machine: MachineId) -> Option<&BlacklistEntry> {
        self.entries.get(&machine)
    }

    /// Number of currently blocked machines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no machine is currently blocked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Currently blocked machines in ascending id order.
    pub fn blocked_machines(&self) -> Vec<MachineId> {
        let mut ids: Vec<MachineId> = self.entries.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Total number of times a machine has ever been blacklisted (including
    /// past, released entries). Repeat offenders are candidates for permanent
    /// removal from the resource pool.
    pub fn lifetime_count(&self, machine: MachineId) -> u32 {
        self.history.get(&machine).copied().unwrap_or(0)
    }

    /// Number of currently blocked machines that were over-evicted rather
    /// than individually proven faulty (the "false positive" cost discussed
    /// in §9).
    pub fn over_evicted_count(&self) -> usize {
        self.entries.values().filter(|e| e.over_evicted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_release() {
        let mut bl = Blacklist::new();
        let m = MachineId(5);
        assert!(!bl.contains(m));
        bl.block(m, SimTime::from_secs(10), FaultKind::CudaError, false);
        assert!(bl.contains(m));
        assert_eq!(bl.len(), 1);
        let released = bl.release(m).unwrap();
        assert_eq!(released.reason, FaultKind::CudaError);
        assert!(!bl.contains(m));
        assert!(bl.is_empty());
    }

    #[test]
    fn lifetime_count_survives_release() {
        let mut bl = Blacklist::new();
        let m = MachineId(2);
        bl.block(m, SimTime::from_secs(1), FaultKind::JobHang, true);
        bl.release(m);
        bl.block(m, SimTime::from_secs(100), FaultKind::NanValue, false);
        assert_eq!(bl.lifetime_count(m), 2);
        assert_eq!(bl.entry(m).unwrap().times_blacklisted, 2);
    }

    #[test]
    fn over_evicted_counted_separately() {
        let mut bl = Blacklist::new();
        bl.block(MachineId(0), SimTime::ZERO, FaultKind::JobHang, true);
        bl.block(MachineId(1), SimTime::ZERO, FaultKind::JobHang, true);
        bl.block(
            MachineId(2),
            SimTime::ZERO,
            FaultKind::GpuUnavailable,
            false,
        );
        assert_eq!(bl.over_evicted_count(), 2);
        assert_eq!(bl.len(), 3);
    }

    #[test]
    fn blocked_machines_sorted() {
        let mut bl = Blacklist::new();
        for id in [9u32, 3, 7] {
            bl.block(MachineId(id), SimTime::ZERO, FaultKind::DiskFault, false);
        }
        assert_eq!(
            bl.blocked_machines(),
            vec![MachineId(3), MachineId(7), MachineId(9)]
        );
    }

    #[test]
    fn release_unknown_machine_is_none() {
        let mut bl = Blacklist::new();
        assert!(bl.release(MachineId(42)).is_none());
        assert_eq!(bl.lifetime_count(MachineId(42)), 0);
    }
}
