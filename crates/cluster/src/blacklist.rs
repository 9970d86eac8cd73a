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
}
