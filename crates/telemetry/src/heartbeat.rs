//! Heartbeat tracking between the robust agents and the controller.
//!
//! Each robust agent exchanges gRPC heartbeats with the controller (§7). A
//! machine whose heartbeat goes silent past the timeout is treated as
//! unreachable — a strong explicit-failure signal independent of the training
//! process's own logs.

use std::collections::HashMap;

use byterobust_cluster::MachineId;
use byterobust_sim::{SimDuration, SimTime};

/// Tracks the last heartbeat received from each machine's agent.
#[derive(Debug, Clone)]
pub struct HeartbeatTracker {
    timeout: SimDuration,
    last_seen: HashMap<MachineId, SimTime>,
}

impl HeartbeatTracker {
    /// Creates a tracker with the given timeout.
    pub fn new(timeout: SimDuration) -> Self {
        HeartbeatTracker {
            timeout,
            last_seen: HashMap::new(),
        }
    }

    /// The configured timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Records a heartbeat from a machine.
    pub fn beat(&mut self, machine: MachineId, at: SimTime) {
        let entry = self.last_seen.entry(machine).or_insert(at);
        if at > *entry {
            *entry = at;
        }
    }

    /// Registers a machine without a heartbeat yet (treated as having beaten
    /// at registration time, so it is not instantly timed out).
    pub fn register(&mut self, machine: MachineId, at: SimTime) {
        self.last_seen.entry(machine).or_insert(at);
    }

    /// Removes a machine from tracking (after eviction).
    pub fn forget(&mut self, machine: MachineId) {
        self.last_seen.remove(&machine);
    }

    /// The last time a machine was heard from.
    pub fn last_seen(&self, machine: MachineId) -> Option<SimTime> {
        self.last_seen.get(&machine).copied()
    }

    /// Machines whose heartbeat has been silent longer than the timeout as of
    /// `now`, in ascending id order.
    pub fn timed_out(&self, now: SimTime) -> Vec<MachineId> {
        let mut out: Vec<MachineId> = self
            .last_seen
            .iter()
            .filter(|(_, &seen)| now.saturating_since(seen) > self.timeout)
            .map(|(&m, _)| m)
            .collect();
        out.sort();
        out
    }

    /// Number of machines being tracked.
    pub fn tracked(&self) -> usize {
        self.last_seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeats_prevent_timeout() {
        let mut hb = HeartbeatTracker::new(SimDuration::from_secs(60));
        let m = MachineId(0);
        hb.register(m, SimTime::ZERO);
        for i in 1..10u64 {
            hb.beat(m, SimTime::from_secs(i * 30));
        }
        assert!(hb.timed_out(SimTime::from_secs(300)).is_empty());
    }

    #[test]
    fn silence_is_detected() {
        let mut hb = HeartbeatTracker::new(SimDuration::from_secs(60));
        hb.register(MachineId(0), SimTime::ZERO);
        hb.register(MachineId(1), SimTime::ZERO);
        hb.beat(MachineId(1), SimTime::from_secs(100));
        let dead = hb.timed_out(SimTime::from_secs(120));
        assert_eq!(dead, vec![MachineId(0)]);
    }

    #[test]
    fn forget_removes_machine() {
        let mut hb = HeartbeatTracker::new(SimDuration::from_secs(60));
        hb.register(MachineId(7), SimTime::ZERO);
        assert_eq!(hb.tracked(), 1);
        hb.forget(MachineId(7));
        assert_eq!(hb.tracked(), 0);
        assert!(hb.timed_out(SimTime::from_hours(1)).is_empty());
    }

    #[test]
    fn stale_beat_does_not_rewind_clock() {
        let mut hb = HeartbeatTracker::new(SimDuration::from_secs(60));
        let m = MachineId(3);
        hb.beat(m, SimTime::from_secs(200));
        hb.beat(m, SimTime::from_secs(100));
        assert_eq!(hb.last_seen(m), Some(SimTime::from_secs(200)));
    }

    #[test]
    fn boundary_is_not_timed_out() {
        let mut hb = HeartbeatTracker::new(SimDuration::from_secs(60));
        hb.register(MachineId(0), SimTime::ZERO);
        // Exactly at the timeout boundary: not yet timed out (strictly greater).
        assert!(hb.timed_out(SimTime::from_secs(60)).is_empty());
        assert_eq!(hb.timed_out(SimTime::from_secs(61)), vec![MachineId(0)]);
    }
}
