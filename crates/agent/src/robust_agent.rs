//! The Robust Agent daemon: per-machine state machine and heartbeats (§3, §7).
//!
//! One agent runs alongside the training processes in every pod. It reports
//! heartbeats to the controller, knows whether its machine is an active
//! trainer or a warm standby parked at the pre-set barrier, and carries out
//! control signals (suspend for diagnostics, evict, activate).

use byterobust_cluster::{HealthReport, Machine, MachineId};
use byterobust_sim::{SimDuration, SimTime};

/// Lifecycle state of one Robust Agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentState {
    /// Training processes are running.
    Training,
    /// Training is suspended for stop-time diagnostics.
    Suspended,
    /// The machine is a warm standby polling for an activation signal.
    StandbyPolling,
    /// The machine was evicted; the agent is shutting down.
    Evicted,
}

/// The per-machine Robust Agent.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustAgent {
    /// Machine this agent manages.
    pub machine: MachineId,
    /// Current lifecycle state.
    pub state: AgentState,
    /// Heartbeat interval toward the controller.
    pub heartbeat_interval: SimDuration,
    /// Last heartbeat sent.
    pub last_heartbeat: SimTime,
}

impl RobustAgent {
    /// Creates an agent for an active training machine.
    pub fn for_training(machine: MachineId) -> Self {
        RobustAgent {
            machine,
            state: AgentState::Training,
            heartbeat_interval: SimDuration::from_secs(10),
            last_heartbeat: SimTime::ZERO,
        }
    }

    /// Creates an agent for a warm-standby machine (parked at the barrier,
    /// §7).
    pub fn for_standby(machine: MachineId) -> Self {
        RobustAgent {
            state: AgentState::StandbyPolling,
            ..Self::for_training(machine)
        }
    }

    /// Whether the agent should send a heartbeat at time `now`.
    pub fn heartbeat_due(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_heartbeat) >= self.heartbeat_interval
    }

    /// Sends a heartbeat (records the time).
    pub fn send_heartbeat(&mut self, now: SimTime) {
        self.last_heartbeat = now;
    }

    /// Runs a local health self-check of the machine (used both by standby
    /// delivery and by pre-activation validation).
    pub fn self_check(&self, machine: &Machine) -> HealthReport {
        HealthReport::inspect(machine)
    }

    /// Suspends training for stop-time diagnostics.
    pub fn suspend(&mut self) {
        if self.state == AgentState::Training {
            self.state = AgentState::Suspended;
        }
    }

    /// Resumes training after diagnostics / recovery.
    pub fn resume(&mut self) {
        if self.state == AgentState::Suspended {
            self.state = AgentState::Training;
        }
    }

    /// Activates a standby agent into the training job. Returns `false` if
    /// the agent was not a standby.
    pub fn activate(&mut self) -> bool {
        if self.state == AgentState::StandbyPolling {
            self.state = AgentState::Training;
            true
        } else {
            false
        }
    }

    /// Marks the agent's machine as evicted.
    pub fn evict(&mut self) {
        self.state = AgentState::Evicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::{Cluster, ClusterSpec};

    #[test]
    fn heartbeat_schedule() {
        let mut agent = RobustAgent::for_training(MachineId(0));
        assert!(agent.heartbeat_due(SimTime::from_secs(10)));
        agent.send_heartbeat(SimTime::from_secs(10));
        assert!(!agent.heartbeat_due(SimTime::from_secs(15)));
        assert!(agent.heartbeat_due(SimTime::from_secs(20)));
    }

    #[test]
    fn lifecycle_transitions() {
        let mut agent = RobustAgent::for_training(MachineId(1));
        agent.suspend();
        assert_eq!(agent.state, AgentState::Suspended);
        agent.resume();
        assert_eq!(agent.state, AgentState::Training);
        assert!(!agent.activate(), "active agents cannot be re-activated");
        agent.evict();
        assert_eq!(agent.state, AgentState::Evicted);
    }

    #[test]
    fn standby_activation() {
        let mut agent = RobustAgent::for_standby(MachineId(2));
        assert_eq!(agent.state, AgentState::StandbyPolling);
        assert!(agent.activate());
        assert_eq!(agent.state, AgentState::Training);
    }

    #[test]
    fn self_check_reflects_machine_health() {
        let mut cluster = Cluster::build(ClusterSpec::small_test());
        let agent = RobustAgent::for_standby(MachineId(3));
        assert!(agent.self_check(cluster.machine(MachineId(3))).is_clean());
        cluster.machine_mut(MachineId(3)).gpu_mut(0).mark_lost();
        assert!(!agent.self_check(cluster.machine(MachineId(3))).is_clean());
    }
}
