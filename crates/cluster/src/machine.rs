//! Machine (training node) model.
//!
//! A machine bundles GPUs, a NIC, host-side resources (CPU, memory, disk) and
//! an operational state that the Robust Controller manipulates (active,
//! standby, evicted). The monitor's host-side and network-side inspections
//! (§4.1) read the fields modelled here.

use crate::gpu::{Gpu, GpuState};
use crate::ids::{GpuId, MachineId, SwitchId};

/// Lifecycle state of a machine from the controller's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineState {
    /// Participating in the training job.
    Active,
    /// Pre-provisioned warm standby: pod environment initialized, self-checked,
    /// sleeping in a low-power polling loop (§6.2).
    WarmStandby,
    /// A standby machine whose pod environment is still being initialized.
    Provisioning,
    /// Evicted from the job and blacklisted pending repair.
    Evicted,
    /// Not allocated to this job at all.
    Free,
}

/// NIC operational state used by the network-side inspections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicState {
    /// Normal operation.
    Up,
    /// Port flapping: intermittently dropping; may recover on its own.
    Flapping,
    /// NIC crashed / link down.
    Down,
}

/// Host-side resource condition (CPU / memory / disk), the source of several
/// explicit failure classes in Table 1 (CPU overload, CPU OOM, insufficient
/// disk space, filesystem mount failures).
#[derive(Debug, Clone)]
pub struct HostCondition {
    /// Host CPU utilization in `[0, 1]`; sustained values near 1.0 correspond
    /// to the "CPU Overload" incident class.
    pub cpu_utilization: f64,
    /// Free host memory fraction; near-zero triggers "CPU OOM".
    pub free_memory_frac: f64,
    /// Free disk fraction; near-zero triggers "Insufficient Disk Space".
    pub free_disk_frac: f64,
    /// Whether the shared filesystem is mounted.
    pub filesystem_mounted: bool,
    /// Whether the OS kernel has panicked (detected via dmesg/Xid events).
    pub kernel_panicked: bool,
}

impl Default for HostCondition {
    fn default() -> Self {
        HostCondition {
            cpu_utilization: 0.35,
            free_memory_frac: 0.6,
            free_disk_frac: 0.7,
            filesystem_mounted: true,
            kernel_panicked: false,
        }
    }
}

/// A training machine.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Identity.
    pub id: MachineId,
    /// Leaf switch this machine is attached to.
    pub switch: SwitchId,
    /// GPUs installed in this machine.
    pub gpus: Vec<Gpu>,
    /// RDMA NIC state.
    pub nic: NicState,
    /// Host-side condition.
    pub host: HostCondition,
    /// Controller-visible lifecycle state.
    pub state: MachineState,
    /// Number of times this machine has been evicted over the job lifetime
    /// (repeat offenders feed the blacklist heuristics).
    pub eviction_count: u32,
}

impl Machine {
    /// Creates a healthy machine with `gpus_per_machine` GPUs attached to the
    /// given switch.
    pub fn healthy(id: MachineId, switch: SwitchId, gpus_per_machine: u8) -> Self {
        let gpus = (0..gpus_per_machine)
            .map(|slot| Gpu::healthy(GpuId::new(id, slot)))
            .collect();
        Machine {
            id,
            switch,
            gpus,
            nic: NicState::Up,
            host: HostCondition::default(),
            state: MachineState::Free,
            eviction_count: 0,
        }
    }

    /// Whether every GPU, the NIC and the host are in nominal condition.
    /// This is the predicate warm-standby self-checks verify before a machine
    /// is delivered to a job (§6.2).
    pub fn passes_self_check(&self) -> bool {
        self.gpus
            .iter()
            .all(|g| g.state == GpuState::Healthy && !g.is_overheated())
            && self.nic == NicState::Up
            && !self.host.kernel_panicked
            && self.host.filesystem_mounted
            && self.host.free_disk_frac > 0.05
            && self.host.free_memory_frac > 0.05
    }

    /// Whether the machine can currently make *any* training progress
    /// (all GPUs usable, NIC not down, no kernel panic).
    pub fn is_operational(&self) -> bool {
        self.gpus.iter().all(|g| g.is_usable())
            && self.nic != NicState::Down
            && !self.host.kernel_panicked
            && self.host.filesystem_mounted
    }

    /// Relative training throughput of this machine (minimum across GPUs,
    /// further reduced by a flapping NIC). The slowest component gates the
    /// whole machine because collectives synchronize every rank.
    pub fn relative_throughput(&self) -> f64 {
        if !self.is_operational() {
            return 0.0;
        }
        let gpu_min = self
            .gpus
            .iter()
            .map(|g| g.relative_throughput())
            .fold(f64::INFINITY, f64::min);
        let nic_factor = match self.nic {
            NicState::Up => 1.0,
            NicState::Flapping => 0.7,
            NicState::Down => 0.0,
        };
        (gpu_min * nic_factor).clamp(0.0, 1.0)
    }

    /// Whether any GPU on the machine is SDC-prone.
    pub fn has_sdc_prone_gpu(&self) -> bool {
        self.gpus.iter().any(|g| g.sdc_prone)
    }

    /// Whether the machine is indistinguishable from a factory-fresh one for
    /// every observer in the control plane: a passing standby self-check, no
    /// SDC-prone GPU, exactly nominal throughput, and a clean inspection
    /// sweep. Nominal machines contribute nothing to monitor sweeps or
    /// stop-time diagnostics, which is what lets the cluster's dirty-set
    /// accessors skip them wholesale.
    pub fn is_nominal(&self) -> bool {
        self.passes_self_check()
            && !self.has_sdc_prone_gpu()
            && self.relative_throughput() == 1.0
            && crate::health::HealthReport::inspect(self).is_clean()
    }

    /// Marks the machine evicted and increments its eviction counter.
    pub fn evict(&mut self) {
        self.state = MachineState::Evicted;
        self.eviction_count += 1;
    }

    /// Mutable GPU at the given slot.
    ///
    /// # Panics
    /// Panics if the slot is out of range.
    pub fn gpu_mut(&mut self, slot: u8) -> &mut Gpu {
        &mut self.gpus[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::healthy(MachineId(0), SwitchId(0), 8)
    }

    #[test]
    fn healthy_machine_passes_self_check() {
        let m = machine();
        assert_eq!(m.gpus.len(), 8);
        assert!(m.passes_self_check());
        assert!(m.is_operational());
        assert!((m.relative_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lost_gpu_makes_machine_inoperational() {
        let mut m = machine();
        m.gpu_mut(3).mark_lost();
        assert!(!m.is_operational());
        assert_eq!(m.relative_throughput(), 0.0);
        assert!(!m.passes_self_check());
    }

    #[test]
    fn single_slow_gpu_gates_whole_machine() {
        let mut m = machine();
        m.gpu_mut(5).overheat(95.0);
        assert!(m.is_operational());
        let tp = m.relative_throughput();
        assert!(tp < 0.7, "throughput = {tp}");
        assert!(!m.passes_self_check());
    }

    #[test]
    fn nic_down_blocks_training() {
        let mut m = machine();
        m.nic = NicState::Down;
        assert!(!m.is_operational());
        assert_eq!(m.relative_throughput(), 0.0);
    }

    #[test]
    fn nic_flapping_slows_training() {
        let mut m = machine();
        m.nic = NicState::Flapping;
        assert!(m.is_operational());
        assert!(m.relative_throughput() < 1.0);
    }

    #[test]
    fn kernel_panic_fails_self_check() {
        let mut m = machine();
        m.host.kernel_panicked = true;
        assert!(!m.is_operational());
        assert!(!m.passes_self_check());
    }

    #[test]
    fn evict_and_repair_cycle() {
        let mut m = machine();
        m.evict();
        assert_eq!(m.state, MachineState::Evicted);
        assert_eq!(m.eviction_count, 1);
        m.evict();
        assert_eq!(m.eviction_count, 2);
    }

    #[test]
    fn sdc_prone_detection() {
        let mut m = machine();
        assert!(!m.has_sdc_prone_gpu());
        m.gpu_mut(7).sdc_prone = true;
        assert!(m.has_sdc_prone_gpu());
        // SDC-prone machines still pass ordinary self-checks — that is what
        // makes SDC hard (§9).
        assert!(m.passes_self_check());
    }
}
