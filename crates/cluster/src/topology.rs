//! Cluster topology: the fleet of machines assigned to a training job plus
//! the warm-standby pool, grouped under leaf switches.
//!
//! Membership is dynamic: besides the machines a cluster is built with, it
//! can *release* a spare machine to another job and *adopt* a machine
//! migrated in from one (fleet-level machine migration) — the `Machine`
//! object moves wholesale, so GPU damage, NIC state, and health history
//! travel with the machine rather than being reset at the job boundary.
//! Lookups therefore go through an id → slot index rather than assuming
//! `MachineId(i)` lives at index `i`.

use std::collections::{BTreeMap, BTreeSet};

use byterobust_sim::SimTime;

use crate::blacklist::Blacklist;
use crate::fault::FaultKind;
use crate::ids::{MachineId, SwitchId};
use crate::machine::{Machine, MachineState};

/// Static description of a cluster to construct.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Machines actively assigned to the training job.
    pub active_machines: usize,
    /// Pre-provisioned warm-standby machines (§6.2).
    pub standby_machines: usize,
    /// GPUs per machine (8 for the Hopper fleet, 16 for the L20 fleet in §8).
    pub gpus_per_machine: u8,
    /// Machines attached to each leaf switch.
    pub machines_per_switch: usize,
}

impl ClusterSpec {
    /// A small scale suitable for unit tests and the quickstart example.
    pub fn small_test() -> Self {
        ClusterSpec {
            active_machines: 16,
            standby_machines: 2,
            gpus_per_machine: 8,
            machines_per_switch: 8,
        }
    }

    /// Total machines (active + standby).
    pub fn total_machines(&self) -> usize {
        self.active_machines + self.standby_machines
    }
}

/// The live cluster: machine objects, switch attachment, and the blacklist.
#[derive(Debug, Clone)]
pub struct Cluster {
    machines: Vec<Machine>,
    /// Slot index of each machine id currently in this cluster. Membership
    /// changes (release/adopt) keep this in sync with `machines`.
    index_of: BTreeMap<MachineId, usize>,
    /// Machines that may have drifted from nominal condition: every machine
    /// handed out via [`Cluster::machine_mut`] lands here and stays until a
    /// refresh observes it nominal again. Invariant: any non-nominal member
    /// is in this set, so monitor sweeps and stop-time diagnostics can visit
    /// `dirty ∩ active` instead of the whole fleet.
    dirty: BTreeSet<MachineId>,
    /// Per-slot cache of [`Machine::relative_throughput`], refreshed for
    /// dirty machines before each aggregate read so the per-step fleet
    /// throughput scan is O(machines) adds instead of O(machines × GPUs)
    /// recomputes.
    throughput_cache: Vec<f64>,
    /// Machines blocked from scheduling.
    pub blacklist: Blacklist,
}

impl Cluster {
    /// Builds a cluster from a spec. The first `active_machines` ids are
    /// active; the rest start as warm standbys.
    pub fn build(spec: ClusterSpec) -> Self {
        assert!(
            spec.active_machines > 0,
            "cluster must have at least one active machine"
        );
        assert!(
            spec.gpus_per_machine > 0,
            "machines must have at least one GPU"
        );
        assert!(
            spec.machines_per_switch > 0,
            "machines_per_switch must be > 0"
        );
        let total = spec.total_machines();
        let mut machines = Vec::with_capacity(total);
        for i in 0..total {
            let switch = SwitchId((i / spec.machines_per_switch) as u32);
            let mut m = Machine::healthy(MachineId(i as u32), switch, spec.gpus_per_machine);
            m.state = if i < spec.active_machines {
                MachineState::Active
            } else {
                MachineState::WarmStandby
            };
            machines.push(m);
        }
        let index_of = machines
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id, i))
            .collect();
        let throughput_cache = machines.iter().map(Machine::relative_throughput).collect();
        Cluster {
            machines,
            index_of,
            dirty: BTreeSet::new(),
            throughput_cache,
            blacklist: Blacklist::new(),
        }
    }

    /// Immutable access to a machine.
    ///
    /// # Panics
    /// Panics if the machine is not a member of this cluster.
    pub fn machine(&self, id: MachineId) -> &Machine {
        let slot = self.index_of[&id];
        &self.machines[slot]
    }

    /// Mutable access to a machine.
    ///
    /// # Panics
    /// Panics if the machine is not a member of this cluster.
    pub fn machine_mut(&mut self, id: MachineId) -> &mut Machine {
        let slot = self.index_of[&id];
        // The borrow may mutate anything; re-evaluate this machine lazily.
        self.dirty.insert(id);
        &mut self.machines[slot]
    }

    /// All machines.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Ids of machines currently in the given state.
    pub fn machines_in_state(&self, state: MachineState) -> Vec<MachineId> {
        self.machines
            .iter()
            .filter(|m| m.state == state)
            .map(|m| m.id)
            .collect()
    }

    /// Ids of machines actively participating in training.
    pub fn active_machines(&self) -> Vec<MachineId> {
        self.machines_in_state(MachineState::Active)
    }

    /// Ids of ready warm-standby machines.
    pub fn standby_machines(&self) -> Vec<MachineId> {
        self.machines_in_state(MachineState::WarmStandby)
    }

    /// Evicts a machine: marks it evicted and blacklists it.
    pub fn evict_machine(
        &mut self,
        id: MachineId,
        at: SimTime,
        reason: FaultKind,
        over_evicted: bool,
    ) {
        self.machine_mut(id).evict();
        self.blacklist.block(id, at, reason, over_evicted);
    }

    /// Promotes a warm-standby machine into the active set. Returns `false`
    /// if the machine is not a ready standby or fails its self-check.
    pub fn activate_standby(&mut self, id: MachineId) -> bool {
        let machine = self.machine_mut(id);
        if machine.state != MachineState::WarmStandby || !machine.passes_self_check() {
            return false;
        }
        machine.state = MachineState::Active;
        true
    }

    /// Releases a warm-standby machine to another job (fleet machine
    /// migration). The machine leaves this cluster wholesale — its hardware
    /// state travels with it — and the caller hands it to the receiving
    /// cluster via [`Cluster::adopt_machine`].
    ///
    /// # Panics
    /// Panics if the machine is not a member or not a ready warm standby.
    pub fn release_machine(&mut self, id: MachineId) -> Machine {
        let slot = self.index_of[&id];
        assert_eq!(
            self.machines[slot].state,
            MachineState::WarmStandby,
            "only warm-standby machines can be released for migration"
        );
        let machine = self.machines.remove(slot);
        self.throughput_cache.remove(slot);
        self.index_of.remove(&id);
        self.dirty.remove(&id);
        for index in self.index_of.values_mut() {
            if *index > slot {
                *index -= 1;
            }
        }
        machine
    }

    /// Adopts a machine migrated in from another job. It joins the receiving
    /// cluster's warm spares — its pod is re-targeted while it waits, and the
    /// next eviction's recovery activates it at the barrier — keeping its id,
    /// switch attachment, and hardware history.
    ///
    /// # Panics
    /// Panics if a machine with the same id is already a member.
    pub fn adopt_machine(&mut self, mut machine: Machine) {
        assert!(
            !self.index_of.contains_key(&machine.id),
            "cluster already has a machine with id {}",
            machine.id
        );
        machine.state = MachineState::WarmStandby;
        let throughput = machine.relative_throughput();
        self.index_of.insert(machine.id, self.machines.len());
        // The migrant carries its hardware history; treat it as suspect until
        // a refresh proves it nominal.
        self.dirty.insert(machine.id);
        self.machines.push(machine);
        self.throughput_cache.push(throughput);
    }

    /// Re-evaluates every dirty machine: refreshes its throughput-cache slot
    /// and drops it from the dirty set once it is nominal again.
    fn refresh_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut nominal_again: Vec<MachineId> = Vec::new();
        for &id in &self.dirty {
            let slot = self.index_of[&id];
            let machine = &self.machines[slot];
            self.throughput_cache[slot] = machine.relative_throughput();
            if machine.is_nominal() {
                nominal_again.push(id);
            }
        }
        for id in nominal_again {
            self.dirty.remove(&id);
        }
    }

    /// Active machines that may be non-nominal, in slot order — the candidate
    /// set for monitor sweeps and stop-time diagnostics. Nominal machines
    /// contribute nothing to either (clean health report, no suspect
    /// predicate fires, no RNG draw), so visiting only these is
    /// behavior-identical to visiting every active machine.
    pub fn suspect_active_machines(&mut self) -> Vec<MachineId> {
        self.refresh_dirty();
        let mut slots: Vec<usize> = self
            .dirty
            .iter()
            .map(|id| self.index_of[id])
            .filter(|&slot| self.machines[slot].state == MachineState::Active)
            .collect();
        slots.sort_unstable();
        slots
            .into_iter()
            .map(|slot| self.machines[slot].id)
            .collect()
    }

    /// Aggregate relative throughput of the active fleet, served from the
    /// per-slot cache. Bit-identical to
    /// [`Cluster::active_relative_throughput`]: same per-machine values
    /// summed in the same slot order, divided by the same count.
    pub fn active_relative_throughput_cached(&mut self) -> f64 {
        self.refresh_dirty();
        let mut sum = 0.0;
        let mut active = 0usize;
        for (slot, machine) in self.machines.iter().enumerate() {
            if machine.state == MachineState::Active {
                sum += self.throughput_cache[slot];
                active += 1;
            }
        }
        if active == 0 {
            return 0.0;
        }
        sum / active as f64
    }

    /// Aggregate relative throughput of the active fleet (mean of per-machine
    /// relative throughput); 1.0 means every active machine at full speed.
    pub fn active_relative_throughput(&self) -> f64 {
        let active: Vec<&Machine> = self
            .machines
            .iter()
            .filter(|m| m.state == MachineState::Active)
            .collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|m| m.relative_throughput()).sum::<f64>() / active.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{Gpu, GpuState};
    use crate::machine::NicState;

    #[test]
    fn build_assigns_states_and_switches() {
        let cluster = Cluster::build(ClusterSpec::small_test());
        assert_eq!(cluster.machines.len(), 18);
        assert_eq!(cluster.active_machines().len(), 16);
        assert_eq!(cluster.standby_machines().len(), 2);
        // 18 machines / 8 per switch => 3 switches.
        assert_eq!(cluster.machine(MachineId(7)).switch, SwitchId(0));
        assert_eq!(cluster.machine(MachineId(8)).switch, SwitchId(1));
        assert_eq!(cluster.machine(MachineId(17)).switch, SwitchId(2));
    }

    #[test]
    fn evict_blacklists_and_marks_machine() {
        let mut cluster = Cluster::build(ClusterSpec::small_test());
        let victim = MachineId(3);
        cluster.evict_machine(victim, SimTime::from_secs(60), FaultKind::CudaError, false);
        assert_eq!(cluster.machine(victim).state, MachineState::Evicted);
        assert_eq!(cluster.active_machines().len(), 15);
    }

    #[test]
    fn activate_standby_requires_ready_standby() {
        let mut cluster = Cluster::build(ClusterSpec::small_test());
        let standby = cluster.standby_machines()[0];
        assert!(cluster.activate_standby(standby));
        assert_eq!(cluster.machine(standby).state, MachineState::Active);
        // Activating an already-active machine fails.
        assert!(!cluster.activate_standby(standby));
        // A broken standby fails its self-check and is not delivered.
        let other = cluster.standby_machines()[0];
        cluster.machine_mut(other).gpu_mut(0).mark_lost();
        assert!(!cluster.activate_standby(other));
    }

    #[test]
    fn release_and_adopt_move_machine_state_between_clusters() {
        let mut donor = Cluster::build(ClusterSpec::small_test());
        let mut receiver = Cluster::build(ClusterSpec {
            active_machines: 4,
            standby_machines: 1,
            gpus_per_machine: 8,
            machines_per_switch: 4,
        });
        // Pick a donor spare whose id does not collide with the receiver.
        let spare = *donor
            .standby_machines()
            .iter()
            .find(|id| !receiver.index_of.contains_key(id))
            .expect("small_test spares (16, 17) are outside the 5-machine receiver");
        // Leave a (benign, below the 85C alarm) hardware trace so we can see
        // the state travel without failing the standby self-check.
        donor.machine_mut(spare).gpu_mut(1).temperature_c = 80.0;
        let machine = donor.release_machine(spare);
        assert!(!donor.index_of.contains_key(&spare));
        assert_eq!(donor.machines.len(), 17);
        // Remaining donor machines are still addressable after the removal.
        assert_eq!(donor.machine(MachineId(0)).id, MachineId(0));
        assert_eq!(donor.active_machines().len(), 16);

        receiver.adopt_machine(machine);
        assert!(receiver.index_of.contains_key(&spare));
        assert_eq!(receiver.machine(spare).state, MachineState::WarmStandby);
        assert!(
            receiver.machine(spare).gpus[1].temperature_c > 75.0,
            "hardware history must travel with the machine"
        );
        assert_eq!(receiver.standby_machines().len(), 2);
        // The next eviction's recovery can activate it like any other spare.
        assert!(receiver.activate_standby(spare));
        assert_eq!(receiver.active_machines().len(), 5);
    }

    #[test]
    #[should_panic(expected = "only warm-standby machines")]
    fn releasing_an_active_machine_panics() {
        let mut cluster = Cluster::build(ClusterSpec::small_test());
        let _ = cluster.release_machine(MachineId(0));
    }

    #[test]
    #[should_panic(expected = "already has a machine")]
    fn adopting_a_duplicate_id_panics() {
        let mut donor = Cluster::build(ClusterSpec::small_test());
        let mut receiver = Cluster::build(ClusterSpec::small_test());
        let spare = donor.standby_machines()[0];
        let machine = donor.release_machine(spare);
        // Same spec => same id namespace => collision.
        receiver.adopt_machine(machine);
    }

    #[test]
    fn throughput_reflects_degradation() {
        let mut cluster = Cluster::build(ClusterSpec::small_test());
        assert!((cluster.active_relative_throughput() - 1.0).abs() < 1e-9);
        cluster.machine_mut(MachineId(0)).gpu_mut(0).mark_lost();
        assert!(cluster.active_relative_throughput() < 1.0);
    }

    #[test]
    fn cached_throughput_is_bit_identical_to_full_scan() {
        let mut cluster = Cluster::build(ClusterSpec::small_test());
        assert_eq!(
            cluster.active_relative_throughput_cached(),
            cluster.active_relative_throughput()
        );
        // Damage a few machines in different ways, interleaved with state
        // transitions, and keep the cached read bit-identical throughout.
        cluster.machine_mut(MachineId(0)).gpu_mut(0).overheat(92.0);
        assert_eq!(
            cluster.active_relative_throughput_cached(),
            cluster.active_relative_throughput()
        );
        cluster.machine_mut(MachineId(5)).nic = NicState::Flapping;
        cluster
            .machine_mut(MachineId(7))
            .gpu_mut(3)
            .pcie_bandwidth_frac = 0.4;
        assert_eq!(
            cluster.active_relative_throughput_cached(),
            cluster.active_relative_throughput()
        );
        cluster.evict_machine(
            MachineId(7),
            SimTime::from_secs(9),
            FaultKind::CudaError,
            false,
        );
        let standby = cluster.standby_machines()[0];
        assert!(cluster.activate_standby(standby));
        assert_eq!(
            cluster.active_relative_throughput_cached(),
            cluster.active_relative_throughput()
        );
        // Repairing back to nominal drains the dirty set and stays identical.
        let gpu = cluster.machine_mut(MachineId(0)).gpu_mut(0);
        gpu.temperature_c = Gpu::NOMINAL_TEMP_C;
        gpu.state = GpuState::Healthy;
        cluster.machine_mut(MachineId(5)).nic = NicState::Up;
        assert_eq!(
            cluster.active_relative_throughput_cached(),
            cluster.active_relative_throughput()
        );
        assert!(cluster.suspect_active_machines().is_empty());
    }

    #[test]
    fn suspect_set_covers_every_non_nominal_active_machine() {
        let mut cluster = Cluster::build(ClusterSpec::small_test());
        assert!(cluster.suspect_active_machines().is_empty());
        cluster.machine_mut(MachineId(3)).gpu_mut(0).mark_faulty();
        cluster.machine_mut(MachineId(11)).gpu_mut(2).sdc_prone = true;
        // Touching a machine without damaging it must not leave it suspect.
        let _ = cluster.machine_mut(MachineId(6));
        assert_eq!(
            cluster.suspect_active_machines(),
            vec![MachineId(3), MachineId(11)]
        );
        // The suspect set is exactly the non-nominal active machines.
        for id in cluster.active_machines() {
            let nominal = cluster.machine(id).is_nominal();
            let suspect = cluster.suspect_active_machines().contains(&id);
            assert_eq!(!nominal, suspect, "machine {id}");
        }
        // Evicted machines drop out of the active suspect set.
        cluster.evict_machine(
            MachineId(3),
            SimTime::from_secs(1),
            FaultKind::CudaError,
            false,
        );
        assert_eq!(cluster.suspect_active_machines(), vec![MachineId(11)]);
    }

    #[test]
    #[should_panic(expected = "at least one active machine")]
    fn empty_cluster_panics() {
        let _ = Cluster::build(ClusterSpec {
            active_machines: 0,
            standby_machines: 0,
            gpus_per_machine: 8,
            machines_per_switch: 8,
        });
    }
}
