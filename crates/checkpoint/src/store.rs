//! Checkpoint availability tracking and recovery-point selection.
//!
//! After a failure the controller needs the latest step that can actually be
//! restored given which machines were evicted and which storage tiers hold a
//! complete copy. In-memory checkpoints live in host CPU memory of the
//! machine itself plus a cross-parallel-group backup peer; local-disk copies
//! survive process crashes but not machine eviction; remote copies always
//! survive but are slow to fetch and usually old.

use byterobust_cluster::MachineId;
use byterobust_parallelism::{BackupAssignment, ParallelTopology};
use byterobust_sim::SimDuration;
use byterobust_trainsim::JobSpec;

use crate::state::CheckpointState;

/// Where a checkpoint copy lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageTier {
    /// Host CPU memory of the owning machine, plus the peer backup.
    CpuMemory,
    /// Local SSD of the owning machine.
    LocalDisk,
    /// Remote distributed storage (HDFS-style).
    Remote,
}

/// A restorable checkpoint: the step it captures, the tier it will be loaded
/// from, and how long loading takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPoint {
    /// Optimizer step captured by the checkpoint.
    pub step: u64,
    /// Tier it will be loaded from.
    pub tier: StorageTier,
    /// Time to load it across the job.
    pub load_time: SimDuration,
}

/// Tracks the latest complete checkpoint per tier and answers recovery
/// queries under machine eviction.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    topology: ParallelTopology,
    backup: BackupAssignment,
    state: CheckpointState,
    d2h_bandwidth_gbps: f64,
    rdma_bandwidth_gbps: f64,
    remote_bandwidth_gbps: f64,
    /// Latest step fully captured in CPU memory (and peer backups).
    memory_step: Option<u64>,
    /// Latest step flushed to local SSDs.
    disk_step: Option<u64>,
    /// Latest step uploaded to remote storage.
    remote_step: Option<u64>,
}

impl CheckpointStore {
    /// Creates an empty store for a job.
    pub fn new(job: &JobSpec) -> Self {
        let topology = ParallelTopology::new(job.parallelism);
        let backup = BackupAssignment::compute(&topology);
        CheckpointStore {
            topology,
            backup,
            state: CheckpointState::for_job(job),
            d2h_bandwidth_gbps: job.hardware.d2h_bandwidth_gbps,
            rdma_bandwidth_gbps: job.hardware.rdma_bandwidth_gbps,
            remote_bandwidth_gbps: job.hardware.remote_storage_gbps,
            memory_step: None,
            disk_step: None,
            remote_step: None,
        }
    }

    /// Records a completed in-memory (+ peer backup) checkpoint at `step`.
    pub fn record_memory(&mut self, step: u64) {
        self.memory_step = Some(self.memory_step.map_or(step, |s| s.max(step)));
    }

    /// Records a completed local-disk flush at `step`.
    pub fn record_disk(&mut self, step: u64) {
        self.disk_step = Some(self.disk_step.map_or(step, |s| s.max(step)));
    }

    /// Records a completed remote upload at `step`.
    pub fn record_remote(&mut self, step: u64) {
        self.remote_step = Some(self.remote_step.map_or(step, |s| s.max(step)));
    }

    /// Loading time if restoring from host CPU memory: evicted machines'
    /// shards are fetched from their backup peers over RDMA; surviving
    /// machines reload locally (H2D copy).
    fn memory_load_time(&self, evicted: &[MachineId]) -> SimDuration {
        let h2d = SimDuration::from_secs_f64(
            self.state.bytes_per_machine() / (self.d2h_bandwidth_gbps * 1e9),
        );
        if evicted.is_empty() {
            return h2d;
        }
        let fetch = SimDuration::from_secs_f64(
            self.state.bytes_per_machine() / (self.rdma_bandwidth_gbps * 1e9),
        );
        h2d + fetch
    }

    /// Loading time from local disk (SSD read + H2D), assuming ~2 GB/s SSD
    /// read per machine.
    fn disk_load_time(&self) -> SimDuration {
        let ssd_read = SimDuration::from_secs_f64(self.state.bytes_per_machine() / 2e9);
        let h2d = SimDuration::from_secs_f64(
            self.state.bytes_per_machine() / (self.d2h_bandwidth_gbps * 1e9),
        );
        ssd_read + h2d
    }

    /// Loading time from remote storage over the front-end network.
    fn remote_load_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(
            self.state.remote_bytes_per_machine() / (self.remote_bandwidth_gbps * 1e9 * 0.25),
        ) + SimDuration::from_secs(30)
    }

    /// The best recovery point available after evicting `evicted` machines.
    ///
    /// * CPU-memory checkpoints survive as long as no evicted rank's backup
    ///   peer is also evicted (guaranteed under single-group over-eviction by
    ///   the cross-group backup placement).
    /// * Local-disk checkpoints survive only if no machine was evicted (an
    ///   evicted machine's disk is unreachable) — they cover process-crash
    ///   restarts.
    /// * Remote checkpoints always survive.
    pub fn best_recovery_point(&self, evicted: &[MachineId]) -> Option<RecoveryPoint> {
        if let Some(step) = self.memory_step {
            if self.backup.survives_eviction(&self.topology, evicted) {
                return Some(RecoveryPoint {
                    step,
                    tier: StorageTier::CpuMemory,
                    load_time: self.memory_load_time(evicted),
                });
            }
        }
        if let Some(step) = self.disk_step {
            if evicted.is_empty() {
                return Some(RecoveryPoint {
                    step,
                    tier: StorageTier::LocalDisk,
                    load_time: self.disk_load_time(),
                });
            }
        }
        self.remote_step.map(|step| RecoveryPoint {
            step,
            tier: StorageTier::Remote,
            load_time: self.remote_load_time(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_parallelism::GroupKind;

    fn store() -> CheckpointStore {
        CheckpointStore::new(&JobSpec::small_test())
    }

    #[test]
    fn empty_store_has_no_recovery_point() {
        let s = store();
        assert!(s.best_recovery_point(&[]).is_none());
    }

    #[test]
    fn memory_checkpoint_preferred_when_available() {
        let mut s = store();
        s.record_remote(100);
        s.record_disk(180);
        s.record_memory(200);
        let rp = s.best_recovery_point(&[]).unwrap();
        assert_eq!(rp.step, 200);
        assert_eq!(rp.tier, StorageTier::CpuMemory);
    }

    #[test]
    fn memory_checkpoint_survives_single_machine_eviction() {
        let mut s = store();
        s.record_memory(500);
        s.record_remote(100);
        let rp = s.best_recovery_point(&[MachineId(3)]).unwrap();
        assert_eq!(rp.tier, StorageTier::CpuMemory);
        assert_eq!(rp.step, 500);
        // Loading with an eviction is slower than without (peer fetch).
        let rp_clean = s.best_recovery_point(&[]).unwrap();
        assert!(rp.load_time > rp_clean.load_time);
    }

    #[test]
    fn memory_checkpoint_survives_pp_group_over_eviction() {
        let job = JobSpec::small_test();
        let mut s = CheckpointStore::new(&job);
        s.record_memory(700);
        s.record_remote(100);
        let topo = ParallelTopology::new(job.parallelism);
        let group = topo.group_of(byterobust_parallelism::Rank(0), GroupKind::Pipeline);
        let machines = topo.machines_of_group(&group);
        let rp = s.best_recovery_point(&machines).unwrap();
        assert_eq!(rp.tier, StorageTier::CpuMemory);
        assert_eq!(rp.step, 700);
    }

    #[test]
    fn disk_only_useful_without_eviction() {
        let mut s = store();
        s.record_disk(300);
        s.record_remote(100);
        let clean = s.best_recovery_point(&[]).unwrap();
        assert_eq!(clean.tier, StorageTier::LocalDisk);
        assert_eq!(clean.step, 300);
        let evicted = s.best_recovery_point(&[MachineId(0)]).unwrap();
        assert_eq!(evicted.tier, StorageTier::Remote);
        assert_eq!(evicted.step, 100);
        assert!(evicted.load_time > clean.load_time);
    }

    #[test]
    fn remote_is_last_resort_and_slowest() {
        let mut s = store();
        s.record_memory(400);
        s.record_disk(390);
        s.record_remote(300);
        // Evict a machine together with the machine holding its backup peers:
        // the memory tier becomes unavailable.
        let topo = ParallelTopology::new(JobSpec::small_test().parallelism);
        let victim = MachineId(0);
        let victim_rank = topo.mapping().ranks_on_machine(victim)[0];
        let peer_machine = topo.mapping().machine_of(s.backup.backup_peer(victim_rank));
        let evicted = vec![victim, peer_machine];
        let rp = s.best_recovery_point(&evicted).unwrap();
        assert_eq!(rp.tier, StorageTier::Remote);
        assert_eq!(rp.step, 300);
    }

    #[test]
    fn record_keeps_maximum_step() {
        let mut s = store();
        s.record_memory(10);
        s.record_memory(5);
        assert_eq!(s.memory_step, Some(10));
    }
}
