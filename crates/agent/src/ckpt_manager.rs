//! The CKPT manager sub-module: records the checkpoints the plan schedules
//! in the store, per storage tier, and answers recovery queries (§6.3, §7).
//! It charges no stall: checkpoint blocking time is modelled only by the
//! Table 8 comparison, which drives a `CheckpointEngine` of its own.

use byterobust_checkpoint::{CheckpointPlan, CheckpointStore, RecoveryPoint};
use byterobust_cluster::MachineId;
use byterobust_trainsim::JobSpec;

/// Per-pod checkpoint manager.
#[derive(Debug, Clone)]
pub struct CkptManager {
    plan: CheckpointPlan,
    store: CheckpointStore,
}

impl CkptManager {
    /// Creates a manager for a job with the given plan.
    pub fn new(job: &JobSpec, plan: CheckpointPlan) -> Self {
        CkptManager {
            plan,
            store: CheckpointStore::new(job),
        }
    }

    /// Creates a manager with ByteRobust's default every-step plan.
    pub fn byterobust_default(job: &JobSpec) -> Self {
        Self::new(job, CheckpointPlan::byterobust_default())
    }

    /// The best recovery point after evicting the given machines.
    pub fn best_recovery_point(&self, evicted: &[MachineId]) -> Option<RecoveryPoint> {
        self.store.best_recovery_point(evicted)
    }

    /// Records training steps `(from_step, to_step]`: the latest checkpoint
    /// the plan schedules within the interval at each tier. The store keeps
    /// the highest step per tier, so one call per step records exactly what
    /// one call per interval does.
    pub fn advance_steps(&mut self, from_step: u64, to_step: u64) {
        if let Some(step) = self.plan.memory_due(from_step, to_step) {
            self.store.record_memory(step);
        }
        if let Some(step) = self.plan.disk_due(from_step, to_step) {
            self.store.record_disk(step);
        }
        if let Some(step) = self.plan.remote_due(from_step, to_step) {
            self.store.record_remote(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_checkpoint::StorageTier;

    #[test]
    fn recovery_point_tracks_latest_step() {
        let job = JobSpec::small_test();
        let mut mgr = CkptManager::byterobust_default(&job);
        for s in 1..=12u64 {
            mgr.advance_steps(s - 1, s);
        }
        let rp = mgr.best_recovery_point(&[]).unwrap();
        assert_eq!(rp.step, 12);
        assert_eq!(rp.tier, StorageTier::CpuMemory);
        // A single-machine eviction still recovers from step 12.
        let rp = mgr.best_recovery_point(&[MachineId(0)]).unwrap();
        assert_eq!(rp.step, 12);
    }

    #[test]
    fn megatron_plan_checkpoints_rarely_and_recovers_older_steps() {
        // The conventional baseline shape: remote uploads every 100 steps and
        // no in-memory or local-disk tier.
        let job = JobSpec::small_test();
        let plan = CheckpointPlan {
            memory_every_steps: u64::MAX,
            disk_every_steps: u64::MAX,
            remote_every_steps: 100,
        };
        let mut mgr = CkptManager::new(&job, plan);
        mgr.advance_steps(0, 250);
        let rp = mgr.best_recovery_point(&[]).unwrap();
        assert_eq!(rp.tier, StorageTier::Remote, "no in-memory tier");
        let rp = mgr.best_recovery_point(&[MachineId(3)]).unwrap();
        assert_eq!(rp.tier, StorageTier::Remote);
        assert_eq!(rp.step, 200, "latest remote checkpoint is at step 200");
    }

    #[test]
    fn disk_tier_used_for_crash_without_eviction() {
        let job = JobSpec::small_test();
        let mut mgr = CkptManager::new(
            &job,
            CheckpointPlan {
                memory_every_steps: u64::MAX,
                ..CheckpointPlan::byterobust_default()
            },
        );
        for s in 1..=25u64 {
            mgr.advance_steps(s - 1, s);
        }
        let rp = mgr.best_recovery_point(&[]).unwrap();
        assert_eq!(rp.tier, StorageTier::LocalDisk);
        assert_eq!(rp.step, 20);
    }
}
