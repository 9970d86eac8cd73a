//! Checkpointing plans: approach, frequency per storage tier.

use crate::engine::CheckpointApproach;

/// How often checkpoints are taken at each storage tier.
///
/// ByteRobust advocates every-step in-memory checkpointing with peer backups,
/// a less frequent flush to local SSD, and only occasional uploads to remote
/// storage for durability beyond the cluster (§6.3). The baselines checkpoint
/// far less often because each save stalls training (§2.3 cites 30-minute or
/// 100-step intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Approach used for the hot path.
    pub approach: CheckpointApproach,
    /// Save to CPU memory (and peer backup) every N steps.
    pub memory_every_steps: u64,
    /// Flush to local SSD every N steps.
    pub disk_every_steps: u64,
    /// Upload to remote storage every N steps.
    pub remote_every_steps: u64,
}

impl CheckpointPlan {
    /// ByteRobust's production plan: every-step in-memory checkpointing,
    /// SSD flush every 10 steps, remote upload every 250 steps.
    pub fn byterobust_default() -> Self {
        CheckpointPlan {
            approach: CheckpointApproach::ByteRobustSave,
            memory_every_steps: 1,
            disk_every_steps: 10,
            remote_every_steps: 250,
        }
    }

    /// The conventional baseline: blocking remote checkpointing every 100
    /// steps (no in-memory tier).
    pub fn megatron_baseline() -> Self {
        CheckpointPlan {
            approach: CheckpointApproach::MegatronSave,
            memory_every_steps: u64::MAX,
            disk_every_steps: u64::MAX,
            remote_every_steps: 100,
        }
    }

    /// Gemini-style in-memory checkpointing every 5 steps with remote uploads
    /// every 500.
    pub fn memory_baseline() -> Self {
        CheckpointPlan {
            approach: CheckpointApproach::MemorySave,
            memory_every_steps: 5,
            disk_every_steps: 50,
            remote_every_steps: 500,
        }
    }

    /// Whether a save at the given tier should happen at `step`.
    fn due(step: u64, every: u64) -> bool {
        every != u64::MAX && every > 0 && step > 0 && step.is_multiple_of(every)
    }

    /// Whether an in-memory (+ peer backup) save is due at `step`.
    pub fn memory_due(&self, step: u64) -> bool {
        Self::due(step, self.memory_every_steps)
    }

    /// Whether a local-disk flush is due at `step`.
    pub fn disk_due(&self, step: u64) -> bool {
        Self::due(step, self.disk_every_steps)
    }

    /// Whether a remote upload is due at `step`.
    pub fn remote_due(&self, step: u64) -> bool {
        Self::due(step, self.remote_every_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byterobust_plan_checkpoints_every_step() {
        let plan = CheckpointPlan::byterobust_default();
        assert!(plan.memory_due(1));
        assert!(plan.memory_due(7));
        assert!(!plan.memory_due(0));
        assert!(plan.disk_due(10));
        assert!(!plan.disk_due(11));
        assert!(plan.remote_due(250));
    }

    #[test]
    fn megatron_plan_has_no_memory_tier() {
        let plan = CheckpointPlan::megatron_baseline();
        assert!(!plan.memory_due(1));
        assert!(!plan.memory_due(1_000_000));
        assert!(plan.remote_due(100));
        assert!(!plan.remote_due(150));
    }

    #[test]
    fn memory_baseline_period() {
        let plan = CheckpointPlan::memory_baseline();
        assert!(plan.memory_due(5));
        assert!(!plan.memory_due(6));
    }
}
