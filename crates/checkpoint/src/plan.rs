//! Checkpointing plans: frequency per storage tier.

/// How often checkpoints are taken at each storage tier.
///
/// ByteRobust advocates every-step in-memory checkpointing with peer backups,
/// a less frequent flush to local SSD, and only occasional uploads to remote
/// storage for durability beyond the cluster (§6.3). The baselines checkpoint
/// far less often because each save stalls training (§2.3 cites 30-minute or
/// 100-step intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPlan {
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
            memory_every_steps: 1,
            disk_every_steps: 10,
            remote_every_steps: 250,
        }
    }

    /// The latest step in `(from_step, to_step]` at which a tier saved every
    /// `every` steps is due, if any. `0` and `u64::MAX` disable the tier.
    fn due(every: u64, from_step: u64, to_step: u64) -> Option<u64> {
        if every == 0 || every == u64::MAX {
            return None;
        }
        let latest = (to_step / every) * every;
        (latest > from_step && latest > 0).then_some(latest)
    }

    /// The latest in-memory (+ peer backup) save due in `(from_step, to_step]`.
    pub fn memory_due(&self, from_step: u64, to_step: u64) -> Option<u64> {
        Self::due(self.memory_every_steps, from_step, to_step)
    }

    /// The latest local-disk flush due in `(from_step, to_step]`.
    pub fn disk_due(&self, from_step: u64, to_step: u64) -> Option<u64> {
        Self::due(self.disk_every_steps, from_step, to_step)
    }

    /// The latest remote upload due in `(from_step, to_step]`.
    pub fn remote_due(&self, from_step: u64, to_step: u64) -> Option<u64> {
        Self::due(self.remote_every_steps, from_step, to_step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byterobust_plan_checkpoints_every_step() {
        let plan = CheckpointPlan::byterobust_default();
        assert_eq!(plan.memory_due(0, 1), Some(1));
        assert_eq!(plan.memory_due(6, 7), Some(7));
        assert_eq!(plan.memory_due(0, 0), None);
        assert_eq!(plan.disk_due(9, 10), Some(10));
        assert_eq!(plan.disk_due(10, 11), None);
        assert_eq!(
            plan.disk_due(0, 37),
            Some(30),
            "latest flush in the interval"
        );
        assert_eq!(plan.remote_due(249, 250), Some(250));
    }

    #[test]
    fn megatron_plan_has_no_memory_tier() {
        // The conventional baseline shape: remote uploads every 100 steps.
        let plan = CheckpointPlan {
            memory_every_steps: u64::MAX,
            disk_every_steps: u64::MAX,
            remote_every_steps: 100,
        };
        assert_eq!(plan.memory_due(0, 1), None);
        assert_eq!(plan.memory_due(0, 1_000_000), None);
        assert_eq!(plan.remote_due(99, 100), Some(100));
        assert_eq!(plan.remote_due(100, 150), None);
    }

    #[test]
    fn memory_baseline_period() {
        // Gemini-style in-memory checkpointing every 5 steps.
        let plan = CheckpointPlan {
            memory_every_steps: 5,
            disk_every_steps: 50,
            remote_every_steps: 500,
        };
        assert_eq!(plan.memory_due(4, 5), Some(5));
        assert_eq!(plan.memory_due(5, 6), None);
    }
}
