//! Checkpoint state sizing: how many bytes each rank / machine must persist.

use byterobust_trainsim::JobSpec;

/// Sizes of the training state that a checkpoint must capture, derived from
//  the job's model and parallelism layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointState {
    /// Model weight bytes held by one rank (sharded over TP × PP).
    pub weight_bytes_per_rank: f64,
    /// Optimizer state bytes held by one rank (ZeRO-1: additionally sharded
    /// over DP).
    pub optimizer_bytes_per_rank: f64,
    /// Ranks per machine.
    pub ranks_per_machine: usize,
    /// Number of data-parallel replicas (weights are deduplicated across DP
    /// when persisting to remote storage, §6.3).
    pub dp: usize,
}

impl CheckpointState {
    /// Computes the state sizes for a job.
    pub fn for_job(job: &JobSpec) -> Self {
        CheckpointState {
            weight_bytes_per_rank: job.weight_bytes_per_rank(),
            optimizer_bytes_per_rank: job.optimizer_bytes_per_rank(),
            ranks_per_machine: job.parallelism.gpus_per_machine,
            dp: job.parallelism.dp,
        }
    }

    /// Bytes one rank must capture per checkpoint (weights + optimizer).
    pub fn bytes_per_rank(&self) -> f64 {
        self.weight_bytes_per_rank + self.optimizer_bytes_per_rank
    }

    /// Bytes one machine must capture per checkpoint.
    pub fn bytes_per_machine(&self) -> f64 {
        self.bytes_per_rank() * self.ranks_per_machine as f64
    }

    /// Bytes one machine must persist to *remote* storage per checkpoint,
    /// with model weights deduplicated across the DP dimension (only one DP
    /// replica uploads weights).
    pub fn remote_bytes_per_machine(&self) -> f64 {
        let weights = self.weight_bytes_per_rank / self.dp.max(1) as f64;
        (weights + self.optimizer_bytes_per_rank) * self.ranks_per_machine as f64
    }

    /// Bytes one rank exchanges with its backup peer per checkpoint (the
    /// optimizer shard plus the deduplicated weight shard).
    pub fn backup_bytes_per_rank(&self) -> f64 {
        self.optimizer_bytes_per_rank + self.weight_bytes_per_rank / self.dp.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_for_70b_job() {
        let job = JobSpec::table5_70b_small();
        let state = CheckpointState::for_job(&job);
        // Weights: 140 GB / (8*8) = 2.1875 GB per rank.
        assert!((state.weight_bytes_per_rank - 140e9 / 64.0).abs() < 1.0);
        // Optimizer: 840 GB / 2048 ranks.
        assert!((state.optimizer_bytes_per_rank - 840e9 / 2048.0).abs() < 1.0);
        assert_eq!(state.ranks_per_machine, 16);
        assert!(state.bytes_per_machine() > state.bytes_per_rank());
    }

    #[test]
    fn remote_dedup_reduces_upload() {
        let job = JobSpec::table5_70b_small();
        let state = CheckpointState::for_job(&job);
        assert!(state.remote_bytes_per_machine() < state.bytes_per_machine());
    }

    #[test]
    fn backup_bytes_smaller_than_full_state() {
        let job = JobSpec::table5_256b_small();
        let state = CheckpointState::for_job(&job);
        assert!(state.backup_bytes_per_rank() < state.bytes_per_rank());
        assert!(state.backup_bytes_per_rank() > 0.0);
    }
}
