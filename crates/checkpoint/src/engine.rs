//! The three checkpointing engines compared in Table 8.
//!
//! Each engine turns the job's state sizes and hardware bandwidths into a
//! [`SaveOutcome`]: how long training is *blocked* during the save, and how
//! long background work continues afterwards. The blocking time is what
//! destroys MFU when checkpointing every iteration (Table 8); the background
//! time bounds how frequently checkpoints can be taken.

use byterobust_sim::SimDuration;
use byterobust_trainsim::{JobSpec, StepBreakdown};

use crate::state::CheckpointState;

/// Which checkpointing approach is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointApproach {
    /// Blocking checkpointing to remote storage as in Megatron-LM.
    MegatronSave,
    /// In-memory checkpointing with a blocking D2H copy (Gemini).
    MemorySave,
    /// ByteRobust's dual-buffered, fully overlapped in-memory checkpointing
    /// with cross-parallel-group backup.
    ByteRobustSave,
}

impl CheckpointApproach {
    /// All approaches, in Table 8 row order.
    pub const ALL: [CheckpointApproach; 3] = [
        CheckpointApproach::MegatronSave,
        CheckpointApproach::MemorySave,
        CheckpointApproach::ByteRobustSave,
    ];

    /// Row label used in Table 8.
    pub fn name(self) -> &'static str {
        match self {
            CheckpointApproach::MegatronSave => "Megatron save",
            CheckpointApproach::MemorySave => "Memory save",
            CheckpointApproach::ByteRobustSave => "ByteRobust save",
        }
    }
}

/// Result of one checkpoint save.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaveOutcome {
    /// Time training is stalled waiting for the save.
    pub blocking: SimDuration,
    /// Additional background time before the checkpoint (and its backup) is
    /// fully durable.
    pub background: SimDuration,
}

/// A checkpoint engine: computes save outcomes for a job.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEngine {
    approach: CheckpointApproach,
    state: CheckpointState,
    /// Device-to-host bandwidth shared by the ranks of one machine, GB/s.
    d2h_bandwidth_gbps: f64,
    /// Remote storage bandwidth per machine over the front-end network, GB/s.
    remote_bandwidth_gbps: f64,
    /// RDMA bandwidth per machine, GB/s (used for P2P backup traffic).
    rdma_bandwidth_gbps: f64,
    /// Effective fraction of the remote-storage path achievable in practice
    /// (metadata overhead, small-object penalties, congestion on the shared
    /// front-end network).
    remote_efficiency: f64,
}

impl CheckpointEngine {
    /// Creates an engine for a job.
    pub fn new(approach: CheckpointApproach, job: &JobSpec) -> Self {
        CheckpointEngine {
            approach,
            state: CheckpointState::for_job(job),
            d2h_bandwidth_gbps: job.hardware.d2h_bandwidth_gbps,
            remote_bandwidth_gbps: job.hardware.remote_storage_gbps,
            rdma_bandwidth_gbps: job.hardware.rdma_bandwidth_gbps,
            remote_efficiency: 0.25,
        }
    }

    /// Duration of moving one machine's full checkpoint state from GPU to
    /// host memory over the shared PCIe links.
    fn d2h_copy_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.state.bytes_per_machine() / (self.d2h_bandwidth_gbps * 1e9))
    }

    /// Duration of uploading one machine's deduplicated state to remote
    /// storage over the low-bandwidth front-end network.
    fn remote_upload_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(
            self.state.remote_bytes_per_machine()
                / (self.remote_bandwidth_gbps * 1e9 * self.remote_efficiency),
        )
    }

    /// Duration of exchanging backup shards with peer machines over RDMA.
    fn backup_exchange_time(&self) -> SimDuration {
        let bytes = self.state.backup_bytes_per_rank() * self.state.ranks_per_machine as f64;
        SimDuration::from_secs_f64(bytes / (self.rdma_bandwidth_gbps * 1e9))
    }

    /// Computes the save outcome for one checkpoint, given the step the save
    /// overlaps with (ByteRobust save hides its traffic inside the step's idle
    /// communication windows; the other approaches ignore it).
    pub fn save(&self, step: &StepBreakdown) -> SaveOutcome {
        match self.approach {
            CheckpointApproach::MegatronSave => {
                // Fully synchronous: D2H copy, serialization, and the remote
                // upload all block training.
                let d2h = self.d2h_copy_time();
                let serialize = d2h.mul_f64(0.35);
                let upload = self.remote_upload_time();
                SaveOutcome {
                    blocking: d2h + serialize + upload,
                    background: SimDuration::ZERO,
                }
            }
            CheckpointApproach::MemorySave => {
                // Gemini-style: the D2H copy into host memory blocks the step;
                // serialization and the inter-machine backup proceed in the
                // background.
                let d2h = self.d2h_copy_time();
                let background = d2h.mul_f64(0.35) + self.backup_exchange_time();
                SaveOutcome {
                    blocking: d2h,
                    background,
                }
            }
            CheckpointApproach::ByteRobustSave => {
                // Dual-buffered asynchronous D2H on a dedicated stream: the
                // copy and serialization overlap with forward/backward, and
                // the P2P backup exchange is interleaved into the idle
                // communication windows. Only a short synchronization before
                // the optimizer step remains exposed, plus any backup traffic
                // that did not fit into the idle window.
                let sync_point = SimDuration::from_millis(
                    (self.state.bytes_per_machine() / 1e9 * 0.3).clamp(10.0, 60.0) as u64,
                );
                let d2h = self.d2h_copy_time();
                let serialize = d2h.mul_f64(0.35);
                let backup = self.backup_exchange_time();
                let idle_window = step.idle_comm_window();
                let unhidden_backup = backup.saturating_sub(idle_window);
                let background = d2h + serialize + backup;
                SaveOutcome {
                    blocking: sync_point + unhidden_backup,
                    background,
                }
            }
        }
    }

    /// Relative MFU (versus training without checkpointing) when saving every
    /// `every_n_steps` steps: the fraction of wall-clock time spent on
    /// training rather than stalled.
    pub fn relative_mfu(&self, step: &StepBreakdown, every_n_steps: u64) -> f64 {
        let blocking = self.save(step).blocking;
        let steps = every_n_steps.max(1) as f64;
        let train = step.total().as_secs_f64() * steps;
        train / (train + blocking.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_trainsim::{CodeVersion, StepModel};

    fn step_for(job: &JobSpec) -> StepBreakdown {
        StepModel::new(job.clone()).step(&CodeVersion::initial(), 1.0, SimDuration::ZERO)
    }

    fn engine(approach: CheckpointApproach) -> (CheckpointEngine, StepBreakdown) {
        let job = JobSpec::table5_70b_small();
        let step = step_for(&job);
        (CheckpointEngine::new(approach, &job), step)
    }

    #[test]
    fn blocking_ordering_matches_table8() {
        let (megatron, step) = engine(CheckpointApproach::MegatronSave);
        let (memory, _) = engine(CheckpointApproach::MemorySave);
        let (byterobust, _) = engine(CheckpointApproach::ByteRobustSave);
        let b_meg = megatron.save(&step).blocking;
        let b_mem = memory.save(&step).blocking;
        let b_br = byterobust.save(&step).blocking;
        assert!(
            b_meg > b_mem,
            "megatron {b_meg} should exceed memory {b_mem}"
        );
        assert!(
            b_mem > b_br,
            "memory {b_mem} should exceed byterobust {b_br}"
        );
        // ByteRobust's blocking time is sub-100ms (Table 8 reports 0.01–0.04s).
        assert!(
            b_br < SimDuration::from_millis(200),
            "byterobust blocking = {b_br}"
        );
        // Megatron's blocking time is multiple seconds.
        assert!(
            b_meg > SimDuration::from_secs(3),
            "megatron blocking = {b_meg}"
        );
    }

    #[test]
    fn byterobust_mfu_above_99_percent() {
        let (byterobust, step) = engine(CheckpointApproach::ByteRobustSave);
        let mfu = byterobust.relative_mfu(&step, 1);
        assert!(mfu > 0.99, "relative MFU = {mfu}");
    }

    #[test]
    fn megatron_every_step_mfu_poor() {
        let (megatron, step) = engine(CheckpointApproach::MegatronSave);
        let every_step = megatron.relative_mfu(&step, 1);
        assert!(every_step < 0.85, "relative MFU = {every_step}");
        // Saving rarely amortizes the stall.
        let every_100 = megatron.relative_mfu(&step, 100);
        assert!(every_100 > every_step);
        assert!(every_100 > 0.97);
    }

    #[test]
    fn memory_save_has_background_work() {
        let (memory, step) = engine(CheckpointApproach::MemorySave);
        let outcome = memory.save(&step);
        assert!(!outcome.background.is_zero());
    }

    #[test]
    fn moe_256b_preserves_ordering() {
        let job = JobSpec::table5_256b_large();
        let step = step_for(&job);
        let blocking: Vec<SimDuration> = CheckpointApproach::ALL
            .iter()
            .map(|&a| CheckpointEngine::new(a, &job).save(&step).blocking)
            .collect();
        assert!(blocking[0] > blocking[1]);
        assert!(blocking[1] > blocking[2]);
    }

    #[test]
    fn approach_names_match_table8_rows() {
        assert_eq!(CheckpointApproach::MegatronSave.name(), "Megatron save");
        assert_eq!(CheckpointApproach::MemorySave.name(), "Memory save");
        assert_eq!(CheckpointApproach::ByteRobustSave.name(), "ByteRobust save");
    }
}
