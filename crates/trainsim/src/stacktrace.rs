//! Synthetic per-rank stack traces.
//!
//! The on-demand tracer in the data plane (§3) captures Python stack traces of
//! every training-related process with py-spy / flight-recorder; the runtime
//! analyzer then clusters them by string matching to find outliers (§5.1,
//! Fig. 7). This module generates realistic stand-ins for those stacks: for a
//! given training phase (and process kind) it produces the deterministic frame
//! list a real Megatron-style trainer would show, so the aggregation logic
//! downstream operates on faithful inputs.

use std::fmt;

use byterobust_parallelism::Rank;

use crate::step::TrainPhase;

/// The kind of process a stack was captured from. Root causes may live in
/// subprocesses (data fetching, checkpointing), so the tracer captures all of
/// them, not just the main trainer (§5.1). Ordered so it can key sorted maps
/// directly (the analyzer groups stacks per process kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcessKind {
    /// The main training worker process (one per GPU rank).
    Trainer,
    /// A data-loader worker subprocess.
    DataLoader,
    /// The asynchronous checkpoint worker subprocess.
    CheckpointWorker,
    /// The robust agent daemon itself.
    RobustDaemon,
}

impl ProcessKind {
    /// Command-line name shown in the process tree.
    pub fn command(self) -> &'static str {
        match self {
            ProcessKind::Trainer => "python3 -m torch.distributed.run train.py",
            ProcessKind::DataLoader => "python3 dataloader_worker.py",
            ProcessKind::CheckpointWorker => "python3 ckpt_io_worker.py",
            ProcessKind::RobustDaemon => "python3 robust_agent_daemon.py",
        }
    }
}

/// One stack frame: function, file, line.
///
/// The function and file names are `&'static str`: every frame the generator
/// produces comes from a fixed catalogue of Megatron/torch call sites, so a
/// capture of tens of thousands of process stacks copies pointers instead of
/// allocating two strings per frame. (If frames ever need to be parsed from
/// external data, switch these to `Cow<'static, str>`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StackFrame {
    /// Function name.
    pub func: &'static str,
    /// Source file path.
    pub file: &'static str,
    /// Line number.
    pub line: u32,
}

impl StackFrame {
    /// Creates a frame.
    pub fn new(func: &'static str, file: &'static str, line: u32) -> Self {
        StackFrame { func, file, line }
    }
}

impl fmt::Display for StackFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}:{})", self.func, self.file, self.line)
    }
}

/// A captured stack trace for one process of one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackTrace {
    /// The rank whose process was traced.
    pub rank: Rank,
    /// Which process was traced.
    pub process: ProcessKind,
    /// Frames from outermost (program entry) to innermost (currently
    /// executing).
    pub frames: Vec<StackFrame>,
}

impl StackTrace {
    /// A canonical string for the whole stack, used by the analyzer's
    /// string-matching aggregation. Ranks with identical fingerprints are in
    /// the same place in the program.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for frame in &self.frames {
            let _ = writeln!(s, "{frame}");
        }
        s
    }

    /// A 64-bit interned form of [`StackTrace::fingerprint`]: an FNV-1a hash
    /// over the frames, computed without allocating. Two stacks share a hash
    /// exactly when they share a fingerprint string (up to hash collisions,
    /// which at a few dozen distinct stacks per capture are negligible), so
    /// the per-step aggregation path can group by `u64` and render the
    /// display string once per *cluster* instead of once per *rank*.
    pub fn fingerprint_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let mut hash = FNV_OFFSET;
        for frame in &self.frames {
            hash = fnv1a(hash, frame.func.as_bytes());
            hash = fnv1a(hash, &[0xFF]);
            hash = fnv1a(hash, frame.file.as_bytes());
            hash = fnv1a(hash, &frame.line.to_le_bytes());
        }
        hash
    }

    /// The innermost (currently executing) frame, if any.
    pub fn leaf(&self) -> Option<&StackFrame> {
        self.frames.last()
    }
}

/// One FNV-1a absorption step over a byte string.
#[inline]
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Generates the canonical stack for a (process, phase) pair.
#[derive(Debug, Clone, Default)]
pub struct StackTraceGenerator;

impl StackTraceGenerator {
    /// Creates a generator.
    pub fn new() -> Self {
        StackTraceGenerator
    }

    /// Common outer frames of every trainer stack.
    fn trainer_prefix() -> Vec<StackFrame> {
        vec![
            StackFrame::new("main", "train.py", 1041),
            StackFrame::new("pretrain", "my_megatron/training.py", 232),
            StackFrame::new("train_step", "my_megatron/training.py", 618),
        ]
    }

    /// Stack of the main trainer process in the given phase. The frame
    /// strings for the backward-communication phases mirror Fig. 7 of the
    /// paper.
    pub fn trainer_stack(&self, rank: Rank, phase: TrainPhase) -> StackTrace {
        let mut frames = Self::trainer_prefix();
        match phase {
            TrainPhase::DataLoading => {
                frames.push(StackFrame::new(
                    "get_batch",
                    "my_megatron/data/data_iterator.py",
                    88,
                ));
                frames.push(StackFrame::new(
                    "next",
                    "torch/utils/data/dataloader.py",
                    631,
                ));
                frames.push(StackFrame::new(
                    "_poll",
                    "multiprocessing/connection.py",
                    257,
                ));
            }
            TrainPhase::Forward => {
                frames.push(StackFrame::new(
                    "forward_step",
                    "my_megatron/schedules.py",
                    193,
                ));
                frames.push(StackFrame::new(
                    "forward",
                    "my_megatron/model/transformer_block.py",
                    402,
                ));
                frames.push(StackFrame::new("matmul", "torch/_tensor.py", 30));
            }
            TrainPhase::Backward => {
                frames.push(StackFrame::new(
                    "backward",
                    "my_megatron/large_centralized_op_v8.py",
                    6770,
                ));
                frames.push(StackFrame::new(
                    "all_gather_into_tensor",
                    "torch/distributed/distributed_c10d.py",
                    2898,
                ));
            }
            TrainPhase::PipelineComm => {
                frames.push(StackFrame::new(
                    "send_backward_recv_backward",
                    "my_megatron/communicate.py",
                    474,
                ));
                frames.push(StackFrame::new(
                    "isend",
                    "torch/distributed/distributed_c10d.py",
                    1529,
                ));
            }
            TrainPhase::GradReduceScatter => {
                frames.push(StackFrame::new(
                    "start_grad_sync",
                    "my_megatron/distributed/param_grad_buffer.py",
                    597,
                ));
                frames.push(StackFrame::new(
                    "_reduce_scatter_tensor",
                    "torch/distributed/distributed_c10d.py",
                    3379,
                ));
            }
            TrainPhase::ParamAllGather => {
                frames.push(StackFrame::new(
                    "gather_params",
                    "my_megatron/distributed/param_grad_buffer.py",
                    731,
                ));
                frames.push(StackFrame::new(
                    "all_gather_into_tensor",
                    "torch/distributed/distributed_c10d.py",
                    2898,
                ));
            }
            TrainPhase::OptimizerStep => {
                frames.push(StackFrame::new(
                    "step",
                    "my_megatron/optimizer/distrib_optimizer.py",
                    1502,
                ));
                frames.push(StackFrame::new("adamw", "torch/optim/adamw.py", 339));
            }
            TrainPhase::Checkpoint => {
                frames.push(StackFrame::new(
                    "save_checkpoint",
                    "my_megatron/checkpointing.py",
                    310,
                ));
                frames.push(StackFrame::new(
                    "d2h_copy",
                    "byte_checkpoint/async_saver.py",
                    122,
                ));
            }
            TrainPhase::Evaluation => {
                frames.push(StackFrame::new(
                    "evaluate",
                    "my_megatron/evaluation.py",
                    154,
                ));
                frames.push(StackFrame::new(
                    "batch_isend_irecv",
                    "torch/distributed/distributed_c10d.py",
                    1789,
                ));
            }
            TrainPhase::Idle => {
                frames.push(StackFrame::new(
                    "barrier",
                    "torch/distributed/distributed_c10d.py",
                    3685,
                ));
            }
        }
        StackTrace {
            rank,
            process: ProcessKind::Trainer,
            frames,
        }
    }

    /// Variant of the pipeline-communication stack blocked in `irecv` instead
    /// of `isend` (Fig. 7 shows both appearing among the outliers).
    pub fn trainer_stack_pp_recv(&self, rank: Rank) -> StackTrace {
        let mut frames = Self::trainer_prefix();
        frames.push(StackFrame::new(
            "send_backward_recv_backward",
            "my_megatron/communicate.py",
            474,
        ));
        frames.push(StackFrame::new(
            "irecv",
            "torch/distributed/distributed_c10d.py",
            1569,
        ));
        StackTrace {
            rank,
            process: ProcessKind::Trainer,
            frames,
        }
    }

    /// Stack of a data-loader worker (normally blocked waiting for work).
    pub fn dataloader_stack(&self, rank: Rank, stuck_on_storage: bool) -> StackTrace {
        let mut frames = vec![
            StackFrame::new("worker_loop", "torch/utils/data/_utils/worker.py", 308),
            StackFrame::new("fetch", "my_megatron/data/gpt_dataset.py", 211),
        ];
        if stuck_on_storage {
            frames.push(StackFrame::new("read", "hdfs_client/filesystem.py", 1423));
            frames.push(StackFrame::new("recv_into", "ssl.py", 1166));
        } else {
            frames.push(StackFrame::new("get", "multiprocessing/queues.py", 103));
        }
        StackTrace {
            rank,
            process: ProcessKind::DataLoader,
            frames,
        }
    }

    /// Stack of the asynchronous checkpoint worker.
    pub fn checkpoint_worker_stack(&self, rank: Rank, serializing: bool) -> StackTrace {
        let mut frames = vec![StackFrame::new(
            "ckpt_worker_loop",
            "byte_checkpoint/io_worker.py",
            77,
        )];
        if serializing {
            frames.push(StackFrame::new(
                "serialize_shard",
                "byte_checkpoint/serializer.py",
                141,
            ));
        } else {
            frames.push(StackFrame::new(
                "wait_for_task",
                "byte_checkpoint/io_worker.py",
                93,
            ));
        }
        StackTrace {
            rank,
            process: ProcessKind::CheckpointWorker,
            frames,
        }
    }

    /// Stack of the robust agent daemon (always in its poll loop).
    pub fn daemon_stack(&self, rank: Rank) -> StackTrace {
        StackTrace {
            rank,
            process: ProcessKind::RobustDaemon,
            frames: vec![
                StackFrame::new("agent_main", "robust_agent/daemon.py", 58),
                StackFrame::new("heartbeat_loop", "robust_agent/heartbeat.py", 131),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> StackTraceGenerator {
        StackTraceGenerator::new()
    }

    #[test]
    fn same_phase_same_fingerprint() {
        let g = generator();
        let a = g.trainer_stack(Rank(0), TrainPhase::GradReduceScatter);
        let b = g.trainer_stack(Rank(17), TrainPhase::GradReduceScatter);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.rank, b.rank);
    }

    #[test]
    fn different_phases_different_fingerprints() {
        let g = generator();
        let phases = [
            TrainPhase::DataLoading,
            TrainPhase::Forward,
            TrainPhase::Backward,
            TrainPhase::PipelineComm,
            TrainPhase::GradReduceScatter,
            TrainPhase::ParamAllGather,
            TrainPhase::OptimizerStep,
            TrainPhase::Checkpoint,
            TrainPhase::Evaluation,
            TrainPhase::Idle,
        ];
        let fingerprints: Vec<String> = phases
            .iter()
            .map(|&p| g.trainer_stack(Rank(0), p).fingerprint())
            .collect();
        for i in 0..fingerprints.len() {
            for j in i + 1..fingerprints.len() {
                assert_ne!(
                    fingerprints[i], fingerprints[j],
                    "{:?} vs {:?}",
                    phases[i], phases[j]
                );
            }
        }
    }

    #[test]
    fn fig7_frames_present() {
        let g = generator();
        let grad_sync = g
            .trainer_stack(Rank(0), TrainPhase::GradReduceScatter)
            .fingerprint();
        assert!(grad_sync
            .contains("start_grad_sync (my_megatron/distributed/param_grad_buffer.py:597)"));
        assert!(grad_sync
            .contains("_reduce_scatter_tensor (torch/distributed/distributed_c10d.py:3379)"));

        let send = g
            .trainer_stack(Rank(14), TrainPhase::PipelineComm)
            .fingerprint();
        assert!(send.contains("send_backward_recv_backward (my_megatron/communicate.py:474)"));
        assert!(send.contains("isend (torch/distributed/distributed_c10d.py:1529)"));

        let recv = g.trainer_stack_pp_recv(Rank(12)).fingerprint();
        assert!(recv.contains("irecv (torch/distributed/distributed_c10d.py:1569)"));

        let backward = g
            .trainer_stack(Rank(30), TrainPhase::Backward)
            .fingerprint();
        assert!(backward.contains("backward (my_megatron/large_centralized_op_v8.py:6770)"));
        assert!(backward
            .contains("all_gather_into_tensor (torch/distributed/distributed_c10d.py:2898)"));
    }

    #[test]
    fn isend_and_irecv_stacks_differ() {
        let g = generator();
        assert_ne!(
            g.trainer_stack(Rank(0), TrainPhase::PipelineComm)
                .fingerprint(),
            g.trainer_stack_pp_recv(Rank(0)).fingerprint()
        );
    }

    #[test]
    fn subprocess_stacks_have_their_own_shape() {
        let g = generator();
        let dl = g.dataloader_stack(Rank(3), false);
        assert_eq!(dl.process, ProcessKind::DataLoader);
        let dl_stuck = g.dataloader_stack(Rank(3), true);
        assert_ne!(dl.fingerprint(), dl_stuck.fingerprint());
        assert!(dl_stuck.fingerprint().contains("hdfs_client"));

        let ck = g.checkpoint_worker_stack(Rank(3), true);
        assert_eq!(ck.process, ProcessKind::CheckpointWorker);
        let daemon = g.daemon_stack(Rank(3));
        assert_eq!(daemon.process, ProcessKind::RobustDaemon);
    }

    #[test]
    fn fingerprint_hash_matches_string_equality() {
        let g = generator();
        let phases = [
            TrainPhase::DataLoading,
            TrainPhase::Forward,
            TrainPhase::Backward,
            TrainPhase::PipelineComm,
            TrainPhase::GradReduceScatter,
            TrainPhase::ParamAllGather,
            TrainPhase::OptimizerStep,
            TrainPhase::Checkpoint,
            TrainPhase::Evaluation,
            TrainPhase::Idle,
        ];
        let mut stacks: Vec<StackTrace> = phases
            .iter()
            .map(|&p| g.trainer_stack(Rank(0), p))
            .collect();
        stacks.push(g.trainer_stack_pp_recv(Rank(0)));
        stacks.push(g.dataloader_stack(Rank(0), false));
        stacks.push(g.dataloader_stack(Rank(0), true));
        stacks.push(g.checkpoint_worker_stack(Rank(0), true));
        stacks.push(g.checkpoint_worker_stack(Rank(0), false));
        stacks.push(g.daemon_stack(Rank(0)));
        for a in &stacks {
            for b in &stacks {
                assert_eq!(
                    a.fingerprint() == b.fingerprint(),
                    a.fingerprint_hash() == b.fingerprint_hash(),
                    "hash equality must mirror string equality"
                );
            }
        }
        // Rank does not enter the fingerprint, hashed or stringly.
        assert_eq!(
            g.trainer_stack(Rank(0), TrainPhase::Forward)
                .fingerprint_hash(),
            g.trainer_stack(Rank(31), TrainPhase::Forward)
                .fingerprint_hash(),
        );
    }

    #[test]
    fn leaf_frame_is_innermost() {
        let g = generator();
        let s = g.trainer_stack(Rank(0), TrainPhase::OptimizerStep);
        assert_eq!(s.leaf().unwrap().func, "adamw");
    }

    #[test]
    fn process_commands_are_distinct() {
        let commands: Vec<&str> = [
            ProcessKind::Trainer,
            ProcessKind::DataLoader,
            ProcessKind::CheckpointWorker,
            ProcessKind::RobustDaemon,
        ]
        .iter()
        .map(|p| p.command())
        .collect();
        let mut unique = commands.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), commands.len());
    }
}
