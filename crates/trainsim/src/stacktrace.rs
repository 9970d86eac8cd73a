//! Synthetic stack traces and the capture the on-demand tracer returns.
//!
//! The on-demand tracer in the data plane (§3) captures Python stack traces of
//! every training-related process with py-spy / flight-recorder; the runtime
//! analyzer then clusters them by string matching to find outliers (§5.1,
//! Fig. 7). The frames a real Megatron-style trainer would show depend only
//! on the process and the phase it is in, never on the rank, so every stack
//! is one of a fixed catalogue of `static` templates, looked up by
//! [`trainer_frames`] and its siblings. A [`StackCapture`] groups the ranks
//! of a capture by (process, template) directly; a per-rank [`StackTrace`]
//! copies one template into a `Vec` and is kept as the materialized form the
//! aggregation oracle consumes.

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
/// The function and file names are `&'static str`: every frame comes from a
/// fixed catalogue of Megatron/torch call sites, built at compile time. (If
/// frames ever need to be parsed from external data, switch these to
/// `Cow<'static, str>`.)
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
    pub const fn new(func: &'static str, file: &'static str, line: u32) -> Self {
        StackFrame { func, file, line }
    }
}

impl fmt::Display for StackFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}:{})", self.func, self.file, self.line)
    }
}

/// The canonical string for a stack, one frame per line, used by the
/// analyzer's string-matching aggregation. Ranks with identical fingerprints
/// are in the same place in the program.
pub fn fingerprint(frames: &[StackFrame]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for frame in frames {
        let _ = writeln!(s, "{frame}");
    }
    s
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
    /// A per-rank copy of a stack template.
    pub fn from_template(rank: Rank, process: ProcessKind, frames: &[StackFrame]) -> Self {
        StackTrace {
            rank,
            process,
            frames: frames.to_vec(),
        }
    }

    /// This stack's [`fingerprint`].
    pub fn fingerprint(&self) -> String {
        fingerprint(&self.frames)
    }

    /// The innermost (currently executing) frame, if any.
    pub fn leaf(&self) -> Option<&StackFrame> {
        self.frames.last()
    }
}

/// The ranks of one capture whose `process` shows the same stack template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackGroup {
    /// Process kind the stacks were captured from.
    pub process: ProcessKind,
    /// The stack template every rank of the group shows.
    pub frames: &'static [StackFrame],
    /// Ranks in the group, ascending, each at most once.
    pub ranks: Vec<Rank>,
}

/// One on-demand capture of a job, grouped by (process, stack template)
/// instead of materialized per rank: the groups are what the analyzer
/// aggregates. Built by
/// [`TrainingRuntime::capture`](crate::TrainingRuntime::capture); the robust
/// daemon's stacks are counted in [`StackCapture::process_count`] but
/// grouped nowhere, since they never take part in the aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackCapture {
    /// The training-related groups, each (process, template) pair at most
    /// once.
    pub groups: Vec<StackGroup>,
    /// Number of process stacks the capture stands for, daemons included.
    pub process_count: usize,
}

/// Outer frames of every trainer stack, followed by the phase's own frames.
macro_rules! trainer_template {
    ($($frame:expr),+ $(,)?) => {
        [
            StackFrame::new("main", "train.py", 1041),
            StackFrame::new("pretrain", "my_megatron/training.py", 232),
            StackFrame::new("train_step", "my_megatron/training.py", 618),
            $($frame),+
        ]
    };
}

static TRAINER_DATA_LOADING: [StackFrame; 6] = trainer_template![
    StackFrame::new("get_batch", "my_megatron/data/data_iterator.py", 88),
    StackFrame::new("next", "torch/utils/data/dataloader.py", 631),
    StackFrame::new("_poll", "multiprocessing/connection.py", 257),
];
static TRAINER_FORWARD: [StackFrame; 6] = trainer_template![
    StackFrame::new("forward_step", "my_megatron/schedules.py", 193),
    StackFrame::new("forward", "my_megatron/model/transformer_block.py", 402),
    StackFrame::new("matmul", "torch/_tensor.py", 30),
];
static TRAINER_BACKWARD: [StackFrame; 5] = trainer_template![
    StackFrame::new("backward", "my_megatron/large_centralized_op_v8.py", 6770),
    StackFrame::new(
        "all_gather_into_tensor",
        "torch/distributed/distributed_c10d.py",
        2898
    ),
];
static TRAINER_PP_SEND: [StackFrame; 5] = trainer_template![
    StackFrame::new(
        "send_backward_recv_backward",
        "my_megatron/communicate.py",
        474
    ),
    StackFrame::new("isend", "torch/distributed/distributed_c10d.py", 1529),
];
static TRAINER_PP_RECV: [StackFrame; 5] = trainer_template![
    StackFrame::new(
        "send_backward_recv_backward",
        "my_megatron/communicate.py",
        474
    ),
    StackFrame::new("irecv", "torch/distributed/distributed_c10d.py", 1569),
];
static TRAINER_GRAD_REDUCE_SCATTER: [StackFrame; 5] = trainer_template![
    StackFrame::new(
        "start_grad_sync",
        "my_megatron/distributed/param_grad_buffer.py",
        597
    ),
    StackFrame::new(
        "_reduce_scatter_tensor",
        "torch/distributed/distributed_c10d.py",
        3379
    ),
];
static TRAINER_PARAM_ALL_GATHER: [StackFrame; 5] = trainer_template![
    StackFrame::new(
        "gather_params",
        "my_megatron/distributed/param_grad_buffer.py",
        731
    ),
    StackFrame::new(
        "all_gather_into_tensor",
        "torch/distributed/distributed_c10d.py",
        2898
    ),
];
static TRAINER_OPTIMIZER_STEP: [StackFrame; 5] = trainer_template![
    StackFrame::new("step", "my_megatron/optimizer/distrib_optimizer.py", 1502),
    StackFrame::new("adamw", "torch/optim/adamw.py", 339),
];
static TRAINER_CHECKPOINT: [StackFrame; 5] = trainer_template![
    StackFrame::new("save_checkpoint", "my_megatron/checkpointing.py", 310),
    StackFrame::new("d2h_copy", "byte_checkpoint/async_saver.py", 122),
];
static TRAINER_EVALUATION: [StackFrame; 5] = trainer_template![
    StackFrame::new("evaluate", "my_megatron/evaluation.py", 154),
    StackFrame::new(
        "batch_isend_irecv",
        "torch/distributed/distributed_c10d.py",
        1789
    ),
];
static TRAINER_IDLE: [StackFrame; 4] = trainer_template![StackFrame::new(
    "barrier",
    "torch/distributed/distributed_c10d.py",
    3685
)];
static DATALOADER_WAITING: [StackFrame; 3] = [
    StackFrame::new("worker_loop", "torch/utils/data/_utils/worker.py", 308),
    StackFrame::new("fetch", "my_megatron/data/gpt_dataset.py", 211),
    StackFrame::new("get", "multiprocessing/queues.py", 103),
];
static DATALOADER_STORAGE: [StackFrame; 4] = [
    StackFrame::new("worker_loop", "torch/utils/data/_utils/worker.py", 308),
    StackFrame::new("fetch", "my_megatron/data/gpt_dataset.py", 211),
    StackFrame::new("read", "hdfs_client/filesystem.py", 1423),
    StackFrame::new("recv_into", "ssl.py", 1166),
];
static CKPT_WAITING: [StackFrame; 2] = [
    StackFrame::new("ckpt_worker_loop", "byte_checkpoint/io_worker.py", 77),
    StackFrame::new("wait_for_task", "byte_checkpoint/io_worker.py", 93),
];
static CKPT_SERIALIZING: [StackFrame; 2] = [
    StackFrame::new("ckpt_worker_loop", "byte_checkpoint/io_worker.py", 77),
    StackFrame::new("serialize_shard", "byte_checkpoint/serializer.py", 141),
];
static DAEMON: [StackFrame; 2] = [
    StackFrame::new("agent_main", "robust_agent/daemon.py", 58),
    StackFrame::new("heartbeat_loop", "robust_agent/heartbeat.py", 131),
];

/// Template of the main trainer process in the given phase. The frame
/// strings for the backward-communication phases mirror Fig. 7 of the paper.
pub fn trainer_frames(phase: TrainPhase) -> &'static [StackFrame] {
    match phase {
        TrainPhase::DataLoading => &TRAINER_DATA_LOADING,
        TrainPhase::Forward => &TRAINER_FORWARD,
        TrainPhase::Backward => &TRAINER_BACKWARD,
        TrainPhase::PipelineComm => &TRAINER_PP_SEND,
        TrainPhase::GradReduceScatter => &TRAINER_GRAD_REDUCE_SCATTER,
        TrainPhase::ParamAllGather => &TRAINER_PARAM_ALL_GATHER,
        TrainPhase::OptimizerStep => &TRAINER_OPTIMIZER_STEP,
        TrainPhase::Checkpoint => &TRAINER_CHECKPOINT,
        TrainPhase::Evaluation => &TRAINER_EVALUATION,
        TrainPhase::Idle => &TRAINER_IDLE,
    }
}

/// Template of the pipeline-communication trainer stack blocked in `irecv`
/// instead of `isend` (Fig. 7 shows both appearing among the outliers).
pub fn trainer_pp_recv_frames() -> &'static [StackFrame] {
    &TRAINER_PP_RECV
}

/// Template of a data-loader worker: normally blocked waiting for work.
pub fn dataloader_frames(stuck_on_storage: bool) -> &'static [StackFrame] {
    if stuck_on_storage {
        &DATALOADER_STORAGE
    } else {
        &DATALOADER_WAITING
    }
}

/// Template of the asynchronous checkpoint worker.
pub fn checkpoint_worker_frames(serializing: bool) -> &'static [StackFrame] {
    if serializing {
        &CKPT_SERIALIZING
    } else {
        &CKPT_WAITING
    }
}

/// Template of the robust agent daemon (always in its poll loop).
pub fn daemon_frames() -> &'static [StackFrame] {
    &DAEMON
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trainer(rank: Rank, phase: TrainPhase) -> StackTrace {
        StackTrace::from_template(rank, ProcessKind::Trainer, trainer_frames(phase))
    }

    #[test]
    fn same_phase_same_fingerprint() {
        let a = trainer(Rank(0), TrainPhase::GradReduceScatter);
        let b = trainer(Rank(17), TrainPhase::GradReduceScatter);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.rank, b.rank);
    }

    #[test]
    fn different_phases_different_fingerprints() {
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
            .map(|&p| trainer(Rank(0), p).fingerprint())
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
        let grad_sync = trainer(Rank(0), TrainPhase::GradReduceScatter).fingerprint();
        assert!(grad_sync
            .contains("start_grad_sync (my_megatron/distributed/param_grad_buffer.py:597)"));
        assert!(grad_sync
            .contains("_reduce_scatter_tensor (torch/distributed/distributed_c10d.py:3379)"));

        let send = trainer(Rank(14), TrainPhase::PipelineComm).fingerprint();
        assert!(send.contains("send_backward_recv_backward (my_megatron/communicate.py:474)"));
        assert!(send.contains("isend (torch/distributed/distributed_c10d.py:1529)"));

        let recv = fingerprint(trainer_pp_recv_frames());
        assert!(recv.contains("irecv (torch/distributed/distributed_c10d.py:1569)"));

        let backward = trainer(Rank(30), TrainPhase::Backward).fingerprint();
        assert!(backward.contains("backward (my_megatron/large_centralized_op_v8.py:6770)"));
        assert!(backward
            .contains("all_gather_into_tensor (torch/distributed/distributed_c10d.py:2898)"));
    }

    #[test]
    fn isend_and_irecv_stacks_differ() {
        assert_ne!(
            trainer(Rank(0), TrainPhase::PipelineComm).fingerprint(),
            fingerprint(trainer_pp_recv_frames())
        );
    }

    #[test]
    fn subprocess_stacks_have_their_own_shape() {
        let dl = fingerprint(dataloader_frames(false));
        let dl_stuck = fingerprint(dataloader_frames(true));
        assert_ne!(dl, dl_stuck);
        assert!(dl_stuck.contains("hdfs_client"));
        assert!(dl.starts_with("worker_loop"));

        assert!(fingerprint(checkpoint_worker_frames(true)).starts_with("ckpt_worker_loop"));
        assert!(fingerprint(daemon_frames()).starts_with("agent_main"));
    }

    #[test]
    fn every_template_renders_a_distinct_fingerprint() {
        let mut templates: Vec<&'static [StackFrame]> = [
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
        ]
        .into_iter()
        .map(trainer_frames)
        .collect();
        templates.extend([
            trainer_pp_recv_frames(),
            dataloader_frames(false),
            dataloader_frames(true),
            checkpoint_worker_frames(false),
            checkpoint_worker_frames(true),
            daemon_frames(),
        ]);
        let mut fingerprints: Vec<String> = templates.iter().map(|t| fingerprint(t)).collect();
        fingerprints.sort();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), templates.len());
    }

    #[test]
    fn leaf_frame_is_innermost() {
        let s = trainer(Rank(0), TrainPhase::OptimizerStep);
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
