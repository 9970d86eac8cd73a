//! Per-pod process-tree parsing (step 1 of the aggregation analysis, Fig. 7).
//!
//! Root causes of implicit failures may live in subprocesses spawned by the
//! main training process — data-loader workers, checkpoint I/O workers — so
//! the analyzer must identify every training-related process before asking
//! for its stack, and must *exclude* unrelated processes (the robust daemon
//! itself, for instance) from the aggregation.

use byterobust_trainsim::{ProcessKind, StackTrace};

/// A node in the reconstructed per-pod process tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessNode {
    /// Kind of process.
    pub kind: ProcessKind,
    /// Command line as it would appear in the process table.
    pub command: String,
    /// Child processes.
    pub children: Vec<ProcessNode>,
}

impl ProcessNode {
    fn leaf(kind: ProcessKind) -> Self {
        ProcessNode {
            kind,
            command: kind.command().to_string(),
            children: Vec::new(),
        }
    }

    /// Total number of nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProcessNode::size).sum::<usize>()
    }
}

/// The canonical per-pod process tree: the launch script forks the robust
/// daemon and spawns the training worker, which in turn forks data-I/O and
/// checkpoint workers (Fig. 7, step 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessTree {
    /// Root of the tree (the pod's launch script).
    pub root: ProcessNode,
}

impl ProcessTree {
    /// Builds the canonical pod process tree.
    pub fn canonical() -> Self {
        let trainer = ProcessNode {
            kind: ProcessKind::Trainer,
            command: ProcessKind::Trainer.command().to_string(),
            children: vec![
                ProcessNode::leaf(ProcessKind::DataLoader),
                ProcessNode::leaf(ProcessKind::CheckpointWorker),
            ],
        };
        let root = ProcessNode {
            kind: ProcessKind::RobustDaemon,
            command: "python3 launch.sh".to_string(),
            children: vec![ProcessNode::leaf(ProcessKind::RobustDaemon), trainer],
        };
        ProcessTree { root }
    }

    /// The process kinds whose stacks participate in aggregation analysis:
    /// everything training-related, excluding the robust daemon.
    pub fn training_related_kinds() -> [ProcessKind; 3] {
        [
            ProcessKind::Trainer,
            ProcessKind::DataLoader,
            ProcessKind::CheckpointWorker,
        ]
    }

    /// Whether a process kind is training-related (participates in
    /// aggregation).
    pub fn is_training_related(kind: ProcessKind) -> bool {
        Self::training_related_kinds().contains(&kind)
    }

    /// Filters a set of captured stacks down to the training-related ones.
    pub fn filter_training_stacks(stacks: &[StackTrace]) -> Vec<&StackTrace> {
        stacks
            .iter()
            .filter(|s| Self::is_training_related(s.process))
            .collect()
    }

    /// Total number of processes in the canonical tree.
    pub fn process_count(&self) -> usize {
        self.root.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_parallelism::Rank;
    use byterobust_trainsim::{stacktrace, TrainPhase};

    #[test]
    fn canonical_tree_shape() {
        let tree = ProcessTree::canonical();
        // launch.sh + daemon + trainer + dataloader + ckpt worker = 5 nodes.
        assert_eq!(tree.process_count(), 5);
        assert_eq!(tree.root.children.len(), 2);
    }

    #[test]
    fn daemon_excluded_from_training_related() {
        assert!(ProcessTree::is_training_related(ProcessKind::Trainer));
        assert!(ProcessTree::is_training_related(ProcessKind::DataLoader));
        assert!(ProcessTree::is_training_related(
            ProcessKind::CheckpointWorker
        ));
        assert!(!ProcessTree::is_training_related(ProcessKind::RobustDaemon));
    }

    #[test]
    fn filter_drops_daemon_stacks() {
        let stack = |process, frames| StackTrace::from_template(Rank(0), process, frames);
        let stacks = vec![
            stack(
                ProcessKind::Trainer,
                stacktrace::trainer_frames(TrainPhase::GradReduceScatter),
            ),
            stack(
                ProcessKind::DataLoader,
                stacktrace::dataloader_frames(false),
            ),
            stack(ProcessKind::RobustDaemon, stacktrace::daemon_frames()),
            stack(
                ProcessKind::CheckpointWorker,
                stacktrace::checkpoint_worker_frames(false),
            ),
        ];
        let filtered = ProcessTree::filter_training_stacks(&stacks);
        assert_eq!(filtered.len(), 3);
        assert!(filtered
            .iter()
            .all(|s| s.process != ProcessKind::RobustDaemon));
    }
}
