//! Stack-trace aggregation and outlier identification (step 2 of Fig. 7).
//!
//! Stacks are grouped by exact fingerprint (string matching) within each
//! process kind. Under a single implicit failure most healthy ranks show the
//! identical stack, so the dominant group(s) are deemed healthy and every
//! remaining group is an outlier.
//!
//! The production path, [`AggregationResult::from_capture`], starts from a
//! [`StackCapture`] whose ranks are already grouped by stack template, and
//! renders each cluster's fingerprint string once. The per-rank path,
//! [`AggregationResult::aggregate`], matches the fingerprint string of every
//! captured [`StackTrace`] and is kept as its oracle: both yield equal
//! results for the same runtime.

use std::collections::BTreeMap;

use byterobust_parallelism::Rank;
use byterobust_trainsim::{stacktrace, ProcessKind, StackCapture, StackTrace};

use crate::process_tree::ProcessTree;

/// A group of ranks whose processes show the same stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackCluster {
    /// Process kind the stacks were captured from.
    pub process: ProcessKind,
    /// Canonical stack fingerprint shared by the group.
    pub fingerprint: String,
    /// Ranks in the group, ascending, deduplicated.
    pub ranks: Vec<Rank>,
}

impl StackCluster {
    /// Number of distinct ranks in the group.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }
}

/// The outcome of aggregating one trace capture.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationResult {
    /// All clusters, largest first (ties by fingerprint).
    pub clusters: Vec<StackCluster>,
    /// Fraction of the largest same-process cluster below which a cluster is
    /// considered an outlier.
    pub dominance_ratio: f64,
}

impl AggregationResult {
    /// Default dominance ratio: a cluster at least half the size of the
    /// largest cluster of the same process kind is considered healthy.
    pub const DEFAULT_DOMINANCE_RATIO: f64 = 0.5;

    /// Aggregates a grouped capture with the default dominance ratio.
    pub fn from_capture(capture: StackCapture) -> Self {
        Self::from_capture_with_ratio(capture, Self::DEFAULT_DOMINANCE_RATIO)
    }

    /// Aggregates a grouped capture: each training-related (process,
    /// template) group becomes one cluster, its fingerprint rendered once
    /// and its rank list moved in.
    pub fn from_capture_with_ratio(capture: StackCapture, dominance_ratio: f64) -> Self {
        let clusters = capture
            .groups
            .into_iter()
            .filter(|group| ProcessTree::is_training_related(group.process))
            .map(|group| StackCluster {
                process: group.process,
                fingerprint: stacktrace::fingerprint(group.frames),
                ranks: group.ranks,
            })
            .collect();
        Self::from_clusters(clusters, dominance_ratio)
    }

    /// Aggregates per-rank stacks with the default dominance ratio, grouping
    /// every stack by the literal string match of its fingerprint. Only
    /// training-related processes are considered (the robust daemon is
    /// excluded per the process-tree parse).
    pub fn aggregate(stacks: &[StackTrace]) -> Self {
        let mut groups: BTreeMap<(ProcessKind, String), Vec<Rank>> = BTreeMap::new();
        for stack in ProcessTree::filter_training_stacks(stacks) {
            groups
                .entry((stack.process, stack.fingerprint()))
                .or_default()
                .push(stack.rank);
        }
        let clusters = groups
            .into_iter()
            .map(|((process, fingerprint), mut ranks)| {
                ranks.sort();
                ranks.dedup();
                StackCluster {
                    process,
                    fingerprint,
                    ranks,
                }
            })
            .collect();
        Self::from_clusters(clusters, Self::DEFAULT_DOMINANCE_RATIO)
    }

    /// Orders clusters largest first, ties by fingerprint.
    fn from_clusters(mut clusters: Vec<StackCluster>, dominance_ratio: f64) -> Self {
        clusters.sort_by(|a, b| {
            b.size()
                .cmp(&a.size())
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        AggregationResult {
            clusters,
            dominance_ratio,
        }
    }

    /// Size of the largest cluster of a given process kind.
    fn max_size_for(&self, process: ProcessKind) -> usize {
        self.clusters
            .iter()
            .filter(|c| c.process == process)
            .map(StackCluster::size)
            .max()
            .unwrap_or(0)
    }

    /// Whether a cluster is dominant (healthy) relative to the largest cluster
    /// of the same process kind.
    pub fn is_dominant(&self, cluster: &StackCluster) -> bool {
        let max = self.max_size_for(cluster.process);
        max > 0 && cluster.size() as f64 >= self.dominance_ratio * max as f64
    }

    /// Clusters deemed outliers.
    pub fn outlier_clusters(&self) -> Vec<&StackCluster> {
        self.clusters
            .iter()
            .filter(|c| !self.is_dominant(c))
            .collect()
    }

    /// Distinct ranks appearing in any outlier cluster, ascending.
    pub fn outlier_ranks(&self) -> Vec<Rank> {
        let mut ranks: Vec<Rank> = self
            .outlier_clusters()
            .iter()
            .flat_map(|c| c.ranks.iter().copied())
            .collect();
        ranks.sort();
        ranks.dedup();
        ranks
    }

    /// Whether the capture contains any outlier at all.
    pub fn has_outliers(&self) -> bool {
        self.clusters.iter().any(|c| !self.is_dominant(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::MachineId;
    use byterobust_trainsim::{JobSpec, TrainingRuntime};

    #[test]
    fn healthy_job_has_no_outliers() {
        let rt = TrainingRuntime::new(JobSpec::small_test());
        let result = AggregationResult::from_capture(rt.capture());
        assert!(!result.has_outliers());
        assert!(result.outlier_ranks().is_empty());
        // One trainer cluster + one dataloader cluster + one ckpt cluster.
        assert_eq!(result.clusters.len(), 3);
    }

    #[test]
    fn hang_produces_outlier_clusters() {
        let mut rt = TrainingRuntime::new(JobSpec::small_test());
        rt.inject_hang(vec![MachineId(5)]);
        let result = AggregationResult::from_capture(rt.capture());
        assert!(result.has_outliers());
        let outliers = result.outlier_ranks();
        // The victim machine's ranks must be among the outliers.
        let victim_ranks = rt.topology().mapping().ranks_on_machine(MachineId(5));
        for r in &victim_ranks {
            assert!(outliers.contains(r), "victim {r} missing from outliers");
        }
        // The outliers are a small minority of the world.
        assert!(outliers.len() <= rt.job().world_size() / 4);
    }

    #[test]
    fn fig7_cluster_structure() {
        // Reproduce the Fig. 7 scenario: TP=2, PP=4, DP=4 over 16 machines,
        // machine 15 (last pipeline stage) hangs.
        let job = JobSpec {
            parallelism: byterobust_parallelism::ParallelismConfig::fig7_example(),
            ..JobSpec::small_test()
        };
        let mut rt = TrainingRuntime::new(job);
        rt.inject_hang(vec![MachineId(15)]);
        let result = AggregationResult::from_capture(rt.capture());
        let trainer_clusters: Vec<&StackCluster> = result
            .clusters
            .iter()
            .filter(|c| c.process == ProcessKind::Trainer)
            .collect();
        // Expect: one dominant grad-sync cluster, one backward (victim)
        // cluster, and pipeline-comm clusters (isend + irecv).
        assert!(
            trainer_clusters.len() >= 3,
            "got {} clusters",
            trainer_clusters.len()
        );
        let dominant = &trainer_clusters[0];
        assert!(dominant.fingerprint.contains("start_grad_sync"));
        assert!(result.is_dominant(dominant));
        let outlier_fps: Vec<&str> = result
            .outlier_clusters()
            .iter()
            .filter(|c| c.process == ProcessKind::Trainer)
            .map(|c| c.fingerprint.as_str())
            .collect();
        assert!(outlier_fps
            .iter()
            .any(|f| f.contains("all_gather_into_tensor")));
        assert!(outlier_fps
            .iter()
            .any(|f| f.contains("isend") || f.contains("irecv")));
    }

    #[test]
    fn dominance_ratio_controls_sensitivity() {
        let mut rt = TrainingRuntime::new(JobSpec::small_test());
        rt.inject_hang(vec![MachineId(2)]);
        let capture = rt.capture();
        // With a ratio of 0.0 every non-empty cluster is dominant → no outliers.
        let lenient = AggregationResult::from_capture_with_ratio(capture.clone(), 0.0);
        assert!(!lenient.has_outliers());
        let strict = AggregationResult::from_capture_with_ratio(capture, 0.5);
        assert!(strict.has_outliers());
    }

    #[test]
    fn clusters_sorted_largest_first() {
        let mut rt = TrainingRuntime::new(JobSpec::small_test());
        rt.inject_hang(vec![MachineId(0)]);
        let result = AggregationResult::from_capture(rt.capture());
        for pair in result.clusters.windows(2) {
            assert!(pair[0].size() >= pair[1].size());
        }
    }
}
