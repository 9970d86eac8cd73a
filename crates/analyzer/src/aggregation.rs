//! Stack-trace aggregation and outlier identification (step 2 of Fig. 7).
//!
//! Stacks are grouped by exact fingerprint (string matching) within each
//! process kind. Under a single implicit failure most healthy ranks show the
//! identical stack, so the dominant group(s) are deemed healthy and every
//! remaining group is an outlier.

use std::collections::BTreeMap;

use byterobust_parallelism::Rank;
use byterobust_trainsim::{ProcessKind, StackTrace};

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
    /// All clusters, largest first.
    pub clusters: Vec<StackCluster>,
    /// Fraction of the largest same-process cluster below which a cluster is
    /// considered an outlier.
    pub dominance_ratio: f64,
}

impl AggregationResult {
    /// Default dominance ratio: a cluster at least half the size of the
    /// largest cluster of the same process kind is considered healthy.
    pub const DEFAULT_DOMINANCE_RATIO: f64 = 0.5;

    /// Aggregates captured stacks. Only training-related processes are
    /// considered (the robust daemon is excluded per the process-tree parse).
    pub fn aggregate(stacks: &[StackTrace]) -> Self {
        Self::aggregate_with_ratio(stacks, Self::DEFAULT_DOMINANCE_RATIO)
    }

    /// Aggregates with an explicit dominance ratio.
    ///
    /// Grouping happens on the 64-bit interned fingerprint
    /// ([`StackTrace::fingerprint_hash`]), so the per-capture hot path hashes
    /// each stack without allocating; the display fingerprint string is
    /// rendered once per *cluster* from a representative stack, not once per
    /// rank.
    pub fn aggregate_with_ratio(stacks: &[StackTrace], dominance_ratio: f64) -> Self {
        let relevant = ProcessTree::filter_training_stacks(stacks);
        let mut groups: BTreeMap<(ProcessKind, u64), (&StackTrace, Vec<Rank>)> = BTreeMap::new();
        for stack in relevant {
            let key = (stack.process, stack.fingerprint_hash());
            groups
                .entry(key)
                .or_insert_with(|| (stack, Vec::new()))
                .1
                .push(stack.rank);
        }
        let mut clusters: Vec<StackCluster> = groups
            .into_values()
            .map(|(representative, mut ranks)| {
                ranks.sort();
                ranks.dedup();
                StackCluster {
                    process: representative.process,
                    fingerprint: representative.fingerprint(),
                    ranks,
                }
            })
            .collect();
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

    /// Clusters deemed healthy.
    pub fn dominant_clusters(&self) -> Vec<&StackCluster> {
        self.clusters
            .iter()
            .filter(|c| self.is_dominant(c))
            .collect()
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
        let result = AggregationResult::aggregate(&rt.capture_stacks());
        assert!(!result.has_outliers());
        assert!(result.outlier_ranks().is_empty());
        // One trainer cluster + one dataloader cluster + one ckpt cluster.
        assert_eq!(result.clusters.len(), 3);
    }

    #[test]
    fn hang_produces_outlier_clusters() {
        let mut rt = TrainingRuntime::new(JobSpec::small_test());
        rt.inject_hang(vec![MachineId(5)]);
        let result = AggregationResult::aggregate(&rt.capture_stacks());
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
        let result = AggregationResult::aggregate(&rt.capture_stacks());
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
        let stacks = rt.capture_stacks();
        // With a ratio of 0.0 every non-empty cluster is dominant → no outliers.
        let lenient = AggregationResult::aggregate_with_ratio(&stacks, 0.0);
        assert!(!lenient.has_outliers());
        let strict = AggregationResult::aggregate_with_ratio(&stacks, 0.5);
        assert!(strict.has_outliers());
    }

    #[test]
    fn clusters_sorted_largest_first() {
        let mut rt = TrainingRuntime::new(JobSpec::small_test());
        rt.inject_hang(vec![MachineId(0)]);
        let result = AggregationResult::aggregate(&rt.capture_stacks());
        for pair in result.clusters.windows(2) {
            assert!(pair[0].size() >= pair[1].size());
        }
    }
}
