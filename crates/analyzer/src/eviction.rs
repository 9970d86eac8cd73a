//! Over-eviction decisions (step 3 of Fig. 7).
//!
//! Given the outlier ranks from the aggregation step, the analyzer maps them
//! to machines, finds the parallel group they share, and recommends evicting
//! every machine of that group — deliberately over-evicting a few healthy
//! machines in exchange for fast, confident isolation (§5.1, §9).

use byterobust_cluster::MachineId;
use byterobust_parallelism::{GroupKind, ParallelTopology, Rank};

/// The analyzer's recommendation after analysing one implicit failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionDecision {
    /// Machines to evict, ascending, deduplicated.
    pub machines: Vec<MachineId>,
    /// The parallel-group kind the outliers shared, if a single group was
    /// identified (the usual case).
    pub shared_group: Option<GroupKind>,
    /// The outlier ranks the decision was derived from.
    pub outlier_ranks: Vec<Rank>,
    /// Whether the decision over-evicts (i.e. includes machines that hosted
    /// no outlier rank).
    pub over_evicts: bool,
}

impl EvictionDecision {
    /// No machines to evict (no outliers found).
    pub fn none() -> Self {
        EvictionDecision {
            machines: Vec::new(),
            shared_group: None,
            outlier_ranks: Vec::new(),
            over_evicts: false,
        }
    }

    /// Whether the decision evicts anything.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Derives a decision from outlier ranks.
    ///
    /// If all outliers share a parallel group, the whole group's machines are
    /// evicted (over-eviction). If they do not — for example when several
    /// independent anomalies coincide — the decision falls back to evicting
    /// only the machines hosting outlier ranks.
    pub fn from_outliers(topology: &ParallelTopology, outliers: &[Rank]) -> Self {
        if outliers.is_empty() {
            return Self::none();
        }
        let mapping = topology.mapping();
        match topology.shared_group_of_ranks(outliers) {
            Some(group) => {
                let machines = topology.machines_of_group(&group);
                let outlier_machines = mapping.machines_of_ranks(outliers);
                let over_evicts = machines.iter().any(|m| !outlier_machines.contains(m));
                EvictionDecision {
                    machines,
                    shared_group: Some(group.kind),
                    outlier_ranks: outliers.to_vec(),
                    over_evicts,
                }
            }
            None => {
                let machines = mapping.machines_of_ranks(outliers);
                EvictionDecision {
                    machines,
                    shared_group: None,
                    outlier_ranks: outliers.to_vec(),
                    over_evicts: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_parallelism::ParallelismConfig;

    fn fig7_topology() -> ParallelTopology {
        ParallelTopology::new(ParallelismConfig::fig7_example())
    }

    #[test]
    fn empty_outliers_evict_nothing() {
        let topo = fig7_topology();
        let d = EvictionDecision::from_outliers(&topo, &[]);
        assert!(d.is_empty());
        assert_eq!(d, EvictionDecision::none());
    }

    #[test]
    fn fig7_outliers_evict_whole_pp_group() {
        let topo = fig7_topology();
        // Outliers sharing the PP group {6, 14, 22, 30} (machines 3, 7, 11, 15).
        let outliers = [Rank(14), Rank(22), Rank(30)];
        let d = EvictionDecision::from_outliers(&topo, &outliers);
        assert_eq!(d.shared_group, Some(GroupKind::Pipeline));
        assert_eq!(
            d.machines,
            vec![MachineId(3), MachineId(7), MachineId(11), MachineId(15)]
        );
        // Machine 3 hosted no outlier: this is an over-eviction.
        assert!(d.over_evicts);
        assert_eq!(d.machines.len(), 4);
    }

    #[test]
    fn single_outlier_evicts_its_smallest_group() {
        let topo = fig7_topology();
        let d = EvictionDecision::from_outliers(&topo, &[Rank(9)]);
        // The smallest group containing rank 9 is its TP group (machine-local).
        assert_eq!(d.shared_group, Some(GroupKind::Tensor));
        assert_eq!(d.machines, vec![MachineId(4)]);
        assert!(!d.over_evicts);
    }

    #[test]
    fn disjoint_outliers_fall_back_to_their_machines() {
        let topo = fig7_topology();
        // Ranks 0 and 31 share no group.
        let d = EvictionDecision::from_outliers(&topo, &[Rank(0), Rank(31)]);
        assert_eq!(d.shared_group, None);
        assert_eq!(d.machines, vec![MachineId(0), MachineId(15)]);
        assert!(!d.over_evicts);
    }
}
