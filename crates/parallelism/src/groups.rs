//! Parallel communication groups and group-level queries.
//!
//! ByteRobust's aggregation analysis (§5) isolates suspects at the granularity
//! of a parallel group — "the shared parallel groups for those outliers" — and
//! its checkpoint backup strategy must place replicas outside all of a rank's
//! groups (§6.3). This module provides those group computations.

use byterobust_cluster::MachineId;

use crate::config::ParallelismConfig;
use crate::rank::{Rank, RankMapping};

/// The kind of a parallel communication group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKind {
    /// Tensor-parallel group: ranks sharing (dp, pp), varying tp.
    Tensor,
    /// Pipeline-parallel group: ranks sharing (tp, dp), varying pp.
    Pipeline,
    /// Data-parallel group: ranks sharing (tp, pp), varying dp.
    Data,
    /// Expert-parallel group: a sub-group of the data-parallel group.
    Expert,
}

impl GroupKind {
    /// All group kinds relevant for a dense 3D-parallel job.
    pub const DENSE: [GroupKind; 3] = [GroupKind::Tensor, GroupKind::Pipeline, GroupKind::Data];
}

/// A concrete parallel group: its kind, its index among groups of that kind,
/// and its member ranks (ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelGroup {
    /// The dimension this group communicates over.
    pub kind: GroupKind,
    /// Index of this group among all groups of the same kind.
    pub index: usize,
    /// Member ranks in ascending order.
    pub ranks: Vec<Rank>,
}

impl ParallelGroup {
    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the group contains the given rank.
    pub fn contains(&self, rank: Rank) -> bool {
        self.ranks.binary_search(&rank).is_ok()
    }
}

/// Group-level view over a [`RankMapping`].
#[derive(Debug, Clone)]
pub struct ParallelTopology {
    mapping: RankMapping,
}

impl ParallelTopology {
    /// Creates the topology for a validated configuration.
    pub fn new(config: ParallelismConfig) -> Self {
        ParallelTopology {
            mapping: RankMapping::new(config),
        }
    }

    /// The underlying rank mapping.
    pub fn mapping(&self) -> &RankMapping {
        &self.mapping
    }

    /// The underlying configuration.
    pub fn config(&self) -> &ParallelismConfig {
        self.mapping.config()
    }

    /// Size of groups of the given kind.
    pub fn group_size(&self, kind: GroupKind) -> usize {
        let cfg = self.config();
        match kind {
            GroupKind::Tensor => cfg.tp,
            GroupKind::Pipeline => cfg.pp,
            GroupKind::Data => cfg.dp,
            GroupKind::Expert => cfg.ep,
        }
    }

    /// Number of groups of the given kind.
    pub fn group_count(&self, kind: GroupKind) -> usize {
        self.config().world_size() / self.group_size(kind)
    }

    /// Index (among groups of `kind`) of the group containing `rank`.
    pub fn group_index_of(&self, rank: Rank, kind: GroupKind) -> usize {
        let cfg = self.config();
        let c = self.mapping.coords(rank);
        match kind {
            GroupKind::Tensor => c.dp + cfg.dp * c.pp,
            GroupKind::Pipeline => c.tp + cfg.tp * c.dp,
            GroupKind::Data => c.tp + cfg.tp * c.pp,
            GroupKind::Expert => {
                // EP groups partition each DP group into dp/ep chunks.
                let chunk = c.dp / cfg.ep.max(1);
                c.tp + cfg.tp * (chunk + (cfg.dp / cfg.ep.max(1)) * c.pp)
            }
        }
    }

    /// The full group of the given kind containing `rank`.
    pub fn group_of(&self, rank: Rank, kind: GroupKind) -> ParallelGroup {
        let cfg = self.config();
        let c = self.mapping.coords(rank);
        let mut ranks = Vec::with_capacity(self.group_size(kind));
        match kind {
            GroupKind::Tensor => {
                for tp in 0..cfg.tp {
                    ranks.push(self.mapping.rank_at(crate::rank::RankCoords { tp, ..c }));
                }
            }
            GroupKind::Pipeline => {
                for pp in 0..cfg.pp {
                    ranks.push(self.mapping.rank_at(crate::rank::RankCoords { pp, ..c }));
                }
            }
            GroupKind::Data => {
                for dp in 0..cfg.dp {
                    ranks.push(self.mapping.rank_at(crate::rank::RankCoords { dp, ..c }));
                }
            }
            GroupKind::Expert => {
                let chunk_start = (c.dp / cfg.ep) * cfg.ep;
                for dp in chunk_start..chunk_start + cfg.ep {
                    ranks.push(self.mapping.rank_at(crate::rank::RankCoords { dp, ..c }));
                }
            }
        }
        ranks.sort();
        ParallelGroup {
            kind,
            index: self.group_index_of(rank, kind),
            ranks,
        }
    }

    /// All groups of a kind.
    pub fn all_groups(&self, kind: GroupKind) -> Vec<ParallelGroup> {
        let mut seen = vec![false; self.group_count(kind)];
        let mut groups = Vec::with_capacity(self.group_count(kind));
        for rank in self.mapping.all_ranks() {
            let idx = self.group_index_of(rank, kind);
            if !seen[idx] {
                seen[idx] = true;
                groups.push(self.group_of(rank, kind));
            }
        }
        groups.sort_by_key(|g| g.index);
        groups
    }

    /// Machines hosting any rank of the group, deduplicated and sorted.
    pub fn machines_of_group(&self, group: &ParallelGroup) -> Vec<MachineId> {
        self.mapping.machines_of_ranks(&group.ranks)
    }

    /// Whether two ranks share a group of the given kind.
    pub fn share_group(&self, a: Rank, b: Rank, kind: GroupKind) -> bool {
        self.group_index_of(a, kind) == self.group_index_of(b, kind)
    }

    /// Whether two ranks share *any* of the TP/PP/DP groups. The backup
    /// strategy requires backup peers for which this is false (Fig. 9).
    pub fn share_any_group(&self, a: Rank, b: Rank) -> bool {
        GroupKind::DENSE.iter().any(|&k| self.share_group(a, b, k))
    }

    /// Finds, among the dense group kinds, the smallest parallel group that
    /// contains every given rank, if any. This implements step (3) of the
    /// aggregation analysis: "find the shared parallel groups for those
    /// outliers and isolate the corresponding machines" (§5.1).
    ///
    /// Ties are broken in favour of the group with the fewest member ranks
    /// (evicting less is cheaper); `None` means the outliers do not share any
    /// single parallel group.
    pub fn shared_group_of_ranks(&self, ranks: &[Rank]) -> Option<ParallelGroup> {
        if ranks.is_empty() {
            return None;
        }
        let mut best: Option<ParallelGroup> = None;
        for &kind in &GroupKind::DENSE {
            let first_idx = self.group_index_of(ranks[0], kind);
            if ranks
                .iter()
                .all(|&r| self.group_index_of(r, kind) == first_idx)
            {
                let group = self.group_of(ranks[0], kind);
                let better = match &best {
                    None => true,
                    Some(b) => group.size() < b.size(),
                };
                if better {
                    best = Some(group);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7() -> ParallelTopology {
        ParallelTopology::new(ParallelismConfig::fig7_example())
    }

    #[test]
    fn group_sizes_and_counts() {
        let topo = fig7();
        assert_eq!(topo.group_size(GroupKind::Tensor), 2);
        assert_eq!(topo.group_size(GroupKind::Pipeline), 4);
        assert_eq!(topo.group_size(GroupKind::Data), 4);
        assert_eq!(topo.group_count(GroupKind::Tensor), 16);
        assert_eq!(topo.group_count(GroupKind::Pipeline), 8);
        assert_eq!(topo.group_count(GroupKind::Data), 8);
    }

    #[test]
    fn fig7_tp_group_is_machine_local() {
        let topo = fig7();
        let g = topo.group_of(Rank(8), GroupKind::Tensor);
        assert_eq!(g.ranks, vec![Rank(8), Rank(9)]);
        assert_eq!(topo.machines_of_group(&g), vec![MachineId(4)]);
    }

    #[test]
    fn fig7_pp_group_spans_column_of_machines() {
        let topo = fig7();
        // PP group of rank 24 (machine 12): ranks 0, 8, 16, 24 — machines 0,4,8,12.
        let g = topo.group_of(Rank(24), GroupKind::Pipeline);
        assert_eq!(g.ranks, vec![Rank(0), Rank(8), Rank(16), Rank(24)]);
        assert_eq!(
            topo.machines_of_group(&g),
            vec![MachineId(0), MachineId(4), MachineId(8), MachineId(12)]
        );
    }

    #[test]
    fn fig7_dp_group_spans_row_of_machines() {
        let topo = fig7();
        // DP group of rank 0: ranks 0, 2, 4, 6 — machines 0..3.
        let g = topo.group_of(Rank(0), GroupKind::Data);
        assert_eq!(g.ranks, vec![Rank(0), Rank(2), Rank(4), Rank(6)]);
        assert_eq!(
            topo.machines_of_group(&g),
            vec![MachineId(0), MachineId(1), MachineId(2), MachineId(3)]
        );
    }

    #[test]
    fn every_rank_is_in_exactly_one_group_per_kind() {
        let topo = fig7();
        for &kind in &GroupKind::DENSE {
            let groups = topo.all_groups(kind);
            let mut membership = vec![0usize; topo.config().world_size()];
            for g in &groups {
                assert_eq!(g.size(), topo.group_size(kind));
                for r in &g.ranks {
                    membership[r.index()] += 1;
                }
            }
            assert!(
                membership.iter().all(|&c| c == 1),
                "kind {kind:?}: {membership:?}"
            );
        }
    }

    #[test]
    fn shared_group_finds_pp_group_for_fig7_hang() {
        // The Fig. 7 hang: outliers are ranks on machines 12-15 (the last DP
        // replica's pipeline) — ranks 25, 27, 29, 31 and 24, 26, 28, 30 are
        // the two TP halves. Take one outlier per machine: ranks 24 (stuck
        // irecv), 28 (isend), 30/31 (all_gather). Their shared group must be
        // a pipeline group over machines 12..15.
        let topo = ParallelTopology::new(ParallelismConfig::new_3d(2, 4, 4, 2));
        // Machines 12..=15 host ranks 24..=31; the DP=3 pipeline column is
        // ranks {6+0*8... } — with our layout the PP group of rank 30 is
        // {6, 14, 22, 30}. Instead, take outliers that genuinely share a PP
        // group: ranks 6, 14, 22, 30.
        let outliers = [Rank(6), Rank(14), Rank(22), Rank(30)];
        let shared = topo
            .shared_group_of_ranks(&outliers)
            .expect("must share a group");
        assert_eq!(shared.kind, GroupKind::Pipeline);
        assert_eq!(shared.ranks, vec![Rank(6), Rank(14), Rank(22), Rank(30)]);
    }

    #[test]
    fn shared_group_prefers_smallest() {
        let topo = fig7();
        // A single outlier is contained in all three of its groups; the TP
        // group (size 2) must win.
        let shared = topo.shared_group_of_ranks(&[Rank(5)]).unwrap();
        assert_eq!(shared.kind, GroupKind::Tensor);
    }

    #[test]
    fn shared_group_none_when_disjoint() {
        let topo = fig7();
        // Ranks 0 and 31 share no TP/PP/DP group.
        assert!(topo.shared_group_of_ranks(&[Rank(0), Rank(31)]).is_none());
        assert!(topo.shared_group_of_ranks(&[]).is_none());
    }

    #[test]
    fn share_any_group_symmetry() {
        let topo = fig7();
        for &(a, b) in &[(Rank(0), Rank(1)), (Rank(0), Rank(8)), (Rank(0), Rank(31))] {
            assert_eq!(topo.share_any_group(a, b), topo.share_any_group(b, a));
        }
        assert!(topo.share_any_group(Rank(0), Rank(1))); // same TP group
        assert!(!topo.share_any_group(Rank(0), Rank(31)));
    }

    #[test]
    fn expert_groups_partition_dp() {
        let topo = ParallelTopology::new(ParallelismConfig::new_moe(2, 2, 8, 4, 8));
        let g = topo.group_of(Rank(0), GroupKind::Expert);
        assert_eq!(g.size(), 4);
        // All members share tp and pp with rank 0.
        let c0 = topo.mapping().coords(Rank(0));
        for r in &g.ranks {
            let c = topo.mapping().coords(*r);
            assert_eq!(c.tp, c0.tp);
            assert_eq!(c.pp, c0.pp);
        }
        // EP groups of one DP row tile the DP group.
        let dp_group = topo.group_of(Rank(0), GroupKind::Data);
        assert!(g.ranks.iter().all(|r| dp_group.contains(*r)));
    }
}
