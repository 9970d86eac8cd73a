//! Repeated-round voting for fail-slow (MFU decline) incidents.
//!
//! For fail-slow incidents ByteRobust repeats the aggregation every 10
//! seconds, flags the parallel group with the most outliers in each round,
//! and after 5 rounds evicts the group with the highest cumulative flag count
//! (§5.1). The repeated vote filters out transient stragglers that a single
//! snapshot would misattribute.

use std::collections::{BTreeMap, HashMap};

use byterobust_parallelism::{GroupKind, ParallelTopology, Rank, RankCoords};
use byterobust_sim::SimDuration;

use crate::eviction::EvictionDecision;

/// Accumulates per-round flags and produces a final eviction decision.
#[derive(Debug, Clone)]
pub struct FailSlowVoter {
    /// Interval between aggregation rounds (paper: 10 seconds).
    pub round_interval: SimDuration,
    /// Cumulative flag count per (group kind, group index).
    flags: HashMap<(GroupKind, usize), u32>,
}

impl Default for FailSlowVoter {
    fn default() -> Self {
        Self::new()
    }
}

impl FailSlowVoter {
    /// Creates a voter with the paper's 10 s round interval.
    pub fn new() -> Self {
        FailSlowVoter {
            round_interval: SimDuration::from_secs(10),
            flags: HashMap::new(),
        }
    }

    /// Records one aggregation round: flags the parallel group containing the
    /// most outlier ranks this round (ties broken toward the smaller group
    /// kind ordering TP < PP < DP, then toward the smaller group index, for
    /// determinism).
    pub fn record_round(&mut self, topology: &ParallelTopology, outliers: &[Rank]) {
        if outliers.is_empty() {
            return;
        }
        // Count outliers per group across all dense group kinds; flag the max.
        let mut best: Option<((GroupKind, usize), usize)> = None;
        for &kind in &GroupKind::DENSE {
            let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
            for &r in outliers {
                *counts.entry(topology.group_index_of(r, kind)).or_insert(0) += 1;
            }
            for (idx, count) in counts {
                let candidate = ((kind, idx), count);
                best = match best {
                    None => Some(candidate),
                    Some(current) if candidate.1 > current.1 => Some(candidate),
                    other => other,
                };
            }
        }
        if let Some((key, _)) = best {
            *self.flags.entry(key).or_insert(0) += 1;
        }
    }

    /// The verdict after the required rounds: the group with the highest
    /// cumulative flag count, expressed as an eviction decision. Returns an
    /// empty decision if no group was ever flagged.
    pub fn verdict(&self, topology: &ParallelTopology) -> EvictionDecision {
        let Some((&(kind, index), _)) = self.flags.iter().max_by_key(|(&(kind, idx), &count)| {
            // Deterministic tie-break: count, then kind order, then index.
            let kind_order = match kind {
                GroupKind::Tensor => 0,
                GroupKind::Pipeline => 1,
                GroupKind::Data => 2,
                GroupKind::Expert => 3,
            };
            (count, std::cmp::Reverse(kind_order), std::cmp::Reverse(idx))
        }) else {
            return EvictionDecision::none();
        };
        let group = topology.group_of(representative(topology, kind, index), kind);
        let machines = topology.machines_of_group(&group);
        EvictionDecision {
            machines,
            shared_group: Some(kind),
            outlier_ranks: group.ranks,
            over_evicts: true,
        }
    }
}

/// A member of group `index` of `kind`: the rank at coordinates read back
/// from the index, inverting [`ParallelTopology::group_index_of`] with the
/// group's own dimension at 0.
fn representative(topology: &ParallelTopology, kind: GroupKind, index: usize) -> Rank {
    let cfg = topology.config();
    let coords = match kind {
        GroupKind::Tensor => RankCoords {
            tp: 0,
            dp: index % cfg.dp,
            pp: index / cfg.dp,
        },
        GroupKind::Pipeline => RankCoords {
            tp: index % cfg.tp,
            dp: index / cfg.tp,
            pp: 0,
        },
        GroupKind::Data => RankCoords {
            tp: index % cfg.tp,
            dp: 0,
            pp: index / cfg.tp,
        },
        GroupKind::Expert => {
            let chunks = cfg.dp / cfg.ep.max(1);
            let rest = index / cfg.tp;
            RankCoords {
                tp: index % cfg.tp,
                dp: (rest % chunks) * cfg.ep.max(1),
                pp: rest / chunks,
            }
        }
    };
    topology.mapping().rank_at(coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::MachineId;
    use byterobust_parallelism::ParallelismConfig;

    fn topo() -> ParallelTopology {
        ParallelTopology::new(ParallelismConfig::fig7_example())
    }

    #[test]
    fn consistent_straggler_gets_its_group_evicted() {
        let topo = topo();
        let mut voter = FailSlowVoter::new();
        // Machine 4 (ranks 8, 9) is consistently slow in every round.
        for _ in 0..5 {
            voter.record_round(&topo, &[Rank(8), Rank(9)]);
        }
        let verdict = voter.verdict(&topo);
        assert!(!verdict.is_empty());
        assert!(verdict.machines.contains(&MachineId(4)));
        assert!(verdict.over_evicts);
    }

    #[test]
    fn transient_straggler_outvoted_by_persistent_one() {
        let topo = topo();
        let mut voter = FailSlowVoter::new();
        // One round a random other rank looks slow; the real degrader (rank 20,
        // machine 10) is flagged in the remaining four rounds.
        voter.record_round(&topo, &[Rank(3)]);
        for _ in 0..4 {
            voter.record_round(&topo, &[Rank(20), Rank(21)]);
        }
        let verdict = voter.verdict(&topo);
        assert!(verdict.machines.contains(&MachineId(10)));
        assert!(!verdict.machines.contains(&MachineId(1)));
    }

    #[test]
    fn no_outliers_no_verdict() {
        let topo = topo();
        let mut voter = FailSlowVoter::new();
        for _ in 0..5 {
            voter.record_round(&topo, &[]);
        }
        assert!(voter.verdict(&topo).is_empty());
    }

    #[test]
    fn tied_groups_of_one_kind_flag_the_smaller_index() {
        let topo = topo();
        // Ranks 0 and 11 share no group, so every group holds at most one
        // outlier and each round ties; TP groups 0 and 5 tie first.
        let mut voter = FailSlowVoter::new();
        for _ in 0..5 {
            voter.record_round(&topo, &[Rank(0), Rank(11)]);
        }
        assert_eq!(voter.flags.len(), 1);
        assert_eq!(voter.flags.get(&(GroupKind::Tensor, 0)), Some(&5));
    }

    #[test]
    fn verdict_is_deterministic_under_ties() {
        let topo = topo();
        let mut a = FailSlowVoter::new();
        let mut b = FailSlowVoter::new();
        for voter in [&mut a, &mut b] {
            voter.record_round(&topo, &[Rank(0), Rank(1)]);
            voter.record_round(&topo, &[Rank(8), Rank(9)]);
            voter.record_round(&topo, &[Rank(0), Rank(1)]);
            voter.record_round(&topo, &[Rank(8), Rank(9)]);
            voter.record_round(&topo, &[]);
        }
        assert_eq!(a.verdict(&topo), b.verdict(&topo));
    }

    #[test]
    fn direct_representative_names_the_scanned_group() {
        let configs = [
            ParallelismConfig::fig7_example(),
            byterobust_trainsim::JobSpec::production_dense().parallelism,
            byterobust_trainsim::JobSpec::production_moe().parallelism,
        ];
        for config in configs {
            let topo = ParallelTopology::new(config);
            let kinds = GroupKind::DENSE
                .into_iter()
                .chain((config.ep > 1).then_some(GroupKind::Expert));
            for kind in kinds {
                // The scan the verdict used to make: the first rank of each
                // group index, in rank order.
                let mut scanned = vec![None; topo.group_count(kind)];
                for rank in topo.mapping().all_ranks() {
                    scanned[topo.group_index_of(rank, kind)].get_or_insert(rank);
                }
                for (index, first) in scanned.into_iter().enumerate() {
                    let first = first.expect("every group index has a rank");
                    let direct = representative(&topo, kind, index);
                    assert_eq!(topo.group_index_of(direct, kind), index, "{kind:?} {index}");
                    assert_eq!(
                        topo.group_of(direct, kind),
                        topo.group_of(first, kind),
                        "{config:?} {kind:?} {index}"
                    );
                }
            }
        }
    }
}
