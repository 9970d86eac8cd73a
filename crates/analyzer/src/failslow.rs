//! Repeated-round voting for fail-slow (MFU decline) incidents.
//!
//! For fail-slow incidents ByteRobust repeats the aggregation every 10
//! seconds, flags the parallel group with the most outliers in each round,
//! and after 5 rounds evicts the group with the highest cumulative flag count
//! (§5.1). The repeated vote filters out transient stragglers that a single
//! snapshot would misattribute.

use std::collections::{BTreeMap, HashMap};

use byterobust_parallelism::{GroupKind, ParallelTopology, Rank};
use byterobust_sim::SimDuration;

use crate::eviction::EvictionDecision;

/// Accumulates per-round flags and produces a final eviction decision.
#[derive(Debug, Clone)]
pub struct FailSlowVoter {
    /// Interval between aggregation rounds (paper: 10 seconds).
    pub round_interval: SimDuration,
    /// Number of rounds before a verdict (paper: 5).
    pub rounds_required: u32,
    rounds_done: u32,
    /// Cumulative flag count per (group kind, group index).
    flags: HashMap<(GroupKind, usize), u32>,
}

impl Default for FailSlowVoter {
    fn default() -> Self {
        Self::new()
    }
}

impl FailSlowVoter {
    /// Creates a voter with the paper's parameters (10 s × 5 rounds).
    pub fn new() -> Self {
        FailSlowVoter {
            round_interval: SimDuration::from_secs(10),
            rounds_required: 5,
            rounds_done: 0,
            flags: HashMap::new(),
        }
    }

    /// Number of rounds recorded so far.
    pub fn rounds_done(&self) -> u32 {
        self.rounds_done
    }

    /// Whether enough rounds have been recorded to produce a verdict.
    pub fn is_complete(&self) -> bool {
        self.rounds_done >= self.rounds_required
    }

    /// Total diagnosis time once complete.
    pub fn total_duration(&self) -> SimDuration {
        self.round_interval.mul(self.rounds_required as u64)
    }

    /// Records one aggregation round: flags the parallel group containing the
    /// most outlier ranks this round (ties broken toward the smaller group
    /// kind ordering TP < PP < DP, then toward the smaller group index, for
    /// determinism).
    pub fn record_round(&mut self, topology: &ParallelTopology, outliers: &[Rank]) {
        self.rounds_done += 1;
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
        // Find a representative rank of that group to materialize it.
        let representative = topology
            .mapping()
            .all_ranks()
            .find(|&r| topology.group_index_of(r, kind) == index)
            .expect("group index must correspond to at least one rank");
        let group = topology.group_of(representative, kind);
        let machines = topology.machines_of_group(&group);
        EvictionDecision {
            machines,
            shared_group: Some(kind),
            outlier_ranks: group.ranks,
            over_evicts: true,
        }
    }
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
    fn five_rounds_complete_in_50_seconds() {
        let voter = FailSlowVoter::new();
        assert_eq!(voter.total_duration(), SimDuration::from_secs(50));
        assert!(!voter.is_complete());
    }

    #[test]
    fn consistent_straggler_gets_its_group_evicted() {
        let topo = topo();
        let mut voter = FailSlowVoter::new();
        // Machine 4 (ranks 8, 9) is consistently slow in every round.
        for _ in 0..5 {
            voter.record_round(&topo, &[Rank(8), Rank(9)]);
        }
        assert!(voter.is_complete());
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
        assert!(voter.is_complete());
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
}
