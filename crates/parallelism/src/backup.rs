//! Cross-parallel-group checkpoint backup peer assignment (Fig. 9, §6.3).
//!
//! Each rank backs up its sharded optimizer/model states onto a *backup peer*
//! chosen so that the peer shares none of the rank's TP, PP or DP groups.
//! Consequently, when the analyzer over-evicts an entire parallel group
//! (§5), the backups of every evicted rank live outside the evicted set and
//! the job can restart from local/peer memory without touching remote storage.
//!
//! When the parallelism strategy has only a single non-trivial dimension
//! (e.g. pure ZeRO data parallelism) no such peer exists, and the strategy
//! falls back to the neighbouring machine as described in the paper.

use byterobust_cluster::MachineId;

use crate::groups::ParallelTopology;
use crate::rank::{Rank, RankCoords, RankMapping};

/// The backup peer assignment for every rank of a job: a closed-form rule
/// over rank coordinates, so it stores no per-rank table and answers each
/// query in O(1).
#[derive(Debug, Clone)]
pub struct BackupAssignment {
    mapping: RankMapping,
    /// The offset added to each coordinate (modulo its dimension) of a
    /// multi-dimensional job; `None` for the neighbouring-machine fallback.
    shift: Option<RankCoords>,
}

impl BackupAssignment {
    /// Computes the assignment for a topology.
    pub fn compute(topology: &ParallelTopology) -> Self {
        let cfg = *topology.config();
        // Shift every non-trivial coordinate by a non-zero offset so the
        // peer differs in each dimension that has more than one member.
        // Sharing a TP/PP/DP group requires agreeing on the *other two*
        // coordinates; since at least one of any two dimensions is
        // non-trivial in a multi-dimensional config (and therefore
        // shifted), the peer can never share any group with its source.
        // Using ~half the dimension keeps the peer far away topologically
        // (matching the Fig. 9 illustration where ranks 8,9 pair with 2,3).
        // Single-dimension parallelism (e.g. ZeRO) has no such peer and
        // backs up on the next machine's corresponding rank instead.
        let half = |size: usize| if size > 1 { (size / 2).max(1) } else { 0 };
        let shift = cfg.is_multi_dimensional().then(|| RankCoords {
            tp: half(cfg.tp),
            dp: half(cfg.dp),
            pp: half(cfg.pp),
        });
        BackupAssignment {
            mapping: topology.mapping().clone(),
            shift,
        }
    }

    /// The rank that stores `rank`'s backup shard.
    ///
    /// # Panics
    /// Panics if the rank is outside the topology the assignment was
    /// computed for.
    pub fn backup_peer(&self, rank: Rank) -> Rank {
        let cfg = self.mapping.config();
        match self.shift {
            Some(shift) => {
                let c = self.mapping.coords(rank);
                self.mapping.rank_at(RankCoords {
                    tp: (c.tp + shift.tp) % cfg.tp,
                    dp: (c.dp + shift.dp) % cfg.dp,
                    pp: (c.pp + shift.pp) % cfg.pp,
                })
            }
            None => {
                let world = cfg.world_size();
                assert!(rank.index() < world, "{rank} not in backup assignment");
                Rank(((rank.index() + cfg.gpus_per_machine) % world) as u32)
            }
        }
    }

    /// Checks whether, after evicting `evicted_machines`, every rank hosted on
    /// an evicted machine still has its backup available on a surviving
    /// machine. This is the recoverability property the backup strategy is
    /// designed to guarantee under parallel-group over-eviction.
    ///
    /// The guarantee holds for the production-style layouts the paper uses:
    /// genuinely 3D configurations in which each machine hosts whole
    /// tensor-parallel groups (`tp` divides `gpus_per_machine`) and never
    /// straddles a pipeline-stage boundary (`gpus_per_machine` divides
    /// `tp * dp`). All of Table 5 and Figs. 7/9 satisfy both conditions.
    ///
    /// Cost: O(evicted × GPUs per machine) — only the ranks on evicted
    /// machines are visited, so an empty eviction set is O(1). Ids at or
    /// beyond the job's machine count (activated standbys) host no rank and
    /// are skipped.
    pub fn survives_eviction(
        &self,
        topology: &ParallelTopology,
        evicted_machines: &[MachineId],
    ) -> bool {
        let mapping = topology.mapping();
        for &machine in evicted_machines {
            if machine.index() >= mapping.machine_count() {
                continue;
            }
            for rank in mapping.ranks_on_machine(machine) {
                let peer_machine = mapping.machine_of(self.backup_peer(rank));
                if evicted_machines.contains(&peer_machine) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelismConfig;
    use crate::groups::GroupKind;

    /// The full-rank scan `survives_eviction` used to run: every rank of the
    /// job against a hash set of the evicted machines. Kept as the oracle
    /// the per-evicted-machine walk must agree with.
    fn survives_eviction_full_scan(
        assignment: &BackupAssignment,
        topology: &ParallelTopology,
        evicted_machines: &[MachineId],
    ) -> bool {
        let mapping = topology.mapping();
        let evicted: std::collections::HashSet<MachineId> =
            evicted_machines.iter().copied().collect();
        for rank in mapping.all_ranks() {
            if evicted.contains(&mapping.machine_of(rank)) {
                let peer = assignment.backup_peer(rank);
                if evicted.contains(&mapping.machine_of(peer)) {
                    return false;
                }
            }
        }
        true
    }

    /// SplitMix64: a seeded stream for the oracle test's eviction sets.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn evicted_machine_walk_agrees_with_full_rank_scan() {
        for cfg in [
            // `JobSpec::small_test`'s layout.
            ParallelismConfig::new_3d(2, 4, 16, 8),
            ParallelismConfig::table5_70b_small(),
            // The mega drill's 64-machine jobs.
            ParallelismConfig::new_3d(2, 4, 64, 8),
            ParallelismConfig::fig9_example(),
        ] {
            let topo = ParallelTopology::new(cfg);
            let assignment = BackupAssignment::compute(&topo);
            let mapping = topo.mapping();
            let count = mapping.machine_count();
            let peer_machines = |machine: MachineId| -> Vec<MachineId> {
                mapping
                    .ranks_on_machine(machine)
                    .into_iter()
                    .map(|rank| mapping.machine_of(assignment.backup_peer(rank)))
                    .collect()
            };

            let mut sets: Vec<Vec<MachineId>> = vec![Vec::new()];
            for m in 0..count {
                let machine = MachineId(m as u32);
                sets.push(vec![machine]);
                let mut with_peers = vec![machine];
                with_peers.extend(peer_machines(machine));
                sets.push(with_peers);
            }
            for kind in GroupKind::DENSE {
                for group in topo.all_groups(kind) {
                    sets.push(topo.machines_of_group(&group));
                }
            }
            let mut state = 0x5EED ^ count as u64;
            for _ in 0..200 {
                let len = 1 + (splitmix(&mut state) % 6) as usize;
                let mut set: Vec<MachineId> = (0..len)
                    // Ids up to twice the machine count: about half name an
                    // activated standby, which hosts no rank.
                    .map(|_| MachineId((splitmix(&mut state) % (2 * count as u64)) as u32))
                    .collect();
                // Duplicates, and a standby id beside a real machine.
                set.push(set[0]);
                set.push(MachineId((count + len) as u32));
                if splitmix(&mut state).is_multiple_of(2) {
                    let machine = MachineId((splitmix(&mut state) % count as u64) as u32);
                    set.push(machine);
                    set.extend(peer_machines(machine));
                }
                sets.push(set);
            }

            let mut outcomes = [0usize; 2];
            for set in &sets {
                let expected = survives_eviction_full_scan(&assignment, &topo, set);
                assert_eq!(
                    assignment.survives_eviction(&topo, set),
                    expected,
                    "cfg: {cfg:?}, evicted: {set:?}"
                );
                outcomes[usize::from(expected)] += 1;
            }
            assert!(
                outcomes[0] > 0 && outcomes[1] > 0,
                "cfg {cfg:?}: both verdicts must be exercised, got {outcomes:?}"
            );
        }
    }

    #[test]
    fn fig9_property_no_shared_groups() {
        let topo = ParallelTopology::new(ParallelismConfig::fig9_example());
        let assignment = BackupAssignment::compute(&topo);
        for rank in topo.mapping().all_ranks() {
            let peer = assignment.backup_peer(rank);
            assert_ne!(rank, peer);
            assert!(
                !topo.share_any_group(rank, peer),
                "{rank} and its peer {peer} share a parallel group"
            );
        }
    }

    #[test]
    fn table5_configs_satisfy_cross_group_property() {
        for cfg in [
            ParallelismConfig::table5_70b_small(),
            ParallelismConfig::table5_256b_small(),
            ParallelismConfig::fig7_example(),
        ] {
            let topo = ParallelTopology::new(cfg);
            let assignment = BackupAssignment::compute(&topo);
            for rank in topo.mapping().all_ranks() {
                let peer = assignment.backup_peer(rank);
                assert!(!topo.share_any_group(rank, peer));
            }
        }
    }

    #[test]
    fn peer_relation_is_a_permutation() {
        let topo = ParallelTopology::new(ParallelismConfig::fig7_example());
        let assignment = BackupAssignment::compute(&topo);
        let mut targets: Vec<Rank> = topo
            .mapping()
            .all_ranks()
            .map(|r| assignment.backup_peer(r))
            .collect();
        targets.sort();
        targets.dedup();
        assert_eq!(
            targets.len(),
            topo.config().world_size(),
            "peers must be distinct"
        );
    }

    #[test]
    fn survives_pp_group_over_eviction() {
        // Evicting one whole PP group (the analyzer's usual over-eviction
        // granularity) must never take out a rank together with its backup.
        let topo = ParallelTopology::new(ParallelismConfig::fig7_example());
        let assignment = BackupAssignment::compute(&topo);
        for group in topo.all_groups(GroupKind::Pipeline) {
            let machines = topo.machines_of_group(&group);
            assert!(
                assignment.survives_eviction(&topo, &machines),
                "backups lost when evicting PP group {:?}",
                group.index
            );
        }
    }

    #[test]
    fn survives_dp_and_tp_group_eviction() {
        let topo = ParallelTopology::new(ParallelismConfig::fig9_example());
        let assignment = BackupAssignment::compute(&topo);
        for kind in [GroupKind::Data, GroupKind::Tensor] {
            for group in topo.all_groups(kind) {
                let machines = topo.machines_of_group(&group);
                assert!(assignment.survives_eviction(&topo, &machines));
            }
        }
    }

    #[test]
    fn zero_parallelism_falls_back_to_neighbor() {
        // Pure DP (ZeRO): no cross-group peer exists; neighbouring machine is
        // used instead (§6.3).
        let topo = ParallelTopology::new(ParallelismConfig::new_3d(1, 1, 16, 8));
        let assignment = BackupAssignment::compute(&topo);
        let mapping = topo.mapping();
        for rank in mapping.all_ranks() {
            let peer = assignment.backup_peer(rank);
            assert_ne!(mapping.machine_of(rank), mapping.machine_of(peer));
        }
        // Single-machine eviction never loses data.
        assert!(assignment.survives_eviction(&topo, &[MachineId(0)]));
    }
}
