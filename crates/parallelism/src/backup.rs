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

use std::collections::HashMap;

use byterobust_cluster::MachineId;

use crate::groups::ParallelTopology;
use crate::rank::{Rank, RankCoords};

/// The backup peer assignment for every rank of a job.
#[derive(Debug, Clone)]
pub struct BackupAssignment {
    peer_of: HashMap<Rank, Rank>,
}

impl BackupAssignment {
    /// Computes the assignment for a topology.
    pub fn compute(topology: &ParallelTopology) -> Self {
        let cfg = *topology.config();
        let mapping = topology.mapping();
        let mut peer_of = HashMap::with_capacity(cfg.world_size());

        if cfg.is_multi_dimensional() {
            // Shift every non-trivial coordinate by a non-zero offset so the
            // peer differs in each dimension that has more than one member.
            // Sharing a TP/PP/DP group requires agreeing on the *other two*
            // coordinates; since at least one of any two dimensions is
            // non-trivial in a multi-dimensional config (and therefore
            // shifted), the peer can never share any group with its source.
            // Using ~half the dimension keeps the peer far away topologically
            // (matching the Fig. 9 illustration where ranks 8,9 pair with 2,3).
            let dp_shift = if cfg.dp > 1 { (cfg.dp / 2).max(1) } else { 0 };
            let pp_shift = if cfg.pp > 1 { (cfg.pp / 2).max(1) } else { 0 };
            let tp_shift = if cfg.tp > 1 { (cfg.tp / 2).max(1) } else { 0 };
            for rank in mapping.all_ranks() {
                let c = mapping.coords(rank);
                let peer = mapping.rank_at(RankCoords {
                    tp: (c.tp + tp_shift) % cfg.tp,
                    dp: (c.dp + dp_shift) % cfg.dp,
                    pp: (c.pp + pp_shift) % cfg.pp,
                });
                peer_of.insert(rank, peer);
            }
            BackupAssignment { peer_of }
        } else {
            // Single-dimension parallelism (e.g. ZeRO): back up on the next
            // machine's corresponding rank.
            let ranks_per_machine = cfg.gpus_per_machine;
            let world = cfg.world_size();
            for rank in mapping.all_ranks() {
                let peer = Rank(((rank.index() + ranks_per_machine) % world) as u32);
                peer_of.insert(rank, peer);
            }
            BackupAssignment { peer_of }
        }
    }

    /// The rank that stores `rank`'s backup shard.
    ///
    /// # Panics
    /// Panics if the rank was not part of the topology the assignment was
    /// computed for.
    pub fn backup_peer(&self, rank: Rank) -> Rank {
        *self
            .peer_of
            .get(&rank)
            .expect("rank not in backup assignment")
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
    pub fn survives_eviction(
        &self,
        topology: &ParallelTopology,
        evicted_machines: &[MachineId],
    ) -> bool {
        let mapping = topology.mapping();
        let evicted: std::collections::HashSet<MachineId> =
            evicted_machines.iter().copied().collect();
        for rank in mapping.all_ranks() {
            if evicted.contains(&mapping.machine_of(rank)) {
                let peer = self.backup_peer(rank);
                if evicted.contains(&mapping.machine_of(peer)) {
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
