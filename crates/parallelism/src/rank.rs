//! Ranks, rank coordinates, and the rank ↔ machine mapping.

use std::fmt;

use byterobust_cluster::MachineId;

use crate::config::ParallelismConfig;

/// A global training rank (one GPU worker process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u32);

impl Rank {
    /// Zero-based index of this rank.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank-{}", self.0)
    }
}

/// Position of a rank in the (tp, dp, pp) grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankCoords {
    /// Tensor-parallel index, `0..tp`.
    pub tp: usize,
    /// Data-parallel index, `0..dp`.
    pub dp: usize,
    /// Pipeline-parallel index (pipeline stage), `0..pp`.
    pub pp: usize,
}

/// Maps ranks to grid coordinates and to hosting machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMapping {
    config: ParallelismConfig,
}

impl RankMapping {
    /// Creates the mapping for a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: ParallelismConfig) -> Self {
        config.validate().expect("invalid parallelism config");
        RankMapping { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &ParallelismConfig {
        &self.config
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.config.world_size()
    }

    /// Total number of machines hosting ranks.
    pub fn machine_count(&self) -> usize {
        self.config.machines()
    }

    /// All ranks in ascending order.
    pub fn all_ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.world_size() as u32).map(Rank)
    }

    /// Grid coordinates of a rank (`rank = tp + TP*dp + TP*DP*pp`).
    ///
    /// # Panics
    /// Panics if the rank is out of range.
    pub fn coords(&self, rank: Rank) -> RankCoords {
        let idx = rank.index();
        assert!(
            idx < self.world_size(),
            "{rank} out of range (world size {})",
            self.world_size()
        );
        let tp = idx % self.config.tp;
        let dp = (idx / self.config.tp) % self.config.dp;
        let pp = idx / (self.config.tp * self.config.dp);
        RankCoords { tp, dp, pp }
    }

    /// Rank at the given grid coordinates.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn rank_at(&self, coords: RankCoords) -> Rank {
        assert!(coords.tp < self.config.tp, "tp index out of range");
        assert!(coords.dp < self.config.dp, "dp index out of range");
        assert!(coords.pp < self.config.pp, "pp index out of range");
        let idx =
            coords.tp + self.config.tp * coords.dp + self.config.tp * self.config.dp * coords.pp;
        Rank(idx as u32)
    }

    /// The machine hosting a rank. Ranks are packed contiguously:
    /// machine `m` hosts ranks `[m * gpus_per_machine, (m+1) * gpus_per_machine)`.
    pub fn machine_of(&self, rank: Rank) -> MachineId {
        assert!(rank.index() < self.world_size(), "{rank} out of range");
        MachineId((rank.index() / self.config.gpus_per_machine) as u32)
    }

    /// Ranks hosted on a machine.
    ///
    /// # Panics
    /// Panics if the machine index is out of range.
    pub fn ranks_on_machine(&self, machine: MachineId) -> Vec<Rank> {
        assert!(
            machine.index() < self.machine_count(),
            "{machine} out of range"
        );
        let start = machine.index() * self.config.gpus_per_machine;
        (start..start + self.config.gpus_per_machine)
            .map(|i| Rank(i as u32))
            .collect()
    }

    /// Machines hosting any of the given ranks, deduplicated and sorted.
    pub fn machines_of_ranks(&self, ranks: &[Rank]) -> Vec<MachineId> {
        let mut machines: Vec<MachineId> = ranks.iter().map(|&r| self.machine_of(r)).collect();
        machines.sort();
        machines.dedup();
        machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let mapping = RankMapping::new(ParallelismConfig::fig7_example());
        for rank in mapping.all_ranks() {
            let coords = mapping.coords(rank);
            assert_eq!(mapping.rank_at(coords), rank);
        }
    }

    #[test]
    fn fig7_machine_layout() {
        // Fig. 7: TP=2, PP=4, DP=4, 2 GPUs/machine. Machine 0 hosts ranks 0,1;
        // machine 4 hosts ranks 8,9; machine 12 hosts ranks 24,25.
        let mapping = RankMapping::new(ParallelismConfig::fig7_example());
        assert_eq!(
            mapping.ranks_on_machine(MachineId(0)),
            vec![Rank(0), Rank(1)]
        );
        assert_eq!(
            mapping.ranks_on_machine(MachineId(4)),
            vec![Rank(8), Rank(9)]
        );
        assert_eq!(
            mapping.ranks_on_machine(MachineId(12)),
            vec![Rank(24), Rank(25)]
        );
        assert_eq!(mapping.machine_of(Rank(9)), MachineId(4));
        assert_eq!(mapping.machine_count(), 16);
    }

    #[test]
    fn fig7_coords_examples() {
        let mapping = RankMapping::new(ParallelismConfig::fig7_example());
        // Ranks 0,1 are the TP pair of (dp=0, pp=0).
        assert_eq!(
            mapping.coords(Rank(0)),
            RankCoords {
                tp: 0,
                dp: 0,
                pp: 0
            }
        );
        assert_eq!(
            mapping.coords(Rank(1)),
            RankCoords {
                tp: 1,
                dp: 0,
                pp: 0
            }
        );
        // Machine 15 hosts ranks 30,31: last DP replica, last pipeline stage.
        assert_eq!(
            mapping.coords(Rank(30)),
            RankCoords {
                tp: 0,
                dp: 3,
                pp: 3
            }
        );
    }

    #[test]
    fn machines_of_ranks_dedups() {
        let mapping = RankMapping::new(ParallelismConfig::fig7_example());
        let machines = mapping.machines_of_ranks(&[Rank(0), Rank(1), Rank(9), Rank(8), Rank(31)]);
        assert_eq!(machines, vec![MachineId(0), MachineId(4), MachineId(15)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        let mapping = RankMapping::new(ParallelismConfig::fig9_example());
        let _ = mapping.coords(Rank(999));
    }

    #[test]
    fn table5_world_sizes_map_to_machines() {
        let mapping = RankMapping::new(ParallelismConfig::table5_256b_small());
        assert_eq!(mapping.machine_count(), 512);
        assert_eq!(mapping.ranks_on_machine(MachineId(0)).len(), 16);
    }
}
