//! Dual-phase replay localization (Algorithm 1, Fig. 6).
//!
//! When every other mechanism fails — stop-time checks pass, reattempt fails,
//! rollback fails — ByteRobust assumes an unknown fault such as silent data
//! corruption and falls back to group testing. The machines are partitioned
//! twice (horizontally by `index / m`, vertically by `index mod n`), the
//! original job is replayed on each group with the TP/PP sizes kept fixed and
//! only the DP size reduced, and the intersection of the failing horizontal
//! and vertical groups pinpoints the faulty machine(s) in just two replay
//! rounds instead of `O(z)` per-machine tests.

use std::collections::HashSet;

use byterobust_cluster::MachineId;
use byterobust_sim::SimDuration;

/// Parameters of the replay procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Group size `m`. Recommended to be a multiple of the PP size so each
    /// group can host complete pipelines with the original TP/PP layout.
    pub group_size: usize,
    /// Wall-clock duration of replaying the reduced-layer job on one phase's
    /// groups (all groups of a phase replay concurrently).
    pub phase_duration: SimDuration,
}

impl ReplayConfig {
    /// Creates a config with the given group size and a 30-minute phase
    /// duration (SDC incidents took the paper's team "more than 8 hours of
    /// offline stress testing" without this; dual-phase replay bounds it to
    /// two phases).
    pub fn new(group_size: usize) -> Self {
        ReplayConfig {
            group_size,
            phase_duration: SimDuration::from_mins(30),
        }
    }

    /// The Fig. 6 example: 24 machines, m = 4 (n = 6).
    pub fn fig6_example() -> Self {
        ReplayConfig::new(4)
    }
}

/// Result of running the dual-phase replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Suspect machines (the solution set `S` of Algorithm 1). Empty when no
    /// group failed in either phase.
    pub suspects: Vec<MachineId>,
    /// Index of the failing horizontal group, if any.
    pub horizontal_group: Option<usize>,
    /// Index of the failing vertical group, if any.
    pub vertical_group: Option<usize>,
    /// Total diagnosis time (two sequential phases).
    pub duration: SimDuration,
}

impl ReplayOutcome {
    /// Whether the replay isolated anything.
    pub fn found_suspects(&self) -> bool {
        !self.suspects.is_empty()
    }
}

/// The dual-phase replay procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualPhaseReplay {
    /// Configuration.
    pub config: ReplayConfig,
}

impl DualPhaseReplay {
    /// Creates the procedure.
    pub fn new(config: ReplayConfig) -> Self {
        DualPhaseReplay { config }
    }

    /// Expected cardinality of the suspect set per Algorithm 1:
    /// 1 when `m <= n`, otherwise `ceil(m / n)`.
    pub fn expected_suspect_count(&self, total_machines: usize) -> usize {
        let m = self.config.group_size;
        let n = (total_machines / m).max(1);
        if m <= n {
            1
        } else {
            m.div_ceil(n)
        }
    }

    /// Runs the two phases against the given machines.
    ///
    /// `machines` is the ordered list of machines participating in the replay
    /// (their position is the machine index `x_i` of Algorithm 1);
    /// `replay_fails` answers whether replaying the job on a given group of
    /// machines reproduces the failure. In production this is the actual
    /// replay run; in the harness it is derived from the injected ground
    /// truth (a group fails iff it contains an SDC machine).
    pub fn locate<F>(&self, machines: &[MachineId], mut replay_fails: F) -> ReplayOutcome
    where
        F: FnMut(&[MachineId]) -> bool,
    {
        let z = machines.len();
        let m = self.config.group_size.max(1);
        let n = (z / m).max(1);

        // Phase 1: horizontal grouping by index / m (n groups of m machines).
        let mut horizontal_group = None;
        for a in 0..n {
            let group: Vec<MachineId> = machines
                .iter()
                .enumerate()
                .filter(|(i, _)| i / m == a)
                .map(|(_, &id)| id)
                .collect();
            if !group.is_empty() && replay_fails(&group) {
                horizontal_group = Some(a);
                break;
            }
        }

        // Phase 2: vertical grouping by index mod n (n groups of ~z/n machines).
        let mut vertical_group = None;
        for b in 0..n {
            let group: Vec<MachineId> = machines
                .iter()
                .enumerate()
                .filter(|(i, _)| i % n == b)
                .map(|(_, &id)| id)
                .collect();
            if !group.is_empty() && replay_fails(&group) {
                vertical_group = Some(b);
                break;
            }
        }

        let duration = self.config.phase_duration.mul(2);
        let suspects = match (horizontal_group, vertical_group) {
            (Some(a), Some(b)) => machines
                .iter()
                .enumerate()
                .filter(|(i, _)| i / m == a && i % n == b)
                .map(|(_, &id)| id)
                .collect(),
            _ => Vec::new(),
        };
        ReplayOutcome {
            suspects,
            horizontal_group,
            vertical_group,
            duration,
        }
    }

    /// Convenience wrapper for the harness: a group fails iff it contains any
    /// ground-truth faulty machine.
    pub fn locate_with_ground_truth(
        &self,
        machines: &[MachineId],
        faulty: &HashSet<MachineId>,
    ) -> ReplayOutcome {
        self.locate(machines, |group| group.iter().any(|id| faulty.contains(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machines(z: usize) -> Vec<MachineId> {
        (0..z as u32).map(MachineId).collect()
    }

    #[test]
    fn fig6_example_isolates_machine_13() {
        // z = 24, m = 4, n = 6; machine 13 is the SDC machine. Fig. 6 shows
        // horizontal group H3 and vertical group V1 failing, intersecting at
        // machine 13.
        let replay = DualPhaseReplay::new(ReplayConfig::fig6_example());
        let faulty: HashSet<MachineId> = [MachineId(13)].into_iter().collect();
        let outcome = replay.locate_with_ground_truth(&machines(24), &faulty);
        assert_eq!(outcome.horizontal_group, Some(3));
        assert_eq!(outcome.vertical_group, Some(1));
        assert_eq!(outcome.suspects, vec![MachineId(13)]);
        assert_eq!(outcome.duration, SimDuration::from_mins(60));
    }

    #[test]
    fn every_single_faulty_machine_is_isolated_exactly() {
        // With m <= n the solution is always unique: sweep every possible
        // culprit position.
        let replay = DualPhaseReplay::new(ReplayConfig::new(4));
        let ms = machines(24);
        for culprit in 0..24u32 {
            let faulty: HashSet<MachineId> = [MachineId(culprit)].into_iter().collect();
            let outcome = replay.locate_with_ground_truth(&ms, &faulty);
            assert_eq!(
                outcome.suspects,
                vec![MachineId(culprit)],
                "culprit {culprit}"
            );
        }
    }

    #[test]
    fn expected_cardinality_formula() {
        // m=4, z=24 -> n=6, m<=n -> 1.
        assert_eq!(
            DualPhaseReplay::new(ReplayConfig::new(4)).expected_suspect_count(24),
            1
        );
        // m=8, z=16 -> n=2, m>n -> ceil(8/2)=4.
        assert_eq!(
            DualPhaseReplay::new(ReplayConfig::new(8)).expected_suspect_count(16),
            4
        );
    }

    #[test]
    fn suspect_set_size_matches_formula_when_m_greater_than_n() {
        let replay = DualPhaseReplay::new(ReplayConfig::new(8));
        let ms = machines(16);
        let faulty: HashSet<MachineId> = [MachineId(5)].into_iter().collect();
        let outcome = replay.locate_with_ground_truth(&ms, &faulty);
        assert!(outcome.suspects.contains(&MachineId(5)));
        assert_eq!(outcome.suspects.len(), replay.expected_suspect_count(16));
    }

    #[test]
    fn no_fault_means_no_suspects() {
        let replay = DualPhaseReplay::new(ReplayConfig::fig6_example());
        let outcome = replay.locate_with_ground_truth(&machines(24), &HashSet::new());
        assert!(!outcome.found_suspects());
        assert_eq!(outcome.horizontal_group, None);
        assert_eq!(outcome.vertical_group, None);
    }

    #[test]
    fn non_reproducible_fault_yields_empty_or_partial_result() {
        // A fault that never reproduces during replay (e.g. a thermal SDC)
        // produces no failing group and therefore no suspects — the caller
        // must fall back to other means.
        let replay = DualPhaseReplay::new(ReplayConfig::fig6_example());
        let outcome = replay.locate(&machines(24), |_| false);
        assert!(!outcome.found_suspects());
    }

    #[test]
    fn duration_is_two_phases() {
        let config = ReplayConfig {
            group_size: 4,
            phase_duration: SimDuration::from_mins(20),
        };
        let replay = DualPhaseReplay::new(config);
        let faulty: HashSet<MachineId> = [MachineId(0)].into_iter().collect();
        let outcome = replay.locate_with_ground_truth(&machines(8), &faulty);
        assert_eq!(outcome.duration, SimDuration::from_mins(40));
    }
}
