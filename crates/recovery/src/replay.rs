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

        // Phase 1: horizontal grouping by index / m (n groups of m machines;
        // with z < m the one group is all z).
        let horizontal_group = machines.chunks(m).take(n).position(&mut replay_fails);

        // Phase 2: vertical grouping by index mod n (n groups of ~z/n
        // machines), each gathered into one reused buffer.
        let mut vertical_group = None;
        let mut group = Vec::with_capacity(z.div_ceil(n));
        for b in 0..n.min(z) {
            group.clear();
            group.extend(machines[b..].iter().step_by(n));
            if replay_fails(&group) {
                vertical_group = Some(b);
                break;
            }
        }

        let duration = self.config.phase_duration.mul(2);
        let suspects = match (horizontal_group, vertical_group) {
            (Some(a), Some(b)) => (a * m..((a + 1) * m).min(z))
                .filter(|i| i % n == b)
                .map(|i| machines[i])
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

    /// `locate` as it was before groups were sliced and strided: every group
    /// filtered out of the whole machine list by index.
    fn reference_locate<F>(
        replay: &DualPhaseReplay,
        machines: &[MachineId],
        mut replay_fails: F,
    ) -> ReplayOutcome
    where
        F: FnMut(&[MachineId]) -> bool,
    {
        let z = machines.len();
        let m = replay.config.group_size.max(1);
        let n = (z / m).max(1);
        let members = |keep: &dyn Fn(usize) -> bool| -> Vec<MachineId> {
            machines
                .iter()
                .enumerate()
                .filter(|&(i, _)| keep(i))
                .map(|(_, &id)| id)
                .collect()
        };
        let mut horizontal_group = None;
        for a in 0..n {
            let group = members(&|i| i / m == a);
            if !group.is_empty() && replay_fails(&group) {
                horizontal_group = Some(a);
                break;
            }
        }
        let mut vertical_group = None;
        for b in 0..n {
            let group = members(&|i| i % n == b);
            if !group.is_empty() && replay_fails(&group) {
                vertical_group = Some(b);
                break;
            }
        }
        let suspects = match (horizontal_group, vertical_group) {
            (Some(a), Some(b)) => members(&|i| i / m == a && i % n == b),
            _ => Vec::new(),
        };
        ReplayOutcome {
            suspects,
            horizontal_group,
            vertical_group,
            duration: replay.config.phase_duration.mul(2),
        }
    }

    #[test]
    fn sliced_groups_match_the_filtered_reference() {
        // (z, m): the Fig. 6 shape, z not a multiple of m, m > n, z < m,
        // z = m, m = 1 and z = 0. Machine ids are scattered so a group that
        // is sliced from the wrong positions cannot pass for the right one.
        let shapes = [
            (24, 4),
            (26, 4),
            (23, 5),
            (16, 8),
            (19, 7),
            (3, 8),
            (8, 8),
            (5, 1),
            (0, 4),
        ];
        for (z, m) in shapes {
            let replay = DualPhaseReplay::new(ReplayConfig::new(m));
            let ms: Vec<MachineId> = (0..z as u32).map(|i| MachineId(i * 7 + 100)).collect();
            // Every single-culprit position, two culprits, and no culprit.
            let mut culprit_sets: Vec<Vec<MachineId>> = ms.iter().map(|&id| vec![id]).collect();
            if z >= 2 {
                culprit_sets.push(vec![ms[1], ms[z - 1]]);
            }
            culprit_sets.push(Vec::new());
            for culprits in culprit_sets {
                let faulty: HashSet<MachineId> = culprits.iter().copied().collect();
                let mut seen = Vec::new();
                let outcome = replay.locate(&ms, |group| {
                    seen.push(group.to_vec());
                    group.iter().any(|id| faulty.contains(id))
                });
                let mut expected_seen = Vec::new();
                let expected = reference_locate(&replay, &ms, |group| {
                    expected_seen.push(group.to_vec());
                    group.iter().any(|id| faulty.contains(id))
                });
                assert_eq!(seen, expected_seen, "z={z} m={m} culprits={culprits:?}");
                assert_eq!(outcome, expected, "z={z} m={m} culprits={culprits:?}");
                // A never-failing replay walks every group of both phases.
                let mut all = Vec::new();
                let mut expected_all = Vec::new();
                let none = replay.locate(&ms, |group| {
                    all.push(group.to_vec());
                    false
                });
                let expected_none = reference_locate(&replay, &ms, |group| {
                    expected_all.push(group.to_vec());
                    false
                });
                assert_eq!(all, expected_all, "z={z} m={m}");
                assert_eq!(none, expected_none, "z={z} m={m}");
            }
        }
    }
}
