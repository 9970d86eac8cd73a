//! Property-based tests over the core data structures and invariants:
//! parallel-group topology, backup placement, dual-phase replay, binomial
//! standby sizing, ETTR accounting and the fault injector.
//!
//! The checks are written property-style — each test enumerates a
//! deterministic family of inputs (small parallelism configurations, replay
//! geometries, seeded random segment lists) and asserts the invariant over
//! every member. No external property-testing framework is required, and the
//! enumeration is exhaustive-or-seeded rather than sampled, so failures are
//! perfectly reproducible.

use std::collections::HashSet;

use byterobust::prelude::*;
use byterobust::recovery::binomial::{binomial_cdf, binomial_pmf};

/// Every valid small 3D parallelism configuration whose world size is
/// divisible by the GPUs-per-machine packing and spans at least two machines
/// (peer backup needs a second machine to be meaningful).
fn small_parallelism_configs() -> Vec<ParallelismConfig> {
    let mut configs = Vec::new();
    for tp in 1..=4 {
        for pp in 1..=4 {
            for dp in 1..=8 {
                for gpus_per_machine in [2, 4, 8] {
                    let cfg = ParallelismConfig {
                        tp,
                        pp,
                        dp,
                        ep: 1,
                        gpus_per_machine,
                    };
                    if cfg.validate().is_ok() && cfg.machines() >= 2 {
                        configs.push(cfg);
                    }
                }
            }
        }
    }
    assert!(
        configs.len() > 20,
        "expected a rich config family, got {}",
        configs.len()
    );
    configs
}

/// Every rank belongs to exactly one group of each kind, and the groups of
/// one kind tile the whole world.
#[test]
fn parallel_groups_partition_the_world() {
    for cfg in small_parallelism_configs() {
        let topo = ParallelTopology::new(cfg);
        for kind in GroupKind::DENSE {
            let groups = topo.all_groups(kind);
            let mut seen = vec![0u32; cfg.world_size()];
            for group in &groups {
                assert_eq!(group.size(), topo.group_size(kind), "cfg: {cfg:?}");
                for rank in &group.ranks {
                    seen[rank.index()] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "cfg: {cfg:?}, kind: {kind:?}");
        }
    }
}

/// Rank coordinates round-trip through the mapping.
#[test]
fn rank_coords_roundtrip() {
    for cfg in small_parallelism_configs() {
        let mapping = RankMapping::new(cfg);
        for rank in mapping.all_ranks() {
            assert_eq!(mapping.rank_at(mapping.coords(rank)), rank, "cfg: {cfg:?}");
        }
    }
}

/// For genuinely multi-dimensional configurations, backup peers never share
/// any TP/PP/DP group with their source, the relation is a permutation, and
/// single-group over-eviction never loses both copies.
#[test]
fn backup_assignment_invariants() {
    for cfg in small_parallelism_configs() {
        let topo = ParallelTopology::new(cfg);
        let assignment = BackupAssignment::compute(&topo);
        let mut targets = HashSet::new();
        for rank in topo.mapping().all_ranks() {
            let peer = assignment.backup_peer(rank);
            assert_ne!(rank, peer, "cfg: {cfg:?}");
            targets.insert(peer);
            if cfg.is_multi_dimensional() {
                assert!(!topo.share_any_group(rank, peer), "cfg: {cfg:?}");
            } else {
                assert_ne!(
                    topo.mapping().machine_of(rank),
                    topo.mapping().machine_of(peer),
                    "cfg: {cfg:?}"
                );
            }
        }
        assert_eq!(targets.len(), cfg.world_size(), "cfg: {cfg:?}");
        // Group-eviction survivability is the paper's 3D-parallel setting
        // (TP, PP and DP all non-trivial, as in Table 5), with the usual
        // machine alignment: each machine hosts whole tensor-parallel groups
        // (tp divides gpus_per_machine) and never straddles a pipeline-stage
        // boundary (gpus_per_machine divides tp*dp). Every layout in the
        // paper (Table 5, Figs. 7/9) satisfies both. Outside that regime a
        // machine can host ranks whose peers land inside the evicted group's
        // machines, so the machine-granular guarantee does not apply.
        if cfg.tp > 1
            && cfg.pp > 1
            && cfg.dp > 1
            && cfg.gpus_per_machine % cfg.tp == 0
            && (cfg.tp * cfg.dp) % cfg.gpus_per_machine == 0
        {
            for kind in GroupKind::DENSE {
                for group in topo.all_groups(kind) {
                    let machines = topo.machines_of_group(&group);
                    // If a group happens to span every machine (tiny
                    // degenerate configs) there is nowhere left to hold
                    // backups and the property is vacuous.
                    if machines.len() < topo.mapping().machine_count() {
                        assert!(
                            assignment.survives_eviction(&topo, &machines),
                            "cfg: {cfg:?}, kind: {kind:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Dual-phase replay always includes the true culprit in its suspect set and
/// never returns more suspects than Algorithm 1's cardinality bound.
#[test]
fn dual_phase_replay_isolates_culprit() {
    for machines in [8usize, 12, 24, 48, 96] {
        for group_size in 2usize..=8 {
            let z = (machines / group_size) * group_size;
            if z < group_size * 2 {
                continue;
            }
            let ids: Vec<MachineId> = (0..z as u32).map(MachineId).collect();
            let replay = DualPhaseReplay::new(ReplayConfig::new(group_size));
            // Sweep every culprit position (the proptest original sampled
            // positions; the space is small enough to cover exhaustively).
            for culprit_index in 0..z as u32 {
                let culprit = MachineId(culprit_index);
                let faulty: HashSet<MachineId> = [culprit].into_iter().collect();
                let outcome = replay.locate_with_ground_truth(&ids, &faulty);
                assert!(
                    outcome.suspects.contains(&culprit),
                    "z={z}, group_size={group_size}, culprit={culprit}"
                );
                assert!(
                    outcome.suspects.len() <= replay.expected_suspect_count(z).max(group_size),
                    "z={z}, group_size={group_size}, suspects={:?}",
                    outcome.suspects
                );
            }
        }
    }
}

/// The binomial helpers behave like a probability distribution and the
/// quantile is monotone, so the warm-standby P99 sizing is well defined.
#[test]
fn binomial_distribution_sanity() {
    for n in [1u64, 2, 7, 16, 64, 128, 300, 599] {
        for p in [0.0f64, 0.001, 0.01, 0.05, 0.1, 0.199] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, p, k)).sum();
            assert!((total - 1.0).abs() < 1e-6, "n={n}, p={p}, total={total}");
            assert!(binomial_cdf(n, p, n) > 1.0 - 1e-6, "n={n}, p={p}");
            let q90 = binomial_quantile(n, p, 0.90);
            let q99 = binomial_quantile(n, p, 0.99);
            assert!(q90 <= q99, "n={n}, p={p}");
            assert!(q99 <= n, "n={n}, p={p}");
        }
    }
}

/// ETTR is always in [0, 1], and adding unproductive time never increases it.
#[test]
fn ettr_is_bounded_and_monotone() {
    for seed in 0..32u64 {
        let mut rng = SimRng::new(seed);
        let segment_count = 1 + rng.index(60);
        let mut tracker = EttrTracker::new();
        let mut previous = 1.0f64;
        for _ in 0..segment_count {
            let duration = SimDuration::from_secs(rng.range_u64(1, 5_000));
            if rng.chance(0.5) {
                tracker.record_productive(duration);
            } else {
                tracker.record_unproductive(duration);
                assert!(
                    tracker.cumulative_ettr() <= previous + 1e-12,
                    "seed: {seed}"
                );
            }
            let ettr = tracker.cumulative_ettr();
            assert!((0.0..=1.0).contains(&ettr), "seed: {seed}, ettr: {ettr}");
            previous = ettr;
        }
        assert_eq!(
            tracker.total_time(),
            tracker.productive_time() + tracker.unproductive_time(),
            "seed: {seed}"
        );
    }
}

/// The fault injector produces time-ordered events whose culprits are always
/// valid machine indices, and user-code faults never blame machines.
#[test]
fn fault_injector_events_are_well_formed() {
    for seed in 0..24u64 {
        let machines = 4 + (seed as usize * 37) % 196;
        let config = FaultInjectorConfig {
            machines,
            gpus_per_machine: 8,
            ..FaultInjectorConfig::default()
        };
        let mut injector = FaultInjector::new(config, SimRng::new(seed));
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let event = injector.next_event(now);
            assert!(event.at >= now, "seed: {seed}");
            now = event.at;
            for culprit in &event.culprits {
                assert!(culprit.index() < machines, "seed: {seed}, event: {event:?}");
            }
            if event.root_cause == RootCause::UserCode || event.root_cause == RootCause::Human {
                assert!(event.culprits.is_empty(), "seed: {seed}, event: {event:?}");
            }
        }
    }
}

/// Stack aggregation never flags outliers on a healthy capture, and always
/// places the hang victim's ranks among the outliers on a hung capture.
#[test]
fn aggregation_flags_exactly_the_anomalous_side() {
    for victim_index in 0u32..16 {
        let mut runtime = TrainingRuntime::new(JobSpec::small_test());
        let healthy = AggregationResult::from_capture(&runtime.capture());
        assert!(!healthy.has_outliers(), "victim: {victim_index}");
        let victim = MachineId(victim_index);
        runtime.inject_hang(vec![victim]);
        let hung = AggregationResult::from_capture(&runtime.capture());
        assert!(hung.has_outliers(), "victim: {victim_index}");
        let outliers = hung.outlier_ranks();
        for rank in runtime.topology().mapping().ranks_on_machine(victim) {
            assert!(
                outliers.contains(&rank),
                "victim: {victim_index}, rank: {rank:?}"
            );
        }
    }
}
