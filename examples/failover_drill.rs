//! Failover drill: walk single incidents through the control plane by hand.
//!
//! This example exercises the individual mechanisms the lifecycle driver
//! normally orchestrates automatically: a hang isolated by stack-trace
//! aggregation (Fig. 7), an SDC machine isolated by dual-phase replay
//! (Fig. 6), and the cross-parallel-group checkpoint backup surviving a
//! whole-group over-eviction (Fig. 9).
//!
//! ```text
//! cargo run --release --example failover_drill
//! ```

use std::collections::HashSet;

use byterobust::prelude::*;

fn main() {
    drill_hang_aggregation();
    drill_dual_phase_replay();
    drill_backup_survives_over_eviction();
}

/// A backward-communication hang on one machine, isolated by aggregating the
/// stack traces of every training-related process.
fn drill_hang_aggregation() {
    println!("== drill 1: job hang isolated by stack aggregation (Fig. 7) ==");
    let job = JobSpec {
        parallelism: ParallelismConfig::fig7_example(),
        ..JobSpec::small_test()
    };
    let mut runtime = TrainingRuntime::new(job);
    let victim = MachineId(15);
    runtime.inject_hang(vec![victim]);

    let capture = runtime.capture();
    let process_count = capture.process_count;
    let aggregation = AggregationResult::from_capture(capture);
    println!(
        "captured {} stacks, {} distinct clusters",
        process_count,
        aggregation.clusters.len()
    );
    for cluster in aggregation.outlier_clusters() {
        println!(
            "  outlier cluster ({} ranks): {}",
            cluster.size(),
            cluster.fingerprint.lines().last().unwrap_or("")
        );
    }
    let decision =
        EvictionDecision::from_outliers(runtime.topology(), &aggregation.outlier_ranks());
    println!(
        "over-evicting {:?} group: machines {:?} (injected culprit was {victim})\n",
        decision.shared_group, decision.machines
    );
    assert!(decision.machines.contains(&victim));
}

/// An SDC machine that passes every stop-time check, isolated by dual-phase
/// replay group testing.
fn drill_dual_phase_replay() {
    println!("== drill 2: SDC machine isolated by dual-phase replay (Fig. 6) ==");
    let machines: Vec<MachineId> = (0..24).map(MachineId).collect();
    let culprit = MachineId(13);
    let faulty: HashSet<MachineId> = [culprit].into_iter().collect();
    let replay = DualPhaseReplay::new(ReplayConfig::fig6_example());
    let outcome = replay.locate_with_ground_truth(&machines, &faulty);
    println!(
        "failing groups: H{} and V{}; suspects = {:?}; diagnosis time = {}",
        outcome.horizontal_group.unwrap(),
        outcome.vertical_group.unwrap(),
        outcome.suspects,
        outcome.duration
    );
    assert_eq!(outcome.suspects, vec![culprit]);
    println!();
}

/// Every-step in-memory checkpoints with cross-parallel-group backups remain
/// recoverable even when an entire pipeline-parallel group is over-evicted.
fn drill_backup_survives_over_eviction() {
    println!("== drill 3: checkpoint backups survive PP-group over-eviction (Fig. 9) ==");
    let job = JobSpec {
        parallelism: ParallelismConfig::fig9_example(),
        ..JobSpec::small_test()
    };
    let mut ckpt = CkptManager::byterobust_default(&job);
    for s in 1..=100 {
        ckpt.advance_steps(s - 1, s);
    }

    let topology = ParallelTopology::new(job.parallelism);
    let pp_group = topology.group_of(Rank(0), GroupKind::Pipeline);
    let evicted = topology.machines_of_group(&pp_group);
    println!("evicting the whole PP group of rank-0: machines {evicted:?}");
    let rp = ckpt
        .best_recovery_point(&evicted)
        .expect("backups must survive");
    println!(
        "recovered from {:?} at step {} (load time {}), instead of falling back to remote storage",
        rp.tier, rp.step, rp.load_time
    );
    assert_eq!(rp.step, 100);
    assert_eq!(rp.tier, StorageTier::CpuMemory);
}
