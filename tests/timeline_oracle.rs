//! The rebuild oracle: every dossier's window rebuilt from its own fields
//! (`IncidentDossier::window`) equals, entry for entry, the window the
//! controller used to record live (`RobustController::recorded_window`),
//! on real runs: `small_drill` and `large_drill` at three seeds,
//! `mega_smoke`, and the two 9,600-GPU production jobs.
//!
//! CI runs this file in release as its own step
//! (`cargo test --release --test timeline_oracle`).

use byterobust::prelude::*;

/// Asserts the rebuilt window of every dossier equals the recorded one and
/// returns how many dossiers and how many skipped zero-duration phases
/// were checked.
fn assert_windows_rebuild<'a>(
    run: &str,
    dossiers: impl IntoIterator<Item = &'a IncidentDossier>,
) -> (usize, usize) {
    let (mut checked, mut zero_phases) = (0, 0);
    for dossier in dossiers {
        let rebuilt = dossier.window();
        let recorded = RobustController::recorded_window(dossier);
        if let Some(index) =
            (0..rebuilt.len().max(recorded.len())).find(|&i| rebuilt.get(i) != recorded.get(i))
        {
            panic!(
                "{run}: incident #{} window diverges at entry {index}:\n  rebuilt:  {:?}\n  recorded: {:?}",
                dossier.seq,
                rebuilt.get(index),
                recorded.get(index)
            );
        }
        checked += 1;
        zero_phases += RobustController::recovery_phases(&dossier.cost)
            .iter()
            .filter(|(_, duration)| duration.is_zero())
            .count();
    }
    (checked, zero_phases)
}

/// Checks every dossier of a fleet run's warehouse.
fn assert_fleet_windows_rebuild(run: &str, report: &FleetReport) -> (usize, usize) {
    let (mut checked, mut zero_phases) = (0, 0);
    for job in &report.jobs {
        if let Some(shard) = report.warehouse.shard(&job.label) {
            let (c, z) = assert_windows_rebuild(run, shard.all().iter().map(|d| d.as_ref()));
            checked += c;
            zero_phases += z;
        }
    }
    assert_eq!(checked, report.warehouse.len(), "{run}: every dossier");
    (checked, zero_phases)
}

#[test]
fn drill_windows_rebuild_from_their_dossiers() {
    for seed in [1, 41, 9001] {
        for (name, config) in [
            ("small_drill", FleetConfig::small_drill()),
            ("large_drill", FleetConfig::large_drill()),
        ] {
            let run = format!("{name} seed {seed}");
            let report = FleetRunner::new(config, seed).run();
            let (checked, zero_phases) = assert_fleet_windows_rebuild(&run, &report);
            assert!(checked > 0, "{run}: no incidents");
            assert!(zero_phases > 0, "{run}: no zero-duration phase to skip");
        }
    }
}

#[test]
fn mega_smoke_windows_rebuild_from_their_dossiers() {
    let report = FleetRunner::new(FleetConfig::mega_smoke(), 20250916).run();
    let (checked, zero_phases) = assert_fleet_windows_rebuild("mega_smoke", &report);
    assert!(checked > 5_000, "mega_smoke checked {checked} dossiers");
    assert!(zero_phases > 0);
}

#[test]
fn production_windows_rebuild_from_their_dossiers() {
    for config in [
        JobConfig::production_dense_three_months(),
        JobConfig::production_moe_one_month(),
    ] {
        let report = JobLifecycle::new(config, 11).run();
        let run = format!("{} seed 11", report.job_name);
        let (checked, zero_phases) =
            assert_windows_rebuild(&run, report.incident_store.all().iter().map(|d| d.as_ref()));
        assert_eq!(checked, report.incidents.len(), "{run}: every dossier");
        assert!(checked > 0 && zero_phases > 0, "{run}");
    }
}
