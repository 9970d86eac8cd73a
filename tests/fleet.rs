//! Fleet orchestration integration tests: determinism of the fleet report,
//! the snapshot planner-vs-oracle invariant on warehouse data, shard-merge
//! determinism, in-run backlog draining, and the repeat-offender ledger.

use std::sync::OnceLock;

use byterobust::prelude::*;

/// One shared drill run (the fleet takes a few seconds; every test reads the
/// same report).
fn drill() -> &'static FleetReport {
    static REPORT: OnceLock<FleetReport> = OnceLock::new();
    REPORT.get_or_init(|| FleetRunner::new(FleetConfig::small_drill(), 20250916).run())
}

/// The (job, seq) ids of the planner's answer on a warehouse's snapshot.
fn hit_ids(warehouse: &IncidentWarehouse, query: IncidentQuery) -> Vec<(String, u64)> {
    match warehouse.snapshot().answer(&FleetQuery::Incidents(query)) {
        Some((QueryResponse::Incidents(rows), _)) => {
            rows.into_iter().map(|row| (row.job, row.seq)).collect()
        }
        other => panic!("incidents arm answered {other:?}"),
    }
}

/// The rendered full-dossier planner answer on a warehouse's snapshot,
/// asserted byte-identical to the snapshot's brute-force oracle.
fn checked(warehouse: &IncidentWarehouse, query: &IncidentQuery) -> String {
    let query = FleetQuery::Dossiers(*query);
    let snapshot = warehouse.snapshot();
    let (planned, _) = snapshot.answer(&query).expect("warehouse-backed arm");
    let oracle = snapshot
        .oracle_answer(&query)
        .expect("warehouse-backed arm");
    assert_eq!(
        planned.render(),
        oracle.render(),
        "planner diverged from the oracle for {query:?}"
    );
    planned.render()
}

#[test]
fn fleet_report_is_byte_identical_across_runs_with_the_same_seed() {
    let a = drill();
    let b = FleetRunner::new(FleetConfig::small_drill(), 20250916).run();
    assert!(a.jobs.len() >= 3, "the drill runs three concurrent jobs");
    assert_eq!(
        a.render(),
        b.render(),
        "same seed must render byte-identically"
    );

    let c = FleetRunner::new(FleetConfig::small_drill(), 7).run();
    assert_ne!(
        a.render(),
        c.render(),
        "a different seed gives a different fleet history"
    );
}

#[test]
fn heap_scheduler_is_byte_identical_to_naive_scan_oracle() {
    // Small drill: the shared heap-scheduled run against a fresh naive-scan
    // run, same seed, plus a second seed to vary the tie pattern.
    let heap = drill();
    let naive =
        FleetRunner::new(FleetConfig::small_drill(), 20250916).run_with(SchedulerKind::NaiveScan);
    assert_eq!(
        heap.render(),
        naive.render(),
        "small_drill: heap scheduler diverged from the naive-scan oracle"
    );
    assert_eq!(heap.events_processed, naive.events_processed);

    let runner = FleetRunner::new(FleetConfig::small_drill(), 7);
    assert_eq!(
        runner.run().render(),
        runner.run_with(SchedulerKind::NaiveScan).render(),
        "small_drill seed 7: heap scheduler diverged from the naive-scan oracle"
    );
}

/// One shared `mega_smoke` run (60 jobs, 5,120 machines, ~13k events).
fn mega_smoke() -> &'static FleetReport {
    static REPORT: OnceLock<FleetReport> = OnceLock::new();
    REPORT.get_or_init(|| FleetRunner::new(FleetConfig::mega_smoke(), 20250916).run())
}

#[test]
fn mega_smoke_heap_scheduler_matches_the_naive_scan_oracle() {
    // Sixty broker-less jobs: many events share each quantum window, so this
    // exercises quantum-deferred offender publication under both schedulers.
    let heap = mega_smoke();
    let naive =
        FleetRunner::new(FleetConfig::mega_smoke(), 20250916).run_with(SchedulerKind::NaiveScan);
    assert_eq!(
        heap.render(),
        naive.render(),
        "mega_smoke: heap scheduler diverged from the naive-scan oracle"
    );
    assert_eq!(heap.scheduler_ops.picks, naive.scheduler_ops.picks);
    assert_eq!(heap.scheduler_ops.tie_draws, naive.scheduler_ops.tie_draws);
}

#[test]
fn mega_smoke_history_matches_the_pinned_fixture() {
    // The rendered history of `mega_smoke` at seed 20250916, pinned across
    // commits. A change that moves it changes the simulated history: if that
    // is intended, regenerate the fixture from the new `render()` output and
    // say why in the commit.
    let expected = include_str!("fixtures/mega_smoke_20250916.txt");
    let report = mega_smoke();
    assert!(
        report.events_processed > 5_000,
        "mega_smoke should process thousands of events, got {}",
        report.events_processed
    );
    let rendered = report.render();
    if let Some((line, (got, want))) = rendered
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "mega_smoke history diverged from the fixture at line {}:\n  got:  {got}\n  want: {want}",
            line + 1
        );
    }
    assert_eq!(rendered, expected, "mega_smoke render length changed");
}

#[test]
fn mega_drill_config_meets_the_scale_floors() {
    // The mega drill itself runs only in the bench panel (tens of seconds);
    // here we pin its advertised scale so a refactor cannot silently shrink
    // it below the 100x-fleet floors: >=500 jobs and >=50k machines.
    let config = FleetConfig::mega_drill();
    assert!(
        config.jobs.len() >= 500,
        "mega_drill must field at least 500 jobs, got {}",
        config.jobs.len()
    );
    assert!(
        config.total_machines() >= 50_000,
        "mega_drill must span at least 50k machines, got {}",
        config.total_machines()
    );
    // mega_smoke is the fast-mode stand-in: same shape, strictly smaller.
    let smoke = FleetConfig::mega_smoke();
    assert!(smoke.jobs.len() >= 40 && smoke.jobs.len() < config.jobs.len());
    assert!(smoke.total_machines() >= 4_000 && smoke.total_machines() < config.total_machines());
}

#[test]
fn heap_scheduler_matches_oracle_on_the_large_drill() {
    // The ~24-job four-digit-machine drill: the scale the heap scheduler
    // exists for. One run per scheduler, pinned byte-identical.
    let runner = FleetRunner::new(FleetConfig::large_drill(), 20250916 + 41);
    assert!(runner.config().jobs.len() >= 24);
    assert!(runner.config().total_machines() >= 1000);
    let heap = runner.run();
    let naive = runner.run_with(SchedulerKind::NaiveScan);
    assert_eq!(
        heap.render(),
        naive.render(),
        "large_drill: heap scheduler diverged from the naive-scan oracle"
    );
    assert_eq!(heap.events_processed, naive.events_processed);
    assert!(
        heap.events_processed > heap.total_incidents(),
        "events include every job-end on top of the incidents"
    );
}

#[test]
fn fleet_jobs_share_one_standby_pool_and_all_make_progress() {
    let report = drill();
    assert!(
        report.shared_pool_target < report.solo_pool_sum,
        "pooled P99 sizing ({}) must beat per-job provisioning ({})",
        report.shared_pool_target,
        report.solo_pool_sum
    );
    for job in &report.jobs {
        assert!(job.report.final_step > 0, "{} made no progress", job.label);
        assert!(
            !job.report.incidents.is_empty(),
            "{} saw no incidents at drill fault rates",
            job.label
        );
        let ettr = job.report.ettr.cumulative_ettr();
        assert!(ettr > 0.5 && ettr <= 1.0, "{}: ettr = {ettr}", job.label);
    }
    assert_eq!(report.total_incidents(), report.warehouse.len());
}

#[test]
fn warehouse_indexed_queries_equal_linear_scan_on_fleet_data() {
    let warehouse = &drill().warehouse;
    assert!(!warehouse.is_empty());

    let mut queries: Vec<IncidentQuery> = vec![
        IncidentQuery::any(),
        IncidentQuery::any().category(FaultCategory::Explicit),
        IncidentQuery::any().category(FaultCategory::Implicit),
        IncidentQuery::any().category(FaultCategory::ManualRestart),
        IncidentQuery::any().window(SimTime::ZERO, SimTime::from_hours(72)),
        IncidentQuery::any().window(SimTime::from_hours(5), SimTime::from_hours(30)),
        IncidentQuery::any().window(SimTime::from_hours(5), SimTime::from_hours(5)),
        IncidentQuery::any().window(SimTime::from_hours(30), SimTime::from_hours(5)),
        IncidentQuery::any()
            .category(FaultCategory::Explicit)
            .window(SimTime::ZERO, SimTime::from_hours(24)),
    ];
    for severity in Severity::ALL {
        queries.push(IncidentQuery::any().at_least(severity));
    }
    // Every machine the fleet ever implicated, plus one it never did.
    for &machine in warehouse.snapshot().machine_incident_counts().keys() {
        queries.push(IncidentQuery::any().machine(machine));
    }
    queries.push(IncidentQuery::any().machine(MachineId(9999)));

    for query in &queries {
        checked(warehouse, query);
    }
}

#[test]
fn warehouse_shard_merge_is_deterministic_across_insertion_orders() {
    let report = drill();
    let shards: Vec<(&str, &IncidentStore)> = report
        .jobs
        .iter()
        .map(|job| (job.label.as_str(), &job.report.incident_store))
        .collect();

    let mut forward = IncidentWarehouse::default();
    for (label, store) in &shards {
        forward.ingest_store(label, store);
    }
    let mut reverse = IncidentWarehouse::default();
    for (label, store) in shards.iter().rev() {
        reverse.ingest_store(label, store);
    }
    // Interleaved dossier-by-dossier, round-robin across jobs.
    let mut interleaved = IncidentWarehouse::default();
    let longest = shards.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (label, store) in &shards {
            if let Some(dossier) = store.all().get(i) {
                interleaved.insert_shared(label, dossier.clone());
            }
        }
    }

    let queries = [
        IncidentQuery::any(),
        IncidentQuery::any().at_least(Severity::Sev2),
        IncidentQuery::any().window(SimTime::ZERO, SimTime::from_hours(48)),
    ];
    for query in queries {
        let expected = checked(&forward, &query);
        assert_eq!(expected, checked(&reverse, &query), "{query:?}");
        assert_eq!(expected, checked(&interleaved, &query), "{query:?}");
    }
    for &machine in forward.snapshot().machine_incident_counts().keys() {
        let query = IncidentQuery::any().machine(machine);
        assert_eq!(hit_ids(&forward, query), hit_ids(&reverse, query));
    }
    assert_eq!(forward.snapshot().jobs(), reverse.snapshot().jobs());
    assert_eq!(
        forward.snapshot().severity_counts(),
        reverse.snapshot().severity_counts()
    );
}

#[test]
fn backlog_sweeps_drain_in_run_and_return_machines_to_standby() {
    let report = drill();
    assert!(
        report.drain.sweeps_dispatched >= 1,
        "the drill must queue stress-test sweeps"
    );
    assert!(
        report.drain.sweeps_completed_in_run >= 1,
        "at least one sweep must complete while jobs are still running"
    );
    assert!(
        report.drain.machines_returned_to_standby >= 1,
        "at least one over-evicted machine must pass its sweep and re-enter the pool"
    );
    // The returned machines are visible sweep by sweep, and every returned
    // machine came from a sweep that also names the incident it drained.
    let returned: usize = report
        .completed_sweeps
        .iter()
        .map(|sweep| sweep.passed.len())
        .sum();
    assert_eq!(returned, report.drain.machines_returned_to_standby);
    let with_pass = report
        .completed_sweeps
        .iter()
        .find(|sweep| !sweep.passed.is_empty())
        .expect("some sweep returned a machine");
    // The sweep's source incident is in the warehouse, and it was an
    // over-eviction.
    let shard = report
        .warehouse
        .shard(&with_pass.job)
        .expect("sweep's job has a shard");
    let dossier = shard
        .get(with_pass.seq)
        .expect("sweep's incident is stored");
    assert!(dossier.over_evicted);
    // Observable in the rendered report too.
    assert!(report.render().contains("returned to standby"));
}

/// One shared starved-drill pair (broker off / broker on, same seed) — the
/// broker comparisons all read these two reports.
fn starved_pair() -> &'static (FleetReport, FleetReport) {
    static PAIR: OnceLock<(FleetReport, FleetReport)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let config = FleetConfig::starved_drill();
        let off = FleetRunner::new(config.clone().without_broker(), 20250916 + 51).run();
        let on = FleetRunner::new(config, 20250916 + 51).run();
        (off, on)
    })
}

#[test]
fn pool_exhaustion_baseline_degrades_without_the_broker() {
    // Satellite regression: the starved drill's standby demand exceeds
    // supply, and WITHOUT the broker the fleet silently degrades — every
    // shortfall pays the slow reschedule path. This pins that degraded
    // baseline as the bar the broker must beat.
    let (off, _) = starved_pair();
    assert!(off.broker.is_none(), "baseline runs broker-disabled");
    assert!(
        off.pool_shortfall_events > 0,
        "the starved drill must actually exhaust the pool"
    );
    assert!(off.pool_shortfall_machines >= off.pool_shortfall_events);
    // Capacity starvation is attributed on the incidents themselves (flight
    // recorder markers), not just in pool counters.
    assert_eq!(off.starved_incidents(), off.pool_shortfall_events);
    assert!(
        off.starved_incidents_by_job().len() > 1,
        "starvation hits several jobs"
    );
    // Un-brokered: nothing covered the gap.
    assert!(off.migrations.is_empty());
    assert!(off.render().contains("request(s) shortfalled"));
    assert!(!off.render().contains("-- fleet broker"));
}

#[test]
fn broker_recovers_the_starved_fleet_faster_than_the_baseline() {
    let (off, on) = starved_pair();
    let broker = on
        .broker
        .as_ref()
        .expect("starved drill enables the broker");
    assert!(broker.has_activity());
    assert!(broker.migrated_machines > 0, "migration must fire");
    assert!(
        broker.reserve_held_machines > 0,
        "the priority reserve must bind"
    );
    assert_eq!(
        broker.queued_jobs, 1,
        "one job queues behind the admission limit"
    );
    assert_eq!(on.migrations.len(), broker.migrated_machines);

    // The critical job recovers faster: higher effective-training-time
    // ratio, and it gets machines through the broker instead of the free
    // pool.
    let critical_off = &off.jobs[0];
    let critical_on = &on.jobs[0];
    assert_eq!(critical_on.label, "prod-critical");
    assert!(
        critical_on.report.ettr.cumulative_ettr() > critical_off.report.ettr.cumulative_ettr(),
        "broker must lift the critical job's ETTR: {} vs {}",
        critical_on.report.ettr.cumulative_ettr(),
        critical_off.report.ettr.cumulative_ettr()
    );
    // And the fleet as a whole spends measurably less time unproductive.
    assert!(
        on.fleet_unproductive_secs() < off.fleet_unproductive_secs() * 0.95,
        "broker must cut fleet unproductive time by >5%: {} vs {}",
        on.fleet_unproductive_secs(),
        off.fleet_unproductive_secs()
    );
    // The interventions are visible in the rendered report.
    let rendered = on.render();
    assert!(rendered.contains("-- fleet broker"));
    assert!(rendered.contains("migrated into"));
    assert!(rendered.contains("waits for admission"));
    assert!(rendered.contains("admitted from the queue"));
}

#[test]
fn brokered_runs_stay_byte_identical_across_schedulers() {
    // The heap-vs-naive oracle must hold with the broker in the loop too:
    // broker decisions are a pure function of the (scheduler-independent)
    // fleet event order.
    let config = FleetConfig::starved_drill();
    let heap = FleetRunner::new(config.clone(), 20250916 + 51);
    let naive = heap.run_with(SchedulerKind::NaiveScan);
    assert_eq!(
        heap.run().render(),
        naive.render(),
        "starved drill with broker: heap scheduler diverged from the naive-scan oracle"
    );
}

#[test]
fn broker_is_invisible_on_a_non_starved_fleet() {
    // The acceptance oracle: a comfortably provisioned fleet renders
    // byte-identically with the broker on or off.
    let calm = FleetConfig::small_drill().with_pool_override(64);
    let off = FleetRunner::new(calm.clone(), 20250916 + 50).run();
    let on = FleetRunner::new(
        calm.with_broker(BrokerConfig {
            admission_limit: None,
            reserve_for_priority: 1,
        }),
        20250916 + 50,
    )
    .run();
    assert_eq!(
        off.pool_shortfall_events, 0,
        "the calm fleet must not starve"
    );
    assert!(on.broker.as_ref().is_some_and(|b| !b.has_activity()));
    assert_eq!(
        off.render(),
        on.render(),
        "non-starved fleet: broker on/off must render byte-identically"
    );
}

#[test]
fn migrated_machines_keep_their_identity_and_history() {
    let (_, on) = starved_pair();
    let migration = on.migrations.first().expect("the starved drill migrates");
    // The record names real jobs and a real machine; label indices line up
    // with the fleet configuration.
    assert!(migration.from_job < on.jobs.len());
    assert!(migration.to_job < on.jobs.len());
    assert_ne!(migration.from_job, migration.to_job);
    // The machine id is the identity: the rendered broker line names the
    // same machine that the migration log records, so its warehouse /
    // ledger history (keyed by MachineId) survives the move by
    // construction.
    let line = format!(
        "{} migrated into {} from {}",
        migration.machine, on.jobs[migration.to_job].label, on.jobs[migration.from_job].label
    );
    assert!(
        on.render().contains(&line),
        "rendered report must carry the migration: {line}"
    );
}

#[test]
fn repeat_offender_ledger_is_built_from_cross_job_history() {
    let report = drill();
    assert!(
        !report.repeat_offenders.is_empty(),
        "drill fault rates must produce repeat offenders"
    );
    for (machine, count) in &report.repeat_offenders {
        assert!(*count >= report.repeat_offender_threshold);
        // The ledger's counts agree with the warehouse's machine history,
        // answered by the planner and by the machine-count fold alike.
        assert_eq!(
            hit_ids(&report.warehouse, IncidentQuery::any().machine(*machine)).len(),
            *count,
            "ledger and warehouse disagree about {machine}"
        );
        assert_eq!(
            report.warehouse.snapshot().machine_incident_counts()[machine],
            *count
        );
    }
    // At least one offender accumulated history from more than one job — the
    // cross-job part of the ledger.
    assert!(
        report.repeat_offenders.iter().any(|(machine, _)| {
            let jobs: std::collections::BTreeSet<String> =
                hit_ids(&report.warehouse, IncidentQuery::any().machine(*machine))
                    .into_iter()
                    .map(|(job, _)| job)
                    .collect();
            jobs.len() > 1
        }),
        "some offender must have incidents in more than one job"
    );
}

/// A unique directory for spill segments; callers clean it up best effort.
fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "byterobust-fleet-test-{tag}-{}",
        std::process::id()
    ))
}

#[test]
fn warehouse_spill_is_invisible_on_the_small_drill() {
    // The spill oracle at drill scale: the same fleet with a deliberately
    // tiny resident budget must render byte-identically and answer every
    // query identically to the in-memory run — and to the snapshot's
    // brute-force oracle, which is independent of both the planner's
    // posting lists and the spill layer.
    let dir = spill_dir("small");
    let memory = drill();
    let spilled = FleetRunner::new(
        FleetConfig::small_drill().with_warehouse_storage(WarehouseStorage::new(8, &dir)),
        20250916,
    )
    .run();
    assert_eq!(
        memory.render(),
        spilled.render(),
        "small_drill: spill on/off must render byte-identically"
    );
    let stats = spilled.warehouse.spill_stats();
    assert!(
        stats.segments_written >= 1,
        "an 8-dossier budget must spill on the drill: {stats:?}"
    );

    let queries = [
        IncidentQuery::any(),
        IncidentQuery::any().at_least(Severity::Sev2),
        IncidentQuery::any().category(FaultCategory::Explicit),
        IncidentQuery::any().window(SimTime::ZERO, SimTime::from_hours(12)),
        IncidentQuery::any().kind(FaultKind::CudaError),
    ];
    for query in queries {
        assert_eq!(
            checked(&spilled.warehouse, &query),
            checked(&memory.warehouse, &query),
            "spill on/off disagree on {query:?}"
        );
    }
    // Per-machine queries across the whole history.
    for (machine, count) in memory.warehouse.snapshot().machine_incident_counts() {
        let query = IncidentQuery::any().machine(machine);
        assert_eq!(hit_ids(&spilled.warehouse, query).len(), count);
    }
    // Full-content identity of every dossier, not just ids.
    assert_eq!(
        spilled.warehouse.render_digest(),
        memory.warehouse.render_digest()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warehouse_spill_is_invisible_on_the_large_drill() {
    // The determinism-matrix oracle at large_drill scale: ~24 jobs, 1,280
    // machines, a budget far below the incident volume.
    let dir = spill_dir("large");
    let runner = FleetRunner::new(FleetConfig::large_drill(), 20250916 + 41);
    let memory = runner.run();
    let spilled = FleetRunner::new(
        FleetConfig::large_drill().with_warehouse_storage(WarehouseStorage::new(32, &dir)),
        20250916 + 41,
    )
    .run();
    assert_eq!(
        memory.render(),
        spilled.render(),
        "large_drill: spill on/off must render byte-identically"
    );
    let stats = spilled.warehouse.spill_stats();
    assert!(
        stats.segments_written >= spilled.warehouse.snapshot().jobs().len(),
        "every shard must have spilled at least once: {stats:?}"
    );
    let everything = FleetQuery::Dossiers(IncidentQuery::any());
    assert_eq!(
        checked(&spilled.warehouse, &IncidentQuery::any()),
        memory
            .warehouse
            .snapshot()
            .oracle_answer(&everything)
            .expect("warehouse-backed arm")
            .render(),
        "spilled query must equal the in-memory oracle at large scale"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warehouse_export_import_render_round_trip_on_fleet_data() {
    let report = drill();
    let exported = report.warehouse.export_json();
    let imported = IncidentWarehouse::import_json(&exported).expect("import succeeds");
    assert_eq!(
        imported.render_digest(),
        report.warehouse.render_digest(),
        "export→import→render must reproduce the warehouse byte-for-byte"
    );
    assert_eq!(
        imported.export_json(),
        exported,
        "a second export is a fixed point"
    );
    assert_eq!(
        hit_ids(&imported, IncidentQuery::any()),
        hit_ids(&report.warehouse, IncidentQuery::any())
    );
    // Postmortems regenerate identically from the imported dossiers.
    let severe = FleetQuery::Dossiers(IncidentQuery::any().at_least(Severity::Sev2));
    let postmortems = |warehouse: &IncidentWarehouse| -> Vec<String> {
        match warehouse.snapshot().answer(&severe) {
            Some((QueryResponse::Dossiers(hits), _)) => hits
                .iter()
                .map(|(_, dossier)| Postmortem::for_dossier(dossier).render())
                .collect(),
            other => panic!("dossiers arm answered {other:?}"),
        }
    };
    let before = postmortems(&report.warehouse);
    assert!(!before.is_empty(), "the drill has Sev2-or-worse incidents");
    assert_eq!(before, postmortems(&imported));
}

// ---------------------------------------------------------------------------
// The resident query plane: a live WarehouseService attached to the drill,
// hammered by concurrent readers while the fleet executes.
// ---------------------------------------------------------------------------

/// A live sample: (stream index, serving epoch, rendered answer).
type LiveSample = (u64, u64, String);

struct LiveDrill {
    report: FleetReport,
    service: WarehouseService,
    generator: TrafficGenerator,
    samples: Vec<LiveSample>,
}

const LIVE_QUERIES: u64 = 12_000;
const LIVE_TRAFFIC_SEED: u64 = 4242;

/// One shared small-drill run with a query service attached (spill enabled,
/// so readers fault segments through the LRU mid-run) and three reader
/// threads draining an open-loop stream against it. Every 250th answer is
/// recorded with its serving epoch for the post-hoc replay oracle.
fn live_drill() -> &'static LiveDrill {
    static RUN: OnceLock<LiveDrill> = OnceLock::new();
    RUN.get_or_init(|| {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        let dir = spill_dir("query-live");
        let service = WarehouseService::new(64);
        let runner = FleetRunner::new(
            FleetConfig::small_drill()
                .with_warehouse_storage(WarehouseStorage::new(8, &dir))
                .with_query_service(service.clone()),
            20250916,
        );
        let labels: Vec<String> = runner
            .config()
            .jobs
            .iter()
            .map(|job| job.label.clone())
            .collect();
        let machines = runner.config().total_machines() as u32;
        let generator =
            TrafficGenerator::new(TrafficConfig::new(LIVE_TRAFFIC_SEED, labels, machines, 26));

        let next = AtomicU64::new(0);
        let samples: Mutex<Vec<LiveSample>> = Mutex::new(Vec::new());
        let report = std::thread::scope(|scope| {
            let run = scope.spawn(|| runner.run());
            std::thread::scope(|readers| {
                for _ in 0..3 {
                    readers.spawn(|| loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= LIVE_QUERIES {
                            break;
                        }
                        let query = generator.query(index);
                        // None only before epoch 0 publishes (the generator
                        // never emits span/alert arms): retry until the
                        // runner catches up.
                        let (response, epoch) = loop {
                            match service.answer(&query) {
                                Some(answer) => break answer,
                                None => std::thread::yield_now(),
                            }
                        };
                        if index.is_multiple_of(250) {
                            samples.lock().expect("sample lock").push((
                                index,
                                epoch,
                                response.render(),
                            ));
                        }
                    });
                }
            });
            run.join().expect("drill thread panicked")
        });
        let samples = samples.into_inner().expect("sample lock");
        // The spill dir must outlive the process: the report's warehouse and
        // every pinned epoch snapshot fault spilled segments lazily, from any
        // test, at any time. It is pid-suffixed, so leaving it costs nothing.
        LiveDrill {
            report,
            service,
            generator,
            samples,
        }
    })
}

#[test]
fn live_service_is_invisible_to_the_fleet_run() {
    // Attaching the service (and a concurrent reader pool) must not perturb
    // the simulation: the report is byte-identical to the plain shared
    // drill, same seed, no service.
    let live = live_drill();
    assert_eq!(
        live.report.render(),
        drill().render(),
        "a live query service must not change the fleet history"
    );
    assert!(live.service.is_sealed(), "the runner seals after the drill");
    assert!(
        live.service.stats().queries >= LIVE_QUERIES,
        "every stream query was answered"
    );
    assert!(!live.samples.is_empty(), "readers recorded live samples");
}

#[test]
fn live_answers_replay_byte_identically_from_post_hoc_snapshots() {
    // The snapshot-isolation oracle across the whole run: every sampled
    // live answer re-derives byte-identically from `snapshot_at` of the
    // epoch that served it — long after the warehouse moved on.
    let live = live_drill();
    for (index, epoch, rendered) in &live.samples {
        let snapshot = live
            .service
            .snapshot_at(*epoch)
            .unwrap_or_else(|| panic!("epoch {epoch} was published"));
        let (replayed, _) = snapshot
            .answer(&live.generator.query(*index))
            .expect("stream queries are warehouse-backed");
        assert_eq!(
            &replayed.render(),
            rendered,
            "query {index}: post-hoc replay diverged from its live answer at epoch {epoch}"
        );
    }
}

#[test]
fn planner_matches_the_linear_scan_oracle_at_every_published_epoch() {
    // The planner-vs-oracle matrix: every published epoch, a slice of the
    // traffic stream (all shapes: point lookups, floors, windows,
    // conjunctions, scans, digests), planner and the brute-force
    // `oracle_answer` scan must render byte-identically.
    let live = live_drill();
    let stamps = live.service.stamps();
    assert!(stamps.len() >= 3, "the drill publishes many epochs");
    for stamp in &stamps {
        let snapshot = live
            .service
            .snapshot_at(stamp.epoch)
            .expect("stamped epochs re-derive");
        assert_eq!(snapshot.epoch(), stamp.epoch);
        for index in 0..48 {
            let query = live.generator.query(index);
            let (planned, _) = snapshot.answer(&query).expect("warehouse-backed arm");
            let oracle = snapshot
                .oracle_answer(&query)
                .expect("warehouse-backed arm");
            assert_eq!(
                planned.render(),
                oracle.render(),
                "epoch {}: planner diverged from the linear scan on query {index}",
                stamp.epoch
            );
        }
    }
}

#[test]
fn sealed_service_agrees_with_the_report_query_surface() {
    // Post-seal, the two halves of the unified API — the live service and
    // the post-run FleetReport::answer — are the same database: every
    // warehouse-backed arm answers byte-identically through both.
    let live = live_drill();
    for index in 0..256 {
        let query = live.generator.query(index);
        let (from_service, _) = live.service.answer(&query).expect("warehouse-backed arm");
        assert_eq!(
            from_service.render(),
            live.report.answer(&query).render(),
            "sealed service and report disagree on query {index}"
        );
    }
    // Span and alert arms are report-only: the service declines them rather
    // than guessing.
    let spans = FleetQuery::Spans(TraceQuery::new());
    assert!(live.service.answer(&spans).is_none());
    assert!(matches!(
        live.report.answer(&spans),
        QueryResponse::Spans(_)
    ));
}

#[test]
fn query_responses_round_trip_through_the_codec_on_fleet_data() {
    // Real drill-produced responses (not synthetic fixtures) survive
    // export→import→render byte-identically, for every arm the stream
    // emits plus the report-only span arm.
    let live = live_drill();
    let mut arms = std::collections::BTreeSet::new();
    for index in 0..256 {
        let query = live.generator.query(index);
        let response = live.report.answer(&query);
        arms.insert(query.arm());
        let exported = response.export_json();
        let imported = QueryResponse::import_json(&exported).expect("response round trip");
        assert_eq!(imported.render(), response.render());
        assert_eq!(imported.export_json(), exported);

        let query_json = query.export_json();
        let re_query = FleetQuery::import_json(&query_json).expect("query round trip");
        assert_eq!(re_query.export_json(), query_json);
        assert_eq!(
            live.report.answer(&re_query).render(),
            response.render(),
            "a re-imported query must answer identically"
        );
    }
    assert!(
        arms.len() >= 3,
        "the stream exercises multiple arms: {arms:?}"
    );
}

#[test]
fn job_reports_and_stores_round_trip_through_the_codec_on_fleet_data() {
    // Real fleet-produced reports (full flight-recorder captures, every
    // mechanism the drill exercises) survive export→import exactly.
    let report = drill();
    for job in &report.jobs {
        let exported = job.report.export_json();
        let imported =
            JobReport::import_json(&exported).unwrap_or_else(|err| panic!("{}: {err}", job.label));
        assert_eq!(imported, job.report, "{} report changed", job.label);
        assert_eq!(imported.export_json(), exported);

        let store_json = job.report.incident_store.export_json();
        let store = IncidentStore::import_json(&store_json)
            .unwrap_or_else(|err| panic!("{}: {err}", job.label));
        assert_eq!(store, job.report.incident_store);
        for dossier in store.all() {
            let before = job
                .report
                .incident_store
                .postmortem(dossier.seq)
                .expect("postmortem exists")
                .render();
            let after = store
                .postmortem(dossier.seq)
                .expect("postmortem exists")
                .render();
            assert_eq!(before, after, "{} #{}", job.label, dossier.seq);
        }
    }
}
