//! `live_query`: `large_drill` with warehouse spill, a `WarehouseService`
//! and the default alert rules attached, stepped serially on one thread.
//! The drill first runs alone, repeatedly, which gives `events_per_s`. Then,
//! in read rounds, one closed-loop reader answers the `TrafficGenerator`
//! stream while the drill runs and after it seals: the same warehouse serves
//! reads beside a small write stream (publish, planner, segment cache, spill
//! and fault-in, alert evaluation).

use std::path::Path;
use std::time::Instant;

use byterobust_fleet::{
    FleetConfig, FleetReport, FleetRunner, SchedulerKind, ServiceStats, SteppingMode,
    TrafficConfig, TrafficGenerator, WarehouseService, WarehouseStorage,
};
use byterobust_obs::{score_alerts, RuleSet};
use byterobust_sim::SimRng;

use crate::checks::Checks;
use crate::fleet::{build_worlds, median_setup, report_runner, FleetSummary};
use crate::host::Usage;
use crate::metrics::{median, unit_of, Latencies, Metrics};
use crate::replay::{self, Attached};
use crate::trace::Tracer;
use crate::Options;

/// Resident dossiers before cold shards spill: about half the drill's
/// dossiers, so that the drill spills mid-run and readers fault segments back
/// in. A budget of 96 made nearly every insert spill or fault a shard:
/// segment encoding then dominated the drill, and its rate spread by a third
/// between runs on a shared host.
const SPILL_BUDGET: usize = 300;
/// Segment-cache capacity, above the drill's dossier count so that scans do
/// not thrash the cache.
const CACHE_BUDGET: usize = 4096;
/// Queries the reader answers after the drill seals, per round.
const SEALED_QUERIES: u64 = 20_000;
/// Every `SAMPLE_EVERY`-th answer is kept for the live-vs-replay check.
const SAMPLE_EVERY: u64 = 1_000;
/// Planner-vs-oracle comparisons per round at the final epoch.
const ORACLE_SAMPLES: u64 = 40;
/// Share of the run spent on drills alone, which give `events_per_s`; the
/// rest goes to read rounds. Drills alone repeat at least
/// `MIN_SOLO_DRILLS` times.
const WRITE_SHARE: f64 = 0.6;
const MIN_SOLO_DRILLS: usize = 3;
/// The drill commits several hundred events on every seed.
const EVENT_FLOOR: u64 = 300;
/// Generated query windows span the drill's first day.
const HORIZON_HOURS: u64 = 26;
/// The drill's fleet seed. It is fixed: between fleet seeds the drill's
/// event count, spill volume and peak memory vary by up to 40%, which would
/// swamp any regression bound. The workload seed draws the query stream.
const DRILL_SEED: u64 = 41;

fn fingerprint(text: &str) -> u64 {
    let mut hasher = std::hash::DefaultHasher::new();
    std::hash::Hash::hash(text, &mut hasher);
    std::hash::Hasher::finish(&hasher)
}

/// The drill's configuration with every read-side layer attached.
fn config(spill_dir: &Path, service: &WarehouseService) -> FleetConfig {
    FleetConfig::large_drill()
        .with_warehouse_storage(WarehouseStorage::new(SPILL_BUDGET, spill_dir))
        .with_query_service(service.clone())
        .with_alert_rules(RuleSet::default_rules())
}

fn traffic(runner: &FleetRunner, seed: u64) -> TrafficGenerator {
    let labels = runner
        .config()
        .jobs
        .iter()
        .map(|job| job.label.clone())
        .collect();
    let machines = runner.config().total_machines() as u32;
    let traffic_seed = SimRng::new(seed).fork(0x7AFF1C).seed();
    TrafficGenerator::new(TrafficConfig::new(
        traffic_seed,
        labels,
        machines,
        HORIZON_HOURS,
    ))
}

/// The deterministic outcome of a drill.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    fleet: FleetSummary,
    alert_recall: f64,
}

impl Outcome {
    fn of(report: &FleetReport) -> Outcome {
        Outcome {
            fleet: FleetSummary::of(report),
            alert_recall: score_alerts(&report.alerts, &report.fault_windows()).recall,
        }
    }
}

/// One drill run alone on this thread, with every layer attached: the write
/// path's throughput, which the reader's interference on a small host would
/// otherwise swamp.
struct Solo {
    wall: f64,
    usage: Usage,
    outcome: Outcome,
}

fn solo(spill_dir: &Path) -> Solo {
    let service = WarehouseService::new(CACHE_BUDGET);
    let runner = FleetRunner::new(config(spill_dir, &service), DRILL_SEED);
    let before = Usage::thread();
    let start = Instant::now();
    let report = runner.run_stepped(SchedulerKind::Heap, SteppingMode::Serial);
    let wall = start.elapsed().as_secs_f64();
    let usage = Usage::thread().since(&before);
    // Reading the outcome faults spilled shards back in.
    let outcome = Outcome::of(&report);
    let _ = std::fs::remove_dir_all(spill_dir);
    Solo {
        wall,
        usage,
        outcome,
    }
}

/// What one read round measured.
struct Round {
    runner: FleetRunner,
    report: FleetReport,
    stats: ServiceStats,
    reader_wall: f64,
    live: Latencies,
    sealed: Latencies,
}

/// One read round: the drill beside the closed-loop reader (the read path,
/// and the checks). Its outcome must equal the drill's outcome alone.
fn round(options: &Options, spill_dir: &Path, alone: &Outcome, checks: &mut Checks) -> Round {
    let service = WarehouseService::new(CACHE_BUDGET);
    let runner = FleetRunner::new(config(spill_dir, &service), DRILL_SEED);
    let generator = traffic(&runner, options.seed);
    let mut live = Latencies::new();
    let mut sealed = Latencies::new();
    let mut answered = 0u64;
    // (query index, serving epoch, fingerprint of the rendered answer): a
    // rendered answer can be large, and keeping them would make peak memory
    // depend on how many queries the reader got through.
    let mut samples: Vec<(u64, u64, u64)> = Vec::new();

    let (report, reader_wall) = std::thread::scope(|scope| {
        let drill = scope.spawn(|| runner.run_stepped(SchedulerKind::Heap, SteppingMode::Serial));
        let reader_start = Instant::now();
        let mut sealed_answers = 0u64;
        while sealed_answers < SEALED_QUERIES {
            let query = generator.query(answered);
            let is_sealed = service.is_sealed();
            let start = Instant::now();
            let Some((response, epoch)) = service.answer(&query) else {
                // Nothing published yet: ask again.
                std::hint::spin_loop();
                continue;
            };
            let elapsed = start.elapsed();
            if is_sealed {
                sealed.record(elapsed);
                sealed_answers += 1;
            } else {
                live.record(elapsed);
            }
            if answered.is_multiple_of(SAMPLE_EVERY) {
                samples.push((answered, epoch, fingerprint(&response.render())));
            }
            answered += 1;
        }
        let reader_wall = reader_start.elapsed().as_secs_f64();
        (
            drill.join().expect("the drill thread panicked"),
            reader_wall,
        )
    });
    // Concurrent reads must not change what the drill does.
    checks.same(
        "drill outcome beside the reader",
        alone,
        &Outcome::of(&report),
    );

    // Every sampled live answer must replay byte-identically from the
    // snapshot of the epoch that served it.
    for (index, epoch, live) in &samples {
        let replayed = service
            .snapshot_at(*epoch)
            .and_then(|snapshot| snapshot.answer(&generator.query(*index)))
            .map(|(response, _)| fingerprint(&response.render()));
        checks.check(replayed == Some(*live), || {
            format!("query {index} answered at epoch {epoch} does not replay")
        });
    }
    // The planner must agree with the linear-scan oracle at the final epoch.
    let last = service.latest().expect("a sealed service has epochs");
    let stride = (answered / ORACLE_SAMPLES).max(1);
    for index in (0..answered).step_by(stride as usize) {
        let query = generator.query(index);
        let planned = last.answer(&query).map(|(response, _)| response.render());
        let oracle = last.oracle_answer(&query).map(|response| response.render());
        checks.check(planned == oracle, || {
            format!("planner and oracle disagree on query {index}")
        });
    }
    Round {
        runner,
        report,
        stats: service.stats(),
        reader_wall,
        live,
        sealed,
    }
}

pub fn run(options: &Options, scratch: &Path, metrics: &mut Metrics, checks: &mut Checks) {
    let setup_dir = scratch.join("setup");
    let setup_s = median_setup(|| {
        let service = WarehouseService::new(CACHE_BUDGET);
        let runner = FleetRunner::new(config(&setup_dir, &service), DRILL_SEED);
        let generator = traffic(&runner, options.seed);
        (build_worlds(&runner), generator)
    });
    metrics.set("setup_s", setup_s);

    // The write path first, before any reader has run in this process: an
    // untimed warm-up drill, then drills alone for `WRITE_SHARE` of the run.
    let start = Instant::now();
    let first = solo(&scratch.join("warm-up")).outcome;
    first.fleet.check(checks, EVENT_FLOOR);
    let mut rates = Vec::new();
    let mut last_solo = None;
    while rates.len() < MIN_SOLO_DRILLS
        || start.elapsed().as_secs_f64() < WRITE_SHARE * options.seconds
    {
        let drill = solo(&scratch.join(format!("solo-{}", rates.len())));
        checks.same("drill outcome", &first, &drill.outcome);
        rates.push(first.fleet.events as f64 / drill.wall);
        last_solo = Some(drill);
    }
    let last_solo = last_solo.expect("at least one timed drill");
    metrics.set("events_per_s", median(&rates));
    metrics.set("fleet_ettr", first.fleet.ettr);
    metrics.set("attribution_accuracy", first.fleet.accuracy);
    metrics.note(format!("events_per_s per drill: {rates:.1?}"));

    // Then the read path, until the run's time is up.
    let mut live = Latencies::new();
    let mut sealed = Latencies::new();
    let mut reader_wall = 0.0;
    let mut rounds = 0usize;
    let last = loop {
        let spill_dir = scratch.join(format!("round-{rounds}"));
        let round = round(options, &spill_dir, &first, checks);
        rounds += 1;
        reader_wall += round.reader_wall;
        live.merge(&round.live);
        sealed.merge(&round.sealed);
        if start.elapsed().as_secs_f64() >= options.seconds {
            break round;
        }
        let _ = std::fs::remove_dir_all(&spill_dir);
    };

    let mut all = live.clone();
    all.merge(&sealed);
    let queries = all.percentiles().expect("the reader answered queries");
    checks.check(queries.p99.is_some(), || {
        format!("{} queries are too few for a p99", queries.count)
    });
    metrics.set("query_qps", queries.count as f64 / reader_wall);
    metrics.set("query_p50_us", queries.p50);
    metrics.set("query_p99_us", queries.p99.unwrap_or(queries.tail));
    metrics.set("query_samples", queries.count as f64);
    metrics.note(format!("query latency: {}", queries.describe("us")));
    metrics.set("alert_recall", first.alert_recall);

    if options.trace {
        let report = &last.report;
        report_runner(metrics, report, last_solo.wall, last_solo.usage);
        // Read before the replay faults shards in from the run's segments.
        let spill = report.warehouse.spill_stats();
        metrics.set(
            "warehouse.spill.segments_written",
            spill.segments_written as f64,
        );
        metrics.set(
            "warehouse.spill.bytes_written",
            spill.spill_bytes_written as f64,
        );
        metrics.set("warehouse.fault_ins", spill.fault_ins as f64);
        metrics.set("warehouse.fault_in_bytes", spill.fault_in_bytes as f64);
        metrics.set_p99("service.answer.live_p99_us", live.percentiles());
        metrics.set_p99("service.answer.sealed_p99_us", sealed.percentiles());
        let stats = &last.stats;
        for (label, count) in &stats.plans {
            let name = format!("service.plan.{label}");
            if unit_of(&name).is_some() {
                metrics.set(&name, *count as f64);
            } else {
                metrics.note(format!("unlisted plan {label}: {count}"));
            }
        }
        let cache = stats.cache;
        metrics.set("service.cache.hits", cache.hits as f64);
        metrics.set("service.cache.faults", cache.faults as f64);
        metrics.set("service.cache.evictions", cache.evictions as f64);
        metrics.set(
            "service.cache.hit_ratio",
            cache.hits as f64 / (cache.hits + cache.faults).max(1) as f64,
        );

        let runner = &last.runner;
        let rules = RuleSet::default_rules();
        let mut tracer = Tracer::new();
        let replay_start = Instant::now();
        let mut replayed = replay::replay_jobs(&mut tracer, runner.config(), &runner.job_seeds());
        let (warehouse_len, offender_changes) = replay::replay_ingest(
            &mut tracer,
            runner.config(),
            report,
            Attached {
                storage: Some(WarehouseStorage::new(SPILL_BUDGET, scratch.join("replay"))),
                service: true,
                rules: Some(&rules),
            },
        );
        replayed.warehouse_len = warehouse_len;
        let replay_wall = replay_start.elapsed().as_secs_f64();
        metrics.set("ledger.offender_changes", offender_changes as f64);
        replay::report_layers(
            &tracer,
            metrics,
            checks,
            first.fleet.work(),
            last_solo.wall,
            replayed,
            replay_wall,
        );
    }
}
