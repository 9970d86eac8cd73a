//! `prod_job`: the two §8.1 production jobs (the three-month dense job and
//! the one-month MoE job, 9,600 GPUs each), advanced serially through
//! `JobExecution` over a fixed list of seeds. No fleet layer runs: per-
//! incident fault handling on a large world dominates, chiefly the
//! analyzer's stack aggregation.

use std::time::Instant;

use byterobust_core::{JobConfig, JobExecution, SegmentOutcome};
use byterobust_sim::SimRng;

use crate::checks::Checks;
use crate::fleet::median_setup;
use crate::metrics::{median, Metrics};
use crate::replay::{self, Work};
use crate::trace::Tracer;
use crate::Options;

/// The fixed job seeds. Each production job's cost depends strongly on its
/// seed (a few analyzer-driven incidents take most of the time), so the
/// list does not change with the workload seed: every run does the same
/// work, and the workload seed only sets the order the jobs run in.
const JOB_SEEDS: [u64; 4] = [11, 12, 13, 14];

/// Each production job handles hundreds of incidents on every seed.
const EVENT_FLOOR_PER_JOB: u64 = 100;

/// The round's job list: both production jobs on every fixed seed, in an
/// order drawn from the workload seed.
fn jobs(seed: u64) -> Vec<(JobConfig, u64)> {
    let mut jobs = Vec::new();
    for config in [
        JobConfig::production_dense_three_months(),
        JobConfig::production_moe_one_month(),
    ] {
        for job_seed in JOB_SEEDS {
            jobs.push((config.clone(), job_seed));
        }
    }
    let mut rng = SimRng::new(seed);
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.index(i + 1));
    }
    jobs
}

/// The deterministic outcome of one round.
#[derive(Debug, Clone, Default, PartialEq)]
struct RoundOutcome {
    events: u64,
    incidents: u64,
    productive_s: f64,
    total_s: f64,
    attributed: usize,
    dossiers: usize,
}

/// Runs one job to its end and folds its outcome into `outcome`.
fn run_job(config: &JobConfig, seed: u64, outcome: &mut RoundOutcome, checks: &mut Checks) {
    let mut execution = JobExecution::new(config.clone(), seed);
    let mut events = 0u64;
    let mut incidents = 0u64;
    while !execution.is_finished() {
        events += 1;
        if let SegmentOutcome::Incident { .. } = execution.advance() {
            incidents += 1;
        }
    }
    let report = execution.into_report();
    let store = &report.incident_store;
    checks.check(
        store.len() as u64 == incidents && report.incidents.len() as u64 == incidents,
        || {
            format!(
                "{}: {incidents} incidents handled, {} stored, {} recorded",
                report.job_name,
                store.len(),
                report.incidents.len()
            )
        },
    );
    checks.check(events >= EVENT_FLOOR_PER_JOB, || {
        format!(
            "{}: {events} events, below {EVENT_FLOOR_PER_JOB}",
            report.job_name
        )
    });
    outcome.events += events;
    outcome.incidents += incidents;
    outcome.productive_s += report.ettr.productive_time().as_secs_f64();
    outcome.total_s += report.ettr.total_time().as_secs_f64();
    for (matching, total) in store.attribution_stats().values() {
        outcome.attributed += matching;
        outcome.dossiers += total;
    }
}

pub fn run(options: &Options, metrics: &mut Metrics, checks: &mut Checks) {
    let setup_s = median_setup(|| {
        jobs(options.seed)
            .into_iter()
            .map(|(config, seed)| JobExecution::new(config, seed))
            .collect::<Vec<_>>()
    });
    metrics.set("setup_s", setup_s);

    let jobs = jobs(options.seed);
    let start = Instant::now();
    let mut first: Option<RoundOutcome> = None;
    let mut rates = Vec::new();
    let mut last_wall;
    loop {
        let mut outcome = RoundOutcome::default();
        let round_start = Instant::now();
        for (config, seed) in &jobs {
            run_job(config, *seed, &mut outcome, checks);
        }
        last_wall = round_start.elapsed().as_secs_f64();
        rates.push(outcome.events as f64 / last_wall);
        match &first {
            Some(first) => checks.same("production jobs' outcome", first, &outcome),
            None => first = Some(outcome),
        }
        if start.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }
    let first = first.expect("at least one round");
    let ettr = first.productive_s / first.total_s;
    let accuracy = first.attributed as f64 / first.dossiers as f64;
    checks.check(ettr > 0.0 && ettr <= 1.0, || {
        format!("ETTR {ettr} not in (0, 1]")
    });
    checks.check(accuracy > 0.0 && accuracy <= 1.0, || {
        format!("attribution accuracy {accuracy} not in (0, 1]")
    });
    metrics.set("events_per_s", median(&rates));
    metrics.set("fleet_ettr", ettr);
    metrics.set("attribution_accuracy", accuracy);
    metrics.note(format!("events_per_s per round: {rates:.1?}"));

    if options.trace {
        let mut tracer = Tracer::new();
        let replay_start = Instant::now();
        let mut replayed = Work::default();
        for (config, seed) in &jobs {
            let work = replay::replay_job(&mut tracer, config, *seed, false);
            replayed.events += work.events;
            replayed.incidents += work.incidents;
        }
        let replay_wall = replay_start.elapsed().as_secs_f64();
        let ran = Work {
            events: first.events,
            incidents: first.incidents,
            warehouse_len: 0,
        };
        // Solo jobs replay exactly: the traced run did the untraced work.
        checks.same("replayed production work", &ran, &replayed);
        replay::report_layers(
            &tracer,
            metrics,
            checks,
            ran,
            last_wall,
            replayed,
            replay_wall,
        );
    }
}
