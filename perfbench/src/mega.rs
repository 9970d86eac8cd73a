//! `mega_fleet`: `FleetConfig::mega_drill()` (600 jobs, 52,224 machines,
//! about a million events) through the batched stepper, with no service,
//! alerts or spill attached. The fleet event loop dominates: batching,
//! cheap per-event advances of 64/128-machine jobs, scheduler picks and
//! warehouse inserts.
//!
//! The drill steps serially. On a two-core host the default parallel
//! stepping (`FleetRunner::run()`) spread from 24.6k to 42.9k events/s over
//! four runs, wider than any regression bound; serial stepping, the
//! byte-identity oracle of the parallel path, spread no more than the
//! host's own drift.
//! The traced run also makes one default `run()` and reports its rate and
//! CPU split beside the layers, so the stepper's cost stays visible.

use std::time::Instant;

use byterobust_fleet::{FleetConfig, FleetReport, FleetRunner, SchedulerKind, SteppingMode};

use crate::checks::Checks;
use crate::fleet::{build_worlds, median_setup, report_runner, FleetSummary};
use crate::host::Usage;
use crate::metrics::{median, Metrics};
use crate::replay::{self, Attached};
use crate::trace::Tracer;
use crate::Options;

/// The drill commits about a million events on every seed; fewer means the
/// run stopped early.
const EVENT_FLOOR: u64 = 900_000;

pub fn run(options: &Options, metrics: &mut Metrics, checks: &mut Checks) {
    let setup_s = median_setup(|| {
        let runner = FleetRunner::new(FleetConfig::mega_drill(), options.seed);
        build_worlds(&runner)
    });
    metrics.set("setup_s", setup_s);

    let runner = FleetRunner::new(FleetConfig::mega_drill(), options.seed);
    // The traced run measures one default `run()` first, before the serial
    // rounds, so that the two drills' memory never adds up.
    let default_run = options.trace.then(|| {
        let before = Usage::now();
        let start = Instant::now();
        let report = runner.run();
        let wall = start.elapsed().as_secs_f64();
        (FleetSummary::of(&report), wall, Usage::now().since(&before))
    });
    let start = Instant::now();
    let mut first: Option<FleetSummary> = None;
    let mut rates = Vec::new();
    let mut last: Option<(FleetReport, f64, Usage)> = None;
    loop {
        // One drill's report is over a gigabyte: free the last before the
        // next run starts.
        drop(last.take());
        let before = Usage::now();
        let run_start = Instant::now();
        let report = runner.run_stepped(SchedulerKind::Heap, SteppingMode::Serial);
        let wall = run_start.elapsed().as_secs_f64();
        let used = Usage::now().since(&before);
        let summary = FleetSummary::of(&report);
        summary.check(checks, EVENT_FLOOR);
        match &first {
            Some(first) => checks.same("mega drill outcome", first, &summary),
            None => first = Some(summary.clone()),
        }
        rates.push(summary.events as f64 / wall);
        last = Some((report, wall, used));
        if start.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }
    let first = first.expect("at least one round");
    metrics.set("events_per_s", median(&rates));
    metrics.set("fleet_ettr", first.ettr);
    metrics.set("attribution_accuracy", first.accuracy);
    metrics.note(format!("events_per_s per round: {rates:.1?}"));

    if options.trace {
        let (report, wall, used) = last.expect("at least one round");
        report_runner(metrics, &report, wall, used);

        let mut tracer = Tracer::new();
        let replay_start = Instant::now();
        let mut replayed = replay::replay_jobs(&mut tracer, runner.config(), &runner.job_seeds());
        let (warehouse_len, offender_changes) = replay::replay_ingest(
            &mut tracer,
            runner.config(),
            &report,
            Attached {
                storage: None,
                service: false,
                rules: None,
            },
        );
        replayed.warehouse_len = warehouse_len;
        let replay_wall = replay_start.elapsed().as_secs_f64();
        metrics.set("ledger.offender_changes", offender_changes as f64);
        replay::report_layers(
            &tracer,
            metrics,
            checks,
            first.work(),
            wall,
            replayed,
            replay_wall,
        );

        let (summary, wall, used) = default_run.expect("measured when tracing");
        checks.same("default-stepping outcome against serial", &first, &summary);
        metrics.set(
            "runner.default_run.events_per_s",
            summary.events as f64 / wall,
        );
        metrics.set("runner.default_run.cpu_sys_s", used.sys_s);
        metrics.set(
            "runner.default_run.cpu_util",
            (used.user_s + used.sys_s) / wall,
        );
    }
}
