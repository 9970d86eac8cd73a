//! The set-up timer every workload uses, and what the fleet workloads share:
//! building the initial world, and the deterministic summary of a finished
//! run with its checks.

use std::time::Instant;

use byterobust_core::JobExecution;
use byterobust_fleet::{FleetReport, FleetRunner};

use crate::checks::Checks;
use crate::host::Usage;
use crate::metrics::{median, Metrics};
use crate::replay::Work;

/// Set-up repeats at least this often, and for at least `SETUP_BUDGET_S`
/// seconds in total; `setup_s` reports the median repetition. A set-up of a
/// few milliseconds is noisy, so cheap set-ups repeat many times. On a
/// shared host a cheap set-up runs at one of two speeds, up to 1.7x apart,
/// in periods of a second or more; two seconds of repetitions span several
/// such periods, so a whole run less often lands in the slow one.
const SETUP_REPS: usize = 11;
const SETUP_BUDGET_S: f64 = 2.0;

/// Times `setup` repeatedly and returns the median in seconds. The value
/// `setup` returns is dropped outside the timed region.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> f64 {
    let mut times = Vec::new();
    let mut total = 0.0;
    while times.len() < SETUP_REPS || total < SETUP_BUDGET_S {
        let start = Instant::now();
        let built = setup();
        let elapsed = start.elapsed().as_secs_f64();
        drop(built);
        times.push(elapsed);
        total += elapsed;
    }
    median(&times)
}

/// Every job's initial world, built exactly as the runner builds it: the
/// expensive part of preparing a fleet run.
pub fn build_worlds(runner: &FleetRunner) -> Vec<JobExecution> {
    runner
        .config()
        .jobs
        .iter()
        .zip(runner.job_seeds())
        .map(|(job, seed)| JobExecution::new(job.config.clone(), seed))
        .collect()
}

/// The deterministic outcome of a fleet run: a pure function of the
/// configuration and the seed, so it must repeat exactly across rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    pub events: u64,
    pub incidents: u64,
    pub warehouse_len: u64,
    pub ettr: f64,
    pub accuracy: f64,
}

impl FleetSummary {
    pub fn of(report: &FleetReport) -> FleetSummary {
        FleetSummary {
            events: report.events_processed as u64,
            incidents: report.total_incidents() as u64,
            warehouse_len: report.warehouse.len() as u64,
            ettr: report.fleet_ettr(),
            accuracy: report.warehouse.attribution_accuracy(),
        }
    }

    pub fn work(&self) -> Work {
        Work {
            events: self.events,
            incidents: self.incidents,
            warehouse_len: self.warehouse_len,
        }
    }

    /// The per-run checks: every incident reached the warehouse, the run did
    /// the work it should, and the ratios are ratios.
    pub fn check(&self, checks: &mut Checks, event_floor: u64) {
        checks.check(self.warehouse_len == self.incidents, || {
            format!(
                "warehouse holds {} dossiers for {} incidents",
                self.warehouse_len, self.incidents
            )
        });
        checks.check(self.events >= event_floor, || {
            format!("{} events, below the floor of {event_floor}", self.events)
        });
        checks.check(self.ettr > 0.0 && self.ettr <= 1.0, || {
            format!("fleet ETTR {} is not in (0, 1]", self.ettr)
        });
        checks.check(self.accuracy > 0.0 && self.accuracy <= 1.0, || {
            format!("attribution accuracy {} is not in (0, 1]", self.accuracy)
        });
    }
}

/// Sets the fleet.runner counters of a drill that took `wall` seconds and
/// `usage`, and the fleet.scheduler counters from its report.
pub fn report_runner(metrics: &mut Metrics, report: &FleetReport, wall: f64, usage: Usage) {
    metrics.set("runner.cpu_user_s", usage.user_s);
    metrics.set("runner.cpu_sys_s", usage.sys_s);
    metrics.set("runner.cpu_util", (usage.user_s + usage.sys_s) / wall);
    metrics.set("runner.ctx_switches", usage.ctx_switches as f64);
    let ops = report.scheduler_ops;
    metrics.set("scheduler.picks", ops.picks as f64);
    metrics.set("scheduler.heap_pushes", ops.heap_pushes as f64);
    metrics.set("scheduler.stale_drops", ops.stale_drops as f64);
    metrics.set("scheduler.tie_draws", ops.tie_draws as f64);
}
