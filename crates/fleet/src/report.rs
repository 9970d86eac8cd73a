//! The fleet report: per-job results plus the fleet-level aggregates, with a
//! deterministic plain-text rendering.
//!
//! The warehouse is the only owner of a fleet run's incidents. A
//! [`FleetJobReport`] keeps its job's aggregates and incident count; every
//! per-incident figure is read off the warehouse snapshot, and
//! [`FleetReport::job_report`] reassembles a solo-shaped [`JobReport`] from
//! the aggregates and the job's shard.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use byterobust_cluster::{FaultCategory, MachineId, MigrationRecord};
use byterobust_core::report::SeriesPoint;
use byterobust_core::{EttrTracker, IncidentRecord, JobReport};
use byterobust_incident::{Escalation, IncidentDossier, Severity};
use byterobust_obs::{AlertTimeline, FaultWindow, Trace};

use crate::broker::BrokerSummary;
use crate::drainer::CompletedSweep;
use crate::query::{alert_get, FleetQuery, QueryResponse};
use crate::scheduler::SchedulerOps;
use crate::warehouse::IncidentWarehouse;

/// One job's slice of the fleet run: its aggregates. Its dossiers live in
/// the warehouse shard under `label`.
#[derive(Debug, Clone)]
pub struct FleetJobReport {
    /// The fleet label (warehouse shard key).
    pub label: String,
    /// The per-job seed forked from the fleet seed.
    pub seed: u64,
    /// Machines the job occupies.
    pub machines: usize,
    /// Incidents the job handled, counted from its advance outcomes rather
    /// than read off the warehouse.
    pub incidents: usize,
    /// The job's name, as a solo report carries it.
    pub job_name: String,
    /// ETTR accounting.
    pub ettr: EttrTracker,
    /// Absolute MFU over time (one sample per productive interval); the
    /// loss curve is derived from its steps ([`JobReport::loss_series`]).
    pub mfu_series: Vec<SeriesPoint>,
    /// Final optimizer step reached.
    pub final_step: u64,
    /// Number of code versions deployed over the job (hot updates applied).
    pub code_versions_deployed: u32,
}

/// What the backlog drainer processed over the run.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Stress-test sweeps dispatched from `StressTestSweep` backlog items.
    pub sweeps_dispatched: usize,
    /// Sweeps that completed while jobs were still running (their cleared
    /// machines re-entered the shared pool in-run).
    pub sweeps_completed_in_run: usize,
    /// Sweeps that completed only at the fleet horizon.
    pub sweeps_completed_post_run: usize,
    /// Machines that passed a sweep and returned to the shared standby pool.
    pub machines_returned_to_standby: usize,
    /// Machines a sweep confirmed faulty (they keep their hardware tickets).
    pub machines_confirmed_faulty: usize,
    /// Every escalation the backlog produced, by kind.
    pub escalation_counts: BTreeMap<Escalation, usize>,
}

/// The result of one fleet run. [`FleetReport::render`] is byte-identical
/// across runs with the same seed.
#[derive(Debug)]
pub struct FleetReport {
    /// The fleet seed.
    pub seed: u64,
    /// Per-job results, in fleet configuration order.
    pub jobs: Vec<FleetJobReport>,
    /// Scheduler events processed over the run (segments advanced: incidents
    /// plus job-end events). The numerator of the throughput benchmarks;
    /// deliberately not rendered so `render()` stays comparable across
    /// scheduler implementations by construction.
    pub events_processed: usize,
    /// The merged sim-time trace: every controller's incident spans under
    /// its job label, plus the fleet scope (job stepping, warehouse inserts,
    /// broker interventions). A pure function of the seed; the rendered
    /// report carries only its span-kind digest.
    pub trace: Trace,
    /// Scheduler operation counters. Self-profiling domain — heap and naive
    /// runs differ here by design — so, like `events_processed`, deliberately
    /// never rendered.
    pub scheduler_ops: SchedulerOps,
    /// The cross-job incident warehouse, the only owner of the run's
    /// dossiers (read through its [`snapshot`](IncidentWarehouse::snapshot)).
    pub warehouse: IncidentWarehouse,
    /// Every completed stress-test sweep, in completion order.
    pub completed_sweeps: Vec<CompletedSweep>,
    /// Backlog-drain totals.
    pub drain: DrainSummary,
    /// Machines the ledger flagged, with their cross-job incident counts.
    pub repeat_offenders: Vec<(MachineId, usize)>,
    /// Incidents across jobs at or above which a machine was flagged.
    pub repeat_offender_threshold: usize,
    /// Target size of the shared warm-standby pool.
    pub shared_pool_target: usize,
    /// Standbys ready in the shared pool when the fleet finished.
    pub shared_pool_ready_final: usize,
    /// Grant requests the pool could not fully cover (capacity starvation).
    pub pool_shortfall_events: usize,
    /// Machines across all requests the pool could not cover.
    pub pool_shortfall_machines: usize,
    /// What per-job (unshared) P99 pools would have provisioned in total.
    pub solo_pool_sum: usize,
    /// Cross-job machine migrations the broker performed, in grant order.
    pub migrations: Vec<MigrationRecord>,
    /// What the fleet broker did (`None` when the broker was disabled). The
    /// rendered report only carries a broker section when the broker actually
    /// intervened, so a brokered run of a non-starved fleet stays
    /// byte-identical to a broker-disabled run.
    pub broker: Option<BrokerSummary>,
    /// The canonical alert timeline (empty unless
    /// [`crate::runner::FleetConfig::alert_rules`] was set). Sim-time domain:
    /// byte-identical across schedulers, spill modes, and host threading.
    /// Deliberately not part of [`FleetReport::render`] — attaching rules
    /// must leave the rendered report byte-identical — the digest is its own
    /// document, [`FleetReport::render_alert_digest`].
    pub alerts: AlertTimeline,
}

impl FleetReport {
    /// Answers any [`FleetQuery`] against the finished run — the post-hoc
    /// half of the unified query API. The warehouse arms (incidents,
    /// dossiers, digest) go through the warehouse's memoized
    /// [`EpochSnapshot`](crate::service::EpochSnapshot), the same read path
    /// live readers use; the span and alert arms filter the merged trace and
    /// the canonical alert timeline. Post-seal, every warehouse-backed
    /// answer renders byte-identical to
    /// [`WarehouseService::answer`](crate::service::WarehouseService::answer)
    /// at the final epoch (pinned by the agreement oracle) — same vocabulary,
    /// one read path.
    pub fn answer(&self, query: &FleetQuery) -> QueryResponse {
        match query {
            FleetQuery::Spans(inner) => QueryResponse::Spans(
                byterobust_obs::trace_get(&self.trace, inner)
                    .into_iter()
                    .cloned()
                    .collect(),
            ),
            FleetQuery::Alerts(inner) => QueryResponse::Alerts(
                self.alerts.rule_set.clone(),
                alert_get(&self.alerts, inner)
                    .into_iter()
                    .cloned()
                    .collect(),
            ),
            FleetQuery::Incidents(_) | FleetQuery::Dossiers(_) | FleetQuery::Digest => {
                let (response, _) = self
                    .warehouse
                    .snapshot()
                    .answer(query)
                    .expect("incidents, dossiers and digest are warehouse-backed");
                response
            }
        }
    }

    /// Fleet-wide effective-training-time ratio: total productive time over
    /// total accounted time, across every job.
    pub fn fleet_ettr(&self) -> f64 {
        let productive: f64 = self
            .jobs
            .iter()
            .map(|job| job.ettr.productive_time().as_secs_f64())
            .sum();
        let total: f64 = self
            .jobs
            .iter()
            .map(|job| job.ettr.total_time().as_secs_f64())
            .sum();
        if total <= 0.0 {
            1.0
        } else {
            productive / total
        }
    }

    /// Total incidents across the fleet: the sum of the per-job counts,
    /// independent of what the warehouse holds.
    pub fn total_incidents(&self) -> usize {
        self.jobs.iter().map(|job| job.incidents).sum()
    }

    /// Job `index`'s full report, identical to a solo run's: its aggregates
    /// plus its warehouse shard, with the records read off the shard's
    /// dossiers. For export; every other reader goes through the warehouse.
    pub fn job_report(&self, index: usize) -> JobReport {
        let job = &self.jobs[index];
        let incident_store = self
            .warehouse
            .shard(&job.label)
            .map(Arc::unwrap_or_clone)
            .unwrap_or_default();
        JobReport {
            job_name: job.job_name.clone(),
            ettr: job.ettr.clone(),
            mfu_series: job.mfu_series.clone(),
            incidents: IncidentRecord::all_of(&incident_store),
            incident_store,
            final_step: job.final_step,
            code_versions_deployed: job.code_versions_deployed,
        }
    }

    /// Visits every warehouse dossier with its job label: one pass over the
    /// snapshot, shard by shard.
    fn for_each_dossier<'a>(&'a self, mut visit: impl FnMut(&'a str, &IncidentDossier)) {
        let snapshot = self.warehouse.snapshot();
        snapshot.for_each_dossier(|shard, dossier| visit(snapshot.label(shard), dossier));
    }

    /// Fleet-wide unproductive time in seconds, across every job.
    pub fn fleet_unproductive_secs(&self) -> f64 {
        self.jobs
            .iter()
            .map(|job| {
                job.ettr.total_time().as_secs_f64() - job.ettr.productive_time().as_secs_f64()
            })
            .sum()
    }

    /// Incidents whose recovery was delayed by capacity starvation (the
    /// shared pool could not cover their evictions), per job label.
    pub fn starved_incidents_by_job(&self) -> BTreeMap<&str, usize> {
        let mut counts = BTreeMap::new();
        self.for_each_dossier(|label, dossier| {
            if dossier.capture.capacity_starved() {
                *counts.entry(label).or_insert(0) += 1;
            }
        });
        counts
    }

    /// Total capacity-starved incidents across the fleet.
    pub fn starved_incidents(&self) -> usize {
        self.starved_incidents_by_job().values().sum()
    }

    /// Ground truth for lead-time scoring: one [`FaultWindow`] per incident
    /// across every job — injection instant, end of the controller's own
    /// detection phase, end of the full recovery — sorted chronologically.
    /// Feed this with [`FleetReport::alerts`] to
    /// [`byterobust_obs::score_alerts`].
    pub fn fault_windows(&self) -> Vec<FaultWindow> {
        let mut windows = Vec::with_capacity(self.warehouse.len());
        self.for_each_dossier(|_, dossier| {
            windows.push(FaultWindow {
                injected_at: dossier.at,
                detected_at: dossier.at + dossier.cost.detection,
                closed_at: dossier.closed_at(),
            })
        });
        windows.sort();
        windows
    }

    /// Renders the alert digest (a separate document from
    /// [`FleetReport::render`], which stays byte-identical whether or not
    /// rules were attached). Deterministic like the timeline itself.
    pub fn render_alert_digest(&self) -> String {
        self.alerts.render_digest()
    }

    /// Renders the report as a deterministic plain-text document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "==== FleetReport: {} concurrent jobs (seed {}) ====",
            self.jobs.len(),
            self.seed
        );

        // Every warehouse figure below comes from one pass over the
        // snapshot, so each spilled segment is read once: per shard
        // (incidents, machines evicted, over-evictions), the severity and
        // category histograms, and the correctly attributed count.
        let warehouse = self.warehouse.snapshot();
        let mut shards: Vec<(usize, usize, usize)> = Vec::new();
        let mut severity: BTreeMap<Severity, usize> = BTreeMap::new();
        let mut category: BTreeMap<FaultCategory, usize> = BTreeMap::new();
        let mut attributed = 0;
        warehouse.for_each_dossier(|shard, dossier| {
            if shards.len() <= shard {
                shards.resize(shard + 1, (0, 0, 0));
            }
            let (evicted, over) = dossier.eviction_counts();
            let row = &mut shards[shard];
            *row = (row.0 + 1, row.1 + evicted, row.2 + over);
            *severity.entry(dossier.severity()).or_default() += 1;
            *category.entry(dossier.category).or_default() += 1;
            attributed += usize::from(dossier.concluded_cause == dossier.root_cause);
        });
        let rows: BTreeMap<&str, (usize, usize, usize)> = shards
            .into_iter()
            .enumerate()
            .map(|(shard, row)| (warehouse.label(shard), row))
            .collect();

        let _ = writeln!(out, "\n-- jobs");
        for job in &self.jobs {
            let (incidents, evicted, over) =
                rows.get(job.label.as_str()).copied().unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<12} machines {:>4} | incidents {:>3} | ETTR {:.4} | final step {:>6} | evicted {} ({} over)",
                job.label,
                job.machines,
                incidents,
                job.ettr.cumulative_ettr(),
                job.final_step,
                evicted,
                over,
            );
        }

        let _ = writeln!(
            out,
            "\n-- incident warehouse ({} incidents, {} shards)",
            warehouse.total(),
            warehouse.jobs().len()
        );
        for (severity, count) in severity {
            let _ = writeln!(out, "  {:>5}: {}", severity.label(), count);
        }
        for (category, count) in category {
            let _ = writeln!(out, "  {category:?}: {count}");
        }
        let accuracy = match warehouse.total() {
            0 => 1.0,
            total => attributed as f64 / total as f64,
        };
        let _ = writeln!(
            out,
            "  attribution accuracy (concluded vs ground truth): {accuracy:.4}"
        );

        let _ = writeln!(
            out,
            "\n-- repeat offenders (>= {} incidents across jobs)",
            self.repeat_offender_threshold
        );
        if self.repeat_offenders.is_empty() {
            let _ = writeln!(out, "  none");
        }
        for (machine, count) in &self.repeat_offenders {
            let _ = writeln!(out, "  {machine}: {count} incidents");
        }

        let _ = writeln!(out, "\n-- escalation backlog drained");
        for (escalation, count) in &self.drain.escalation_counts {
            let _ = writeln!(out, "  {escalation:?}: {count}");
        }
        let _ = writeln!(
            out,
            "  sweeps: {} dispatched, {} completed in-run, {} after the horizon",
            self.drain.sweeps_dispatched,
            self.drain.sweeps_completed_in_run,
            self.drain.sweeps_completed_post_run,
        );
        let _ = writeln!(
            out,
            "  swept machines returned to standby: {} | confirmed faulty: {}",
            self.drain.machines_returned_to_standby, self.drain.machines_confirmed_faulty,
        );
        for sweep in &self.completed_sweeps {
            let _ = writeln!(
                out,
                "  sweep {}#{} at {}: {} passed, {} failed",
                sweep.job,
                sweep.seq,
                sweep.completed_at,
                sweep.passed.len(),
                sweep.failed.len(),
            );
        }

        let _ = writeln!(
            out,
            "\n-- shared standby pool: target {} (vs {} if provisioned per job), {} ready at end",
            self.shared_pool_target, self.solo_pool_sum, self.shared_pool_ready_final,
        );
        let _ = writeln!(
            out,
            "  starvation: {} request(s) shortfalled ({} machine(s) uncovered by ready standbys)",
            self.pool_shortfall_events, self.pool_shortfall_machines,
        );

        // The broker section exists only when the broker intervened: a
        // brokered run of a non-starved fleet renders byte-identically to a
        // broker-disabled run.
        if let Some(broker) = self
            .broker
            .as_ref()
            .filter(|summary| summary.has_activity())
        {
            let _ = writeln!(out, "\n-- fleet broker");
            for line in &broker.lines {
                let _ = writeln!(out, "{line}");
            }
            let _ = writeln!(
                out,
                "  totals: {} slot(s) preempted, {} machine(s) migrated, {} job(s) queued, \
                 {} machine(s) still rescheduled",
                broker.preempted_slots,
                broker.migrated_machines,
                broker.queued_jobs,
                broker.residual_shortfall_machines,
            );
        }

        // Observability digest: span-kind counts from the merged sim-time
        // trace. Strictly sim-time domain (scheduler op counters and other
        // wall-clock self-profiling stay out), and zero-count kinds are
        // omitted, so a brokered-but-idle run still renders byte-identically
        // to a broker-disabled run.
        if !self.trace.spans.is_empty() {
            let _ = writeln!(
                out,
                "\n-- observability: {} trace span(s) across {} scope(s)",
                self.trace.spans.len(),
                self.trace.scopes().len(),
            );
            for (kind, count) in self.trace.counts_by_kind() {
                if count > 0 {
                    let _ = writeln!(out, "  {}: {}", kind.label(), count);
                }
            }
        }

        let _ = writeln!(
            out,
            "\nfleet ETTR = {:.4} over {} incidents",
            self.fleet_ettr(),
            self.total_incidents()
        );
        out
    }
}
