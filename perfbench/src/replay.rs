//! The traced replay. A fleet run is one opaque call, so the traced run
//! feeds the untraced run's own inputs through each layer's public
//! functions, with a span around every call:
//!
//! * the job seeds drive `JobExecution::new` / `advance` (core.lifecycle);
//! * the run's dossiers, in sim-time order, go through
//!   `RepeatOffenderLedger::observe`, `IncidentWarehouse::insert_shared`,
//!   `WarehouseService::publish`, and `SignalBus::publish` +
//!   `AlertEngine::evaluate` — each only when the untraced run had that
//!   layer attached.
//!
//! Replayed jobs draw standbys from their own pools rather than the shared
//! one, and the alert engine is evaluated once per incident rather than once
//! per event, so replayed work counts are printed beside the run's.

use std::sync::Arc;

use byterobust_core::{
    JobConfig, JobExecution, ResolutionMechanism, RobustController, SegmentOutcome,
};
use byterobust_fleet::{
    FleetConfig, FleetReport, IncidentWarehouse, RepeatOffenderLedger, WarehouseService,
    WarehouseStorage,
};
use byterobust_incident::{IncidentDossier, RecoveryPhase};
use byterobust_obs::{signals, AlertEngine, RuleSet, SignalBus};
use byterobust_sim::SimTime;

use crate::checks::Checks;
use crate::metrics::{Metrics, Percentiles};
use crate::trace::Tracer;

/// The metric suffix of a resolution mechanism.
pub fn mechanism_key(mechanism: ResolutionMechanism) -> &'static str {
    match mechanism {
        ResolutionMechanism::ImmediateEviction => "immediate_eviction",
        ResolutionMechanism::StopTimeEviction => "stop_time_eviction",
        ResolutionMechanism::Reattempt => "reattempt",
        ResolutionMechanism::Rollback => "rollback",
        ResolutionMechanism::DualPhaseReplay => "dual_phase_replay",
        ResolutionMechanism::AnalyzerEviction => "analyzer_eviction",
        ResolutionMechanism::HotUpdate => "hot_update",
    }
}

/// Every advance tag: one per mechanism, plus `finished`.
pub const ADVANCE_TAGS: [&str; 8] = [
    "immediate_eviction",
    "stop_time_eviction",
    "reattempt",
    "rollback",
    "dual_phase_replay",
    "analyzer_eviction",
    "hot_update",
    "finished",
];

/// Work a replay (or a run) did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    pub events: u64,
    pub incidents: u64,
    pub warehouse_len: u64,
}

/// Replays one job to its end through the lifecycle layer. `lean` mirrors
/// the runner's lean-trace mode, which turns the controller's spans off.
pub fn replay_job(tracer: &mut Tracer, config: &JobConfig, seed: u64, lean: bool) -> Work {
    let job = tracer.open("replay.job", None);
    let (mut execution, _) = tracer.span("lifecycle.new", Some(job), || {
        JobExecution::new(config.clone(), seed)
    });
    if lean {
        execution.controller_mut().trace_mut().disable();
    }
    let mut work = Work::default();
    while !execution.is_finished() {
        let (outcome, span) = tracer.span("lifecycle.advance", Some(job), || execution.advance());
        work.events += 1;
        let tag = match outcome {
            SegmentOutcome::Finished => "finished",
            SegmentOutcome::Incident { seq } => {
                work.incidents += 1;
                let dossier = execution
                    .incident_store()
                    .get(seq)
                    .expect("a handled incident is stored");
                mechanism_key(dossier.mechanism)
            }
        };
        tracer.tag(span, tag);
    }
    tracer.close(job);
    work
}

/// Replays every job of a fleet through the lifecycle layer.
pub fn replay_jobs(tracer: &mut Tracer, config: &FleetConfig, seeds: &[u64]) -> Work {
    let mut total = Work::default();
    for (job, &seed) in config.jobs.iter().zip(seeds) {
        let work = replay_job(tracer, &job.config, seed, config.lean_trace);
        total.events += work.events;
        total.incidents += work.incidents;
    }
    total
}

/// The alert tap the runner builds, rebuilt from public parts: the same
/// signals, published from each dossier.
struct AlertReplay {
    bus: SignalBus,
    engine: AlertEngine,
    incidents: byterobust_obs::SignalId,
    evictions: byterobust_obs::SignalId,
    recovery_secs: byterobust_obs::SignalId,
    phases: Vec<(RecoveryPhase, byterobust_obs::SignalId)>,
    job_incidents: Vec<byterobust_obs::SignalId>,
}

impl AlertReplay {
    fn new(rules: &RuleSet, config: &FleetConfig) -> AlertReplay {
        let mut bus = SignalBus::new();
        let incidents = bus.register(signals::INCIDENTS);
        let evictions = bus.register(signals::EVICTIONS);
        let recovery_secs = bus.register(signals::RECOVERY_SECS);
        let phases = RecoveryPhase::ALL
            .iter()
            .map(|&phase| (phase, bus.register(&signals::recovery_phase(phase.name()))))
            .collect();
        let job_incidents = config
            .jobs
            .iter()
            .map(|job| bus.register(&signals::job_incidents(&job.label)))
            .collect();
        AlertReplay {
            engine: AlertEngine::new(rules),
            bus,
            incidents,
            evictions,
            recovery_secs,
            phases,
            job_incidents,
        }
    }

    fn publish(&mut self, job: usize, dossier: &IncidentDossier) {
        let at = dossier.at;
        self.bus.publish(self.incidents, at, 1.0);
        self.bus.publish(self.job_incidents[job], at, 1.0);
        if !dossier.evicted.is_empty() {
            self.bus
                .publish(self.evictions, at, dossier.evicted.len() as f64);
        }
        self.bus
            .publish(self.recovery_secs, at, dossier.cost.total().as_secs_f64());
        for (phase, duration) in RobustController::recovery_phases(&dossier.cost) {
            if !duration.is_zero() {
                if let Some(&(_, id)) = self.phases.iter().find(|(p, _)| *p == phase) {
                    self.bus.publish(id, at, duration.as_secs_f64());
                }
            }
        }
    }
}

/// Which layers the untraced run had attached beside the warehouse.
pub struct Attached<'a> {
    pub storage: Option<WarehouseStorage>,
    pub service: bool,
    pub rules: Option<&'a RuleSet>,
}

/// Feeds the run's dossiers, in sim-time order, through the ledger, the
/// warehouse and whatever else was attached. Returns the replayed
/// warehouse's length and the number of offender-set changes.
pub fn replay_ingest(
    tracer: &mut Tracer,
    config: &FleetConfig,
    report: &FleetReport,
    attached: Attached<'_>,
) -> (u64, u64) {
    let mut dossiers: Vec<(SimTime, usize, u64, Arc<IncidentDossier>)> = Vec::new();
    for (index, job) in config.jobs.iter().enumerate() {
        if let Some(shard) = report.warehouse.shard(&job.label) {
            dossiers.extend(
                shard
                    .all()
                    .iter()
                    .map(|dossier| (dossier.at, index, dossier.seq, Arc::clone(dossier))),
            );
        }
    }
    dossiers.sort_unstable_by_key(|&(at, index, seq, _)| (at, index, seq));

    let mut ledger = RepeatOffenderLedger::new(config.repeat_offender_threshold);
    let mut warehouse = match attached.storage {
        Some(storage) => IncidentWarehouse::with_storage(config.bucket_width, storage),
        None => IncidentWarehouse::new(config.bucket_width),
    };
    let service = attached.service.then(WarehouseService::default);
    let mut alerts = attached.rules.map(|rules| AlertReplay::new(rules, config));
    let mut offender_changes = 0u64;
    for (at, index, _, dossier) in dossiers {
        let (changed, _) = tracer.span("ledger.observe", None, || ledger.observe(&dossier));
        offender_changes += u64::from(changed);
        let label = &config.jobs[index].label;
        tracer.span("warehouse.insert", None, || {
            warehouse.insert_shared(label, Arc::clone(&dossier))
        });
        if let Some(service) = &service {
            tracer.span("service.publish", None, || service.publish(&warehouse));
        }
        if let Some(alerts) = alerts.as_mut() {
            tracer.span("alert.publish", None, || alerts.publish(index, &dossier));
            let AlertReplay { bus, engine, .. } = alerts;
            tracer.span("alert.evaluate", None, || engine.evaluate(bus, at));
        }
    }
    (warehouse.len() as u64, offender_changes)
}

/// The layers whose busy time the replay measures; with the unattributed
/// remainder they account for the run's wall time.
const LAYERS: [&str; 7] = [
    "lifecycle.new",
    "lifecycle.advance",
    "warehouse.insert",
    "service.publish",
    "ledger.observe",
    "alert.publish",
    "alert.evaluate",
];

/// Sets the per-layer metrics from the replay's spans, the cross-check
/// metrics from both sides, and prints the cross-check.
pub fn report_layers(
    tracer: &Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
    run: Work,
    run_wall_s: f64,
    replay: Work,
    replay_wall_s: f64,
) {
    metrics.set("lifecycle.new_s", tracer.busy_s("lifecycle.new"));
    metrics.set(
        "lifecycle.advance.calls",
        tracer.calls("lifecycle.advance") as f64,
    );
    metrics.set(
        "lifecycle.advance.busy_s",
        tracer.busy_s("lifecycle.advance"),
    );
    let advance = Percentiles::of(&mut tracer.durations_us("lifecycle.advance"));
    if let Some(summary) = advance {
        metrics.set("lifecycle.advance.p50_us", summary.p50);
    }
    metrics.set_p99("lifecycle.advance.p99_us", advance);
    let mut split = 0.0;
    for tag in ADVANCE_TAGS {
        let busy = tracer.busy_tagged_s("lifecycle.advance", tag);
        metrics.set(&format!("lifecycle.advance.busy_s.{tag}"), busy);
        split += busy;
    }
    let advance_busy = tracer.busy_s("lifecycle.advance");
    checks.check(
        (split - advance_busy).abs() <= 1e-6 * advance_busy.max(1.0),
        || format!("advance split {split}s does not account for {advance_busy}s"),
    );
    metrics.set(
        "warehouse.insert.calls",
        tracer.calls("warehouse.insert") as f64,
    );
    metrics.set("warehouse.insert.busy_s", tracer.busy_s("warehouse.insert"));
    metrics.set_p99(
        "warehouse.insert.p99_us",
        Percentiles::of(&mut tracer.durations_us("warehouse.insert")),
    );
    metrics.set(
        "service.publish.calls",
        tracer.calls("service.publish") as f64,
    );
    metrics.set("service.publish.busy_s", tracer.busy_s("service.publish"));
    metrics.set("ledger.observe.busy_s", tracer.busy_s("ledger.observe"));
    metrics.set("alert.publish.busy_s", tracer.busy_s("alert.publish"));
    metrics.set(
        "alert.evaluate.calls",
        tracer.calls("alert.evaluate") as f64,
    );
    metrics.set("alert.evaluate.busy_s", tracer.busy_s("alert.evaluate"));

    let busy: f64 = LAYERS.iter().map(|layer| tracer.busy_s(layer)).sum();
    let unattributed = run_wall_s - busy;
    metrics.set("runner.unattributed_s", unattributed);
    for (side, work, wall) in [("run", run, run_wall_s), ("replay", replay, replay_wall_s)] {
        metrics.set(&format!("{side}.events"), work.events as f64);
        metrics.set(&format!("{side}.incidents"), work.incidents as f64);
        metrics.set(&format!("{side}.warehouse_len"), work.warehouse_len as f64);
        metrics.set(&format!("{side}.wall_s"), wall);
    }
    print!("{}", tracer.render_summary());
    println!(
        "cross-check: run events {} incidents {} warehouse {} wall {:.6}s | \
         replay events {} incidents {} warehouse {} wall {:.6}s",
        run.events,
        run.incidents,
        run.warehouse_len,
        run_wall_s,
        replay.events,
        replay.incidents,
        replay.warehouse_len,
        replay_wall_s
    );
    println!(
        "cross-check: layer busy {busy:.6}s + unattributed {unattributed:.6}s = run wall {run_wall_s:.6}s"
    );
}
