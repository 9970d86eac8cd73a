//! The fleet runner: N concurrent jobs, one shared standby pool, one event
//! loop.
//!
//! Each job is a steppable [`JobExecution`]; the runner repeatedly advances
//! the job whose next event (injected fault or job end) is earliest, which
//! keeps every draw on the shared warm-standby pool in global time order.
//! Job selection goes through the [`scheduler`](crate::scheduler) — an
//! O(log J) binary heap of `(next_event_at, job_index)` keys by default, with
//! the original O(J) linear scan retained as an oracle reference. Per-job
//! seeds are forked deterministically from the fleet seed, and ties between
//! simultaneous events are broken by a dedicated `SimRng` stream — the whole
//! interleaving is a pure function of the fleet seed and identical across
//! both schedulers.
//!
//! After every incident the runner shows the closed dossier to the
//! [`RepeatOffenderLedger`] (whose offender set is re-published to every
//! job's monitor behind an `Arc`, inside the event, only when the set
//! actually changed) and the [`BacklogDrainer`] (whose completed stress-test
//! sweeps return cleared machines to the shared pool), then moves it out of
//! its job's store into the [`IncidentWarehouse`], its only owner from then
//! on.

use byterobust_core::{JobConfig, JobExecution, RobustController, SegmentOutcome};
use byterobust_incident::{IncidentDossier, RecoveryPhase};
use byterobust_obs::{
    names, signals, AlertEngine, RuleSet, SignalBus, SignalId, SpanId, SpanKind, Trace,
    TraceRecorder,
};
use byterobust_recovery::WarmStandbyPool;
use byterobust_sim::{SimDuration, SimRng, SimTime};
use byterobust_trainsim::JobSpec;

use crate::broker::{BrokerConfig, BrokeredScheduler, FleetBroker, JobPriority};
use crate::drainer::BacklogDrainer;
use crate::ledger::RepeatOffenderLedger;
use crate::report::{DrainSummary, FleetJobReport, FleetReport};
use crate::scheduler::{EventScheduler, SchedulerKind};
use crate::service::WarehouseService;
use crate::warehouse::{IncidentWarehouse, WarehouseStorage};

/// One job in the fleet: a label (unique within the fleet) plus its
/// configuration and broker priority.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Display label; also the warehouse shard key.
    pub label: String,
    /// The job's configuration.
    pub config: JobConfig,
    /// Broker priority: admission order, and who may preempt whom.
    pub priority: JobPriority,
}

impl FleetJob {
    /// Creates a labelled fleet job at [`JobPriority::Standard`].
    pub fn new(label: impl Into<String>, config: JobConfig) -> Self {
        FleetJob {
            label: label.into(),
            config,
            priority: JobPriority::default(),
        }
    }

    /// Sets the job's broker priority.
    pub fn with_priority(mut self, priority: JobPriority) -> Self {
        self.priority = priority;
        self
    }
}

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The jobs to run concurrently.
    pub jobs: Vec<FleetJob>,
    /// Incidents across jobs at or above which a machine is a repeat
    /// offender.
    pub repeat_offender_threshold: usize,
    /// Warehouse time-bucket width.
    pub bucket_width: SimDuration,
    /// Overrides the shared standby pool's target size (e.g. a deliberately
    /// starved pool for broker drills). `None` uses the pooled P99 sizing.
    pub pool_override: Option<usize>,
    /// Fleet resource broker. `None` runs the un-brokered baseline: the pool
    /// degrades to the slow reschedule path when it runs dry.
    pub broker: Option<BrokerConfig>,
    /// Warehouse disk-spill policy. `None` keeps every shard in memory;
    /// `Some` spills the unspilled tails of cold shards to write-once
    /// segment files under the given run directory. Query results and the rendered report are byte-identical
    /// either way (pinned by the spill oracles).
    pub warehouse_storage: Option<WarehouseStorage>,
    /// Declarative alert rules evaluated in sim time during the run. `None`
    /// disables the alerting plane entirely (no signal bus, no engine);
    /// `Some` fills [`FleetReport::alerts`] with the run's canonical
    /// timeline. The rendered report and the trace are byte-identical
    /// either way.
    pub alert_rules: Option<RuleSet>,
    /// The resident query plane, if attached: the runner publishes a
    /// copy-on-write epoch into the service after every warehouse insert
    /// (plus an initial empty epoch and a final sealed one), so reader
    /// threads holding a clone of the service answer [`FleetQuery`]s
    /// concurrently with the run under snapshot isolation. `None` runs
    /// without a query plane. The rendered report is byte-identical either
    /// way (publishing is read-only over shard heads).
    ///
    /// [`FleetQuery`]: crate::query::FleetQuery
    pub query_service: Option<WarehouseService>,
    /// Skip the per-event `JobStep` / `WarehouseInsert` trace instants. The
    /// mega drill processes ~10^6 events; recording an instant per event
    /// costs hundreds of megabytes and dominates the merge at the end of the
    /// run, so fleet-scale drills opt out. The rendered report stays a pure
    /// function of (config, seed) — but note a lean run renders differently
    /// from a traced run of the same fleet (the trace summary is part of the
    /// report).
    pub lean_trace: bool,
}

impl FleetConfig {
    /// A fleet with default warehouse bucketing (1 h) and offender threshold
    /// (2 incidents), broker disabled.
    pub fn new(jobs: Vec<FleetJob>) -> Self {
        FleetConfig {
            jobs,
            repeat_offender_threshold: 2,
            bucket_width: SimDuration::from_hours(1),
            pool_override: None,
            broker: None,
            warehouse_storage: None,
            alert_rules: None,
            query_service: None,
            lean_trace: false,
        }
    }

    /// Disables per-event trace instants (fleet-scale drills; see
    /// [`FleetConfig::lean_trace`]).
    pub fn with_lean_trace(mut self) -> Self {
        self.lean_trace = true;
        self
    }

    /// Attaches a resident query service; the runner publishes an epoch into
    /// it after every warehouse insert and seals it when the run completes.
    pub fn with_query_service(mut self, service: WarehouseService) -> Self {
        self.query_service = Some(service);
        self
    }

    /// Attaches an alert rule set, to be evaluated in sim time as the fleet
    /// runs.
    pub fn with_alert_rules(mut self, rules: RuleSet) -> Self {
        self.alert_rules = Some(rules);
        self
    }

    /// Enables the fleet broker with the given policy.
    pub fn with_broker(mut self, broker: BrokerConfig) -> Self {
        self.broker = Some(broker);
        self
    }

    /// Disables the fleet broker (the un-brokered baseline of the same
    /// fleet).
    pub fn without_broker(mut self) -> Self {
        self.broker = None;
        self
    }

    /// Overrides the shared pool's target size.
    pub fn with_pool_override(mut self, target: usize) -> Self {
        self.pool_override = Some(target);
        self
    }

    /// Attaches a warehouse disk-spill policy: the resident tails of cold
    /// incident shards are written to new segment files under
    /// `storage.spill_dir` once the resident dossier count exceeds
    /// `storage.budget`.
    pub fn with_warehouse_storage(mut self, storage: WarehouseStorage) -> Self {
        self.warehouse_storage = Some(storage);
        self
    }

    /// The three-job drill used by `examples/fleet_drill.rs`, the fleet bench
    /// panel, and the integration tests: a dense 16-machine job, an
    /// MoE-flavoured variant (more manual restarts and risky user code,
    /// §8.1.3), and a Table-5-scale 128-machine dense job, all at fault rates
    /// aggressive enough to produce a rich cross-job incident mix within the
    /// simulated window.
    pub fn small_drill() -> Self {
        let dense = JobConfig::small_test();

        let mut moe = JobConfig::small_test();
        moe.job.model.name = "tiny-moe-test".to_string();
        moe.fault.manual_restart_interval = SimDuration::from_hours(4);
        moe.fault.user_code_fraction = 0.45;

        let mut table5 = JobConfig::for_job(JobSpec::table5_70b_small(), SimDuration::from_days(1));
        table5.fault.reference_mtbf = SimDuration::from_hours(2);
        table5.fault.reference_gpus = table5.job.world_size();
        table5.fault.manual_restart_interval = SimDuration::from_hours(8);

        FleetConfig::new(vec![
            FleetJob::new("dense-small", dense),
            FleetJob::new("moe-small", moe),
            FleetJob::new("table5-70b", table5),
        ])
    }

    /// The fleet-scale drill: ~24 concurrent jobs over a four-digit machine
    /// count (8 dense 16-machine jobs, 8 MoE-flavoured 16-machine jobs, and
    /// 8 Table-5-scale 128-machine jobs — 1,280 machines in total). This was
    /// impractical under the per-event linear scan and is the headline
    /// throughput benchmark for the heap scheduler (`BENCH_fleet.json`).
    /// Fault parameters are staggered per job so the incident mix differs
    /// across the fleet.
    pub fn large_drill() -> Self {
        let mut jobs = Vec::new();
        for i in 0..8u64 {
            let mut dense = JobConfig::small_test();
            dense.fault.manual_restart_interval = SimDuration::from_hours(5 + i % 3);
            jobs.push(FleetJob::new(format!("dense-{i:02}"), dense));
        }
        for i in 0..8u64 {
            let mut moe = JobConfig::small_test();
            moe.job.model.name = format!("tiny-moe-{i:02}");
            moe.fault.manual_restart_interval = SimDuration::from_hours(3 + i % 4);
            moe.fault.user_code_fraction = 0.35 + 0.02 * i as f64;
            jobs.push(FleetJob::new(format!("moe-{i:02}"), moe));
        }
        for i in 0..8u64 {
            let mut table5 =
                JobConfig::for_job(JobSpec::table5_70b_small(), SimDuration::from_days(1));
            table5.fault.reference_mtbf = SimDuration::from_hours(2 + i % 2);
            table5.fault.reference_gpus = table5.job.world_size();
            table5.fault.manual_restart_interval = SimDuration::from_hours(6 + i);
            jobs.push(FleetJob::new(format!("table5-{i:02}"), table5));
        }
        FleetConfig::new(jobs)
    }

    /// A fleet engineered to starve the shared standby pool — the
    /// pool-exhaustion drill behind the broker benchmarks and the baseline
    /// regression tests. Four 16-machine jobs at drill fault rates share a
    /// single-standby pool: every multi-machine eviction shortfalls. One job
    /// is `Critical` (the intended preemption/migration beneficiary), one is
    /// an over-provisioned `BestEffort` donor carrying twelve extra warm
    /// spares, one is a plain `BestEffort` job whose replenishment slots are
    /// preemption fodder, and one queues behind a 48-machine admission limit
    /// when the broker is enabled. Run it `without_broker()` for the degraded
    /// baseline the broker must beat.
    pub fn starved_drill() -> Self {
        let critical = JobConfig::small_test();

        let mut donor = JobConfig::small_test();
        donor.job.model.name = "batch-donor".to_string();
        donor.extra_standby_machines = 12;

        let mut filler = JobConfig::small_test();
        filler.job.model.name = "batch-filler".to_string();
        filler.fault.manual_restart_interval = SimDuration::from_hours(4);
        // A hot fault rate keeps pool replenishments in flight, so the
        // critical job finds lower-priority slots to preempt.
        filler.fault.reference_mtbf = SimDuration::from_hours(1);

        let mut queued = JobConfig::small_test();
        queued.job.model.name = "batch-queued".to_string();

        let mut config = FleetConfig::new(vec![
            FleetJob::new("prod-critical", critical).with_priority(JobPriority::Critical),
            FleetJob::new("batch-donor", donor).with_priority(JobPriority::BestEffort),
            FleetJob::new("batch-filler", filler).with_priority(JobPriority::BestEffort),
            FleetJob::new("batch-queued", queued).with_priority(JobPriority::BestEffort),
        ]);
        config.pool_override = Some(2);
        config.broker = Some(BrokerConfig {
            admission_limit: Some(48),
            reserve_for_priority: 1,
        });
        config
    }

    /// One job of the mega drill: a 64- or 128-machine dense job with a
    /// manual-restart-dominated event mix (restart cadence staggered by
    /// `index` so the fleet's events interleave rather than phase-lock), a
    /// modest infra fault rate (each eviction permanently shrinks the job's
    /// cluster toward its spares, so a 45-day run must not be eviction-heavy),
    /// and eight warm spares beyond the binomial sizing.
    fn mega_job(index: u64, machines: usize, duration: SimDuration) -> JobConfig {
        use byterobust_parallelism::ParallelismConfig;
        use byterobust_trainsim::{HardwareSpec, ModelSpec};
        let spec = if machines == 128 {
            JobSpec::table5_70b_small()
        } else {
            assert_eq!(machines, 64, "mega jobs come in 64- and 128-machine sizes");
            JobSpec {
                model: ModelSpec::tiny_test(),
                parallelism: ParallelismConfig::new_3d(2, 4, 64, 8),
                global_batch: 512,
                micro_batch: 1,
                hardware: HardwareSpec::hopper(),
                target_steps: 100_000,
            }
        };
        let mut config = JobConfig::for_job(spec, duration);
        config.fault.reference_mtbf = SimDuration::from_hours(48);
        config.fault.reference_gpus = config.job.world_size();
        config.fault.user_code_fraction = 0.35;
        // ~37–43 min between manual restarts: the dominant event source
        // (~1,600–1,800 events per job over 47 days).
        config.fault.manual_restart_interval = SimDuration::from_secs(2_220 + 60 * (index % 7));
        config.extra_standby_machines = 8;
        config
    }

    /// The mega drill: 100× the large drill. 600 concurrent jobs — 384 at 64
    /// machines and 216 at 128 machines, 52,224 active machines — over 47
    /// simulated days, producing over a million fleet events. Sized for the
    /// heap scheduler (the per-event linear scan is impractical here), with
    /// per-event trace instants disabled ([`FleetConfig::lean_trace`]). The
    /// shared pool is overridden to 2,048 standbys; the override is part of
    /// the drill's simulated history.
    pub fn mega_drill() -> Self {
        Self::mega_fleet(384, 216, SimDuration::from_days(47))
    }

    /// The scaled-down mega drill for tests: the same job shapes and event
    /// mix at 60 jobs (40×64 + 20×128 = 5,120 machines) over six days —
    /// big enough for thousands of fleet events, small enough for a test
    /// suite.
    pub fn mega_smoke() -> Self {
        Self::mega_fleet(40, 20, SimDuration::from_days(6))
    }

    fn mega_fleet(small_jobs: u64, large_jobs: u64, duration: SimDuration) -> Self {
        let mut jobs = Vec::with_capacity((small_jobs + large_jobs) as usize);
        for i in 0..small_jobs {
            jobs.push(FleetJob::new(
                format!("mega-064-{i:04}"),
                Self::mega_job(i, 64, duration),
            ));
        }
        for i in 0..large_jobs {
            jobs.push(FleetJob::new(
                format!("mega-128-{i:04}"),
                Self::mega_job(small_jobs + i, 128, duration),
            ));
        }
        FleetConfig::new(jobs)
            .with_pool_override(2_048)
            .with_lean_trace()
    }

    /// Total machine demand across the fleet: the sum of every job's
    /// footprint. This is what sizes the shared standby pool. (Machine
    /// *identity* is a separate matter — jobs address one fleet-wide
    /// `MachineId` namespace so recorded incident history composes across
    /// jobs; see the crate docs for that modelling note.)
    pub fn total_machines(&self) -> usize {
        self.jobs.iter().map(|job| job.config.job.machines()).sum()
    }

    /// The shared warm-standby pool: the default (per-job) pool sizing
    /// applied to the *fleet's* total machine count, so the comparison
    /// against [`FleetConfig::solo_pool_sum`] is apples to apples. Sharing
    /// is the point — the binomial P99 of the pooled demand is smaller than
    /// the sum of per-job P99 pools. [`FleetConfig::pool_override`] replaces
    /// the target size (starvation drills).
    pub fn shared_pool(&self) -> WarmStandbyPool {
        match self.pool_override {
            Some(target) => WarmStandbyPool::with_target_size(target),
            None => RobustController::default_standby_pool(self.total_machines().max(1)),
        }
    }

    /// What provisioning standbys per job (no sharing) would cost: the sum of
    /// each job's default P99 pool.
    pub fn solo_pool_sum(&self) -> usize {
        self.jobs
            .iter()
            .map(|job| {
                RobustController::default_standby_pool(job.config.job.machines()).target_size()
            })
            .sum()
    }
}

/// The runner's tap into the alerting plane: the signal bus the event loop
/// publishes to, the engine that watches it, and the pre-registered signal
/// ids (registration allocates; the per-event publishes do not). Built only
/// when [`FleetConfig::alert_rules`] is set — with alerting off the loop
/// carries no tap and behaves exactly as before.
struct AlertTap {
    bus: SignalBus,
    engine: AlertEngine,
    incidents: SignalId,
    evictions: SignalId,
    recovery_secs: SignalId,
    pool_ready: SignalId,
    pool_shortfall: SignalId,
    broker_queue: SignalId,
    phases: [(RecoveryPhase, SignalId); 6],
    job_incidents: Vec<SignalId>,
}

impl AlertTap {
    fn new(rules: &RuleSet, jobs: &[FleetJob]) -> AlertTap {
        let mut bus = SignalBus::new();
        let incidents = bus.register(signals::INCIDENTS);
        let evictions = bus.register(signals::EVICTIONS);
        let recovery_secs = bus.register(signals::RECOVERY_SECS);
        let pool_ready = bus.register(signals::POOL_READY);
        let pool_shortfall = bus.register(signals::POOL_SHORTFALL);
        let broker_queue = bus.register(signals::BROKER_QUEUE);
        let phases = RecoveryPhase::ALL
            .map(|phase| (phase, bus.register(&signals::recovery_phase(phase.name()))));
        let job_incidents = jobs
            .iter()
            .map(|job| bus.register(&signals::job_incidents(&job.label)))
            .collect();
        AlertTap {
            engine: AlertEngine::new(rules),
            bus,
            incidents,
            evictions,
            recovery_secs,
            pool_ready,
            pool_shortfall,
            broker_queue,
            phases,
            job_incidents,
        }
    }

    /// Publishes one closed incident's signals, stamped at its injection
    /// time (= the event time that produced it).
    fn observe_incident(&mut self, at: SimTime, job_index: usize, dossier: &IncidentDossier) {
        self.bus.publish(self.incidents, at, 1.0);
        self.bus.publish(self.job_incidents[job_index], at, 1.0);
        if !dossier.evicted.is_empty() {
            self.bus
                .publish(self.evictions, at, dossier.evicted.len() as f64);
        }
        self.bus
            .publish(self.recovery_secs, at, dossier.cost.total().as_secs_f64());
        // Same decomposition the flight recorder stamps into the dossier.
        for (phase, duration) in RobustController::recovery_phases(&dossier.cost) {
            if !duration.is_zero() {
                let (_, id) = self
                    .phases
                    .iter()
                    .find(|(p, _)| *p == phase)
                    .expect("every recovery phase is registered at tap construction");
                self.bus.publish(*id, at, duration.as_secs_f64());
            }
        }
    }

    /// Publishes the end-of-event gauges and evaluates every rule at `now`.
    fn observe_gauges_and_evaluate(&mut self, now: SimTime, broker: &FleetBroker) {
        self.bus
            .publish(self.pool_ready, now, broker.pool().ready() as f64);
        self.bus.publish(
            self.pool_shortfall,
            now,
            broker.pool().shortfall_machines() as f64,
        );
        self.bus
            .publish(self.broker_queue, now, broker.queue_depth() as f64);
        self.engine.evaluate(&self.bus, now);
    }
}

/// How a fleet run is stepped. Every run goes through the one serial event
/// loop, so `Serial` is the only mode; the type remains so existing callers
/// of [`FleetRunner::run_stepped`] (the `perfbench` harness among them) keep
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteppingMode {
    /// Commit every event in global time order on the calling thread.
    Serial,
}

/// Everything the event loop mutates besides the executions and the
/// scheduler, so "what happens when an event commits" is written once, in
/// [`LoopState::commit_event`].
struct LoopState<'a> {
    jobs: &'a [FleetJob],
    lean_trace: bool,
    broker: FleetBroker,
    warehouse: IncidentWarehouse,
    query_service: Option<&'a WarehouseService>,
    drainer: BacklogDrainer,
    ledger: RepeatOffenderLedger,
    machines_returned: usize,
    machines_confirmed_faulty: usize,
    sweeps_completed_in_run: usize,
    events_processed: usize,
    /// Incidents each job has handled, counted from its advance outcomes
    /// (independently of the warehouse inserts).
    incidents: Vec<usize>,
    fleet_trace: TraceRecorder,
    alert_tap: Option<AlertTap>,
}

impl LoopState<'_> {
    /// Commits one event: drainer sweeps due at the event time, the job's
    /// advance, incident bookkeeping, admission/migration follow-ups, alert
    /// evaluation, and the scheduler re-registration. A changed offender set
    /// reaches every monitor inside the event that changed it.
    fn commit_event(
        &mut self,
        executions: &mut [JobExecution],
        scheduler: &mut EventScheduler,
        event_at: SimTime,
        index: usize,
    ) {
        self.events_processed += 1;
        let step_span: Option<SpanId> = if self.lean_trace {
            None
        } else {
            let span = self
                .fleet_trace
                .instant(SpanKind::JobStep, names::JOB_STEP, None, event_at);
            self.fleet_trace.set_value(span, index as u64);
            Some(span)
        };

        // Complete sweeps due by this event and return cleared machines
        // to the shared pool before the job draws from it (each machine at
        // most once — two sweeps can both clear the same id).
        for sweep in self.drainer.tick(event_at) {
            for &machine in &sweep.passed {
                if self.broker.restock(machine) {
                    self.machines_returned += 1;
                }
            }
            self.machines_confirmed_faulty += sweep.failed.len();
            self.sweeps_completed_in_run += 1;
        }

        let jobs = self.jobs;
        let label = &jobs[index].label;
        let mut grants = BrokeredScheduler::new(&mut self.broker, index);
        let outcome = executions[index].advance_with_scheduler(&mut grants);
        match outcome {
            SegmentOutcome::Finished => {}
            SegmentOutcome::Incident { seq } => {
                self.incidents[index] += 1;
                // Move the dossier out of the job's store: the warehouse
                // shard becomes its only owner, so a spilled tail frees it.
                let dossier = executions[index]
                    .take_incident(seq)
                    .expect("the closed incident is the job's latest");
                let closed_at = dossier.closed_at();
                let offenders_changed = self.ledger.observe(&dossier);
                self.drainer.dispatch(label, &dossier, closed_at);
                if let Some(tap) = self.alert_tap.as_mut() {
                    tap.observe_incident(event_at, index, &dossier);
                }
                self.warehouse.insert_shared(label, dossier);
                // Publish the post-insert epoch: a handful of Arc clones
                // of the shard heads. Readers pinning earlier epochs are
                // untouched (copy-on-write).
                if let Some(service) = self.query_service {
                    service.publish(&self.warehouse);
                }
                if !self.lean_trace {
                    let insert_span = self.fleet_trace.instant(
                        SpanKind::Warehouse,
                        names::WAREHOUSE_INSERT,
                        step_span,
                        closed_at,
                    );
                    self.fleet_trace.set_incident(insert_span, seq);
                }
                // Re-publish the cross-job offender set only when a machine
                // actually crossed the threshold; each monitor receives an
                // Arc pointer copy, not a vector clone.
                if offenders_changed {
                    let offenders = self.ledger.offenders_shared();
                    for execution in executions.iter_mut() {
                        execution
                            .controller_mut()
                            .monitor_mut()
                            .set_repeat_offenders_shared(offenders.clone());
                    }
                }
            }
        }
        // A job can finish on either outcome (its last incident's
        // unproductive tail can run past the configured end). Either way, a
        // finished job frees its footprint: admit queued jobs that now fit,
        // starting them at this event time.
        if executions[index].is_finished() {
            for admitted in self.broker.on_job_finished(index, event_at) {
                executions[admitted].release_at(event_at);
                scheduler.reschedule(admitted, executions);
            }
        }
        // Apply broker-planned migrations now that the advancing job's
        // borrow has ended: the Machine object moves wholesale, so its id
        // and hardware history arrive with it.
        for migration in self.broker.take_pending_migrations() {
            let machine = executions[migration.from_job]
                .cluster_mut()
                .release_machine(migration.machine);
            executions[migration.to_job]
                .cluster_mut()
                .adopt_machine(machine);
        }
        if self.broker.enabled() {
            self.broker
                .sync_spares(index, &executions[index].cluster().standby_machines());
        }
        // Alerting sees the post-event world: gauges reflect the pool,
        // queue, and shortfall state after this event settled, and every
        // rule is evaluated at the event's sim time.
        if let Some(tap) = self.alert_tap.as_mut() {
            tap.observe_gauges_and_evaluate(event_at, &self.broker);
        }
        scheduler.reschedule(index, executions);
    }
}

/// Runs a fleet to completion, deterministically from one seed.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    config: FleetConfig,
    seed: u64,
}

impl FleetRunner {
    /// Creates a runner. Job labels must be unique (they key the warehouse
    /// shards).
    pub fn new(config: FleetConfig, seed: u64) -> Self {
        for (i, a) in config.jobs.iter().enumerate() {
            for b in &config.jobs[i + 1..] {
                assert_ne!(a.label, b.label, "fleet job labels must be unique");
            }
        }
        FleetRunner { config, seed }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The per-job seeds this runner will use, forked from the fleet seed in
    /// job order. Exposed so solo baselines can replay the exact same jobs.
    pub fn job_seeds(&self) -> Vec<u64> {
        let mut rng = SimRng::new(self.seed);
        (0..self.config.jobs.len())
            .map(|i| rng.fork(i as u64 + 1).seed())
            .collect()
    }

    /// Runs every job to completion and returns the fleet report, using the
    /// heap scheduler.
    pub fn run(&self) -> FleetReport {
        self.run_with(SchedulerKind::default())
    }

    /// Same as [`FleetRunner::run_with`]; `Serial` is the only
    /// [`SteppingMode`]. Kept so existing callers (the `perfbench` harness
    /// among them) keep compiling.
    pub fn run_stepped(&self, scheduler_kind: SchedulerKind, _mode: SteppingMode) -> FleetReport {
        self.run_with(scheduler_kind)
    }

    /// Runs with an explicit scheduler. [`SchedulerKind::NaiveScan`] is the
    /// retained O(J)-per-event reference; the oracle tests pin
    /// `run_with(NaiveScan).render() == run().render()`. The report is a
    /// pure function of (config, seed).
    pub fn run_with(&self, scheduler_kind: SchedulerKind) -> FleetReport {
        let mut rng = SimRng::new(self.seed);
        let mut executions: Vec<JobExecution> = self
            .config
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| JobExecution::new(job.config.clone(), rng.fork(i as u64 + 1).seed()))
            .collect();
        if self.config.lean_trace {
            // Lean mode: no per-incident controller spans. At mega scale the
            // span volume (millions) would dominate memory and the final
            // trace merge; the incident record (store + warehouse) is the
            // durable artifact there.
            for execution in &mut executions {
                execution.controller_mut().trace_mut().disable();
            }
        }
        let mut tie_rng = rng.fork(0xF1EE7);

        // Every machine grant is mediated by the broker. With the broker
        // disabled (`config.broker == None`) it is a strict pass-through to
        // the shared pool and this loop behaves exactly as the un-brokered
        // runner did.
        let pool = self.config.shared_pool();
        let pool_target = pool.target_size();
        let mut broker = FleetBroker::new(&self.config, pool);
        if broker.enabled() {
            for (i, execution) in executions.iter().enumerate() {
                let members: Vec<_> = execution
                    .cluster()
                    .machines()
                    .iter()
                    .map(|machine| machine.id)
                    .collect();
                broker.register_job(i, &members, &execution.cluster().standby_machines());
            }
        }
        for index in broker.plan_admission() {
            executions[index].hold();
        }
        let mut scheduler = EventScheduler::new(scheduler_kind, &executions);

        let warehouse = match &self.config.warehouse_storage {
            Some(storage) => {
                IncidentWarehouse::with_storage(self.config.bucket_width, storage.clone())
            }
            None => IncidentWarehouse::new(self.config.bucket_width),
        };
        // The resident query plane, if attached: epoch 0 (the empty
        // warehouse) is published before the first event so concurrent
        // readers always find a pinnable snapshot.
        let query_service = self.config.query_service.as_ref();
        if let Some(service) = query_service {
            service.publish(&warehouse);
        }
        let mut state = LoopState {
            jobs: &self.config.jobs,
            lean_trace: self.config.lean_trace,
            broker,
            warehouse,
            query_service,
            drainer: BacklogDrainer::new(),
            ledger: RepeatOffenderLedger::new(self.config.repeat_offender_threshold),
            machines_returned: 0,
            machines_confirmed_faulty: 0,
            sweeps_completed_in_run: 0,
            events_processed: 0,
            incidents: vec![0; self.config.jobs.len()],
            // Fleet-scope trace: job stepping, warehouse ingestion, and
            // (replayed at the end) broker interventions. Per-job incident
            // spans live in each job's own controller recorder; everything
            // merges into one canonical document for the report.
            fleet_trace: TraceRecorder::new(),
            // The alerting plane, if rules are attached: signals published
            // per event, rules evaluated per event, all in sim time.
            alert_tap: self
                .config
                .alert_rules
                .as_ref()
                .map(|rules| AlertTap::new(rules, &self.config.jobs)),
        };

        // The event loop: the unfinished job with the earliest next event
        // advances; simultaneous events are broken by the interleave stream
        // inside the scheduler.
        while let Some((event_at, index)) = scheduler.next(&executions, &mut tie_rng) {
            assert!(
                event_at < SimTime::MAX,
                "scheduler picked a job still held in the admission queue"
            );
            state.commit_event(&mut executions, &mut scheduler, event_at, index);
        }

        let LoopState {
            mut broker,
            warehouse,
            mut drainer,
            ledger,
            mut machines_returned,
            mut machines_confirmed_faulty,
            sweeps_completed_in_run,
            events_processed,
            incidents,
            mut fleet_trace,
            alert_tap,
            ..
        } = state;

        // Sweeps still in flight when the last job ends complete at the fleet
        // horizon (they were dispatched in-run; the machines just come back
        // after the final job's end time).
        let horizon = self
            .config
            .jobs
            .iter()
            .map(|job| SimTime::ZERO + job.config.duration)
            .max()
            .unwrap_or(SimTime::ZERO)
            + SimDuration::from_days(365);
        let mut sweeps_completed_post_run = 0usize;
        for sweep in drainer.tick(horizon) {
            for &machine in &sweep.passed {
                if broker.restock(machine) {
                    machines_returned += 1;
                }
            }
            machines_confirmed_faulty += sweep.failed.len();
            sweeps_completed_post_run += 1;
        }

        // Merge the sim-time trace: the fleet scope (stepping, warehouse,
        // broker) plus each controller's incident spans under its job label.
        // Snapshots are taken before `into_report` consumes the executions;
        // the merge re-sorts into the canonical (start, scope, id) order, so
        // the result is a pure function of the seed — identical across
        // schedulers, spill modes, and harness parallelism.
        broker.record_trace(&mut fleet_trace);
        let mut trace_parts = vec![fleet_trace.snapshot("fleet")];
        trace_parts.extend(
            executions
                .iter()
                .zip(self.config.jobs.iter())
                .map(|(execution, job)| execution.controller().trace_snapshot(&job.label)),
        );
        let trace = Trace::merge(trace_parts);
        let scheduler_ops = scheduler.ops();
        // Canonicalize the alert timeline (sorted, sequence-numbered). With
        // alerting off this is the empty timeline.
        let alerts = alert_tap.map(|tap| tap.engine.finish()).unwrap_or_default();

        // Final epoch + seal: the latest published snapshot is now the run's
        // complete warehouse content, and post-hoc readers can replay any
        // epoch against it.
        if let Some(service) = query_service {
            service.publish(&warehouse);
            service.seal();
        }

        let seeds = self.job_seeds();
        let jobs: Vec<FleetJobReport> = executions
            .into_iter()
            .zip(self.config.jobs.iter())
            .zip(seeds)
            .zip(incidents)
            .map(|(((execution, job), seed), incidents)| {
                let report = execution.into_report();
                assert!(
                    report.incident_store.is_empty(),
                    "{}: the warehouse must own every dossier the job closed",
                    job.label
                );
                FleetJobReport {
                    label: job.label.clone(),
                    seed,
                    machines: job.config.job.machines(),
                    incidents,
                    job_name: report.job_name,
                    ettr: report.ettr,
                    mfu_series: report.mfu_series,
                    final_step: report.final_step,
                    code_versions_deployed: report.code_versions_deployed,
                }
            })
            .collect();

        let escalation_counts = drainer.escalation_counts().clone();
        let drain = DrainSummary {
            sweeps_dispatched: drainer.sweeps_dispatched(),
            sweeps_completed_in_run,
            sweeps_completed_post_run,
            machines_returned_to_standby: machines_returned,
            machines_confirmed_faulty,
            escalation_counts,
        };

        FleetReport {
            seed: self.seed,
            jobs,
            events_processed,
            trace,
            scheduler_ops,
            warehouse,
            completed_sweeps: drainer.completed().to_vec(),
            drain,
            repeat_offenders: ledger.offender_counts(),
            repeat_offender_threshold: ledger.threshold(),
            shared_pool_target: pool_target,
            shared_pool_ready_final: broker.pool().ready(),
            pool_shortfall_events: broker.pool().shortfall_events(),
            pool_shortfall_machines: broker.pool().shortfall_machines(),
            solo_pool_sum: self.config.solo_pool_sum(),
            migrations: broker.registry().migrations().to_vec(),
            broker: broker.summary(),
            alerts,
        }
    }
}
