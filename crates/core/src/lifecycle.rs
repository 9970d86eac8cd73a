//! End-to-end job lifecycle driver.
//!
//! [`JobLifecycle`] plays one training job forward through simulated time:
//! productive training intervals are advanced in bulk (steps, checkpoints,
//! metric samples), each injected incident is applied to the cluster and the
//! workload, handed to the [`crate::ft::RobustController`],
//! and its unproductive time charged to the ETTR tracker. The result is a
//! [`JobReport`] carrying everything the §8.1 deployment experiments report:
//! cumulative and sliding ETTR, relative MFU, incident resolution counts,
//! unproductive-time breakdowns and per-symptom resolution costs.

use std::sync::Arc;

use byterobust_agent::CkptManager;
use byterobust_cluster::{Cluster, FaultEvent, FaultInjector, FaultKind, NicState, RootCause};
use byterobust_incident::{
    telemetry_signature, ClassificationInput, IncidentDossier, IncidentStore, RecorderEvent,
};
use byterobust_recovery::{StandbyScheduler, WarmStandbyPool};
use byterobust_sim::{SimDuration, SimRng, SimTime};
use byterobust_telemetry::SystemEvent;
use byterobust_trainsim::{loss_at, StepModel, TrainingRuntime};

use crate::config::JobConfig;
use crate::ettr::EttrTracker;
use crate::ft::RobustController;
use crate::report::{IncidentRecord, JobReport, SeriesPoint};

/// Drives one simulated training job under ByteRobust.
#[derive(Debug, Clone)]
pub struct JobLifecycle {
    config: JobConfig,
    seed: u64,
}

impl JobLifecycle {
    /// Creates a lifecycle driver for a configuration and a seed.
    pub fn new(config: JobConfig, seed: u64) -> Self {
        JobLifecycle { config, seed }
    }

    /// Runs the job to completion and returns its report.
    pub fn run(&self) -> JobReport {
        let mut execution = JobExecution::new(self.config.clone(), self.seed);
        while !execution.is_finished() {
            execution.advance();
        }
        execution.into_report()
    }
}

/// What one [`JobExecution::advance`] call processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOutcome {
    /// A productive interval was played and the incident that ended it was
    /// handled; its dossier is in the job's incident store under this seq.
    Incident {
        /// The handled incident's sequence number.
        seq: u64,
    },
    /// The job reached its configured end (the final productive interval has
    /// been accounted).
    Finished,
}

/// One live job run, steppable segment by segment.
///
/// A segment is "one productive interval plus the incident that ends it" —
/// the unit [`JobLifecycle::run`] loops over. Exposing the loop lets a fleet
/// scheduler interleave many concurrent jobs in global event order, feed
/// their incidents into a shared warehouse, and route every job's scheduling
/// draws through one shared warm-standby pool
/// ([`JobExecution::advance_with_scheduler`]).
#[derive(Debug, Clone)]
pub struct JobExecution {
    config: JobConfig,
    cluster: Cluster,
    runtime: TrainingRuntime,
    controller: RobustController,
    injector: FaultInjector,
    ckpt: CkptManager,
    step_model: StepModel,
    ettr: EttrTracker,
    mfu_series: Vec<SeriesPoint>,
    loss_series: Vec<SeriesPoint>,
    incident_store: IncidentStore,
    /// The job's own pool, used by [`JobExecution::advance`] for solo runs
    /// (fleet runs bypass it and pass a shared pool).
    solo_pool: Option<WarmStandbyPool>,
    now: SimTime,
    end: SimTime,
    next_fault: FaultEvent,
    finished: bool,
    /// Held in a fleet admission queue: the job exists but has not started,
    /// and reports no next event until released.
    held: bool,
}

impl JobExecution {
    /// Sets up a job run (cluster, runtime, controller, injector, checkpoint
    /// manager) exactly as [`JobLifecycle::run`] would.
    pub fn new(config: JobConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let cluster = Cluster::build(config.cluster_spec());
        let runtime = TrainingRuntime::new(config.job.clone());
        let controller = RobustController::new(config.job.machines(), rng.fork(1));
        let mut injector = FaultInjector::new(config.fault.clone(), rng.fork(2));
        let ckpt = CkptManager::byterobust_default(&config.job);
        let step_model = StepModel::new(config.job.clone());
        let solo_pool = RobustController::default_standby_pool(config.job.machines());
        let end = SimTime::ZERO + config.duration;
        let next_fault = injector.next_event(SimTime::ZERO);
        JobExecution {
            cluster,
            runtime,
            controller,
            injector,
            ckpt,
            step_model,
            ettr: EttrTracker::new(),
            mfu_series: Vec::new(),
            loss_series: Vec::new(),
            incident_store: IncidentStore::new(),
            solo_pool: Some(solo_pool),
            now: SimTime::ZERO,
            end,
            next_fault,
            finished: false,
            held: false,
            config,
        }
    }

    /// When this job's next event fires: its next injected fault, or the job
    /// end if that comes first. A fleet scheduler advances the job whose next
    /// event is earliest, which keeps shared-pool draws in global time order.
    /// A job held in an admission queue reports [`SimTime::MAX`] — it has no
    /// event until released.
    pub fn next_event_at(&self) -> SimTime {
        if self.held {
            return SimTime::MAX;
        }
        self.next_fault.at.min(self.end)
    }

    /// Whether the job has reached its configured end.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Parks the job in a fleet admission queue: it keeps its cluster and
    /// seeds but reports no next event until [`JobExecution::release_at`].
    /// Only valid before the first advance.
    pub fn hold(&mut self) {
        assert_eq!(self.now, SimTime::ZERO, "hold() before the first advance");
        self.held = true;
    }

    /// Releases a held job: it starts at `at` and runs for its configured
    /// duration from there. The first fault is drawn from the injector's
    /// stream at the admission time.
    pub fn release_at(&mut self, at: SimTime) {
        assert!(self.held, "release_at() requires a held job");
        self.held = false;
        self.now = at;
        self.end = at + self.config.duration;
        self.next_fault = self.injector.next_event(at);
    }

    /// The job's cluster (fleet machine migration reads spare membership).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access: the fleet runner applies broker-planned
    /// machine migrations through this (release from the donor, adopt into
    /// the starving job).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The incidents closed so far and not taken by
    /// [`JobExecution::take_incident`].
    pub fn incident_store(&self) -> &IncidentStore {
        &self.incident_store
    }

    /// Moves the dossier of incident `seq`, the one the last advance closed,
    /// out of the job's store. A fleet run hands every dossier to its
    /// warehouse this way, so the warehouse is its only owner and the job's
    /// store is empty after every event. `None` if `seq` is not the latest
    /// stored incident.
    pub fn take_incident(&mut self, seq: u64) -> Option<Arc<IncidentDossier>> {
        self.incident_store.take_latest(seq)
    }

    /// The job's controller (e.g. for monitor threshold inputs).
    pub fn controller(&self) -> &RobustController {
        &self.controller
    }

    /// Mutable controller access: the fleet runner pushes repeat-offender
    /// sets into the monitor through this.
    pub fn controller_mut(&mut self) -> &mut RobustController {
        &mut self.controller
    }

    /// Advances one segment using the job's own standby pool (solo runs).
    pub fn advance(&mut self) -> SegmentOutcome {
        let mut pool = self
            .solo_pool
            .take()
            .expect("solo pool is always restored after advance");
        let outcome = self.advance_with_scheduler(&mut pool);
        self.solo_pool = Some(pool);
        outcome
    }

    /// Advances one segment, covering evictions through an arbitrary standby
    /// scheduler — a plain shared pool, or a fleet broker that preempts and
    /// migrates capacity between jobs when the pool runs dry.
    pub fn advance_with_scheduler(&mut self, pool: &mut dyn StandbyScheduler) -> SegmentOutcome {
        assert!(!self.held, "a held job cannot advance before release_at()");
        if self.finished {
            return SegmentOutcome::Finished;
        }
        // ----- Productive interval until the next incident (or job end).
        let interval_end = self.next_fault.at.min(self.end);
        if interval_end > self.now {
            let interval = interval_end - self.now;
            let breakdown = self.step_model.step(
                self.runtime.code_version(),
                self.cluster.active_relative_throughput_cached().max(0.05),
                SimDuration::ZERO,
            );
            let step_time = breakdown.total();
            let from_step = self.runtime.current_step();
            let steps = (interval.as_millis() / step_time.as_millis().max(1)).max(1);
            let to_step = from_step + steps;
            self.runtime.restore_to_step(to_step);
            self.ckpt.advance_steps(from_step, to_step);

            self.ettr.record_productive(interval);
            self.mfu_series.push(SeriesPoint {
                at: interval_end,
                step: to_step,
                value: breakdown.mfu,
            });
            self.loss_series.push(SeriesPoint {
                at: interval_end,
                step: to_step,
                value: loss_at(to_step),
            });
        }
        self.now = interval_end;
        if self.now >= self.end {
            self.finished = true;
            return SegmentOutcome::Finished;
        }

        // ----- Handle the incident.
        let fault = self.next_fault.clone();
        Self::apply_fault_effects(&fault, &mut self.cluster, &mut self.runtime);
        // Telemetry tap: explicit symptoms leave a system-event signature on
        // the culprit machines, which lands in the flight recorder's
        // background ring and becomes the incident's pre-incident context.
        if let Some(event_kind) = telemetry_signature(fault.kind) {
            for &culprit in &fault.culprits {
                self.controller.recorder_mut().record(
                    self.now,
                    RecorderEvent::Telemetry(SystemEvent::new(self.now, event_kind, culprit)),
                );
            }
        }
        let outcome = self.controller.handle_incident(
            &fault,
            self.now,
            &mut self.cluster,
            &mut self.runtime,
            &mut self.ckpt,
            pool,
        );
        let unproductive = outcome.cost.total();
        self.ettr.record_unproductive(unproductive);
        let classification = ClassificationInput {
            category: fault.category(),
            root_cause: fault.root_cause,
            mechanism: outcome.mechanism,
            blast_radius: outcome.evicted.len(),
            over_evicted: outcome.over_evicted,
            reproducible: fault.reproducible,
            downtime: unproductive,
        }
        .classify();
        self.incident_store.insert(IncidentDossier {
            seq: fault.seq,
            at: self.now,
            kind: fault.kind,
            category: fault.category(),
            root_cause: fault.root_cause,
            concluded_cause: outcome.concluded_cause,
            mechanism: outcome.mechanism,
            cost: outcome.cost,
            evicted: outcome.evicted.into(),
            over_evicted: outcome.over_evicted,
            resumed_step: outcome.resumed_step,
            classification,
            capture: outcome.capture,
        });
        self.now += unproductive;
        self.next_fault = self.injector.next_event(self.now);
        if self.now >= self.end {
            self.finished = true;
        }
        SegmentOutcome::Incident { seq: fault.seq }
    }

    /// Finalizes the run into a [`JobReport`]. Callable at any point; a fleet
    /// calls it once every job is finished, when the store holds nothing
    /// (the warehouse took every dossier). The records are read off the
    /// store.
    pub fn into_report(self) -> JobReport {
        let code_versions_deployed = self.runtime.code_version().version;
        JobReport {
            job_name: self.config.job.model.name.clone(),
            ettr: self.ettr,
            mfu_series: self.mfu_series,
            loss_series: self.loss_series,
            incidents: IncidentRecord::all_of(&self.incident_store),
            incident_store: self.incident_store,
            final_step: self.runtime.current_step(),
            code_versions_deployed,
        }
    }

    /// Applies the ground-truth effects of a fault to the cluster and the
    /// workload so that inspections, diagnostics and the analyzer observe
    /// what a real incident would leave behind. Transient faults leave no
    /// machine-level damage (they disappear on restart); user-code faults
    /// crash the job without breaking hardware.
    fn apply_fault_effects(
        fault: &FaultEvent,
        cluster: &mut Cluster,
        runtime: &mut TrainingRuntime,
    ) {
        use FaultKind::*;
        // Workload-level effect.
        match fault.kind {
            JobHang => runtime.inject_hang(fault.culprits.clone()),
            MfuDecline => runtime.inject_fail_slow(fault.culprits.clone(), 2.5),
            NanValue => runtime.inject_nan(fault.culprits.clone()),
            CodeDataAdjustment => {}
            _ => runtime.inject_crash(),
        }
        // Machine-level effect, only for genuine infrastructure faults.
        if fault.root_cause != RootCause::Infrastructure {
            return;
        }
        for &victim in &fault.culprits {
            let machine = cluster.machine_mut(victim);
            match fault.kind {
                GpuUnavailable => machine.gpu_mut(0).mark_lost(),
                GpuMemoryError | CudaError => machine.gpu_mut(0).mark_faulty(),
                OsKernelPanic => machine.host.kernel_panicked = true,
                InfinibandError => machine.nic = NicState::Down,
                DiskFault | InsufficientDiskSpace => machine.host.free_disk_frac = 0.01,
                CpuOom => machine.host.free_memory_frac = 0.01,
                CpuOverload => machine.host.cpu_utilization = 0.99,
                FilesystemMount => machine.host.filesystem_mounted = false,
                NanValue => machine.gpu_mut(0).sdc_prone = true,
                MfuDecline => machine.gpu_mut(0).overheat(92.0),
                JobHang => machine.gpu_mut(0).mark_faulty(),
                HdfsError | ContainerError | ExternalServiceError | CodeDataAdjustment => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report(seed: u64) -> JobReport {
        JobLifecycle::new(JobConfig::small_test(), seed).run()
    }

    #[test]
    fn small_job_completes_with_high_ettr() {
        let report = small_report(3);
        assert!(
            !report.incidents.is_empty(),
            "aggressive fault rate must cause incidents"
        );
        let ettr = report.ettr.cumulative_ettr();
        assert!(ettr > 0.5 && ettr <= 1.0, "ettr = {ettr}");
        assert!(report.final_step > 0);
        // Wall-clock time accounted matches the configured duration to within
        // one incident's unproductive tail.
        let total = report.ettr.total_time();
        assert!(total >= SimDuration::from_days(2));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = small_report(11);
        let b = small_report(11);
        assert_eq!(a.incidents.len(), b.incidents.len());
        assert_eq!(a.final_step, b.final_step);
        assert!((a.ettr.cumulative_ettr() - b.ettr.cumulative_ettr()).abs() < 1e-12);
        let c = small_report(12);
        // A different seed gives a different incident history (with very high
        // probability).
        assert!(
            a.incidents.len() != c.incidents.len() || a.final_step != c.final_step,
            "different seeds should diverge"
        );
    }

    #[test]
    fn manual_restarts_are_resolved_by_hot_update() {
        let report = small_report(5);
        let counts = report.resolution_counts();
        let manual_incidents = report
            .incidents
            .iter()
            .filter(|i| i.kind == FaultKind::CodeDataAdjustment)
            .count();
        if manual_incidents > 0 {
            assert_eq!(
                counts
                    .get(&("AutoFT-HU", "Manual Restart"))
                    .copied()
                    .unwrap_or(0),
                manual_incidents
            );
        }
    }

    #[test]
    fn mfu_improves_over_the_job_via_hot_updates() {
        let report = small_report(7);
        if report.code_versions_deployed > 0 {
            let rel = report.relative_mfu_series();
            let last = rel.last().unwrap().value;
            assert!(last >= 1.0);
            let max: f64 = rel.iter().map(|p| p.value).fold(0.0, f64::max);
            assert!(max > 1.0, "at least one MFU leap expected, max = {max}");
        }
    }

    #[test]
    fn incident_costs_are_bounded() {
        let report = small_report(9);
        for incident in &report.incidents {
            // The paper keeps unproductive time within ~50 minutes per
            // incident; allow slack for replay-path incidents (which run two
            // 30-minute phases) plus recomputation.
            assert!(
                incident.cost.total() < SimDuration::from_hours(3),
                "incident {:?} cost {}",
                incident.kind,
                incident.cost.total()
            );
        }
    }

    #[test]
    fn held_jobs_report_no_event_until_released() {
        let mut execution = JobExecution::new(JobConfig::small_test(), 21);
        let immediate_first_event = execution.next_event_at();
        execution.hold();
        assert!(execution.held);
        assert_eq!(execution.next_event_at(), SimTime::MAX);
        // Released two simulated days in: the job runs its full duration
        // from the admission time.
        let admitted_at = SimTime::ZERO + SimDuration::from_days(2);
        execution.release_at(admitted_at);
        assert!(!execution.held);
        assert!(execution.next_event_at() >= admitted_at);
        assert!(execution.next_event_at() < SimTime::MAX);
        while !execution.is_finished() {
            execution.advance();
        }
        let report = execution.into_report();
        assert!(report.final_step > 0);
        // The accounted time covers the job's own window, not the queue wait.
        assert!(report.ettr.total_time() >= SimDuration::from_days(2));
        // And the immediate (unheld) first event was a real one.
        assert!(immediate_first_event < SimTime::MAX);
    }

    #[test]
    fn sliding_ettr_dips_below_cumulative_sometimes() {
        let report = small_report(13);
        let window = SimDuration::from_hours(1);
        let sliding = report.ettr.sliding_series(100, window);
        let min_sliding = sliding.iter().map(|(_, v)| *v).fold(1.0, f64::min);
        assert!(min_sliding < report.ettr.cumulative_ettr() + 1e-9);
    }
}
