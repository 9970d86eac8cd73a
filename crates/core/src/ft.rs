//! The automated fault-tolerance framework (Fig. 5) and the Robust Controller.
//!
//! [`RobustController::handle_incident`] walks one incident through the
//! framework: real-time checks route high-confidence machine faults straight
//! to eviction; user-space errors route to code rollback; implicit failures
//! route to the Runtime Analyzer's aggregation analysis; everything else goes
//! through hierarchical stop-time checks, then reattempt, rollback, and
//! finally dual-phase replay. Each stage's duration is charged to the
//! incident, and the controller keeps escalating until the (ground-truth)
//! fault is actually cleared, exactly like the fail edges in Fig. 5.

use byterobust_agent::{
    CkptManager, Diagnoser, DiagnosisConclusion, Monitor, OnDemandTracer, SelectiveStressTester,
};
use byterobust_analyzer::RuntimeAnalyzer;
use byterobust_cluster::{Cluster, FaultCategory, FaultEvent, FaultKind, MachineId, RootCause};
use byterobust_incident::{FlightRecorder, IncidentCapture, RecorderEvent, RecoveryPhase};
use byterobust_obs::{names, SpanId, SpanKind, Trace, TraceRecorder};
use byterobust_parallelism::ParallelTopology;
use byterobust_recovery::{
    DualPhaseReplay, FailoverCost, HotUpdateManager, ReplayConfig, RestartCostModel,
    StandbyPoolConfig, StandbyScheduler, UpdateRequest, UpdateUrgency, WarmStandbyPool,
};
use byterobust_sim::{SimDuration, SimRng, SimTime};
use byterobust_telemetry::LogClass;
use byterobust_trainsim::TrainingRuntime;

// The resolution-mechanism taxonomy moved to `byterobust-incident` (the
// classification matrix keys on it); re-exported here at its historical path.
pub use byterobust_incident::ResolutionMechanism;

/// The outcome of handling one incident.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentOutcome {
    /// The mechanism that finally resolved the incident.
    pub mechanism: ResolutionMechanism,
    /// The root cause the control plane concluded from its own evidence
    /// (diagnoser verdicts, analyzer decisions, replay outcomes) — recorded
    /// alongside the injector's ground truth so attribution accuracy can be
    /// scored per incident (§9).
    pub concluded_cause: RootCause,
    /// Machines evicted while resolving it.
    pub evicted: Vec<MachineId>,
    /// Whether any of the evictions were over-evictions (analyzer group
    /// eviction or replay suspect sets larger than the true culprits).
    pub over_evicted: bool,
    /// Whether user code was rolled back.
    pub rolled_back_code: bool,
    /// Whether a pending hot update was merged into the recovery.
    pub applied_hot_update: bool,
    /// The step training resumed from.
    pub resumed_step: u64,
    /// The unproductive-time breakdown.
    pub cost: FailoverCost,
    /// The frozen flight-recorder capture of this incident: pre-incident
    /// telemetry context plus every verdict, decision, eviction, and
    /// recovery-phase transition recorded while it was active.
    pub capture: IncidentCapture,
}

/// Configuration of the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Steps intentionally rolled back after manual restarts to verify
    /// bit-wise alignment of the new code (§2.1).
    pub manual_restart_verify_steps: u64,
    /// Per-machine daily failure probability used to size the standby pool.
    pub per_machine_daily_failure_prob: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            manual_restart_verify_steps: 3,
            per_machine_daily_failure_prob: 0.002,
        }
    }
}

/// The Robust Controller (control plane, §3).
#[derive(Debug, Clone)]
pub struct RobustController {
    /// Configuration.
    pub config: ControllerConfig,
    monitor: Monitor,
    diagnoser: Diagnoser,
    analyzer: RuntimeAnalyzer,
    tracer: OnDemandTracer,
    hot_update: HotUpdateManager,
    restart_model: RestartCostModel,
    stress_baseline: SelectiveStressTester,
    recorder: FlightRecorder,
    trace: TraceRecorder,
}

impl RobustController {
    /// Creates a controller for a job hosted on `job_machines` machines.
    ///
    /// The controller does not own a warm-standby pool: the caller passes one
    /// to [`RobustController::handle_incident`], which is what lets a fleet
    /// of concurrent jobs share a single pool. Solo runs create a default
    /// pool with [`RobustController::default_standby_pool`].
    pub fn new(job_machines: usize, rng: SimRng) -> Self {
        let config = ControllerConfig::default();
        RobustController {
            config,
            monitor: Monitor::new(),
            diagnoser: Diagnoser::new(rng),
            analyzer: RuntimeAnalyzer::new(),
            tracer: OnDemandTracer::new(),
            hot_update: HotUpdateManager::new(),
            restart_model: RestartCostModel::for_job(job_machines),
            stress_baseline: SelectiveStressTester::new(),
            recorder: FlightRecorder::default(),
            trace: TraceRecorder::new(),
        }
    }

    /// The warm-standby pool the controller's default sizing implies for a
    /// job of `job_machines` machines (P99 of the binomial simultaneous-
    /// failure distribution, §6.2).
    pub fn default_standby_pool(job_machines: usize) -> WarmStandbyPool {
        WarmStandbyPool::new(StandbyPoolConfig::for_job(
            job_machines,
            ControllerConfig::default().per_machine_daily_failure_prob,
        ))
    }

    /// The canonical recovery-phase decomposition of a failover cost, in
    /// chronological order. This is the single source of truth for "which
    /// phase lasted how long": the flight recorder's `PhaseTransition`
    /// events and the fleet runner's per-phase alert signals both read from
    /// it, so a detector watching `fleet/recovery-phase/…` sees exactly
    /// the durations the dossier records.
    pub fn recovery_phases(cost: &FailoverCost) -> [(RecoveryPhase, SimDuration); 6] {
        [
            (RecoveryPhase::Detection, cost.detection),
            (RecoveryPhase::Localization, cost.localization),
            (RecoveryPhase::Scheduling, cost.scheduling),
            (RecoveryPhase::PodBuild, cost.pod_build),
            (RecoveryPhase::CheckpointLoad, cost.checkpoint_load),
            (RecoveryPhase::Recompute, cost.recompute),
        ]
    }

    /// The flight recorder (frozen captures are returned inside each
    /// [`IncidentOutcome`]; background telemetry is tapped through
    /// [`RobustController::recorder_mut`]).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable recorder access, used by the telemetry tap to feed background
    /// system events into the ring between incidents.
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }

    /// Mutable access to the sim-time trace recorder, e.g. to disable it for
    /// lean mega-scale runs (see `TraceRecorder::disable`).
    pub fn trace_mut(&mut self) -> &mut TraceRecorder {
        &mut self.trace
    }

    /// The sim-time trace recorder. Spans accumulate across every incident
    /// this controller handles; all timestamps are simulated time, so the
    /// recording is a pure function of the seed.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Freezes the controller's sim-time trace under `scope` (the job
    /// label). See [`byterobust_obs::Trace::merge`] for combining per-job
    /// traces with fleet-level spans.
    pub fn trace_snapshot(&self, scope: &str) -> Trace {
        self.trace.snapshot(scope)
    }

    /// The monitor (for detection-time queries).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Mutable monitor access (metric recording).
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// The hot-update manager.
    pub fn hot_update(&self) -> &HotUpdateManager {
        &self.hot_update
    }

    /// Mutable access to the hot-update manager (to file update requests).
    pub fn hot_update_mut(&mut self) -> &mut HotUpdateManager {
        &mut self.hot_update
    }

    /// The restart-cost model.
    pub fn restart_model(&self) -> &RestartCostModel {
        &self.restart_model
    }

    /// The selective stress-testing baseline (Table 6 comparisons).
    pub fn stress_baseline(&self) -> &SelectiveStressTester {
        &self.stress_baseline
    }

    /// Log class the collected logs would show for a fault, derived from its
    /// symptom and ground-truth root cause.
    fn log_class_for(fault: &FaultEvent) -> LogClass {
        if fault.root_cause == RootCause::UserCode {
            return LogClass::UserCode;
        }
        match fault.kind {
            FaultKind::CudaError | FaultKind::GpuMemoryError | FaultKind::GpuUnavailable => {
                LogClass::CudaOrGpu
            }
            FaultKind::InfinibandError | FaultKind::JobHang => LogClass::Communication,
            FaultKind::CpuOom | FaultKind::CpuOverload | FaultKind::InsufficientDiskSpace => {
                LogClass::HostResource
            }
            FaultKind::HdfsError | FaultKind::FilesystemMount => LogClass::Storage,
            _ => LogClass::Unknown,
        }
    }

    /// Whether the fault is actually cleared given what was done so far.
    fn is_resolved(
        fault: &FaultEvent,
        evicted: &[MachineId],
        rolled_back: bool,
        restarted: bool,
    ) -> bool {
        match fault.root_cause {
            RootCause::Transient => restarted,
            RootCause::Human => restarted,
            RootCause::UserCode => rolled_back,
            RootCause::Infrastructure => fault.culprits.iter().all(|c| evicted.contains(c)),
        }
    }

    /// Handles one incident end to end, mutating the cluster (evictions,
    /// standby activation), the runtime (fault clearing, checkpoint restore),
    /// the checkpoint manager, and the warm-standby pool scheduling draws
    /// from. Returns the resolution record.
    ///
    /// The standby source is a parameter (rather than controller state) so
    /// concurrent jobs can share one fleet-level pool — or route grants
    /// through a fleet broker that preempts and migrates capacity between
    /// jobs when the shared pool runs dry. A solo run passes its own
    /// [`WarmStandbyPool`] (which implements [`StandbyScheduler`] directly).
    pub fn handle_incident(
        &mut self,
        fault: &FaultEvent,
        now: SimTime,
        cluster: &mut Cluster,
        runtime: &mut TrainingRuntime,
        ckpt: &mut CkptManager,
        standby_pool: &mut dyn StandbyScheduler,
    ) -> IncidentOutcome {
        let detection = self.monitor.detection_time_with_inspection(fault.kind);
        let mut cost = FailoverCost {
            detection,
            ..FailoverCost::default()
        };
        let mut evicted: Vec<MachineId> = Vec::new();
        let mut over_evicted = false;
        let mut rolled_back = false;
        let mut mechanism;

        // Open the flight-recorder window: recent background telemetry is
        // snapshotted as context, and everything recorded until the incident
        // closes lands in the frozen capture.
        self.recorder.open_incident(fault.seq, fault.kind, now);
        self.recorder.record(
            now + detection,
            RecorderEvent::Detected {
                kind: fault.kind,
                latency: detection,
            },
        );

        // Open the sim-time trace: one root span per incident, named after
        // the symptom, with the detection window as its first child.
        let root = self
            .trace
            .open(SpanKind::Incident, fault.kind.symptom_name(), None, now);
        self.trace.set_incident(root, fault.seq);
        let detect_span = self
            .trace
            .open(SpanKind::Detect, names::DETECT, Some(root), now);
        self.trace.close(detect_span, now + detection);
        self.trace.set_incident(detect_span, fault.seq);
        self.trace.set_value(detect_span, detection.as_millis());

        match fault.category() {
            FaultCategory::ManualRestart => {
                // §6.1: code/data adjustments are folded into an in-place hot
                // update; no machines change.
                self.hot_update.submit(UpdateRequest {
                    requested_at: now,
                    urgency: UpdateUrgency::NonCritical,
                    description: "manual code/data adjustment",
                    bug_risk: 0.05,
                });
                mechanism = ResolutionMechanism::HotUpdate;
            }
            FaultCategory::Implicit
                if matches!(fault.kind, FaultKind::JobHang | FaultKind::MfuDecline) =>
            {
                // §5: aggregation analysis and parallel-group over-eviction.
                let topology = runtime.topology().clone();
                let analyze_start = now + cost.total();
                let decision = self.run_aggregation(fault, now, runtime, &topology, &mut cost);
                let analyze_span = self.trace.open(
                    SpanKind::Analyze,
                    if decision.is_empty() {
                        names::ANALYZE_NO_OUTLIERS
                    } else {
                        names::ANALYZE_OUTLIERS
                    },
                    Some(root),
                    analyze_start,
                );
                self.trace.close(analyze_span, now + cost.total());
                self.trace.set_incident(analyze_span, fault.seq);
                self.trace
                    .set_value(analyze_span, decision.machines.len() as u64);
                if decision.is_empty() {
                    // No outliers (e.g. uniform slowdown): fall back to the
                    // stop-time path.
                    mechanism = self.stop_time_path(
                        fault,
                        now,
                        cluster,
                        root,
                        &mut cost,
                        &mut evicted,
                        &mut rolled_back,
                    );
                } else {
                    over_evicted = decision.over_evicts;
                    evicted.extend(decision.machines.iter().copied());
                    mechanism = ResolutionMechanism::AnalyzerEviction;
                }
            }
            _ => {
                // Explicit failures and NaN values. The monitor's real-time
                // inspections run first (§4.1 step 1): machines whose
                // network/GPU/host items are visibly broken are evicted
                // immediately, skipping stop-time diagnostics. Nominal
                // machines yield empty health reports, so only the cluster's
                // suspect set (dirty ∩ active, slot order) needs sweeping.
                let suspects = cluster.suspect_active_machines();
                let machine_refs: Vec<&byterobust_cluster::Machine> =
                    suspects.iter().map(|&id| cluster.machine(id)).collect();
                let findings = self.monitor.inspect(&machine_refs, now);
                let mut flagged: Vec<MachineId> = findings
                    .iter()
                    .filter(|f| !f.issue.is_network() || !fault.transient)
                    .map(|f| f.machine)
                    .collect();
                flagged.sort();
                flagged.dedup();
                if !flagged.is_empty() {
                    cost.localization += SimDuration::from_secs(60);
                    for finding in findings.iter().filter(|f| flagged.contains(&f.machine)) {
                        self.recorder.record(
                            now + cost.total(),
                            RecorderEvent::MonitorVerdict {
                                machine: finding.machine,
                                issue: format!("{:?}", finding.issue),
                            },
                        );
                    }
                    evicted.extend(flagged);
                    mechanism = ResolutionMechanism::ImmediateEviction;
                } else if fault.kind.is_high_confidence_machine_fault()
                    && !fault.culprits.is_empty()
                {
                    cost.localization += SimDuration::from_secs(60);
                    for &culprit in &fault.culprits {
                        self.recorder.record(
                            now + cost.total(),
                            RecorderEvent::MonitorVerdict {
                                machine: culprit,
                                issue: fault.kind.symptom_name().to_string(),
                            },
                        );
                    }
                    evicted.extend(fault.culprits.iter().copied());
                    mechanism = ResolutionMechanism::ImmediateEviction;
                } else {
                    // §9 repeated-occurrence heuristic: machines named by the
                    // fault-time telemetry signature (recorded data, not
                    // injector ground truth) that the fleet's repeat-offender
                    // ledger has flagged are evicted on the signature alone —
                    // prior cross-job incident history lowers their eviction
                    // threshold below the stop-time diagnostics bar.
                    let offenders = self.repeat_offender_suspects(now);
                    if !offenders.is_empty() {
                        cost.localization += SimDuration::from_secs(60);
                        for &machine in &offenders {
                            self.recorder.record(
                                now + cost.total(),
                                RecorderEvent::MonitorVerdict {
                                    machine,
                                    issue: "repeat offender (cross-job incident history)"
                                        .to_string(),
                                },
                            );
                        }
                        evicted.extend(offenders);
                        mechanism = ResolutionMechanism::ImmediateEviction;
                    } else {
                        mechanism = self.stop_time_path(
                            fault,
                            now,
                            cluster,
                            root,
                            &mut cost,
                            &mut evicted,
                            &mut rolled_back,
                        );
                    }
                }
            }
        }

        // Escalation loop (Fig. 5 fail edges): if what we did cannot actually
        // clear the fault, keep going — reattempt, rollback, replay, and as a
        // last resort evict the culprits found by replay.
        if !Self::is_resolved(fault, &evicted, rolled_back, true) {
            // Try rollback (human error in recent code).
            if !rolled_back && fault.root_cause == RootCause::UserCode {
                rolled_back = true;
                cost.localization += self.restart_model.hot_update_time();
                mechanism = ResolutionMechanism::Rollback;
            }
        }
        if !Self::is_resolved(fault, &evicted, rolled_back, true) {
            // Dual-phase replay over the machines still in the job.
            let replay_start = now + cost.total();
            let pp = runtime.job().parallelism.pp.max(1);
            let gpus_per_machine = runtime.job().parallelism.gpus_per_machine.max(1);
            let pp_machines = (pp * runtime.job().parallelism.tp)
                .div_ceil(gpus_per_machine)
                .max(1);
            let replay = DualPhaseReplay::new(ReplayConfig::new(pp_machines));
            let machines: Vec<MachineId> = cluster.active_machines();
            let faulty: std::collections::HashSet<MachineId> =
                fault.culprits.iter().copied().collect();
            let outcome = if fault.reproducible {
                replay.locate_with_ground_truth(&machines, &faulty)
            } else {
                replay.locate(&machines, |_| false)
            };
            cost.localization += outcome.duration;
            let replay_hit = outcome.found_suspects();
            let replay_suspects = outcome.suspects.len() as u64;
            if outcome.found_suspects() {
                if outcome.suspects.len() > fault.culprits.len() {
                    over_evicted = true;
                }
                self.recorder.record(
                    now + cost.total(),
                    RecorderEvent::ReplayVerdict {
                        suspects: outcome.suspects.clone(),
                        duration: outcome.duration,
                    },
                );
                evicted.extend(outcome.suspects);
                mechanism = ResolutionMechanism::DualPhaseReplay;
            } else if !fault.culprits.is_empty() {
                // Not reproducible: over-evict the culprits' machines based on
                // repeated occurrence history (the paper eventually isolates
                // them through background stress testing).
                cost.localization += SimDuration::from_mins(30);
                evicted.extend(fault.culprits.iter().copied());
                over_evicted = true;
                mechanism = ResolutionMechanism::StopTimeEviction;
            }
            let replay_span = self.trace.open(
                SpanKind::Replay,
                if replay_hit {
                    names::REPLAY_HIT
                } else {
                    names::REPLAY_MISS
                },
                Some(root),
                replay_start,
            );
            self.trace.close(replay_span, now + cost.total());
            self.trace.set_incident(replay_span, fault.seq);
            self.trace.set_value(replay_span, replay_suspects);
        }

        // The cause the control plane concluded, read off the mechanism it
        // settled on *before* recovery (recovery may opportunistically merge
        // a pending hot update into a reattempt, which does not change what
        // the diagnosis concluded about this incident).
        let concluded_cause = match mechanism {
            ResolutionMechanism::HotUpdate => RootCause::Human,
            ResolutionMechanism::Reattempt => RootCause::Transient,
            ResolutionMechanism::Rollback => RootCause::UserCode,
            ResolutionMechanism::ImmediateEviction
            | ResolutionMechanism::StopTimeEviction
            | ResolutionMechanism::DualPhaseReplay
            | ResolutionMechanism::AnalyzerEviction => RootCause::Infrastructure,
        };

        // Recovery: evictions, standby activation, hot-update merge,
        // checkpoint restore, recomputation.
        evicted.sort();
        evicted.dedup();
        let restore_span = self.recover(
            fault,
            now,
            cluster,
            runtime,
            ckpt,
            standby_pool,
            root,
            &evicted,
            rolled_back,
            &mut cost,
            &mut mechanism,
        );

        let applied_hot_update = mechanism == ResolutionMechanism::HotUpdate
            || (self.hot_update.history().last().map(|h| h.applied_at) == Some(now));

        // Record the recovery-phase transitions (chronological end times) and
        // the resume marker, then freeze the capture.
        let mut phase_clock = now;
        for (phase, duration) in Self::recovery_phases(&cost) {
            phase_clock += duration;
            if !duration.is_zero() {
                self.recorder.record(
                    phase_clock,
                    RecorderEvent::PhaseTransition { phase, duration },
                );
            }
        }
        self.recorder.record(
            now + cost.total(),
            RecorderEvent::Resumed {
                step: runtime.current_step(),
            },
        );
        let capture = self
            .recorder
            .close_incident(now + cost.total())
            .expect("incident window was opened at the top of handle_incident");

        let resume = self.trace.instant(
            SpanKind::Restore,
            names::RESUME,
            Some(restore_span),
            now + cost.total(),
        );
        self.trace.set_incident(resume, fault.seq);
        self.trace.set_value(resume, runtime.current_step());
        self.trace.close(root, now + cost.total());

        IncidentOutcome {
            mechanism,
            concluded_cause,
            over_evicted,
            rolled_back_code: rolled_back,
            applied_hot_update,
            resumed_step: runtime.current_step(),
            evicted,
            cost,
            capture,
        }
    }

    /// Machines named by the open incident's fault-time telemetry signature
    /// that the repeat-offender ledger has flagged. Both inputs are recorded
    /// data: the signature comes from the flight recorder's context snapshot,
    /// the flag from cross-job incident history fed into the monitor.
    fn repeat_offender_suspects(&self, opened_at: SimTime) -> Vec<MachineId> {
        self.recorder
            .context_machines_since(opened_at)
            .into_iter()
            .filter(|&machine| self.monitor.is_repeat_offender(machine))
            .collect()
    }

    /// Runs the aggregation analysis for an implicit failure, recording the
    /// analyzer's decision as incident evidence.
    fn run_aggregation(
        &mut self,
        fault: &FaultEvent,
        now: SimTime,
        runtime: &TrainingRuntime,
        topology: &ParallelTopology,
        cost: &mut FailoverCost,
    ) -> byterobust_analyzer::EvictionDecision {
        let decision = if fault.kind == FaultKind::MfuDecline {
            let rounds = 5;
            let (capture, capture_time) =
                self.tracer
                    .capture_rounds(runtime, rounds, SimDuration::from_secs(10));
            let outcome = self.analyzer.analyze_fail_slow(topology, &capture, rounds);
            cost.localization += capture_time + self.analyzer.config.aggregation_latency;
            outcome.decision
        } else {
            let (capture, capture_time) = self.tracer.capture(runtime);
            let outcome = self.analyzer.analyze_hang(topology, &capture);
            cost.localization += capture_time + outcome.duration;
            outcome.decision
        };
        if !decision.is_empty() {
            self.recorder.record(
                now + cost.total(),
                RecorderEvent::AnalyzerDecision {
                    machines: decision.machines.clone(),
                    shared_group: decision.shared_group.map(|group| format!("{group:?}")),
                    outlier_ranks: decision.outlier_ranks.len(),
                    over_evicts: decision.over_evicts,
                },
            );
        }
        decision
    }

    /// The hierarchical stop-time path (diagnose → evict / reattempt /
    /// rollback), returning the mechanism it settled on. The diagnoser's
    /// conclusion is recorded as incident evidence.
    #[allow(clippy::too_many_arguments)]
    fn stop_time_path(
        &mut self,
        fault: &FaultEvent,
        now: SimTime,
        cluster: &mut Cluster,
        root: SpanId,
        cost: &mut FailoverCost,
        evicted: &mut Vec<MachineId>,
        rolled_back: &mut bool,
    ) -> ResolutionMechanism {
        let log_class = Self::log_class_for(fault);
        // Stop-time suites only ever implicate non-nominal machines, and the
        // per-machine RNG draws fire only for SDC-prone (thus non-nominal)
        // ones — restricting to the suspect set preserves both the verdicts
        // and the RNG stream of a full active-fleet sweep.
        let machines = cluster.suspect_active_machines();
        let diagnose_start = now + cost.total();
        let outcome = self
            .diagnoser
            .diagnose(cluster, &machines, fault.kind, log_class);
        cost.localization += outcome.duration;
        self.recorder.record(
            now + cost.total(),
            RecorderEvent::DiagnosisDecision {
                conclusion: outcome.conclusion,
                suspects: outcome.suspects.clone(),
                duration: outcome.duration,
            },
        );
        let diagnose_span = self.trace.open(
            SpanKind::Diagnose,
            match outcome.conclusion {
                DiagnosisConclusion::FaultyMachines => names::DIAGNOSE_FAULTY_MACHINES,
                DiagnosisConclusion::UserCodeSuspected => names::DIAGNOSE_USER_CODE,
                DiagnosisConclusion::AllTestsPassed => names::DIAGNOSE_ALL_PASSED,
            },
            Some(root),
            diagnose_start,
        );
        self.trace.close(diagnose_span, now + cost.total());
        self.trace.set_incident(diagnose_span, fault.seq);
        self.trace
            .set_value(diagnose_span, outcome.suspects.len() as u64);
        match outcome.conclusion {
            DiagnosisConclusion::FaultyMachines => {
                evicted.extend(outcome.suspects);
                ResolutionMechanism::StopTimeEviction
            }
            DiagnosisConclusion::UserCodeSuspected => {
                *rolled_back = true;
                ResolutionMechanism::Rollback
            }
            DiagnosisConclusion::AllTestsPassed => ResolutionMechanism::Reattempt,
        }
    }

    /// Executes the recovery: evict machines, awaken standbys, merge pending
    /// hot updates, restore the checkpoint, account for recomputation.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &mut self,
        fault: &FaultEvent,
        now: SimTime,
        cluster: &mut Cluster,
        runtime: &mut TrainingRuntime,
        ckpt: &mut CkptManager,
        standby_pool: &mut dyn StandbyScheduler,
        root: SpanId,
        evicted: &[MachineId],
        rolled_back: bool,
        cost: &mut FailoverCost,
        mechanism: &mut ResolutionMechanism,
    ) -> SpanId {
        let restore_span = self.trace.open(
            SpanKind::Restore,
            names::RESTORE,
            Some(root),
            now + cost.total(),
        );
        self.trace.set_incident(restore_span, fault.seq);

        // Evict and blacklist.
        for &m in evicted {
            let over = !fault.culprits.contains(&m);
            cluster.evict_machine(m, now, fault.kind, over);
            self.recorder.record(
                now + cost.total(),
                RecorderEvent::Eviction {
                    machine: m,
                    over_eviction: over,
                },
            );
            let evict_span = self.trace.instant(
                SpanKind::Evict,
                if over {
                    names::EVICT_OVER
                } else {
                    names::EVICT
                },
                Some(restore_span),
                now + cost.total(),
            );
            self.trace.set_incident(evict_span, fault.seq);
            self.trace.set_machine(evict_span, m);
        }

        // Scheduling: warm standbys for evictions, in-place restart otherwise.
        if evicted.is_empty() {
            cost.scheduling += self.restart_model.hot_update_time();
        } else {
            let scheduling = standby_pool.schedule(&self.restart_model, evicted.len(), now);
            cost.scheduling += scheduling.duration;
            // Every eviction gets a replacement: pool standbys awaken; a
            // shortfall is covered by whatever the scheduler found — broker
            // preemption, cross-job migration, or the slow reschedule path —
            // all of it charged into the scheduling time above, so by the
            // time training resumes all replacements are ready. A drained
            // shared pool therefore costs time, not membership. When the pool
            // did run dry, record it so the postmortem attributes the delay
            // to capacity starvation rather than failure handling.
            if scheduling.starved() {
                self.recorder.record(
                    now + cost.total(),
                    RecorderEvent::CapacityStarvation {
                        preempted: scheduling.preempted,
                        migrated: scheduling.migrated,
                        shortfall: scheduling.shortfall,
                    },
                );
                let starved_span = self.trace.instant(
                    SpanKind::Restore,
                    names::RESTORE_STARVED,
                    Some(restore_span),
                    now + cost.total(),
                );
                self.trace.set_incident(starved_span, fault.seq);
                self.trace
                    .set_value(starved_span, scheduling.shortfall as u64);
            }
            let standbys = cluster.standby_machines();
            for standby in standbys.into_iter().take(evicted.len()) {
                cluster.activate_standby(standby);
            }
        }

        // Merge pending (lazy) hot updates into this restart (§6.1), or apply
        // the rollback.
        if rolled_back {
            if let Some(version) = self.hot_update.rollback() {
                runtime.set_code_version(version);
            } else {
                // Nothing recorded to roll back (e.g. the defect predates this
                // job's update history); revert to a fresh initial version.
                runtime.set_code_version(byterobust_trainsim::CodeVersion::initial());
            }
            self.recorder.record(
                now + cost.total(),
                RecorderEvent::Rollback {
                    to_version: runtime.code_version().version,
                },
            );
            let rollback_span = self.trace.instant(
                SpanKind::Restore,
                names::RESTORE_ROLLBACK,
                Some(restore_span),
                now + cost.total(),
            );
            self.trace.set_incident(rollback_span, fault.seq);
            self.trace
                .set_value(rollback_span, u64::from(runtime.code_version().version));
        } else if self.hot_update.has_pending() {
            if let Some(version) = self.hot_update.apply_pending(now) {
                runtime.set_code_version(version);
                self.recorder.record(
                    now + cost.total(),
                    RecorderEvent::HotUpdateApplied {
                        version: version.version,
                    },
                );
                if *mechanism == ResolutionMechanism::Reattempt {
                    *mechanism = ResolutionMechanism::HotUpdate;
                }
                let update_span = self.trace.instant(
                    SpanKind::Restore,
                    names::RESTORE_HOT_UPDATE,
                    Some(restore_span),
                    now + cost.total(),
                );
                self.trace.set_incident(update_span, fault.seq);
                self.trace
                    .set_value(update_span, u64::from(version.version));
            }
        }

        // Checkpoint restore and recomputation.
        let step_duration = runtime.nominal_step_duration();
        match ckpt.best_recovery_point(evicted) {
            Some(rp) => {
                cost.checkpoint_load += rp.load_time;
                let lost_steps = runtime.current_step().saturating_sub(rp.step);
                let verify_steps = if fault.category() == FaultCategory::ManualRestart {
                    self.config.manual_restart_verify_steps
                } else {
                    0
                };
                runtime.restore_to_step(rp.step.saturating_sub(verify_steps));
                cost.recompute += step_duration.mul(lost_steps + verify_steps);
            }
            None => {
                // No checkpoint yet (very early in the job): restart from the
                // current step without a load.
            }
        }

        runtime.clear_fault();
        self.trace.close(restore_span, now + cost.total());
        restore_span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_agent::CkptManager;
    use byterobust_cluster::ClusterSpec;
    use byterobust_trainsim::JobSpec;

    struct Fixture {
        controller: RobustController,
        cluster: Cluster,
        runtime: TrainingRuntime,
        ckpt: CkptManager,
        pool: WarmStandbyPool,
    }

    impl Fixture {
        fn handle(&mut self, event: &FaultEvent, now: SimTime) -> IncidentOutcome {
            self.controller.handle_incident(
                event,
                now,
                &mut self.cluster,
                &mut self.runtime,
                &mut self.ckpt,
                &mut self.pool,
            )
        }
    }

    fn fixture() -> Fixture {
        let job = JobSpec::small_test();
        let cluster = Cluster::build(ClusterSpec::small_test());
        let runtime = TrainingRuntime::new(job.clone());
        let ckpt = CkptManager::byterobust_default(&job);
        let controller = RobustController::new(job.machines(), SimRng::new(7));
        let pool = RobustController::default_standby_pool(job.machines());
        Fixture {
            controller,
            cluster,
            runtime,
            ckpt,
            pool,
        }
    }

    fn train_some_steps(f: &mut Fixture, steps: u64) {
        for s in 1..=steps {
            let m = f.runtime.execute_step(1.0, SimDuration::ZERO);
            let breakdown = byterobust_trainsim::StepModel::new(f.runtime.job().clone()).step(
                f.runtime.code_version(),
                1.0,
                SimDuration::ZERO,
            );
            f.ckpt.on_step(s, &breakdown);
            let _ = m;
        }
    }

    fn fault(kind: FaultKind, root_cause: RootCause, culprits: Vec<MachineId>) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_hours(1),
            kind,
            root_cause,
            culprits,
            transient: root_cause == RootCause::Transient,
            reproducible: true,
            seq: 1,
        }
    }

    #[test]
    fn gpu_unavailable_is_evicted_immediately() {
        let mut f = fixture();
        train_some_steps(&mut f, 10);
        let victim = MachineId(3);
        f.cluster.machine_mut(victim).gpu_mut(0).mark_lost();
        let event = fault(
            FaultKind::GpuUnavailable,
            RootCause::Infrastructure,
            vec![victim],
        );
        let outcome = f.handle(&event, SimTime::from_hours(1));
        assert_eq!(outcome.mechanism, ResolutionMechanism::ImmediateEviction);
        assert_eq!(outcome.evicted, vec![victim]);
        assert!(f.cluster.blacklist.contains(victim));
        // Detection at the GPU inspection interval (10 s).
        assert_eq!(outcome.cost.detection, SimDuration::from_secs(10));
        // Recovery resumed from the latest in-memory checkpoint.
        assert_eq!(outcome.resumed_step, 10);
        // A standby was activated to replace the eviction.
        assert_eq!(f.cluster.active_machines().len(), 16);
    }

    #[test]
    fn user_code_cuda_error_rolls_back() {
        let mut f = fixture();
        train_some_steps(&mut f, 5);
        // Deploy an update first so there is something to roll back.
        f.controller.hot_update_mut().submit(UpdateRequest {
            requested_at: SimTime::ZERO,
            urgency: UpdateUrgency::NonCritical,
            description: "new fused kernel",
            bug_risk: 0.9,
        });
        f.controller
            .hot_update_mut()
            .apply_pending(SimTime::from_secs(1800));
        let event = fault(FaultKind::CudaError, RootCause::UserCode, vec![]);
        let outcome = f.handle(&event, SimTime::from_hours(1));
        assert_eq!(outcome.mechanism, ResolutionMechanism::Rollback);
        assert!(outcome.rolled_back_code);
        assert!(outcome.evicted.is_empty());
    }

    #[test]
    fn transient_infiniband_error_is_reattempted() {
        let mut f = fixture();
        train_some_steps(&mut f, 5);
        let event = fault(
            FaultKind::InfinibandError,
            RootCause::Transient,
            vec![MachineId(2)],
        );
        let outcome = f.handle(&event, SimTime::from_hours(1));
        assert_eq!(outcome.mechanism, ResolutionMechanism::Reattempt);
        assert!(outcome.evicted.is_empty());
        assert_eq!(f.cluster.active_machines().len(), 16);
    }

    #[test]
    fn job_hang_goes_through_analyzer_over_eviction() {
        let mut f = fixture();
        train_some_steps(&mut f, 8);
        let victim = MachineId(6);
        f.runtime.inject_hang(vec![victim]);
        let event = fault(FaultKind::JobHang, RootCause::Infrastructure, vec![victim]);
        let outcome = f.handle(&event, SimTime::from_hours(2));
        assert_eq!(outcome.mechanism, ResolutionMechanism::AnalyzerEviction);
        assert!(outcome.evicted.contains(&victim));
        // Over-eviction is bounded: at most one machine per pipeline stage.
        assert!(outcome.evicted.len() <= f.runtime.job().parallelism.pp);
        // The job resumes from the latest checkpoint and the fault is cleared.
        assert_eq!(
            f.runtime.status(),
            byterobust_trainsim::RuntimeStatus::Running
        );
        // Detection waited for the zero-RDMA-traffic window (10 minutes).
        assert_eq!(outcome.cost.detection, SimDuration::from_mins(10));
    }

    #[test]
    fn aggregation_localization_charges_are_pinned() {
        let victim = MachineId(6);
        let mut f = fixture();
        train_some_steps(&mut f, 8);
        f.runtime.inject_hang(vec![victim]);
        let event = fault(FaultKind::JobHang, RootCause::Infrastructure, vec![victim]);
        let outcome = f.handle(&event, SimTime::from_hours(2));
        assert_eq!(outcome.mechanism, ResolutionMechanism::AnalyzerEviction);
        // Tracer capture 25 s + analyzer capture 30 s + aggregation 5 s.
        assert_eq!(outcome.cost.localization, SimDuration::from_secs(60));
        assert_eq!(f.controller.tracer.captures_taken, 1);

        let mut f = fixture();
        train_some_steps(&mut f, 8);
        f.runtime.inject_fail_slow(vec![victim], 3.0);
        let event = fault(
            FaultKind::MfuDecline,
            RootCause::Infrastructure,
            vec![victim],
        );
        let outcome = f.handle(&event, SimTime::from_hours(2));
        assert_eq!(outcome.mechanism, ResolutionMechanism::AnalyzerEviction);
        assert!(outcome.evicted.contains(&victim));
        // Tracer capture 25 s + 5 rounds × 10 s + aggregation 5 s.
        assert_eq!(outcome.cost.localization, SimDuration::from_secs(80));
        assert_eq!(f.controller.tracer.captures_taken, 5);
    }

    #[test]
    fn manual_restart_is_hot_update_with_verify_rollback() {
        let mut f = fixture();
        train_some_steps(&mut f, 20);
        let event = fault(FaultKind::CodeDataAdjustment, RootCause::Human, vec![]);
        let before_version = f.runtime.code_version().version;
        let outcome = f.handle(&event, SimTime::from_hours(3));
        assert_eq!(outcome.mechanism, ResolutionMechanism::HotUpdate);
        assert!(outcome.applied_hot_update);
        assert!(outcome.evicted.is_empty());
        // Training intentionally rolled back a few steps for verification.
        assert_eq!(
            outcome.resumed_step,
            20 - f.controller.config.manual_restart_verify_steps
        );
        // The code version advanced.
        assert!(f.runtime.code_version().version > before_version);
        // No pod rebuild for in-place updates.
        assert_eq!(outcome.cost.pod_build, SimDuration::ZERO);
    }

    #[test]
    fn repeat_offender_history_lowers_the_eviction_threshold() {
        // A CUDA error on a machine with no visible machine-level damage
        // (user-code-free but leaving no inspection findings) normally goes
        // through the full stop-time diagnostics before eviction. Once the
        // fleet ledger flags the machine as a repeat offender, its fault-time
        // telemetry signature alone justifies eviction — the same incident
        // resolves via immediate eviction with only a one-minute localization
        // charge instead of the multi-minute diagnosis suites.
        use byterobust_incident::telemetry_signature;
        use byterobust_telemetry::SystemEvent;

        let run = |flag_offender: bool| -> IncidentOutcome {
            let mut f = fixture();
            train_some_steps(&mut f, 10);
            let victim = MachineId(5);
            // Transient symptom: nothing for inspections or EUD to find.
            let mut event = fault(FaultKind::CudaError, RootCause::Transient, vec![victim]);
            event.transient = true;
            if flag_offender {
                f.controller
                    .monitor_mut()
                    .set_repeat_offenders(vec![victim]);
            }
            // The lifecycle's telemetry tap fires at fault time.
            let now = SimTime::from_hours(1);
            let kind = telemetry_signature(event.kind).expect("CUDA errors leave a signature");
            f.controller.recorder_mut().record(
                now,
                RecorderEvent::Telemetry(SystemEvent::new(now, kind, victim)),
            );
            f.handle(&event, now)
        };

        let without_history = run(false);
        assert_eq!(without_history.mechanism, ResolutionMechanism::Reattempt);
        assert!(without_history.evicted.is_empty());

        let with_history = run(true);
        assert_eq!(
            with_history.mechanism,
            ResolutionMechanism::ImmediateEviction
        );
        assert_eq!(with_history.evicted, vec![MachineId(5)]);
        assert_eq!(with_history.concluded_cause, RootCause::Infrastructure);
        assert!(
            with_history.cost.localization < without_history.cost.localization,
            "history must shorten localization: {} vs {}",
            with_history.cost.localization,
            without_history.cost.localization
        );
        // The eviction decision is visible in the capture as a monitor
        // verdict citing the cross-job history.
        assert!(with_history.capture.window.iter().any(|entry| matches!(
            &entry.event,
            RecorderEvent::MonitorVerdict { issue, .. } if issue.contains("repeat offender")
        )));
    }

    #[test]
    fn trace_diagnose_agrees_with_the_controller_verdict() {
        // The sim-time trace alone must reconstruct what the controller
        // concluded — mechanism, cause, evictions, and the resolution time.
        let mut f = fixture();
        train_some_steps(&mut f, 10);
        let victim = MachineId(3);
        f.cluster.machine_mut(victim).gpu_mut(0).mark_lost();
        let event = fault(
            FaultKind::GpuUnavailable,
            RootCause::Infrastructure,
            vec![victim],
        );
        let now = SimTime::from_hours(1);
        let outcome = f.handle(&event, now);

        let trace = f.controller.trace_snapshot("job");
        let chain =
            byterobust_obs::trace_diagnose(&trace, "job", event.seq).expect("incident traced");
        assert_eq!(chain.symptom, event.kind.symptom_name());
        assert_eq!(chain.opened_at, now);
        assert_eq!(chain.closed_at, now + outcome.cost.total());
        assert_eq!(chain.mechanism, outcome.mechanism);
        assert_eq!(chain.concluded_cause, outcome.concluded_cause);
        assert_eq!(chain.evicted, outcome.evicted);
        // The path starts at the symptom and walks detection → eviction →
        // resume in sim-time order.
        assert_eq!(chain.path[0], event.kind.symptom_name());
        assert_eq!(chain.path[1], byterobust_obs::names::DETECT);
        assert_eq!(chain.path.last().unwrap(), byterobust_obs::names::RESUME);
        // The trace also answers targeted queries: which spans touched the
        // victim machine?
        let touched =
            byterobust_obs::trace_get(&trace, &byterobust_obs::TraceQuery::new().machine(victim));
        assert!(!touched.is_empty());
        assert!(touched
            .iter()
            .all(|s| s.kind == byterobust_obs::SpanKind::Evict));
    }

    #[test]
    fn irreproducible_nan_still_gets_isolated_eventually() {
        let mut f = fixture();
        train_some_steps(&mut f, 6);
        let victim = MachineId(9);
        f.cluster.machine_mut(victim).gpu_mut(1).sdc_prone = true;
        let mut event = fault(FaultKind::NanValue, RootCause::Infrastructure, vec![victim]);
        event.reproducible = false;
        let outcome = f.handle(&event, SimTime::from_hours(1));
        // Whatever path was taken, the culprit ends up evicted and training
        // resumes.
        assert!(outcome.evicted.contains(&victim), "outcome: {outcome:?}");
        assert!(f.cluster.blacklist.contains(victim));
    }
}
