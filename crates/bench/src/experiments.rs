//! One function per paper table / figure.
//!
//! Each function runs the relevant workload on the simulator and renders the
//! same rows or series the paper reports.

use std::collections::BTreeMap;

use byterobust_agent::{Monitor, SelectiveStressTester};
use byterobust_analyzer::{AggregationResult, EvictionDecision};
use byterobust_checkpoint::{CheckpointApproach, CheckpointEngine};
use byterobust_cluster::{
    FaultCategory, FaultEvent, FaultInjector, FaultInjectorConfig, FaultKind, MachineId, RootCause,
};
use byterobust_core::{JobConfig, JobLifecycle, JobReport};
use byterobust_fleet::{
    BrokerConfig, FleetConfig, FleetQuery, FleetRunner, IncidentWarehouse, QueryResponse,
    SchedulerKind, TrafficConfig, TrafficGenerator, WarehouseService, WarehouseStorage,
};
use byterobust_incident::{
    Classification, IncidentCapture, IncidentDossier, IncidentQuery, IncidentStore,
    ResolutionMechanism, Severity,
};
use byterobust_obs::{
    score_alerts, trace_diagnose, trace_diagnose_all, trace_get, AlertScorecard, AlertTimeline,
    MetricsRegistry, RuleSet, SpanKind, Trace, TraceQuery,
};
use byterobust_parallelism::ParallelismConfig;
use byterobust_recovery::{
    binomial_quantile, DualPhaseReplay, ReplayConfig, RestartCostModel, RestartStrategy,
    StandbyPoolConfig, WarmStandbyPool,
};
use byterobust_sim::{SimDuration, SimRng, SimTime};
use byterobust_trainsim::{CodeVersion, JobSpec, StepModel, TrainingRuntime};

use crate::fast_mode;
use crate::perf::{timed, FleetBenchStats, MegaBenchStats, QueryBenchStats};
use crate::table::{fmt_pct, fmt_secs, Table};

/// Deterministic seed shared by all experiments.
pub const SEED: u64 = 20250916;

/// Runs independent `(config, seed)` jobs and returns the reports in input
/// order — on one scoped thread per job when `parallel`, on the calling
/// thread otherwise. Each simulation owns its seed and shares nothing, so
/// the reports are bit-identical between the two modes (pinned by the
/// determinism test), while the parallel wall-clock cost is the slowest job
/// instead of the sum.
pub fn job_reports(jobs: &[(JobConfig, u64)], parallel: bool) -> Vec<JobReport> {
    if !parallel {
        return jobs
            .iter()
            .map(|(config, seed)| JobLifecycle::new(config.clone(), *seed).run())
            .collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(config, seed)| {
                scope.spawn(move || JobLifecycle::new(config.clone(), *seed).run())
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("simulation thread panicked"))
            .collect()
    })
}

/// [`job_reports`] honouring the harness-wide parallelism policy
/// ([`crate::parallel_harness`]).
pub fn parallel_job_reports(jobs: &[(JobConfig, u64)]) -> Vec<JobReport> {
    job_reports(jobs, crate::parallel_harness())
}

/// Runs the two production deployment jobs of §8.1 (dense three-month job and
/// MoE one-month job on 9,600 GPUs) and returns their reports. The two
/// simulations run on separate threads ([`parallel_job_reports`]); outputs
/// are unchanged versus serial runs. In fast mode the simulated durations are
/// shortened ~10×, which preserves the shape of every derived table.
pub fn production_reports() -> (JobReport, JobReport) {
    let mut dense_cfg = JobConfig::production_dense_three_months();
    let mut moe_cfg = JobConfig::production_moe_one_month();
    if fast_mode() {
        dense_cfg.duration = SimDuration::from_days(9);
        moe_cfg.duration = SimDuration::from_days(3);
    }
    let mut reports = parallel_job_reports(&[(dense_cfg, SEED), (moe_cfg, SEED + 1)]).into_iter();
    let dense = reports.next().expect("dense report");
    let moe = reports.next().expect("moe report");
    (dense, moe)
}

/// A minimal dossier wrapping one raw injected fault, so injector samples
/// can flow through the [`IncidentStore`] query surface. Only the fields the
/// incident mix tables read (symptom, category, ground-truth root cause)
/// carry information; everything downstream of a real recovery is zeroed.
fn synthetic_dossier(event: &FaultEvent) -> IncidentDossier {
    IncidentDossier {
        seq: event.seq,
        at: event.at,
        kind: event.kind,
        category: event.kind.category(),
        root_cause: event.root_cause,
        concluded_cause: event.root_cause,
        mechanism: ResolutionMechanism::Reattempt,
        cost: Default::default(),
        evicted: Vec::new(),
        over_evicted: false,
        resumed_step: 0,
        classification: Classification {
            severity: Severity::Sev4,
            rec_code: "REC-SYNTHETIC",
            escalations: Vec::new(),
        },
        capture: IncidentCapture::empty(event.seq, event.kind, event.at),
    }
}

/// Table 1: distribution of training incidents over a large sample of the
/// production incident mix, plus Table 2's root-cause split for the three
/// symptoms it examines. The injected sample flows through an
/// [`IncidentStore`] and both tables are produced by its query surface —
/// one source of truth with the rest of the workspace, pinned byte-identical
/// to the historical raw-record fold by a transition test.
pub fn table1_incidents() -> String {
    let config = FaultInjectorConfig::default();
    let mut injector = FaultInjector::new(config, SimRng::new(SEED));
    let samples = if fast_mode() { 10_000 } else { 40_000 };
    let mut now = SimTime::ZERO;
    let mut store = IncidentStore::new();
    for _ in 0..samples {
        let event = injector.next_event(now);
        now = event.at;
        store.insert(synthetic_dossier(&event));
    }
    let counts = store.counts_by_symptom();

    let mut table = Table::new(
        "Table 1: distribution of training incidents (simulated production mix)",
        &[
            "Category",
            "Incident Symptom",
            "Count",
            "Percentage",
            "Paper %",
        ],
    );
    for kind in FaultKind::ALL {
        let count = counts.get(&kind).copied().unwrap_or(0);
        let category = match kind.category() {
            FaultCategory::Explicit => "Explicit",
            FaultCategory::Implicit => "Implicit",
            FaultCategory::ManualRestart => "Manual Restart",
        };
        table.row(&[
            category.to_string(),
            kind.symptom_name().to_string(),
            count.to_string(),
            fmt_pct(count as f64 / samples as f64),
            format!("{:.1}%", kind.table1_weight()),
        ]);
    }

    let mut table2 = Table::new(
        "Table 2: root cause of incidents (symptoms with tangled causes)",
        &["Symptom", "#Infrastructure", "#User Code", "#Total"],
    );
    for kind in [
        FaultKind::JobHang,
        FaultKind::GpuMemoryError,
        FaultKind::NanValue,
    ] {
        let matches = store.query(&IncidentQuery::any().kind(kind));
        let infra = matches
            .iter()
            .filter(|d| {
                matches!(
                    d.root_cause,
                    RootCause::Infrastructure | RootCause::Transient
                )
            })
            .count();
        let user = matches
            .iter()
            .filter(|d| matches!(d.root_cause, RootCause::UserCode))
            .count();
        table2.row(&[
            kind.symptom_name().to_string(),
            infra.to_string(),
            user.to_string(),
            (infra + user).to_string(),
        ]);
    }
    format!("{}\n{}", table.render(), table2.render())
}

/// Fig. 2: normalized loss and relative MFU of a 1,000-GPU job over a 10-day
/// span with frequent restarts.
pub fn fig2_loss_mfu() -> String {
    let job = JobSpec {
        model: byterobust_trainsim::ModelSpec::dense_70b(),
        parallelism: ParallelismConfig::new_3d(8, 5, 25, 8),
        global_batch: 500,
        micro_batch: 1,
        hardware: byterobust_trainsim::HardwareSpec::hopper(),
        target_steps: 100_000,
    };
    let days = if fast_mode() { 3 } else { 10 };
    let mut config = JobConfig::for_job(job, SimDuration::from_days(days));
    // Frequent manual adjustments, as in the paper's 28-run example.
    config.fault.manual_restart_interval = SimDuration::from_hours(9);
    let report = JobLifecycle::new(config, SEED + 2).run();

    let mut table = Table::new(
        "Fig. 2: normalized loss and relative MFU on a 1000-GPU job",
        &["Normalized Step", "Normalized Loss", "Relative MFU"],
    );
    let rel_mfu = report.relative_mfu_series();
    let max_step = report.final_step.max(1) as f64;
    let max_loss = report
        .loss_series
        .iter()
        .map(|p| p.value)
        .fold(f64::NEG_INFINITY, f64::max);
    for (loss, mfu) in report.loss_series.iter().zip(rel_mfu.iter()).step_by(4) {
        table.row(&[
            format!("{:.3}", loss.step as f64 / max_step),
            format!("{:.3}", loss.value / max_loss),
            format!("{:.3}", mfu.value),
        ]);
    }
    let runs = report.incidents.len() + 1;
    format!("{}\nTotal runs (restarts + 1): {}\n", table.render(), runs)
}

/// Fig. 3: unproductive-time breakdown per incident category.
///
/// Computed through the unified query plane: the job's incident store is
/// ingested into a warehouse, published to a [`WarehouseService`], and each
/// category row is the fold of one `FleetQuery::Dossiers` answer — the same
/// serving path live readers use — instead of a raw fold over the report's
/// incident records. The transition test pins the output byte-identical to
/// the legacy raw fold ([`JobReport::unproductive_breakdown`]).
pub fn fig3_unproductive(dense: &JobReport) -> String {
    let mut warehouse = IncidentWarehouse::new(SimDuration::from_hours(1));
    warehouse.ingest_store("dense", &dense.incident_store);
    let service = WarehouseService::default();
    service.publish(&warehouse);
    service.seal();

    let mut table = Table::new(
        "Fig. 3: unproductive time breakdown (mean seconds per incident)",
        &["Category", "Detection", "Localization", "Failover", "Total"],
    );
    let categories = [
        (FaultCategory::Explicit, "Explicit"),
        (FaultCategory::Implicit, "Implicit"),
        (FaultCategory::ManualRestart, "Manual Restart"),
    ];
    for (category, name) in categories {
        let query = FleetQuery::Dossiers(IncidentQuery::any().category(category));
        let Some((QueryResponse::Dossiers(hits), _)) = service.answer(&query) else {
            panic!("dossier arm is warehouse-backed");
        };
        if hits.is_empty() {
            continue;
        }
        // Hits arrive in canonical (start time, job, seq) order — for a
        // single shard, exactly the insertion order the raw fold used, so
        // the float accumulation is bit-identical.
        let n = hits.len() as f64;
        let (mut d, mut l, mut f) = (0.0, 0.0, 0.0);
        for (_, dossier) in &hits {
            d += dossier.cost.detection.as_secs_f64();
            l += dossier.cost.localization.as_secs_f64();
            f += dossier.cost.failover_only().as_secs_f64();
        }
        let (d, l, f) = (d / n, l / n, f / n);
        table.row(&[
            name.to_string(),
            fmt_secs(d),
            fmt_secs(l),
            fmt_secs(f),
            fmt_secs(d + l + f),
        ]);
    }
    table.render()
}

/// Table 3: detection time with vs. without inspections for representative
/// infrastructure root causes.
pub fn table3_detection() -> String {
    let monitor = Monitor::new();
    let mut table = Table::new(
        "Table 3: time to detect infrastructure failures (seconds)",
        &[
            "Category",
            "Root Cause",
            "w/ Inspection (s)",
            "w/o Inspection",
        ],
    );
    let rows: Vec<(&str, &str, f64, String)> = vec![
        (
            "Network",
            "NIC crash",
            monitor
                .detection_time_with_inspection(FaultKind::InfinibandError)
                .as_secs_f64(),
            "T_timeout".to_string(),
        ),
        (
            "Network",
            "Port Flapping",
            monitor
                .detection_time_with_inspection(FaultKind::InfinibandError)
                .as_secs_f64(),
            "T_timeout".to_string(),
        ),
        (
            "Network",
            "Switch Down",
            monitor.switch_down_detection_time().as_secs_f64(),
            "2*T_timeout".to_string(),
        ),
        (
            "GPU",
            "Driver Hang",
            monitor
                .detection_time_with_inspection(FaultKind::GpuUnavailable)
                .as_secs_f64(),
            "T_timeout".to_string(),
        ),
        (
            "GPU",
            "High Temperature",
            monitor
                .detection_time_with_inspection(FaultKind::GpuUnavailable)
                .as_secs_f64(),
            "T_monitor".to_string(),
        ),
        (
            "GPU",
            "GPU Lost",
            monitor
                .detection_time_with_inspection(FaultKind::GpuUnavailable)
                .as_secs_f64(),
            "T_timeout".to_string(),
        ),
        (
            "Host",
            "OS Kernel Fault",
            monitor
                .detection_time_with_inspection(FaultKind::OsKernelPanic)
                .as_secs_f64(),
            "T_timeout".to_string(),
        ),
    ];
    for (category, cause, with, without) in rows {
        table.row(&[
            category.to_string(),
            cause.to_string(),
            fmt_secs(with),
            without,
        ]);
    }
    let timeout = monitor.detection_time_without_inspection(FaultKind::GpuUnavailable);
    format!(
        "{}\nT_timeout = {} (PyTorch-Distributed collective timeout), T_monitor = {}\n",
        table.render(),
        timeout,
        SimDuration::from_mins(15)
    )
}

/// Table 4: distribution of resolved incidents across mechanisms for the two
/// production jobs, plus the §4.2 "lesson" mechanism shares and the severity
/// distribution. Every aggregate is an incident-store query — the table never
/// touches the raw incident records.
pub fn table4_resolution(dense: &JobReport, moe: &JobReport) -> String {
    let mut table = Table::new(
        "Table 4: incidents resolved per mechanism (count, share of job's incidents)",
        &["Job", "Mechanism", "Explicit", "Implicit", "Manual Restart"],
    );
    for (name, report) in [("Dense", dense), ("MoE", moe)] {
        let store = &report.incident_store;
        let counts = store.resolution_counts();
        let total = store.len().max(1);
        for mechanism in ["AutoFT-ER", "AutoFT-HU", "Analyzer-ER", "Rollback"] {
            let cell = |category: &str| -> String {
                match counts.get(&(mechanism, category)) {
                    Some(&count) => {
                        format!("{} ({})", count, fmt_pct(count as f64 / total as f64))
                    }
                    None => "-".to_string(),
                }
            };
            table.row(&[
                name.to_string(),
                mechanism.to_string(),
                cell("Explicit"),
                cell("Implicit"),
                cell("Manual Restart"),
            ]);
        }
    }

    let mut lesson = Table::new(
        "Lesson (Sec. 4.2): share of incidents resolved by each mechanism (dense job)",
        &["Mechanism", "Share"],
    );
    for (name, share) in dense.incident_store.mechanism_shares() {
        lesson.row(&[name.to_string(), fmt_pct(share)]);
    }

    let mut severity = Table::new(
        "Severity classes assigned by the incident classification matrix",
        &["Severity", "Dense", "MoE"],
    );
    let dense_severities = dense.incident_store.severity_counts();
    let moe_severities = moe.incident_store.severity_counts();
    for sev in byterobust_incident::Severity::ALL {
        severity.row(&[
            sev.label().to_string(),
            dense_severities.get(&sev).copied().unwrap_or(0).to_string(),
            moe_severities.get(&sev).copied().unwrap_or(0).to_string(),
        ]);
    }
    format!(
        "{}\n{}\n{}",
        table.render(),
        lesson.render(),
        severity.render()
    )
}

/// Table 6: incident resolution cost — ByteRobust vs. selective stress
/// testing. The "ours" columns are incident-store reads: the two jobs'
/// stores are merged into an [`IncidentWarehouse`] and the per-symptom
/// resolution times read from its snapshot, so the table shares its source
/// of truth with Table 4 instead of folding raw incident records.
pub fn table6_resolution_cost(dense: &JobReport, moe: &JobReport) -> String {
    let mut warehouse = IncidentWarehouse::default();
    warehouse.ingest_store("dense", &dense.incident_store);
    warehouse.ingest_store("moe", &moe.incident_store);
    let by_symptom = warehouse.snapshot().resolution_time_by_symptom();
    let baseline = SelectiveStressTester::new();
    let mut table = Table::new(
        "Table 6: incident resolution cost comparison (seconds)",
        &[
            "Incident Symptom",
            "Ours Mean (s)",
            "Ours Max (s)",
            "Selective (s)",
        ],
    );
    let symptoms = [
        FaultKind::CudaError,
        FaultKind::InfinibandError,
        FaultKind::HdfsError,
        FaultKind::OsKernelPanic,
        FaultKind::GpuMemoryError,
        FaultKind::NanValue,
        FaultKind::GpuUnavailable,
        FaultKind::CodeDataAdjustment,
    ];
    for kind in symptoms {
        let (mean, max) = by_symptom
            .get(&kind)
            .copied()
            .unwrap_or((f64::NAN, f64::NAN));
        let selective = match baseline.resolution_time(kind, RootCause::Infrastructure) {
            Some(d) => fmt_secs(d.as_secs_f64()),
            None => "INF".to_string(),
        };
        let fmt_or_dash = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                fmt_secs(v)
            }
        };
        table.row(&[
            kind.symptom_name().to_string(),
            fmt_or_dash(mean),
            fmt_or_dash(max),
            selective,
        ]);
    }
    table.render()
}

/// Table 7: scheduling time of requeue vs. in-place hot update across scales.
pub fn table7_hot_update() -> String {
    let mut table = Table::new(
        "Table 7: scheduling time upon code-update events (seconds)",
        &["Scale (# GPUs)", "Requeue (s)", "Hot update (s)", "Speedup"],
    );
    for machines in [128usize, 256, 512, 1024] {
        let model = RestartCostModel::for_job(machines);
        let requeue = model.requeue_time().as_secs_f64();
        let hot = model.hot_update_time().as_secs_f64();
        table.row(&[
            format!("{}x16", machines),
            fmt_secs(requeue),
            fmt_secs(hot),
            format!("{:.2}x", requeue / hot),
        ]);
    }
    table.render()
}

/// Fig. 12: weighted-average scheduling (WAS) time upon machine-eviction
/// events for the four restart strategies, across scales.
pub fn fig12_was() -> String {
    let per_machine_failure_prob = 0.002;
    let catastrophic_machines = 32usize;
    let catastrophic_weight = 0.01;

    let mut table = Table::new(
        "Fig. 12: weighted average scheduling (WAS) time upon machine eviction (seconds)",
        &[
            "Scale",
            "Requeue",
            "Reschedule",
            "Oracle",
            "ByteRobust",
            "P99 standbys",
        ],
    );
    for machines in [128usize, 256, 512, 1024] {
        let model = RestartCostModel::for_job(machines);
        let p99 =
            binomial_quantile(machines as u64, per_machine_failure_prob, 0.99).max(1) as usize;

        // Scenario weights: evictions 1..=P99 weighted by the binomial pmf
        // (renormalized to 99%), catastrophic switch failure at 1%.
        let mut scenarios: Vec<(usize, f64)> = Vec::new();
        let pmf_sum: f64 = (1..=p99)
            .map(|k| {
                byterobust_recovery::binomial::binomial_pmf(
                    machines as u64,
                    per_machine_failure_prob,
                    k as u64,
                )
            })
            .sum();
        for k in 1..=p99 {
            let w = byterobust_recovery::binomial::binomial_pmf(
                machines as u64,
                per_machine_failure_prob,
                k as u64,
            ) / pmf_sum
                * (1.0 - catastrophic_weight);
            scenarios.push((k, w));
        }
        scenarios.push((catastrophic_machines, catastrophic_weight));

        let was = |strategy: RestartStrategy| -> f64 {
            scenarios
                .iter()
                .map(|&(evicted, weight)| {
                    let time = match strategy {
                        RestartStrategy::WarmStandby => {
                            let mut pool = WarmStandbyPool::new(StandbyPoolConfig::for_job(
                                machines,
                                per_machine_failure_prob,
                            ));
                            model.warm_standby_time(&mut pool, evicted, SimTime::ZERO)
                        }
                        other => model.time_for(other, evicted),
                    };
                    time.as_secs_f64() * weight
                })
                .sum()
        };

        table.row(&[
            format!("{}x16", machines),
            fmt_secs(was(RestartStrategy::Requeue)),
            fmt_secs(was(RestartStrategy::Reschedule)),
            fmt_secs(was(RestartStrategy::Oracle)),
            fmt_secs(was(RestartStrategy::WarmStandby)),
            p99.to_string(),
        ]);
    }
    table.render()
}

/// Table 8: checkpointing efficiency comparison over the Table 5 setups.
pub fn table8_checkpoint() -> String {
    let mut table = Table::new(
        "Table 8: checkpointing efficiency (every-step checkpointing)",
        &[
            "Model",
            "Scale",
            "Approach",
            "Blocking Time (s)",
            "MFU (% of no-ckpt)",
        ],
    );
    let setups: [(&str, &str, JobSpec); 4] = [
        ("70B", "128x16", JobSpec::table5_70b_small()),
        ("70B", "256x16", JobSpec::table5_70b_large()),
        ("256B", "512x16", JobSpec::table5_256b_small()),
        ("256B", "1024x16", JobSpec::table5_256b_large()),
    ];
    for (model, scale, job) in setups {
        let step =
            StepModel::new(job.clone()).step(&CodeVersion::initial(), 1.0, SimDuration::ZERO);
        for approach in CheckpointApproach::ALL {
            let engine = CheckpointEngine::new(approach, &job);
            let outcome = engine.save(&step);
            let mfu = engine.relative_mfu(&step, 1);
            table.row(&[
                model.to_string(),
                scale.to_string(),
                approach.name().to_string(),
                format!("{:.2}", outcome.blocking.as_secs_f64()),
                format!("{:.2}", mfu * 100.0),
            ]);
        }
    }
    table.render()
}

/// Fig. 10: cumulative and sliding-window ETTR for the two production jobs.
pub fn fig10_ettr(dense: &JobReport, moe: &JobReport) -> String {
    let mut out = String::new();
    let window = SimDuration::from_hours(1);
    for (name, report) in [("Dense", dense), ("MoE", moe)] {
        let mut table = Table::new(
            &format!("Fig. 10: ETTR over normalized time ({name} job)"),
            &[
                "Normalized Time",
                "Cumulative ETTR",
                "Sliding-window ETTR (1h)",
            ],
        );
        let cumulative = report.ettr.cumulative_series(20);
        let sliding = report.ettr.sliding_series(20, window);
        for (i, (c, s)) in cumulative.iter().zip(sliding.iter()).enumerate() {
            table.row(&[
                format!("{:.2}", (i + 1) as f64 / 20.0),
                format!("{:.4}", c.1),
                format!("{:.4}", s.1),
            ]);
        }
        out.push_str(&table.render());
        out.push_str(&format!(
            "{name}: final cumulative ETTR = {:.3}, incidents = {}, longest unproductive stretch = {}\n\n",
            report.ettr.cumulative_ettr(),
            report.incidents.len(),
            report.ettr.longest_unproductive(),
        ));
    }
    out
}

/// Fig. 11: relative MFU over the two production jobs (hot-update leaps).
pub fn fig11_mfu(dense: &JobReport, moe: &JobReport) -> String {
    let mut out = String::new();
    for (name, report) in [("Dense", dense), ("MoE", moe)] {
        let rel = report.relative_mfu_series();
        let mut table = Table::new(
            &format!("Fig. 11: relative MFU over normalized steps ({name} job)"),
            &["Normalized Step", "Relative MFU"],
        );
        let max_step = report.final_step.max(1) as f64;
        let stride = (rel.len() / 20).max(1);
        for point in rel.iter().step_by(stride) {
            table.row(&[
                format!("{:.2}", point.step as f64 / max_step),
                format!("{:.3}", point.value),
            ]);
        }
        let final_improvement = rel.last().map(|p| p.value).unwrap_or(1.0);
        out.push_str(&table.render());
        out.push_str(&format!(
            "{name}: final relative MFU = {:.2}x over the initial run, code versions deployed = {}\n\n",
            final_improvement, report.code_versions_deployed
        ));
    }
    out
}

/// Fig. 6 / Algorithm 1: dual-phase replay localization sweep.
pub fn replay_localization() -> String {
    let replay = DualPhaseReplay::new(ReplayConfig::fig6_example());
    let machines: Vec<MachineId> = (0..24).map(MachineId).collect();
    let faulty: std::collections::HashSet<MachineId> = [MachineId(13)].into_iter().collect();
    let outcome = replay.locate_with_ground_truth(&machines, &faulty);

    let mut table = Table::new(
        "Fig. 6 / Alg. 1: dual-phase replay localization (z=24, m=4, n=6)",
        &["Quantity", "Value"],
    );
    table.row(&["Injected SDC machine".to_string(), "machine-13".to_string()]);
    table.row(&[
        "Failing horizontal group".to_string(),
        format!("H{}", outcome.horizontal_group.unwrap()),
    ]);
    table.row(&[
        "Failing vertical group".to_string(),
        format!("V{}", outcome.vertical_group.unwrap()),
    ]);
    table.row(&[
        "Suspect set".to_string(),
        outcome
            .suspects
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    table.row(&["Diagnosis time".to_string(), outcome.duration.to_string()]);

    // Sweep every culprit position to measure exactness.
    let mut exact = 0;
    for culprit in 0..24u32 {
        let faulty: std::collections::HashSet<MachineId> =
            [MachineId(culprit)].into_iter().collect();
        let o = replay.locate_with_ground_truth(&machines, &faulty);
        if o.suspects == vec![MachineId(culprit)] {
            exact += 1;
        }
    }
    table.row(&[
        "Exact isolations over 24 culprit positions".to_string(),
        format!("{exact}/24"),
    ]);
    table.render()
}

/// Fleet panel: N concurrent jobs over a shared standby pool vs. the same
/// jobs run solo (identical per-job seeds). Reports per-job ETTR both ways,
/// the shared-vs-solo standby provisioning, the cross-job warehouse severity
/// mix, the drained escalation backlog, and fleet-wide attribution accuracy.
pub fn fleet_panel() -> String {
    let runner = FleetRunner::new(FleetConfig::small_drill(), SEED + 40);
    let seeds = runner.job_seeds();
    // The solo baselines are independent simulations — run them on threads.
    let solo_jobs: Vec<(JobConfig, u64)> = runner
        .config()
        .jobs
        .iter()
        .zip(seeds.iter())
        .map(|(job, &seed)| (job.config.clone(), seed))
        .collect();
    let solo: Vec<JobReport> = parallel_job_reports(&solo_jobs);
    let fleet = runner.run();

    let mut table = Table::new(
        "Fleet panel: per-job ETTR, solo vs. shared-fleet run (same seeds)",
        &[
            "Job",
            "Machines",
            "Incidents",
            "Solo ETTR",
            "Fleet ETTR",
            "Final step",
        ],
    );
    for (job, solo_report) in fleet.jobs.iter().zip(solo.iter()) {
        table.row(&[
            job.label.clone(),
            job.machines.to_string(),
            job.report.incidents.len().to_string(),
            format!("{:.4}", solo_report.ettr.cumulative_ettr()),
            format!("{:.4}", job.report.ettr.cumulative_ettr()),
            job.report.final_step.to_string(),
        ]);
    }

    let mut severity = Table::new(
        "Fleet warehouse: severity distribution across jobs",
        &["Severity", "Count"],
    );
    let warehouse = fleet.warehouse.snapshot();
    for (sev, count) in warehouse.severity_counts() {
        severity.row(&[sev.label().to_string(), count.to_string()]);
    }

    let mut attribution = Table::new(
        "Fleet warehouse: attribution accuracy (concluded vs ground-truth cause)",
        &["Category", "Matching", "Total", "Accuracy"],
    );
    for (category, (matching, total)) in warehouse.attribution_stats() {
        attribution.row(&[
            format!("{category:?}"),
            matching.to_string(),
            total.to_string(),
            fmt_pct(matching as f64 / total.max(1) as f64),
        ]);
    }

    format!(
        "{}\n{}\n{}\nShared pool: target {} vs {} per-job; sweeps {} dispatched / {} drained in-run; \
         {} machines returned to standby; fleet ETTR = {:.4}\n",
        table.render(),
        severity.render(),
        attribution.render(),
        fleet.shared_pool_target,
        fleet.solo_pool_sum,
        fleet.drain.sweeps_dispatched,
        fleet.drain.sweeps_completed_in_run,
        fleet.drain.machines_returned_to_standby,
        fleet.fleet_ettr(),
    )
}

/// Broker panel: the starved fleet (`FleetConfig::starved_drill`) run twice
/// under identical seeds — broker disabled (the degraded baseline: every
/// pool shortfall pays the slow reschedule path) and broker enabled
/// (priority reservation, cross-job machine migration, queued admission).
/// Also asserts the byte-identity oracle: on a non-starved fleet the broker
/// never intervenes and the rendered report is byte-for-byte the
/// broker-disabled one.
pub fn broker_panel() -> String {
    // Oracle: a comfortably provisioned pool never starves, so the brokered
    // render must equal the un-brokered render exactly.
    let calm = FleetConfig::small_drill().with_pool_override(64);
    let calm_off = FleetRunner::new(calm.clone(), SEED + 50).run();
    let calm_on = FleetRunner::new(
        calm.with_broker(BrokerConfig {
            admission_limit: None,
            reserve_for_priority: 1,
        }),
        SEED + 50,
    )
    .run();
    assert_eq!(
        calm_off.render(),
        calm_on.render(),
        "non-starved fleet: broker on/off must render byte-identically"
    );
    assert_eq!(calm_off.pool_shortfall_events, 0);

    // The starved fleet, broker off vs on, same seed.
    let starved = FleetConfig::starved_drill();
    let priorities: Vec<&'static str> = starved
        .jobs
        .iter()
        .map(|job| job.priority.label())
        .collect();
    let off = FleetRunner::new(starved.clone().without_broker(), SEED + 51).run();
    let on = FleetRunner::new(starved, SEED + 51).run();

    let mut table = Table::new(
        "Broker panel: starved fleet, broker off vs on (same seeds)",
        &[
            "Job",
            "Priority",
            "ETTR off",
            "ETTR on",
            "Starved off",
            "Starved on",
            "Final step off",
            "Final step on",
        ],
    );
    let starved_off = off.starved_incidents_by_job();
    let starved_on = on.starved_incidents_by_job();
    for ((job_off, job_on), priority) in off.jobs.iter().zip(on.jobs.iter()).zip(&priorities) {
        table.row(&[
            job_off.label.clone(),
            priority.to_string(),
            format!("{:.4}", job_off.report.ettr.cumulative_ettr()),
            format!("{:.4}", job_on.report.ettr.cumulative_ettr()),
            starved_off
                .get(job_off.label.as_str())
                .copied()
                .unwrap_or(0)
                .to_string(),
            starved_on
                .get(job_on.label.as_str())
                .copied()
                .unwrap_or(0)
                .to_string(),
            job_off.report.final_step.to_string(),
            job_on.report.final_step.to_string(),
        ]);
    }

    let broker = on
        .broker
        .as_ref()
        .expect("starved drill enables the broker");
    format!(
        "{}\nFleet: ETTR {:.4} -> {:.4}; unproductive {} -> {} s; pool shortfalls {} -> {} \
         request(s)\nBroker: {} slot(s) preempted, {} machine(s) migrated, {} standby(s) held \
         for the critical tier, {} job(s) queued, {} machine(s) still rescheduled\n\
         Non-starved oracle: broker on/off byte-identical (asserted)\n",
        table.render(),
        off.fleet_ettr(),
        on.fleet_ettr(),
        off.fleet_unproductive_secs().round(),
        on.fleet_unproductive_secs().round(),
        off.pool_shortfall_events,
        on.pool_shortfall_events,
        broker.preempted_slots,
        broker.migrated_machines,
        broker.reserve_held_machines,
        broker.queued_jobs,
        broker.residual_shortfall_machines,
    )
}

/// Wall-clock and size measurements behind the persistence sections of
/// `BENCH_reproduce.json`. Never printed to stdout (timings differ run to
/// run; stdout must stay byte-identical).
#[derive(Debug, Clone, Copy)]
pub struct PersistenceStats {
    /// Bytes of the warehouse JSON export.
    pub export_bytes: usize,
    /// Wall seconds to export the warehouse to JSON.
    pub export_secs: f64,
    /// Wall seconds to parse + decode + re-index the export.
    pub import_secs: f64,
    /// Wall seconds for a full-warehouse query with every shard spilled
    /// (includes faulting all segments back in).
    pub cold_query_secs: f64,
    /// Wall seconds for the same query once everything is resident again.
    pub hot_query_secs: f64,
}

/// Persistence panel: the incident warehouse's export→import→render round
/// trip and the disk-spill path, on the small fleet drill.
///
/// Asserts three byte-identity oracles inline: (1) the re-imported
/// warehouse renders the same full-content digest as the original, (2) a
/// `JobReport` survives `export_json` → `import_json` exactly, and (3) a
/// fully spilled warehouse's snapshot answers queries identically to the
/// in-memory one and to its own oracle. The timings go to `BENCH_reproduce.json`
/// (`persistence_*` sections, guarded by `ci/bench_budget.json`); stdout
/// carries only deterministic sizes and counts.
///
/// When `BYTEROBUST_PERSIST_DIR` is set, the exported warehouse JSON and the
/// two digests (original and re-imported) are also written there — the
/// `persistence-roundtrip` CI job diffs and uploads them.
pub fn persistence_panel() -> (String, PersistenceStats) {
    let runner = FleetRunner::new(FleetConfig::small_drill(), SEED + 60);
    let report = runner.run();
    let warehouse = &report.warehouse;

    // Export → import → render, timed; the digest pins full-content
    // identity, not just counts.
    let (exported, export_secs) = timed(|| warehouse.export_json());
    let (imported, import_secs) =
        timed(|| IncidentWarehouse::import_json(&exported).expect("own export must re-import"));
    let digest = warehouse.render_digest();
    let reimported_digest = imported.render_digest();
    assert_eq!(
        digest, reimported_digest,
        "export→import→render must reproduce the warehouse byte-for-byte"
    );

    // A full job report round-trips exactly, aggregations included.
    let job = &report.jobs[0];
    let job_json = job.report.export_json();
    let job_back = JobReport::import_json(&job_json).expect("job report must re-import");
    assert_eq!(
        job_back, job.report,
        "JobReport export→import must be exact"
    );

    // Cold-vs-hot query latency: rebuild the same warehouse with storage
    // attached, flush every shard to segment files, then time one
    // full-warehouse query twice — the first faults every segment into the
    // snapshot's cache, the second runs hot.
    let persist_dir = std::env::var_os("BYTEROBUST_PERSIST_DIR").map(std::path::PathBuf::from);
    let spill_dir = persist_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("byterobust-persist-spill-{}", std::process::id()));
    let mut spilled = IncidentWarehouse::with_storage(
        warehouse.bucket_width(),
        WarehouseStorage::new(usize::MAX, &spill_dir),
    );
    for fleet_job in &report.jobs {
        spilled.ingest_store(&fleet_job.label, &fleet_job.report.incident_store);
    }
    let flushed_shards = spilled.flush_to_disk();
    let everything = FleetQuery::Incidents(IncidentQuery::any());
    let answer = |warehouse: &IncidentWarehouse| {
        let (response, _) = warehouse
            .snapshot()
            .answer(&everything)
            .expect("incidents arm is warehouse-backed");
        response
    };
    let (cold, cold_query_secs) = timed(|| answer(&spilled));
    let (hot, hot_query_secs) = timed(|| answer(&spilled));
    let cold_count = match &cold {
        QueryResponse::Incidents(rows) => rows.len(),
        other => panic!("incidents arm answered {other:?}"),
    };
    let warm = hot.render();
    assert_eq!(cold.render(), warm, "cold and hot answers agree");
    assert_eq!(
        warm,
        answer(warehouse).render(),
        "spill on/off answers must agree"
    );
    let oracle = spilled
        .snapshot()
        .oracle_answer(&everything)
        .expect("incidents arm is warehouse-backed");
    assert_eq!(
        warm,
        oracle.render(),
        "spilled answer must equal its oracle"
    );
    assert_eq!(spilled.render_digest(), digest, "spilled digest must agree");
    let spill_segments = spilled.spill_stats().segments_written;
    let _ = std::fs::remove_dir_all(&spill_dir);

    // Artifacts for the persistence-roundtrip CI job, behind the flag.
    if let Some(dir) = &persist_dir {
        std::fs::create_dir_all(dir).expect("create BYTEROBUST_PERSIST_DIR");
        std::fs::write(dir.join("warehouse.json"), &exported).expect("write warehouse.json");
        std::fs::write(dir.join("warehouse_digest.txt"), &digest).expect("write digest");
        std::fs::write(
            dir.join("warehouse_digest_reimported.txt"),
            &reimported_digest,
        )
        .expect("write reimported digest");
    }

    let mut table = Table::new(
        "Persistence panel: incident warehouse export / import / disk-spill",
        &["Quantity", "Value"],
    );
    table.row(&[
        "Warehouse incidents".to_string(),
        warehouse.len().to_string(),
    ]);
    table.row(&[
        "Warehouse shards".to_string(),
        warehouse.snapshot().jobs().len().to_string(),
    ]);
    table.row(&[
        "Export size (bytes)".to_string(),
        exported.len().to_string(),
    ]);
    table.row(&[
        "Job-report export size (bytes)".to_string(),
        job_json.len().to_string(),
    ]);
    table.row(&[
        "Spill segments written".to_string(),
        spill_segments.to_string(),
    ]);
    table.row(&[
        "Shards flushed to disk".to_string(),
        flushed_shards.to_string(),
    ]);
    table.row(&[
        "Cold query hits (== hot)".to_string(),
        cold_count.to_string(),
    ]);
    let stats = PersistenceStats {
        export_bytes: exported.len(),
        export_secs,
        import_secs,
        cold_query_secs,
        hot_query_secs,
    };
    (
        format!(
            "{}\nRound-trip oracles: export→import→render digest byte-identical; JobReport \
             export→import exact; spilled queries equal in-memory and linear scan (all asserted)\n",
            table.render()
        ),
        stats,
    )
}

/// Wall-clock self-profiling behind `BENCH_obs.json`. Never printed to
/// stdout (timings and op counts differ run to run / per scheduler; stdout
/// must stay byte-identical).
#[derive(Debug, Clone)]
pub struct ObsStats {
    /// Wall seconds to export the drill trace to JSON.
    pub trace_export_secs: f64,
    /// Wall seconds to parse + decode the export back.
    pub trace_import_secs: f64,
    /// Wall seconds to walk every cause chain out of the trace.
    pub trace_diagnose_secs: f64,
    /// The full metrics registry written to `BENCH_obs.json`.
    pub registry: MetricsRegistry,
}

/// Observability panel: the sim-time trace of the small fleet drill, its
/// determinism oracles, and the cause-chain walker's conformance against the
/// incident store.
///
/// Asserts inline: (1) the heap and naive-scan runs produce byte-identical
/// trace exports, (2) a disk-spilled run's trace is byte-identical too
/// (spill is invisible to the sim-time domain), (3) the trace export is an
/// `import_json` fixed point, (4) `trace_diagnose` reconstructs, for *every*
/// recorded incident, the mechanism, concluded cause, and eviction set the
/// dossier recorded — from spans alone, and (5) the wall-clock metrics
/// registry export is a fixed point of its own codec.
///
/// The wall-clock domain (scheduler op counters, spill/fault-in bytes,
/// broker grant outcomes, pool occupancy) is collected
/// into the returned [`MetricsRegistry`] and written to `BENCH_obs.json` by
/// `reproduce`; stdout carries only deterministic counts.
pub fn obs_panel() -> (String, ObsStats) {
    let runner = FleetRunner::new(FleetConfig::small_drill(), SEED + 70);
    let heap = runner.run();
    let naive = runner.run_with(SchedulerKind::NaiveScan);
    let (trace_json, trace_export_secs) = timed(|| heap.trace.export_json());
    assert_eq!(
        trace_json,
        naive.trace.export_json(),
        "heap vs naive-scan traces must be byte-identical"
    );

    // The same drill with the warehouse spilling to disk: the sim-time trace
    // must not notice.
    let spill_dir =
        std::env::temp_dir().join(format!("byterobust-obs-spill-{}", std::process::id()));
    let spilled = FleetRunner::new(
        FleetConfig::small_drill().with_warehouse_storage(WarehouseStorage::new(16, &spill_dir)),
        SEED + 70,
    )
    .run();
    assert_eq!(
        trace_json,
        spilled.trace.export_json(),
        "spill on/off traces must be byte-identical"
    );

    let (imported, trace_import_secs) =
        timed(|| Trace::import_json(&trace_json).expect("own trace export must re-import"));
    assert_eq!(
        imported.export_json(),
        trace_json,
        "trace export must be a fixed point"
    );
    let chrome = heap.trace.to_chrome_json();

    // Cause-chain conformance: every dossier in every job's store must be
    // reconstructible from spans alone, agreeing on mechanism, concluded
    // cause, and eviction set.
    let (chains, trace_diagnose_secs) = timed(|| trace_diagnose_all(&heap.trace));
    let mut verified = 0usize;
    let mut mechanisms: BTreeMap<String, usize> = BTreeMap::new();
    for job in &heap.jobs {
        for dossier in job.report.incident_store.all() {
            let chain = trace_diagnose(&heap.trace, &job.label, dossier.seq)
                .expect("every recorded incident has a cause chain in the trace");
            assert_eq!(
                chain.mechanism, dossier.mechanism,
                "{}#{}: trace-reconstructed mechanism",
                job.label, dossier.seq
            );
            assert_eq!(
                chain.concluded_cause, dossier.concluded_cause,
                "{}#{}: trace-reconstructed cause",
                job.label, dossier.seq
            );
            assert_eq!(
                chain.evicted, dossier.evicted,
                "{}#{}: trace-reconstructed eviction set",
                job.label, dossier.seq
            );
            *mechanisms
                .entry(chain.mechanism.display_name().to_string())
                .or_default() += 1;
            verified += 1;
        }
    }
    assert_eq!(
        chains.len(),
        verified,
        "one cause chain per recorded incident"
    );

    // The query surface, on deterministic counts only.
    let evict_spans = trace_get(&heap.trace, &TraceQuery::new().kind(SpanKind::Evict)).len();

    // Wall-clock domain: exercise the spilled warehouse (one cold query that
    // may fault segments in, one hot re-run), then collect everything into
    // the registry. None of this reaches stdout.
    let everything = FleetQuery::Incidents(IncidentQuery::any());
    let cold = spilled.answer(&everything).render();
    let hot = spilled.answer(&everything).render();
    assert_eq!(cold, hot, "cold and hot queries agree");
    let spill_stats = spilled.warehouse.spill_stats();
    drop(spilled);
    let _ = std::fs::remove_dir_all(&spill_dir);

    // Broker grant outcomes from the starved drill; its trace carries the
    // broker's interventions as spans with matching counts.
    let starved = FleetRunner::new(FleetConfig::starved_drill(), SEED + 71).run();
    let broker = starved
        .broker
        .as_ref()
        .expect("starved drill enables the broker");
    let starved_kind_count = |kind: SpanKind| {
        starved
            .trace
            .spans
            .iter()
            .filter(|span| span.kind == kind)
            .count()
    };
    assert_eq!(
        starved_kind_count(SpanKind::Preemption),
        broker.preempted_slots,
        "one Preemption span per preempted slot"
    );
    assert_eq!(
        starved_kind_count(SpanKind::Migration),
        broker.migrated_machines,
        "one Migration span per migrated machine"
    );
    let broker_spans = starved_kind_count(SpanKind::Admission)
        + starved_kind_count(SpanKind::Preemption)
        + starved_kind_count(SpanKind::Migration);

    let mut registry = MetricsRegistry::new();
    let heap_ops = heap.scheduler_ops;
    let naive_ops = naive.scheduler_ops;
    registry.set_counter("scheduler.heap.picks", heap_ops.picks);
    registry.set_counter("scheduler.heap.pushes", heap_ops.heap_pushes);
    registry.set_counter("scheduler.heap.stale_drops", heap_ops.stale_drops);
    registry.set_counter("scheduler.heap.tie_draws", heap_ops.tie_draws);
    registry.set_counter("scheduler.naive.picks", naive_ops.picks);
    registry.set_counter(
        "scheduler.naive.scan_comparisons",
        naive_ops.scan_comparisons,
    );
    registry.set_counter("scheduler.naive.tie_draws", naive_ops.tie_draws);
    registry.set_counter(
        "warehouse.segments_written",
        spill_stats.segments_written as u64,
    );
    registry.set_counter("warehouse.fault_ins", spill_stats.fault_ins as u64);
    registry.set_counter(
        "warehouse.spill_bytes_written",
        spill_stats.spill_bytes_written,
    );
    registry.set_counter("warehouse.fault_in_bytes", spill_stats.fault_in_bytes);
    registry.set_counter("broker.preempted_slots", broker.preempted_slots as u64);
    registry.set_counter("broker.migrated_machines", broker.migrated_machines as u64);
    registry.set_counter("broker.queued_jobs", broker.queued_jobs as u64);
    registry.set_counter(
        "broker.residual_shortfall_machines",
        broker.residual_shortfall_machines as u64,
    );
    registry.set_counter(
        "broker.reserve_held_machines",
        broker.reserve_held_machines as u64,
    );
    registry.set_gauge("pool.ready_final", starved.shared_pool_ready_final as f64);
    registry.set_gauge("pool.target", starved.shared_pool_target as f64);
    registry.set_counter(
        "pool.shortfall_events",
        starved.pool_shortfall_events as u64,
    );
    for (kind, count) in heap.trace.counts_by_kind() {
        registry.set_counter(&format!("trace.spans.{}", kind.label()), count as u64);
    }
    let registry_json = registry.export_json();
    let registry_back =
        MetricsRegistry::import_json(&registry_json).expect("own metrics export must re-import");
    assert_eq!(
        registry_back.export_json(),
        registry_json,
        "metrics export must be a fixed point"
    );

    let mut table = Table::new(
        "Observability panel: sim-time tracing on the small fleet drill",
        &["Quantity", "Value"],
    );
    table.row(&[
        "Trace spans".to_string(),
        heap.trace.spans.len().to_string(),
    ]);
    table.row(&[
        "Trace scopes".to_string(),
        heap.trace.scopes().len().to_string(),
    ]);
    table.row(&[
        "Trace export (bytes)".to_string(),
        trace_json.len().to_string(),
    ]);
    table.row(&[
        "Chrome export (bytes)".to_string(),
        chrome.len().to_string(),
    ]);
    table.row(&["Cause chains verified".to_string(), verified.to_string()]);
    table.row(&[
        "Evict spans (trace_get)".to_string(),
        evict_spans.to_string(),
    ]);
    table.row(&[
        "Broker spans (starved drill)".to_string(),
        broker_spans.to_string(),
    ]);

    let mut kinds = Table::new("Trace span kinds (small drill)", &["Kind", "Count"]);
    for (kind, count) in heap.trace.counts_by_kind() {
        if count > 0 {
            kinds.row(&[kind.label().to_string(), count.to_string()]);
        }
    }

    let mut chains_table = Table::new(
        "Cause chains by reconstructed mechanism (trace vs dossier: all agree)",
        &["Mechanism", "Chains"],
    );
    for (mechanism, count) in &mechanisms {
        chains_table.row(&[mechanism.clone(), count.to_string()]);
    }

    let stats = ObsStats {
        trace_export_secs,
        trace_import_secs,
        trace_diagnose_secs,
        registry,
    };
    (
        format!(
            "{}\n{}\n{}\nObservability oracles: heap/naive and spill on/off traces byte-identical; \
             trace and metrics exports are import fixed points; every cause chain agrees with its \
             recorded dossier (all asserted)\n",
            table.render(),
            kinds.render(),
            chains_table.render(),
        ),
        stats,
    )
}

/// Wall-clock measurements and lead-time scorecards behind the `alerts`
/// section of `BENCH_obs.json`.
pub struct AlertsStats {
    /// Wall seconds to score both rule-set timelines against ground
    /// truth (scoring only — the runs themselves are counted in the panel's
    /// own `alerts_panel` section).
    pub score_secs: f64,
    /// Scorecard for the built-in default rule set.
    pub default_card: AlertScorecard,
    /// Scorecard for the deliberately blunted `degraded` rule set.
    pub degraded_card: AlertScorecard,
}

impl AlertsStats {
    /// Renders the `alerts` value embedded in `BENCH_obs.json`: the scoring
    /// wall clock plus both scorecards (each its own codec document,
    /// embedded verbatim).
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"score_secs\": {:.6},\n  \"default\": {},\n  \"degraded\": {}\n  }}",
            self.score_secs,
            self.default_card.export_json().trim_end(),
            self.degraded_card.export_json().trim_end(),
        )
    }
}

/// Alerting panel: the declarative rule engine evaluated in sim time during
/// the large fleet drill, scored for lead time against the injector's ground
/// truth, across both built-in rule sets.
///
/// Asserts inline: (1) the heap and naive-scan runs produce byte-identical
/// alert timelines, (2) attaching rules leaves the rendered fleet report
/// byte-identical to a rules-off run (the timeline is its own document),
/// (3) the timeline and every scorecard are `import_json` fixed points,
/// (4) the default rules hit the acceptance bar — recall ≥ 0.9 with a
/// strictly positive median detection lead — and (5) the `degraded` variant
/// demonstrates the precision/recall trade-off (strictly lower recall,
/// strictly higher precision than default).
///
/// Stdout carries only deterministic counts and sim-time-derived scores; the
/// scoring wall clock goes into the returned [`AlertsStats`] and
/// `BENCH_obs.json`.
pub fn alerts_panel() -> (String, AlertsStats) {
    let run = |rules: RuleSet| {
        FleetRunner::new(
            FleetConfig::large_drill().with_alert_rules(rules),
            SEED + 41,
        )
        .run()
    };
    let default_run = run(RuleSet::default_rules());

    // Oracle 1: the alert timeline is a pure function of the seed — the
    // retained naive-scan scheduler must reproduce it byte-for-byte.
    let naive = FleetRunner::new(
        FleetConfig::large_drill().with_alert_rules(RuleSet::default_rules()),
        SEED + 41,
    )
    .run_with(SchedulerKind::NaiveScan);
    let timeline_json = default_run.alerts.export_json();
    assert_eq!(
        timeline_json,
        naive.alerts.export_json(),
        "heap vs naive-scan alert timelines must be byte-identical"
    );

    // Oracle 2: attaching rules is invisible to the deterministic report.
    let bare = FleetRunner::new(FleetConfig::large_drill(), SEED + 41).run();
    assert_eq!(
        bare.render(),
        default_run.render(),
        "alert rules must not perturb the rendered fleet report"
    );

    // Oracle 3: the timeline export is a codec fixed point.
    let timeline_back = AlertTimeline::import_json(&timeline_json)
        .expect("the drill's own alert timeline must re-import");
    assert_eq!(
        timeline_back.export_json(),
        timeline_json,
        "alert timeline export must be a fixed point"
    );

    let degraded_run = run(RuleSet::degraded_rules());

    // Ground truth from the injector's own dossiers: every run shares the
    // seed, so the fault windows are identical across both rule sets
    // (the default run's copy is authoritative).
    let faults = default_run.fault_windows();
    let (cards, score_secs) = timed(|| {
        [
            score_alerts(&default_run.alerts, &faults),
            score_alerts(&degraded_run.alerts, &faults),
        ]
    });
    let [default_card, degraded_card] = cards;
    for card in [&default_card, &degraded_card] {
        let json = card.export_json();
        let back = AlertScorecard::import_json(&json).expect("own scorecard must re-import");
        assert_eq!(
            back.export_json(),
            json,
            "scorecard export must be a fixed point"
        );
    }

    // The acceptance bar: the default rules catch ≥ 90% of injected faults
    // and fire, in the median, strictly before the controller detects.
    assert!(
        default_card.recall >= 0.9,
        "default rules must cover >= 90% of faults (got {:.3})",
        default_card.recall
    );
    assert!(
        default_card.median_lead_secs > 0.0,
        "default rules must fire before detection in the median (got {:.0}s)",
        default_card.median_lead_secs
    );

    // The precision/recall trade-off, demonstrated by the blunted variant:
    // raising thresholds buys precision and pays for it in coverage.
    assert!(
        degraded_card.recall < default_card.recall,
        "degraded rules must lose coverage ({:.3} vs {:.3})",
        degraded_card.recall,
        default_card.recall
    );
    assert!(
        degraded_card.precision > default_card.precision,
        "degraded rules must gain precision ({:.3} vs {:.3})",
        degraded_card.precision,
        default_card.precision
    );

    let mut table = Table::new(
        "Alerting panel: lead-time scoring on the large fleet drill",
        &[
            "Rule set",
            "Alerts",
            "Escalated",
            "Unresolved",
            "Recall",
            "Precision",
            "Median lead (s)",
            "Max lead (s)",
        ],
    );
    for card in [&default_card, &degraded_card] {
        table.row(&[
            card.rule_set.clone(),
            card.alerts.to_string(),
            card.escalated.to_string(),
            card.unresolved.to_string(),
            fmt_pct(card.recall),
            fmt_pct(card.precision),
            format!("{:.0}", card.median_lead_secs),
            format!("{:.0}", card.max_lead_secs),
        ]);
    }

    let stats = AlertsStats {
        score_secs,
        default_card,
        degraded_card,
    };
    (
        format!(
            "{}\nAlerting oracles: heap/naive timelines byte-identical; rules-on report \
             byte-identical to rules-off; timeline and scorecards are import fixed points; \
             default recall >= 0.9 with positive median lead; degraded trades recall for \
             precision (all asserted over {} ground-truth fault(s))\n",
            table.render(),
            stats.default_card.faults,
        ),
        stats,
    )
}

/// The `large_drill` throughput benchmark: ~24 concurrent jobs over a
/// four-digit machine count, run once under the heap scheduler and once under
/// the retained naive-scan reference (same seed — the reports are pinned
/// byte-identical by the oracle test, so the comparison measures scheduling
/// cost alone). Returns a deterministic summary panel (safe for stdout — no
/// timing numbers) plus the measured [`FleetBenchStats`] backing
/// `BENCH_fleet.json`.
pub fn fleet_throughput() -> (String, FleetBenchStats) {
    /// Timed runs per scheduler; the best run is reported, which damps
    /// scheduler-noise jitter on sub-100ms measurements.
    const ROUNDS: usize = 3;
    let runner = FleetRunner::new(FleetConfig::large_drill(), SEED + 41);
    let (heap_report, heap_wall_secs) = (0..ROUNDS)
        .map(|_| timed(|| runner.run()))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one round");
    let (naive_report, naive_wall_secs) = (0..ROUNDS)
        .map(|_| timed(|| runner.run_with(SchedulerKind::NaiveScan)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one round");
    assert_eq!(
        heap_report.render(),
        naive_report.render(),
        "heap and naive-scan schedulers must agree byte-for-byte"
    );
    let stats = FleetBenchStats {
        seed: heap_report.seed,
        jobs: heap_report.jobs.len(),
        machines: runner.config().total_machines(),
        incidents: heap_report.total_incidents(),
        events: heap_report.events_processed,
        heap_wall_secs,
        naive_wall_secs,
    };

    let mut table = Table::new(
        "Fleet throughput: the large drill (heap scheduler, shared standby pool)",
        &["Quantity", "Value"],
    );
    table.row(&["Concurrent jobs".to_string(), stats.jobs.to_string()]);
    table.row(&["Fleet machines".to_string(), stats.machines.to_string()]);
    table.row(&["Incidents".to_string(), stats.incidents.to_string()]);
    table.row(&["Scheduler events".to_string(), stats.events.to_string()]);
    table.row(&[
        "Fleet ETTR".to_string(),
        format!("{:.4}", heap_report.fleet_ettr()),
    ]);
    table.row(&[
        "Repeat offenders".to_string(),
        heap_report.repeat_offenders.len().to_string(),
    ]);
    table.row(&[
        "Shared pool target (vs per-job sum)".to_string(),
        format!(
            "{} vs {}",
            heap_report.shared_pool_target, heap_report.solo_pool_sum
        ),
    ]);
    (table.render(), stats)
}

/// Everything the mega panel measured: the `BENCH_fleet.json` stats plus the
/// wall-clock self-profiling domain (scheduler op counters) that
/// `reproduce` merges into the metrics registry in `BENCH_obs.json`.
#[derive(Debug, Clone)]
pub struct MegaStats {
    /// The measurement appended to `BENCH_fleet.json`.
    pub bench: MegaBenchStats,
    /// Scheduler op counters from the mega run.
    pub scheduler_ops: byterobust_fleet::SchedulerOps,
}

/// The mega-drill benchmark: the 100×-scale fleet (600 jobs, 52,224
/// machines, >1M events over 47 simulated days) run once through the fleet
/// event loop. Fast mode substitutes
/// [`FleetConfig::mega_smoke`] (60 jobs, 5,120 machines, six days), the same
/// shapes and event mix at CI scale.
///
/// Returns a deterministic summary panel (safe for stdout — no timing
/// numbers) plus the measured [`MegaStats`]: events/sec and peak RSS for
/// `BENCH_fleet.json` and scheduler-op counters for the registry in
/// `BENCH_obs.json`.
pub fn mega_panel() -> (String, MegaStats) {
    let fast = fast_mode();
    let config = if fast {
        FleetConfig::mega_smoke()
    } else {
        FleetConfig::mega_drill()
    };
    let jobs = config.jobs.len();
    let machines = config.total_machines();
    let runner = FleetRunner::new(config, SEED + 99);
    let (report, serial_wall_secs) = timed(|| runner.run_with(SchedulerKind::Heap));
    let peak_rss = crate::perf::peak_rss_bytes();

    // The canonical query mix over the whole cross-job history.
    let mega_queries = [
        IncidentQuery::any(),
        IncidentQuery::any().at_least(Severity::Sev2),
        IncidentQuery::any().window(SimTime::ZERO, SimTime::from_hours(48)),
    ];
    let mut hits = 0usize;
    for query in mega_queries {
        match report.answer(&FleetQuery::Incidents(query)) {
            QueryResponse::Incidents(rows) => hits += rows.len(),
            other => panic!("incidents arm answered {other:?}"),
        }
    }

    let stats = MegaStats {
        bench: MegaBenchStats {
            seed: report.seed,
            fast_mode: fast,
            jobs,
            machines,
            incidents: report.total_incidents(),
            events: report.events_processed,
            serial_wall_secs,
            peak_rss_bytes: peak_rss,
        },
        scheduler_ops: report.scheduler_ops,
    };

    let mut table = Table::new(
        "Mega drill: 100x fleet scale through the serial event loop",
        &["Quantity", "Value"],
    );
    table.row(&["Concurrent jobs".to_string(), jobs.to_string()]);
    table.row(&["Fleet machines".to_string(), machines.to_string()]);
    table.row(&["Incidents".to_string(), stats.bench.incidents.to_string()]);
    table.row(&[
        "Scheduler events".to_string(),
        stats.bench.events.to_string(),
    ]);
    table.row(&[
        "Fleet ETTR".to_string(),
        format!("{:.4}", report.fleet_ettr()),
    ]);
    table.row(&[
        "Repeat offenders".to_string(),
        report.repeat_offenders.len().to_string(),
    ]);
    table.row(&["Warehouse query hits".to_string(), hits.to_string()]);
    (table.render(), stats)
}

/// The resident query-plane benchmark: `large_drill` with a
/// [`WarehouseService`] attached, an open-loop synthetic stream (zipfian
/// over jobs and machines, mixed query shapes, deterministic seed) driven
/// by reader threads against the *live* service while the fleet executes.
///
/// Three oracles hold while it runs:
/// * **Live vs post-hoc** — sampled live answers record their epoch; after
///   the run the same queries replay against `snapshot_at(epoch)` and must
///   render byte-identical.
/// * **Planner vs linear scan** — sampled queries at the final epoch must
///   render byte-identical between the planner and the brute-force oracle.
/// * **Run determinism** — the drill's rendered report is byte-identical to
///   a run without any service attached (pinned by the integration tests).
///
/// Returns a deterministic summary panel (final-epoch answers only — no
/// timing, no planner mix, nothing that depends on reader interleaving)
/// plus the measured [`QueryBenchStats`] backing `BENCH_query.json`.
pub fn query_panel() -> (String, QueryBenchStats) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    let traffic_seed = SEED + 77;
    // The stream dominates this section's wall clock (the drill itself is
    // the same in both modes), so fast mode shrinks the stream: 100k
    // queries keep the fast total tracking the paper's experiments, and
    // full mode keeps the >= 1M acceptance floor.
    let queries: u64 = if fast_mode() { 100_000 } else { 1_000_000 };
    /// Every `SAMPLE_EVERY`-th query is recorded live (with its serving
    /// epoch) and replayed post-hoc for the byte-identity oracle.
    const SAMPLE_EVERY: u64 = 10_000;

    // A tight spill budget forces cold shards onto disk mid-run, so the
    // readers fault segments through the LRU at warm-up and again every
    // time an epoch grows a spilled shard. The cache budget deliberately
    // exceeds the drill's total dossier count: scans walk every shard, and
    // a budget below that working set degenerates to a 100% miss rate
    // under cyclic access — disk IO per query, not a benchmark. Eviction
    // behaviour under starved budgets is pinned by the service unit tests
    // instead.
    let spill_dir = std::env::temp_dir().join(format!(
        "byterobust-query-panel-spill-{}",
        std::process::id()
    ));
    let service = WarehouseService::new(1 << 12);
    let config = FleetConfig::large_drill()
        .with_warehouse_storage(WarehouseStorage::new(96, &spill_dir))
        .with_query_service(service.clone());
    let runner = FleetRunner::new(config, SEED + 41);
    let labels: Vec<String> = runner
        .config()
        .jobs
        .iter()
        .map(|job| job.label.clone())
        .collect();
    let machines = runner.config().total_machines() as u32;
    let generator = TrafficGenerator::new(TrafficConfig::new(traffic_seed, labels, machines, 26));

    let reader_threads = 4;
    let next = AtomicU64::new(0);
    let samples: Mutex<Vec<(u64, u64, String)>> = Mutex::new(Vec::new());

    let ((report, stream_wall_secs), drill_wall_secs) = timed(|| {
        std::thread::scope(|scope| {
            let run = scope.spawn(|| runner.run());
            // Open-loop readers: pull the next stream index, answer it
            // against whatever epoch is latest. The stream is a pure
            // function of the index, so the queries asked are identical
            // regardless of which thread asks them or when.
            let (_, stream_secs) = timed(|| {
                std::thread::scope(|readers| {
                    for _ in 0..reader_threads {
                        readers.spawn(|| loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= queries {
                                break;
                            }
                            let query = generator.query(index);
                            let Some((response, epoch)) = service.answer(&query) else {
                                // Before epoch 0 is published; retry the
                                // same query until the runner catches up.
                                while service.answer(&query).is_none() {
                                    std::hint::spin_loop();
                                }
                                continue;
                            };
                            if index.is_multiple_of(SAMPLE_EVERY) {
                                samples.lock().expect("sample lock").push((
                                    index,
                                    epoch,
                                    response.render(),
                                ));
                            }
                        });
                    }
                })
            });
            (run.join().expect("drill run"), stream_secs)
        })
    });

    // Live-vs-post-hoc oracle: every sampled live answer must replay
    // byte-identically from its epoch's post-hoc snapshot.
    let samples = samples.into_inner().expect("sample lock");
    assert!(!samples.is_empty(), "stream recorded no samples");
    for (index, epoch, live) in &samples {
        let snapshot = service.snapshot_at(*epoch).expect("published epoch");
        let (replayed, _) = snapshot
            .answer(&generator.query(*index))
            .expect("warehouse-backed arm");
        assert_eq!(
            &replayed.render(),
            live,
            "post-hoc replay of query {index} diverged from its live answer at epoch {epoch}"
        );
    }

    // Planner-vs-oracle at the final epoch, over a fresh sample of the
    // stream (different indices than the live samples, deliberately).
    let last = service.latest().expect("sealed run has epochs");
    for index in (0..queries).step_by((SAMPLE_EVERY + 13) as usize) {
        let query = generator.query(index);
        let (planned, _) = last.answer(&query).expect("warehouse-backed arm");
        let oracle = last.oracle_answer(&query).expect("warehouse-backed arm");
        assert_eq!(
            planned.render(),
            oracle.render(),
            "planner diverged from the linear-scan oracle on query {index}"
        );
    }

    let stats_snapshot = service.stats();
    let stats = QueryBenchStats {
        seed: report.seed,
        traffic_seed,
        queries,
        reader_threads,
        epochs: stats_snapshot.epochs,
        stream_wall_secs,
        drill_wall_secs,
        p50_nanos: stats_snapshot.latency.quantile(0.50),
        p99_nanos: stats_snapshot.latency.quantile(0.99),
        plans: stats_snapshot
            .plans
            .iter()
            .map(|(label, count)| (label.to_string(), *count))
            .collect(),
        cache_hits: stats_snapshot.cache.hits,
        cache_faults: stats_snapshot.cache.faults,
        cache_evictions: stats_snapshot.cache.evictions,
    };

    // The deterministic panel: final-epoch answers only. Every number here
    // is a pure function of the fleet seed (and the fast/full mode's query
    // count), independent of reader timing.
    let mut table = Table::new(
        "Query plane: snapshot-isolated reads under open-loop traffic (large drill)",
        &["Quantity", "Value"],
    );
    table.row(&["Concurrent jobs".to_string(), report.jobs.len().to_string()]);
    table.row(&[
        "Incidents".to_string(),
        report.total_incidents().to_string(),
    ]);
    table.row(&[
        "Epochs published".to_string(),
        stats_snapshot.epochs.to_string(),
    ]);
    table.row(&["Synthetic queries".to_string(), queries.to_string()]);
    let digest = match report.answer(&FleetQuery::Digest) {
        QueryResponse::Digest(digest) => digest,
        other => panic!("digest arm answered {other:?}"),
    };
    table.row(&["Warehouse total".to_string(), digest.total.to_string()]);
    for (severity, count) in &digest.severity {
        table.row(&[format!("Severity {}", severity.label()), count.to_string()]);
    }
    let final_probe = FleetQuery::Incidents(IncidentQuery::any().at_least(Severity::ALL[2]));
    let (hits, _) = last.answer(&final_probe).expect("warehouse-backed arm");
    let hit_count = match &hits {
        QueryResponse::Incidents(rows) => rows.len(),
        other => panic!("incidents arm answered {other:?}"),
    };
    table.row(&[
        format!("Hits at >= {}", Severity::ALL[2].label()),
        hit_count.to_string(),
    ]);
    let _ = std::fs::remove_dir_all(&spill_dir);
    (table.render(), stats)
}

/// Fig. 7: stack aggregation for a backward-communication hang.
pub fn analyzer_aggregation() -> String {
    let job = JobSpec {
        parallelism: ParallelismConfig::fig7_example(),
        ..JobSpec::small_test()
    };
    let mut runtime = TrainingRuntime::new(job);
    runtime.inject_hang(vec![MachineId(15)]);
    let aggregation = AggregationResult::from_capture(&runtime.capture());
    let decision =
        EvictionDecision::from_outliers(runtime.topology(), &aggregation.outlier_ranks());

    let mut table = Table::new(
        "Fig. 7: stack aggregation for a backward-communication hang (TP=2, PP=4, DP=4)",
        &["Cluster", "Process", "Size (ranks)", "Innermost frame"],
    );
    for (i, cluster) in aggregation.clusters.iter().enumerate() {
        if cluster.process != byterobust_trainsim::ProcessKind::Trainer {
            continue;
        }
        let label = if aggregation.is_dominant(cluster) {
            format!("Inlier #{i}")
        } else {
            format!("Outlier #{i}")
        };
        let leaf = cluster.fingerprint.lines().last().unwrap_or("").to_string();
        table.row(&[
            label,
            "Trainer".to_string(),
            cluster.size().to_string(),
            leaf,
        ]);
    }
    let machines: Vec<String> = decision.machines.iter().map(|m| m.to_string()).collect();
    format!(
        "{}\nIsolated suspected machines ({:?} group over-eviction): {}\n",
        table.render(),
        decision.shared_group,
        machines.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transition pin for the Table 1 migration: the tables now render from
    /// [`IncidentStore`] queries, and this test reproduces the historical
    /// raw-record fold verbatim and requires the rendered document to be
    /// byte-identical. Delete once the store-backed path has shipped a while.
    #[test]
    fn table1_store_migration_is_byte_identical_to_the_raw_fold() {
        let config = FaultInjectorConfig::default();
        let mut injector = FaultInjector::new(config, SimRng::new(SEED));
        let samples = if fast_mode() { 10_000 } else { 40_000 };
        let mut now = SimTime::ZERO;
        let mut counts: BTreeMap<FaultKind, usize> = BTreeMap::new();
        let mut root_causes: BTreeMap<FaultKind, (usize, usize)> = BTreeMap::new();
        for _ in 0..samples {
            let event = injector.next_event(now);
            now = event.at;
            *counts.entry(event.kind).or_insert(0) += 1;
            let entry = root_causes.entry(event.kind).or_insert((0, 0));
            match event.root_cause {
                RootCause::Infrastructure | RootCause::Transient => entry.0 += 1,
                RootCause::UserCode => entry.1 += 1,
                RootCause::Human => {}
            }
        }

        let mut table = Table::new(
            "Table 1: distribution of training incidents (simulated production mix)",
            &[
                "Category",
                "Incident Symptom",
                "Count",
                "Percentage",
                "Paper %",
            ],
        );
        for kind in FaultKind::ALL {
            let count = counts.get(&kind).copied().unwrap_or(0);
            let category = match kind.category() {
                FaultCategory::Explicit => "Explicit",
                FaultCategory::Implicit => "Implicit",
                FaultCategory::ManualRestart => "Manual Restart",
            };
            table.row(&[
                category.to_string(),
                kind.symptom_name().to_string(),
                count.to_string(),
                fmt_pct(count as f64 / samples as f64),
                format!("{:.1}%", kind.table1_weight()),
            ]);
        }

        let mut table2 = Table::new(
            "Table 2: root cause of incidents (symptoms with tangled causes)",
            &["Symptom", "#Infrastructure", "#User Code", "#Total"],
        );
        for kind in [
            FaultKind::JobHang,
            FaultKind::GpuMemoryError,
            FaultKind::NanValue,
        ] {
            let (infra, user) = root_causes.get(&kind).copied().unwrap_or((0, 0));
            table2.row(&[
                kind.symptom_name().to_string(),
                infra.to_string(),
                user.to_string(),
                (infra + user).to_string(),
            ]);
        }
        let legacy = format!("{}\n{}", table.render(), table2.render());

        assert_eq!(
            table1_incidents(),
            legacy,
            "store-backed Table 1/2 must render byte-identically to the raw fold"
        );
    }

    /// Transition pin for the Fig. 3 migration: the figure now renders from
    /// a warehouse query served by the resident query plane, and this test
    /// reproduces the historical raw-record fold
    /// ([`JobReport::unproductive_breakdown`]) verbatim and requires the
    /// rendered document to be byte-identical. Delete once the query-backed
    /// path has shipped a while.
    #[test]
    fn fig3_query_migration_is_byte_identical_to_the_raw_fold() {
        let (dense, _) = production_reports();

        let mut table = Table::new(
            "Fig. 3: unproductive time breakdown (mean seconds per incident)",
            &["Category", "Detection", "Localization", "Failover", "Total"],
        );
        for (category, (d, l, f)) in dense.unproductive_breakdown() {
            table.row(&[
                category.to_string(),
                fmt_secs(d),
                fmt_secs(l),
                fmt_secs(f),
                fmt_secs(d + l + f),
            ]);
        }
        let legacy = table.render();

        assert_eq!(
            fig3_unproductive(&dense),
            legacy,
            "query-backed Fig. 3 must render byte-identically to the raw fold"
        );
    }
}
