//! Incident taxonomy (Table 1, Table 2) and the fault injector.
//!
//! The paper classifies training incidents into three categories: explicit
//! failures (clear diagnostic indicators), implicit failures (hangs, MFU
//! decline, NaN values) and manual restarts (code/data adjustments). The
//! injector reproduces the production incident mix reported in Table 1 and
//! the root-cause split of Table 2, driven by a Poisson arrival process whose
//! rate scales with cluster size (Meta reports roughly one hardware failure
//! every 2.78 hours at 16k GPUs; the default rate here is calibrated to that).

use byterobust_sim::{SimDuration, SimRng, SimTime};

use crate::ids::MachineId;

/// Incident category (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultCategory {
    /// Clear diagnostic indicators: error messages, exit codes.
    Explicit,
    /// Hangs, performance degradation, anomalous trajectories; root causes
    /// are elusive.
    Implicit,
    /// Proactive interruption for algorithm/engineering changes.
    ManualRestart,
}

/// Concrete incident symptom, mirroring Table 1 of the paper exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    // --- Explicit failures ---
    /// CUDA error raised by a kernel launch or runtime call (36.1%).
    CudaError,
    /// Host CPU overload (11.0%).
    CpuOverload,
    /// Host out-of-memory (10.1%).
    CpuOom,
    /// Insufficient disk space on the host (5.0%).
    InsufficientDiskSpace,
    /// InfiniBand/RDMA NIC or link error (2.9%).
    InfinibandError,
    /// Shared filesystem mount failure (2.1%).
    FilesystemMount,
    /// Remote HDFS storage error (2.0%).
    HdfsError,
    /// Container runtime error (1.4%).
    ContainerError,
    /// OS kernel panic (0.4%).
    OsKernelPanic,
    /// GPU memory error, e.g. illegal memory access / uncorrectable ECC (0.3%).
    GpuMemoryError,
    /// Error from an external dependency service (0.2%).
    ExternalServiceError,
    /// GPU has fallen off the bus (0.1%).
    GpuUnavailable,
    /// Local disk fault (0.1%).
    DiskFault,
    // --- Implicit failures ---
    /// Job hang: no forward progress, no error output (9.9%).
    JobHang,
    /// MFU decline / fail-slow (0.8%).
    MfuDecline,
    /// NaN loss or gradient values (0.3%), often rooted in SDC.
    NanValue,
    // --- Manual restarts ---
    /// Code or data adjustment requested by engineers (17.3%).
    CodeDataAdjustment,
}

impl FaultKind {
    /// All symptom kinds, in Table 1 order.
    pub const ALL: [FaultKind; 17] = [
        FaultKind::CudaError,
        FaultKind::CpuOverload,
        FaultKind::CpuOom,
        FaultKind::InsufficientDiskSpace,
        FaultKind::InfinibandError,
        FaultKind::FilesystemMount,
        FaultKind::HdfsError,
        FaultKind::ContainerError,
        FaultKind::OsKernelPanic,
        FaultKind::GpuMemoryError,
        FaultKind::ExternalServiceError,
        FaultKind::GpuUnavailable,
        FaultKind::DiskFault,
        FaultKind::JobHang,
        FaultKind::MfuDecline,
        FaultKind::NanValue,
        FaultKind::CodeDataAdjustment,
    ];

    /// Incident category per Table 1.
    pub fn category(self) -> FaultCategory {
        use FaultKind::*;
        match self {
            CudaError
            | CpuOverload
            | CpuOom
            | InsufficientDiskSpace
            | InfinibandError
            | FilesystemMount
            | HdfsError
            | ContainerError
            | OsKernelPanic
            | GpuMemoryError
            | ExternalServiceError
            | GpuUnavailable
            | DiskFault => FaultCategory::Explicit,
            JobHang | MfuDecline | NanValue => FaultCategory::Implicit,
            CodeDataAdjustment => FaultCategory::ManualRestart,
        }
    }

    /// Production frequency weight from Table 1 (percentage of all incidents
    /// over the three-month window). The weights sum to ~100.
    pub fn table1_weight(self) -> f64 {
        use FaultKind::*;
        match self {
            CudaError => 36.1,
            CpuOverload => 11.0,
            CpuOom => 10.1,
            InsufficientDiskSpace => 5.0,
            InfinibandError => 2.9,
            FilesystemMount => 2.1,
            HdfsError => 2.0,
            ContainerError => 1.4,
            OsKernelPanic => 0.4,
            GpuMemoryError => 0.3,
            ExternalServiceError => 0.2,
            GpuUnavailable => 0.1,
            DiskFault => 0.1,
            JobHang => 9.9,
            MfuDecline => 0.8,
            NanValue => 0.3,
            CodeDataAdjustment => 17.3,
        }
    }

    /// Human-readable symptom name used in table output (matches the paper).
    pub fn symptom_name(self) -> &'static str {
        use FaultKind::*;
        match self {
            CudaError => "CUDA Error",
            CpuOverload => "CPU Overload",
            CpuOom => "CPU OOM",
            InsufficientDiskSpace => "Insufficient Disk Space",
            InfinibandError => "Infiniband Error",
            FilesystemMount => "Filesystem Mount",
            HdfsError => "HDFS Error",
            ContainerError => "Container Error",
            OsKernelPanic => "OS Kernel Panic",
            GpuMemoryError => "GPU Memory Error",
            ExternalServiceError => "External Service Error",
            GpuUnavailable => "GPU Unavailable",
            DiskFault => "Disk Fault",
            JobHang => "Job Hang",
            MfuDecline => "MFU Decline",
            NanValue => "NaN value",
            CodeDataAdjustment => "Code/Data Adjustment",
        }
    }

    /// Whether the symptom immediately and confidently points to specific
    /// machines, allowing the controller to skip stop-time diagnostics
    /// (§4.1: "GPU Unavailable, Disk Fault" and similar hardware-definite
    /// signals).
    pub fn is_high_confidence_machine_fault(self) -> bool {
        use FaultKind::*;
        matches!(
            self,
            GpuUnavailable | DiskFault | OsKernelPanic | GpuMemoryError
        )
    }
}

/// Root cause classes from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootCause {
    /// Underlying hardware or platform software (GPUs, NICs, switches,
    /// remote storage, host OS).
    Infrastructure,
    /// Bugs or misconfiguration in the evolving user training code.
    UserCode,
    /// Deliberate human action (manual restart for code/data adjustment).
    Human,
    /// Transient environmental glitch (link flap, connection reset) that
    /// disappears on a plain restart.
    Transient,
}

/// A concrete incident produced by the injector.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the underlying fault begins to affect the job.
    pub at: SimTime,
    /// Observable symptom.
    pub kind: FaultKind,
    /// Ground-truth root cause (hidden from the detection path; used by the
    /// harness to score diagnosis decisions).
    pub root_cause: RootCause,
    /// Machines at fault. Empty for pure user-code / manual incidents.
    pub culprits: Vec<MachineId>,
    /// Whether the fault disappears after a simple restart (reattempt
    /// succeeds). Link flaps and connection resets behave this way.
    pub transient: bool,
    /// Whether the fault reproduces deterministically under stop-time
    /// diagnostics. SDC-rooted NaN incidents often do not (§2.2, §9).
    pub reproducible: bool,
    /// Monotonic incident sequence number.
    pub seq: u64,
}

impl FaultEvent {
    /// Incident category of the symptom.
    pub fn category(&self) -> FaultCategory {
        self.kind.category()
    }
}

/// Probability that an infrastructure incident is transient (reattempt alone
/// fixes it). §4.2 reports 22.7% of failures recovered by reattempt.
const TRANSIENT_FRACTION: f64 = 0.25;
/// Probability that an SDC-rooted incident reproduces under stop-time
/// diagnostics (EUD recall is ~70% per §9).
const SDC_REPRODUCIBLE_PROB: f64 = 0.70;
/// Fraction of machines that are latently SDC-prone (§9).
const SDC_PRONE_MACHINE_FRACTION: f64 = 0.002;

/// Configuration for the fault injector.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjectorConfig {
    /// Number of machines in the job.
    pub machines: usize,
    /// GPUs per machine (failure rate scales with total GPU count).
    pub gpus_per_machine: usize,
    /// Mean time between *infrastructure/implicit* incidents for a reference
    /// 16,384-GPU job. Defaults to 2.78 hours (Llama-3 report cited in §1).
    pub reference_mtbf: SimDuration,
    /// Reference GPU count the MTBF above is quoted at.
    pub reference_gpus: usize,
    /// Mean time between manual restarts (code/data adjustments). The paper's
    /// Table 1 shows manual restarts are ~17% of incidents; during active
    /// development they arrive every several hours. Defaults to 12 hours.
    pub manual_restart_interval: SimDuration,
    /// Probability that a failure with a code-compatible symptom is actually
    /// rooted in recently-integrated user code rather than infrastructure
    /// (Table 2 shows e.g. 41/62 illegal-memory-access incidents were user
    /// code).
    pub user_code_fraction: f64,
}

impl Default for FaultInjectorConfig {
    fn default() -> Self {
        FaultInjectorConfig {
            machines: 1200,
            gpus_per_machine: 8,
            reference_mtbf: SimDuration::from_secs((2.78 * 3600.0) as u64),
            reference_gpus: 16_384,
            manual_restart_interval: SimDuration::from_hours(12),
            user_code_fraction: 0.30,
        }
    }
}

impl FaultInjectorConfig {
    /// Total GPUs in the job.
    pub fn total_gpus(&self) -> usize {
        self.machines * self.gpus_per_machine
    }

    /// Mean time between infrastructure incidents for this job size (failure
    /// rate scales linearly with GPU count).
    pub fn scaled_mtbf(&self) -> SimDuration {
        let scale = self.reference_gpus as f64 / self.total_gpus().max(1) as f64;
        SimDuration::from_millis(
            (self.reference_mtbf.as_millis() as f64 * scale)
                .round()
                .max(1.0) as u64,
        )
    }

    /// Expected number of machine-level failures per machine per day, derived
    /// from the scaled MTBF. Used for the binomial warm-standby sizing (§6.2).
    pub fn per_machine_daily_failure_prob(&self) -> f64 {
        let incidents_per_day = 24.0 / self.scaled_mtbf().as_hours_f64();
        // Only machine-attributable incidents consume standbys.
        let machine_attributable = 0.8;
        (incidents_per_day * machine_attributable / self.machines.max(1) as f64).clamp(0.0, 1.0)
    }
}

/// Deterministic generator of [`FaultEvent`]s following the Table 1 mix.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultInjectorConfig,
    rng: SimRng,
    next_infra_at: SimTime,
    next_manual_at: SimTime,
    seq: u64,
    sdc_prone_machines: Vec<MachineId>,
    /// The Table 1 symptoms an infrastructure arrival draws from (every kind
    /// but manual restarts, which have their own arrival process), in
    /// Table 1 order, and their weights.
    infra_kinds: Box<[FaultKind]>,
    infra_weights: Box<[f64]>,
}

impl FaultInjector {
    /// Creates an injector; `rng` should be a dedicated fork of the experiment
    /// RNG so that injection is independent of other random decisions.
    pub fn new(config: FaultInjectorConfig, mut rng: SimRng) -> Self {
        let sdc_count = ((config.machines as f64 * SDC_PRONE_MACHINE_FRACTION).round() as usize)
            .min(config.machines);
        let sdc_prone_machines = rng
            .sample_indices(config.machines, sdc_count)
            .into_iter()
            .map(|i| MachineId(i as u32))
            .collect();
        let infra_kinds: Box<[FaultKind]> = FaultKind::ALL
            .into_iter()
            .filter(|k| k.category() != FaultCategory::ManualRestart)
            .collect();
        let infra_weights = infra_kinds.iter().map(|k| k.table1_weight()).collect();
        let mut injector = FaultInjector {
            config,
            rng,
            next_infra_at: SimTime::ZERO,
            next_manual_at: SimTime::ZERO,
            seq: 0,
            sdc_prone_machines,
            infra_kinds,
            infra_weights,
        };
        injector.next_infra_at = SimTime::ZERO + injector.sample_infra_gap();
        injector.next_manual_at = SimTime::ZERO + injector.sample_manual_gap();
        injector
    }

    fn sample_infra_gap(&mut self) -> SimDuration {
        let mean = self.config.scaled_mtbf();
        // Infrastructure + implicit incidents are ~82.7% of the Table 1 mix;
        // the MTBF above covers exactly those, so use it directly.
        self.rng.exponential(mean)
    }

    fn sample_manual_gap(&mut self) -> SimDuration {
        self.rng.exponential(self.config.manual_restart_interval)
    }

    /// Produces the next incident at or after `now`. The injector maintains
    /// two independent arrival processes (infrastructure/implicit and manual
    /// restarts) and returns whichever fires first.
    pub fn next_event(&mut self, now: SimTime) -> FaultEvent {
        // If the processes have fallen behind `now` (e.g. a long recovery),
        // push them forward so incidents don't pile up in the past.
        while self.next_infra_at < now {
            let gap = self.sample_infra_gap();
            self.next_infra_at = now + gap;
        }
        while self.next_manual_at < now {
            let gap = self.sample_manual_gap();
            self.next_manual_at = now + gap;
        }
        if self.next_manual_at < self.next_infra_at {
            let at = self.next_manual_at;
            self.next_manual_at = at + self.sample_manual_gap();
            self.make_manual_event(at)
        } else {
            let at = self.next_infra_at;
            self.next_infra_at = at + self.sample_infra_gap();
            self.make_infra_event(at)
        }
    }

    fn make_manual_event(&mut self, at: SimTime) -> FaultEvent {
        self.seq += 1;
        FaultEvent {
            at,
            kind: FaultKind::CodeDataAdjustment,
            root_cause: RootCause::Human,
            culprits: Vec::new(),
            transient: false,
            reproducible: true,
            seq: self.seq,
        }
    }

    fn make_infra_event(&mut self, at: SimTime) -> FaultEvent {
        self.seq += 1;
        // Sample a symptom from the Table 1 mix, excluding manual restarts.
        let kind = self.infra_kinds[self.rng.weighted_index(&self.infra_weights)];

        let root_cause = self.sample_root_cause(kind);
        let culprits = self.sample_culprits(kind, root_cause);
        let transient = root_cause == RootCause::Transient;
        let reproducible = if kind == FaultKind::NanValue && root_cause == RootCause::Infrastructure
        {
            // SDC-rooted NaN: often not reproducible under stop-time checks.
            self.rng.chance(SDC_REPRODUCIBLE_PROB)
        } else {
            true
        };
        FaultEvent {
            at,
            kind,
            root_cause,
            culprits,
            transient,
            reproducible,
            seq: self.seq,
        }
    }

    fn sample_root_cause(&mut self, kind: FaultKind) -> RootCause {
        use FaultKind::*;
        match kind {
            // Symptoms that can stem from either infrastructure or user code
            // (Table 2: job hang 21/5, illegal memory access 21/41, NaN 3/1).
            CudaError | GpuMemoryError | JobHang | NanValue | CpuOom | CpuOverload => {
                if self.rng.chance(self.config.user_code_fraction) {
                    RootCause::UserCode
                } else if self.rng.chance(TRANSIENT_FRACTION) {
                    RootCause::Transient
                } else {
                    RootCause::Infrastructure
                }
            }
            // Network issues frequently self-recover.
            InfinibandError => {
                if self.rng.chance(0.5) {
                    RootCause::Transient
                } else {
                    RootCause::Infrastructure
                }
            }
            // Storage / host / container issues are infrastructure, with some
            // transient share.
            HdfsError | FilesystemMount | ExternalServiceError | ContainerError => {
                if self.rng.chance(TRANSIENT_FRACTION) {
                    RootCause::Transient
                } else {
                    RootCause::Infrastructure
                }
            }
            InsufficientDiskSpace | OsKernelPanic | GpuUnavailable | DiskFault => {
                RootCause::Infrastructure
            }
            MfuDecline => RootCause::Infrastructure,
            CodeDataAdjustment => RootCause::Human,
        }
    }

    fn sample_culprits(&mut self, kind: FaultKind, root_cause: RootCause) -> Vec<MachineId> {
        if root_cause == RootCause::UserCode || root_cause == RootCause::Human {
            return Vec::new();
        }
        // Storage-service and external-dependency errors are not attributable
        // to training machines; they resolve by retrying against the service.
        if matches!(kind, FaultKind::HdfsError | FaultKind::ExternalServiceError) {
            return Vec::new();
        }
        let machines = self.config.machines;
        if machines == 0 {
            return Vec::new();
        }
        match kind {
            // NaN from SDC comes from one of the latently SDC-prone machines
            // when any exist; failures are single-machine in the common case.
            FaultKind::NanValue if !self.sdc_prone_machines.is_empty() => {
                vec![*self.rng.choose(&self.sdc_prone_machines)]
            }
            // A switch-level Infiniband problem can involve the whole group of
            // machines under a leaf switch; model a small multi-machine blast
            // radius occasionally.
            FaultKind::InfinibandError if self.rng.chance(0.15) => {
                let blast = 4.min(machines);
                let start = self.rng.index(machines.saturating_sub(blast).max(1));
                (start..start + blast)
                    .map(|i| MachineId(i as u32))
                    .collect()
            }
            // Simultaneous independent multi-machine failures are extremely
            // rare (§6.2); default to exactly one culprit machine.
            _ => vec![MachineId(self.rng.index(machines) as u32)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(seed: u64) -> FaultInjector {
        FaultInjector::new(FaultInjectorConfig::default(), SimRng::new(seed))
    }

    #[test]
    fn table1_weights_sum_to_about_100() {
        let total: f64 = FaultKind::ALL.iter().map(|k| k.table1_weight()).sum();
        assert!((total - 100.0).abs() < 1.0, "total = {total}");
    }

    #[test]
    fn categories_match_table1() {
        assert_eq!(FaultKind::CudaError.category(), FaultCategory::Explicit);
        assert_eq!(FaultKind::JobHang.category(), FaultCategory::Implicit);
        assert_eq!(FaultKind::NanValue.category(), FaultCategory::Implicit);
        assert_eq!(FaultKind::MfuDecline.category(), FaultCategory::Implicit);
        assert_eq!(
            FaultKind::CodeDataAdjustment.category(),
            FaultCategory::ManualRestart
        );
    }

    #[test]
    fn scaled_mtbf_inverse_in_gpus() {
        let small = FaultInjectorConfig {
            machines: 128,
            gpus_per_machine: 8,
            ..FaultInjectorConfig::default()
        };
        let mut big = small.clone();
        big.machines = 2048;
        assert!(small.scaled_mtbf() > big.scaled_mtbf());
        // 16x more GPUs -> 16x shorter MTBF.
        let ratio = small.scaled_mtbf().as_millis() as f64 / big.scaled_mtbf().as_millis() as f64;
        assert!((ratio - 16.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn events_are_time_ordered_and_deterministic() {
        let mut a = injector(5);
        let mut b = injector(5);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let ea = a.next_event(now);
            let eb = b.next_event(now);
            assert_eq!(ea, eb);
            assert!(ea.at >= now);
            now = ea.at;
        }
    }

    #[test]
    fn incident_mix_roughly_matches_table1() {
        let mut inj = injector(11);
        let mut now = SimTime::ZERO;
        let mut explicit = 0usize;
        let mut implicit = 0usize;
        let mut manual = 0usize;
        let n = 4_000;
        for _ in 0..n {
            let e = inj.next_event(now);
            now = e.at;
            match e.category() {
                FaultCategory::Explicit => explicit += 1,
                FaultCategory::Implicit => implicit += 1,
                FaultCategory::ManualRestart => manual += 1,
            }
        }
        let explicit_frac = explicit as f64 / n as f64;
        let implicit_frac = implicit as f64 / n as f64;
        let manual_frac = manual as f64 / n as f64;
        // Table 1: explicit ~71.6%, implicit ~11.0%, manual ~17.3%. The manual
        // share here depends on the arrival-rate ratio, so allow broad bands.
        assert!(explicit_frac > 0.5, "explicit = {explicit_frac}");
        assert!(
            implicit_frac > 0.05 && implicit_frac < 0.25,
            "implicit = {implicit_frac}"
        );
        assert!(
            manual_frac > 0.02 && manual_frac < 0.45,
            "manual = {manual_frac}"
        );
    }

    #[test]
    fn manual_restarts_have_no_culprits() {
        let mut inj = injector(13);
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            let e = inj.next_event(now);
            now = e.at;
            if e.kind == FaultKind::CodeDataAdjustment {
                assert!(e.culprits.is_empty());
                assert_eq!(e.root_cause, RootCause::Human);
                return;
            }
        }
        panic!("no manual restart sampled in 500 events");
    }

    #[test]
    fn infra_failures_name_valid_culprits() {
        let mut inj = injector(17);
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            let e = inj.next_event(now);
            now = e.at;
            if e.root_cause == RootCause::Infrastructure
                && !matches!(
                    e.kind,
                    FaultKind::HdfsError | FaultKind::ExternalServiceError
                )
            {
                assert!(
                    !e.culprits.is_empty(),
                    "infrastructure fault without culprits: {e:?}"
                );
                for m in &e.culprits {
                    assert!(m.index() < inj.config.machines);
                }
            }
            if e.root_cause == RootCause::UserCode {
                assert!(e.culprits.is_empty());
            }
        }
    }

    #[test]
    fn sdc_prone_machines_are_seeded() {
        let inj = injector(19);
        let expected = (1200f64 * SDC_PRONE_MACHINE_FRACTION).round() as usize;
        assert_eq!(inj.sdc_prone_machines.len(), expected);
    }

    #[test]
    fn some_nan_incidents_are_not_reproducible() {
        let mut inj = injector(23);
        let mut now = SimTime::ZERO;
        let mut nan_seen = 0;
        let mut irreproducible = 0;
        for _ in 0..20_000 {
            let e = inj.next_event(now);
            now = e.at;
            if e.kind == FaultKind::NanValue && e.root_cause == RootCause::Infrastructure {
                nan_seen += 1;
                if !e.reproducible {
                    irreproducible += 1;
                }
            }
        }
        assert!(nan_seen > 0, "no NaN incidents sampled");
        assert!(
            irreproducible > 0,
            "all {nan_seen} NaN incidents were reproducible"
        );
    }

    #[test]
    fn high_confidence_and_network_flags() {
        assert!(FaultKind::GpuUnavailable.is_high_confidence_machine_fault());
        assert!(FaultKind::DiskFault.is_high_confidence_machine_fault());
        assert!(!FaultKind::CudaError.is_high_confidence_machine_fault());
    }

    #[test]
    fn daily_failure_prob_is_sane() {
        let cfg = FaultInjectorConfig::default();
        let p = cfg.per_machine_daily_failure_prob();
        assert!(p > 0.0 && p < 0.05, "p = {p}");
    }
}
