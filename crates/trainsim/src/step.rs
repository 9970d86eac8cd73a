//! Step-time and MFU model.
//!
//! The step model turns a [`JobSpec`], a code version, and the current
//! cluster condition into a per-step time breakdown and an MFU figure. It is
//! deliberately analytic — the paper's evaluation cares about *relative* MFU
//! (Fig. 2, Fig. 11) and about how much of a step is idle communication time
//! that checkpoint traffic can hide (Fig. 8, Table 8), not about absolute
//! hardware numbers.

use byterobust_sim::SimDuration;

use crate::job::JobSpec;

/// A phase of a training step. Used both for the step-time breakdown and to
/// label which phase each rank is in when a stack trace is captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainPhase {
    /// Waiting on the data loader.
    DataLoading,
    /// Forward computation of a micro-batch.
    Forward,
    /// Backward computation of a micro-batch.
    Backward,
    /// Pipeline-parallel point-to-point sends/receives.
    PipelineComm,
    /// Data-parallel gradient reduce-scatter.
    GradReduceScatter,
    /// Data-parallel parameter all-gather (ZeRO).
    ParamAllGather,
    /// Optimizer step (parameter update).
    OptimizerStep,
    /// Checkpoint save activity.
    Checkpoint,
    /// In-training evaluation (e.g. MMLU-style multitask benchmark, §5.2).
    Evaluation,
    /// Idle / waiting at a barrier.
    Idle,
}

/// A deployed version of the training code. Hot updates (§6.1) move a job
/// from one code version to the next; each version changes efficiency (Fig. 11
/// shows MFU leaps with each deployment) and carries some risk of introducing
/// a bug that later needs a rollback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeVersion {
    /// Monotonically increasing version number.
    pub version: u32,
    /// Fraction of peak FLOPs achieved by compute kernels (kernel fusion and
    /// similar optimizations raise this).
    pub kernel_efficiency: f64,
    /// Fraction of communication time hidden behind computation
    /// (computation–communication overlapping raises this).
    pub comm_overlap: f64,
    /// Probability that this version contains a latent bug that will surface
    /// as a user-code failure after deployment.
    pub bug_risk: f64,
}

impl CodeVersion {
    /// The naive initial version deployed at the start of a pretraining run
    /// (§8.1.3: "we initially deployed a naive version of the pretraining
    /// code ... then continuously tuned and optimized").
    pub fn initial() -> Self {
        CodeVersion {
            version: 0,
            kernel_efficiency: 0.42,
            comm_overlap: 0.30,
            bug_risk: 0.05,
        }
    }

    /// The next version after an engineering improvement: better kernels and
    /// overlap, with a configurable bug risk.
    pub fn improved(&self, bug_risk: f64) -> Self {
        CodeVersion {
            version: self.version + 1,
            kernel_efficiency: (self.kernel_efficiency * 1.06).min(0.62),
            comm_overlap: (self.comm_overlap + 0.08).min(0.92),
            bug_risk,
        }
    }

    /// A rolled-back copy of the previous version: keeps the version counter
    /// moving forward but restores the previous efficiency and resets risk.
    pub fn rolled_back_to(&self, previous: &CodeVersion) -> Self {
        CodeVersion {
            version: self.version + 1,
            kernel_efficiency: previous.kernel_efficiency,
            comm_overlap: previous.comm_overlap,
            bug_risk: 0.01,
        }
    }
}

/// Per-step time breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepBreakdown {
    /// Data loading time (usually overlapped; exposed portion only).
    pub data_loading: SimDuration,
    /// Forward + backward compute time across all micro-batches.
    pub compute: SimDuration,
    /// Exposed (non-overlapped) pipeline communication time.
    pub pipeline_comm: SimDuration,
    /// Exposed data-parallel communication time (gradient reduce-scatter and
    /// parameter all-gather).
    pub data_parallel_comm: SimDuration,
    /// Optimizer step time.
    pub optimizer: SimDuration,
    /// Checkpoint stall added to the step (zero without checkpointing).
    pub checkpoint_stall: SimDuration,
    /// Model FLOPs utilization in `[0, 1]`.
    pub mfu: f64,
}

impl StepBreakdown {
    /// Total wall-clock duration of the step.
    pub fn total(&self) -> SimDuration {
        self.data_loading
            + self.compute
            + self.pipeline_comm
            + self.data_parallel_comm
            + self.optimizer
            + self.checkpoint_stall
    }

    /// Idle communication time during forward/backward that checkpoint
    /// traffic can be interleaved into (§6.3, Fig. 8): the exposed
    /// communication plus a share of compute bubbles.
    pub fn idle_comm_window(&self) -> SimDuration {
        self.pipeline_comm + self.data_parallel_comm
    }
}

/// Analytic step-time model.
#[derive(Debug, Clone, PartialEq)]
pub struct StepModel {
    job: JobSpec,
}

impl StepModel {
    /// Creates a step model for a job.
    pub fn new(job: JobSpec) -> Self {
        StepModel { job }
    }

    /// Ideal per-GPU compute time for one step at 100% of peak.
    fn ideal_compute(&self) -> SimDuration {
        let total_flops = self.job.model.flops_per_token() * self.job.tokens_per_step();
        let per_gpu = total_flops / self.job.world_size() as f64;
        let seconds = per_gpu / (self.job.hardware.peak_tflops * 1e12);
        SimDuration::from_secs_f64(seconds)
    }

    /// Computes the breakdown of one training step.
    ///
    /// * `code` — the deployed code version (efficiency / overlap),
    /// * `cluster_throughput` — the active fleet's relative throughput in
    ///   `(0, 1]`; degraded machines (thermal throttling, flapping NICs) slow
    ///   every rank because collectives synchronize the world,
    /// * `checkpoint_stall` — blocking time added by the checkpoint engine
    ///   this step.
    pub fn step(
        &self,
        code: &CodeVersion,
        cluster_throughput: f64,
        checkpoint_stall: SimDuration,
    ) -> StepBreakdown {
        let throughput = cluster_throughput.clamp(0.01, 1.0);
        let ideal = self.ideal_compute();
        let compute = ideal.mul_f64(1.0 / (code.kernel_efficiency.clamp(0.05, 0.95) * throughput));

        // Pipeline bubble + P2P transfers: proportional to (pp - 1) / micro_batches.
        let pp = self.job.parallelism.pp as f64;
        let mb = self.job.micro_batches_per_step() as f64;
        let bubble_fraction = ((pp - 1.0) / mb.max(1.0)).min(1.5);
        let raw_pp_comm = compute.mul_f64(0.15 * bubble_fraction + 0.05);

        // Data-parallel gradient + param traffic: bytes per rank over RDMA,
        // shared by the ranks on a machine.
        let dp = self.job.parallelism.dp as f64;
        let dp_bytes = if dp > 1.0 {
            2.0 * self.job.weight_bytes_per_rank() * (dp - 1.0) / dp
        } else {
            0.0
        };
        let per_machine_bw = self.job.hardware.rdma_bandwidth_gbps * 1e9 / 8.0; // bits→bytes... see note
                                                                                // rdma_bandwidth_gbps is given in GB/s already; use it directly.
        let per_machine_bytes_per_s = self.job.hardware.rdma_bandwidth_gbps * 1e9;
        let _ = per_machine_bw;
        let ranks_per_machine = self.job.parallelism.gpus_per_machine as f64;
        let raw_dp_comm = SimDuration::from_secs_f64(
            dp_bytes * ranks_per_machine / per_machine_bytes_per_s / throughput,
        );

        // Overlap hides a code-version-dependent share of communication.
        let exposed = 1.0 - code.comm_overlap.clamp(0.0, 0.95);
        let pipeline_comm = raw_pp_comm.mul_f64(exposed);
        let data_parallel_comm = raw_dp_comm.mul_f64(exposed);

        // Optimizer step and data loading are small, mostly fixed costs.
        let optimizer = compute.mul_f64(0.03);
        let data_loading = compute.mul_f64(0.02);

        let mut breakdown = StepBreakdown {
            data_loading,
            compute,
            pipeline_comm,
            data_parallel_comm,
            optimizer,
            checkpoint_stall,
            mfu: 0.0,
        };
        let total = breakdown.total();
        let mfu = if total.is_zero() {
            0.0
        } else {
            ideal.as_secs_f64() / total.as_secs_f64()
        };
        breakdown.mfu = mfu.clamp(0.0, 1.0);
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> StepModel {
        StepModel::new(JobSpec::table5_70b_small())
    }

    #[test]
    fn healthy_step_has_reasonable_mfu() {
        let m = model();
        let mfu = m.step(&CodeVersion::initial(), 1.0, SimDuration::ZERO).mfu;
        assert!(mfu > 0.2 && mfu < 0.6, "mfu = {mfu}");
    }

    #[test]
    fn better_code_version_improves_mfu() {
        let m = model();
        let v0 = CodeVersion::initial();
        let mut v = v0;
        for _ in 0..6 {
            v = v.improved(0.02);
        }
        let mfu0 = m.step(&v0, 1.0, SimDuration::ZERO).mfu;
        let mfu6 = m.step(&v, 1.0, SimDuration::ZERO).mfu;
        assert!(mfu6 > mfu0 * 1.15, "mfu0 = {mfu0}, mfu6 = {mfu6}");
    }

    #[test]
    fn degraded_cluster_reduces_mfu_and_lengthens_step() {
        let m = model();
        let v = CodeVersion::initial();
        let healthy = m.step(&v, 1.0, SimDuration::ZERO);
        let degraded = m.step(&v, 0.6, SimDuration::ZERO);
        assert!(degraded.total() > healthy.total());
        assert!(degraded.mfu < healthy.mfu);
    }

    #[test]
    fn checkpoint_stall_lowers_mfu() {
        let m = model();
        let v = CodeVersion::initial();
        let without = m.step(&v, 1.0, SimDuration::ZERO);
        let with = m.step(&v, 1.0, SimDuration::from_secs(7));
        assert!(with.mfu < without.mfu);
        assert_eq!(with.total(), without.total() + SimDuration::from_secs(7));
    }

    #[test]
    fn idle_comm_window_is_positive() {
        let m = model();
        let step = m.step(&CodeVersion::initial(), 1.0, SimDuration::ZERO);
        assert!(!step.idle_comm_window().is_zero());
    }

    #[test]
    fn rollback_restores_previous_efficiency() {
        let v0 = CodeVersion::initial();
        let v1 = v0.improved(0.3);
        let v2 = v1.rolled_back_to(&v0);
        assert_eq!(v2.version, v1.version + 1);
        assert!((v2.kernel_efficiency - v0.kernel_efficiency).abs() < 1e-12);
        assert!(v2.bug_risk < v1.bug_risk);
    }

    #[test]
    fn code_version_improvements_saturate() {
        let mut v = CodeVersion::initial();
        for _ in 0..100 {
            v = v.improved(0.0);
        }
        assert!(v.kernel_efficiency <= 0.62 + 1e-9);
        assert!(v.comm_overlap <= 0.92 + 1e-9);
    }

    #[test]
    fn moe_job_step_also_sane() {
        let m = StepModel::new(JobSpec::table5_256b_small());
        let mfu = m.step(&CodeVersion::initial(), 1.0, SimDuration::ZERO).mfu;
        assert!(mfu > 0.1 && mfu < 0.7, "mfu = {mfu}");
    }
}
