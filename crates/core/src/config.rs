//! End-to-end job configuration for the lifecycle driver.

use byterobust_checkpoint::CheckpointPlan;
use byterobust_cluster::{ClusterSpec, FaultInjectorConfig};
use byterobust_recovery::StandbyPoolConfig;
use byterobust_sim::SimDuration;
use byterobust_trainsim::JobSpec;

/// Everything needed to run one simulated training job under ByteRobust.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// The training job (model, parallelism, batch, hardware).
    pub job: JobSpec,
    /// Fault-injection configuration (incident mix and rates).
    pub fault: FaultInjectorConfig,
    /// Checkpointing plan.
    pub ckpt_plan: CheckpointPlan,
    /// Simulated wall-clock duration of the job.
    pub duration: SimDuration,
    /// Warm spares provisioned into the job's cluster *beyond* the binomial
    /// P99 sizing. An over-provisioned job is a migration donor candidate
    /// when a fleet broker needs to feed a starving job.
    pub extra_standby_machines: usize,
}

impl JobConfig {
    /// Builds a config from a job spec with a production-style fault mix and
    /// ByteRobust's default checkpoint plan.
    pub fn for_job(job: JobSpec, duration: SimDuration) -> Self {
        let fault = FaultInjectorConfig {
            machines: job.machines(),
            gpus_per_machine: job.parallelism.gpus_per_machine,
            ..FaultInjectorConfig::default()
        };
        JobConfig {
            job,
            fault,
            ckpt_plan: CheckpointPlan::byterobust_default(),
            duration,
            extra_standby_machines: 0,
        }
    }

    /// The three-month dense pretraining job on 9,600 GPUs from §8.1.
    pub fn production_dense_three_months() -> Self {
        Self::for_job(JobSpec::production_dense(), SimDuration::from_days(90))
    }

    /// The one-month MoE pretraining job on 9,600 GPUs from §8.1. MoE jobs
    /// carry more custom optimizations, so manual restarts and risky updates
    /// are more frequent (§8.1.3).
    pub fn production_moe_one_month() -> Self {
        let mut config = Self::for_job(JobSpec::production_moe(), SimDuration::from_days(30));
        config.fault.manual_restart_interval = SimDuration::from_hours(8);
        config.fault.user_code_fraction = 0.45;
        config
    }

    /// A small, fast configuration for tests and the quickstart example:
    /// 16 machines for two simulated days with an elevated failure rate so
    /// that a handful of incidents actually occur.
    pub fn small_test() -> Self {
        let mut config = Self::for_job(JobSpec::small_test(), SimDuration::from_days(2));
        // Scale the reference MTBF down so a 128-GPU job still sees failures
        // within the two-day window.
        config.fault.reference_mtbf = SimDuration::from_hours(2);
        config.fault.reference_gpus = 128;
        config.fault.manual_restart_interval = SimDuration::from_hours(6);
        config
    }

    /// The cluster spec implied by this configuration (active machines plus a
    /// warm-standby pool sized at the binomial P99).
    pub fn cluster_spec(&self) -> ClusterSpec {
        let standby = StandbyPoolConfig::for_job(
            self.job.machines(),
            self.fault.per_machine_daily_failure_prob(),
        )
        .p99_pool_size();
        ClusterSpec {
            active_machines: self.job.machines(),
            standby_machines: standby.max(2) + self.extra_standby_machines,
            gpus_per_machine: self.job.parallelism.gpus_per_machine as u8,
            machines_per_switch: 32.min(self.job.machines()).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_configs_match_paper_scales() {
        let dense = JobConfig::production_dense_three_months();
        assert_eq!(dense.job.world_size(), 9_600);
        assert_eq!(dense.duration, SimDuration::from_days(90));
        let moe = JobConfig::production_moe_one_month();
        assert_eq!(moe.duration, SimDuration::from_days(30));
        assert!(moe.fault.manual_restart_interval < dense.fault.manual_restart_interval);
    }

    #[test]
    fn cluster_spec_includes_standbys() {
        let config = JobConfig::small_test();
        let spec = config.cluster_spec();
        assert_eq!(spec.active_machines, 16);
        assert!(spec.standby_machines >= 2);
        assert_eq!(spec.gpus_per_machine, 8);
    }

    #[test]
    fn small_test_has_aggressive_fault_rate() {
        let config = JobConfig::small_test();
        assert!(config.fault.scaled_mtbf() < SimDuration::from_days(1));
    }
}
