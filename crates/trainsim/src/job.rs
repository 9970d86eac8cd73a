//! Job specifications: a model, a parallelism layout, batch sizes, and the
//! hardware characteristics of the machines the job runs on.

use byterobust_parallelism::ParallelismConfig;

use crate::model::ModelSpec;

/// Hardware characteristics relevant to step timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareSpec {
    /// Peak dense BF16 throughput per GPU, in TFLOPs.
    pub peak_tflops: f64,
    /// Host-device (PCIe/NVLink-C2C) bandwidth in GB/s, relevant to
    /// checkpoint D2H copies.
    pub d2h_bandwidth_gbps: f64,
    /// Inter-machine RDMA bandwidth per machine in GB/s.
    pub rdma_bandwidth_gbps: f64,
    /// Remote (HDFS-style) storage bandwidth per machine in GB/s over the
    /// low-bandwidth front-end network (§2.3, §6.3).
    pub remote_storage_gbps: f64,
    /// GPU memory capacity in GB.
    pub gpu_memory_gb: f64,
}

impl HardwareSpec {
    /// The production Hopper fleet (§8.1): 8×80GB Hopper GPUs, 400 Gbps RDMA.
    pub fn hopper() -> Self {
        HardwareSpec {
            peak_tflops: 989.0,
            d2h_bandwidth_gbps: 55.0,
            rdma_bandwidth_gbps: 400.0,
            remote_storage_gbps: 5.0,
            gpu_memory_gb: 80.0,
        }
    }

    /// The evaluation L20 fleet (§8.2): 16×48GB L20 GPUs on 30 GB/s PCIe.
    pub fn l20() -> Self {
        HardwareSpec {
            peak_tflops: 119.0,
            d2h_bandwidth_gbps: 30.0,
            rdma_bandwidth_gbps: 400.0,
            remote_storage_gbps: 5.0,
            gpu_memory_gb: 48.0,
        }
    }
}

/// Full specification of a training job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Model being trained.
    pub model: ModelSpec,
    /// Parallelism layout.
    pub parallelism: ParallelismConfig,
    /// Global batch size in sequences per step.
    pub global_batch: u32,
    /// Micro-batch size per pipeline stage.
    pub micro_batch: u32,
    /// Hardware of the hosting machines.
    pub hardware: HardwareSpec,
    /// Total optimizer steps the job intends to run.
    pub target_steps: u64,
}

impl JobSpec {
    /// Table 5 row 1: 70B dense on 128×16 GPUs (TP=8, DP=32, PP=8), batch 512.
    pub fn table5_70b_small() -> Self {
        JobSpec {
            model: ModelSpec::dense_70b(),
            parallelism: ParallelismConfig::table5_70b_small(),
            global_batch: 512,
            micro_batch: 1,
            hardware: HardwareSpec::l20(),
            target_steps: 100_000,
        }
    }

    /// Table 5 row 2: 70B dense on 256×16 GPUs (TP=8, DP=64, PP=8), batch 1024.
    pub fn table5_70b_large() -> Self {
        JobSpec {
            model: ModelSpec::dense_70b(),
            parallelism: ParallelismConfig::table5_70b_large(),
            global_batch: 1024,
            micro_batch: 1,
            hardware: HardwareSpec::l20(),
            target_steps: 100_000,
        }
    }

    /// Table 5 row 3: 256B MoE on 512×16 GPUs (TP=8, DP=64, PP=16), batch 1024.
    pub fn table5_256b_small() -> Self {
        JobSpec {
            model: ModelSpec::moe_256b(),
            parallelism: ParallelismConfig::table5_256b_small(),
            global_batch: 1024,
            micro_batch: 1,
            hardware: HardwareSpec::l20(),
            target_steps: 100_000,
        }
    }

    /// Table 5 row 4: 256B MoE on 1024×16 GPUs (TP=8, DP=128, PP=16), batch 2048.
    pub fn table5_256b_large() -> Self {
        JobSpec {
            model: ModelSpec::moe_256b(),
            parallelism: ParallelismConfig::table5_256b_large(),
            global_batch: 2048,
            micro_batch: 1,
            hardware: HardwareSpec::l20(),
            target_steps: 100_000,
        }
    }

    /// The §8.1 production dense job: 70+B model on 1,200 machines × 8 Hopper
    /// GPUs (9,600 GPUs).
    pub fn production_dense() -> Self {
        JobSpec {
            model: ModelSpec::dense_70b(),
            parallelism: ParallelismConfig::new_3d(8, 10, 120, 8),
            global_batch: 1920,
            micro_batch: 1,
            hardware: HardwareSpec::hopper(),
            target_steps: 200_000,
        }
    }

    /// The §8.1 production MoE job on the same 9,600-GPU cluster.
    pub fn production_moe() -> Self {
        JobSpec {
            model: ModelSpec::moe_256b(),
            parallelism: ParallelismConfig::new_moe(8, 10, 120, 8, 8),
            global_batch: 1920,
            micro_batch: 1,
            hardware: HardwareSpec::hopper(),
            target_steps: 80_000,
        }
    }

    /// A 16-machine job for tests and the quickstart example (TP=2, PP=4,
    /// DP=16 on 8-GPU machines).
    pub fn small_test() -> Self {
        JobSpec {
            model: ModelSpec::tiny_test(),
            parallelism: ParallelismConfig::new_3d(2, 4, 16, 8),
            global_batch: 128,
            micro_batch: 1,
            hardware: HardwareSpec::hopper(),
            target_steps: 10_000,
        }
    }

    /// Total GPUs (world size).
    pub fn world_size(&self) -> usize {
        self.parallelism.world_size()
    }

    /// Machines hosting the job.
    pub fn machines(&self) -> usize {
        self.parallelism.machines()
    }

    /// Tokens processed per optimizer step.
    pub fn tokens_per_step(&self) -> f64 {
        self.global_batch as f64 * self.model.seq_len as f64
    }

    /// Number of micro-batches each pipeline must process per step.
    pub fn micro_batches_per_step(&self) -> u32 {
        let per_replica = self.global_batch / self.parallelism.dp.max(1) as u32;
        (per_replica / self.micro_batch.max(1)).max(1)
    }

    /// Bytes of model weights held per rank (weights are sharded over TP and
    /// PP; DP replicates them).
    pub fn weight_bytes_per_rank(&self) -> f64 {
        self.model.weight_bytes() / (self.parallelism.tp * self.parallelism.pp) as f64
    }

    /// Bytes of optimizer state per rank with ZeRO-1 sharding over DP.
    pub fn optimizer_bytes_per_rank(&self) -> f64 {
        self.model.optimizer_bytes()
            / (self.parallelism.tp * self.parallelism.pp * self.parallelism.dp) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_scales() {
        assert_eq!(JobSpec::table5_70b_small().world_size(), 2_048);
        assert_eq!(JobSpec::table5_70b_small().machines(), 128);
        assert_eq!(JobSpec::table5_256b_large().world_size(), 16_384);
        assert_eq!(JobSpec::table5_256b_large().machines(), 1_024);
    }

    #[test]
    fn production_jobs_are_9600_gpus() {
        assert_eq!(JobSpec::production_dense().world_size(), 9_600);
        assert_eq!(JobSpec::production_moe().world_size(), 9_600);
        assert_eq!(JobSpec::production_dense().machines(), 1_200);
    }

    #[test]
    fn tokens_and_microbatches() {
        let job = JobSpec::table5_70b_small();
        assert!((job.tokens_per_step() - 512.0 * 8192.0).abs() < 1.0);
        assert_eq!(job.micro_batches_per_step(), 16);
    }

    #[test]
    fn sharded_state_sizes() {
        let job = JobSpec::table5_70b_small();
        // Weights sharded 64-way (TP=8 × PP=8): 140GB / 64.
        let expected_w = 140e9 / 64.0;
        assert!((job.weight_bytes_per_rank() - expected_w).abs() / expected_w < 1e-9);
        // Optimizer additionally sharded over DP=32.
        let expected_o = 6.0 * 140e9 / 2048.0;
        assert!((job.optimizer_bytes_per_rank() - expected_o).abs() / expected_o < 1e-9);
    }

    #[test]
    fn small_test_job_is_consistent() {
        let job = JobSpec::small_test();
        assert_eq!(job.machines(), 16);
        assert!(job.micro_batches_per_step() >= 1);
    }
}
