//! Parallelism configuration.

/// Sizes of each parallelism dimension for a training job, plus the machine
/// packing (GPUs per machine) needed to map ranks onto hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelismConfig {
    /// Tensor-parallel group size.
    pub tp: usize,
    /// Pipeline-parallel group size (number of pipeline stages).
    pub pp: usize,
    /// Data-parallel group size (number of model replicas).
    pub dp: usize,
    /// Expert-parallel group size for MoE models. Must divide `dp`; expert
    /// parallel groups are sub-groups of data-parallel groups. Use 1 for
    /// dense models.
    pub ep: usize,
    /// GPUs (ranks) hosted per machine.
    pub gpus_per_machine: usize,
}

impl ParallelismConfig {
    /// Creates a dense-model 3D configuration (`ep = 1`).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`ParallelismConfig::validate`]).
    pub fn new_3d(tp: usize, pp: usize, dp: usize, gpus_per_machine: usize) -> Self {
        let cfg = ParallelismConfig {
            tp,
            pp,
            dp,
            ep: 1,
            gpus_per_machine,
        };
        cfg.validate().expect("invalid parallelism config");
        cfg
    }

    /// Creates an MoE 4D configuration with expert parallelism.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new_moe(tp: usize, pp: usize, dp: usize, ep: usize, gpus_per_machine: usize) -> Self {
        let cfg = ParallelismConfig {
            tp,
            pp,
            dp,
            ep,
            gpus_per_machine,
        };
        cfg.validate().expect("invalid parallelism config");
        cfg
    }

    /// The Fig. 7 example configuration: TP=2, PP=4, DP=4 over 16 machines
    /// with 2 GPUs each.
    pub fn fig7_example() -> Self {
        ParallelismConfig::new_3d(2, 4, 4, 2)
    }

    /// The Fig. 9 example configuration: TP=2, PP=4, DP=2 over 8 machines
    /// with 2 GPUs each.
    pub fn fig9_example() -> Self {
        ParallelismConfig::new_3d(2, 4, 2, 2)
    }

    /// The 70B dense configuration from Table 5 (TP=8, DP=32, PP=8, 16 GPUs
    /// per machine => 128 machines).
    pub fn table5_70b_small() -> Self {
        ParallelismConfig::new_3d(8, 8, 32, 16)
    }

    /// The 70B dense configuration from Table 5 at 256 machines
    /// (TP=8, DP=64, PP=8).
    pub fn table5_70b_large() -> Self {
        ParallelismConfig::new_3d(8, 8, 64, 16)
    }

    /// The 256B configuration from Table 5 at 512 machines
    /// (TP=8, DP=64, PP=16).
    pub fn table5_256b_small() -> Self {
        ParallelismConfig::new_3d(8, 16, 64, 16)
    }

    /// The 256B configuration from Table 5 at 1024 machines
    /// (TP=8, DP=128, PP=16).
    pub fn table5_256b_large() -> Self {
        ParallelismConfig::new_3d(8, 16, 128, 16)
    }

    /// Total number of ranks (GPUs) in the job.
    pub fn world_size(&self) -> usize {
        self.tp * self.pp * self.dp
    }

    /// Number of machines needed to host the job.
    pub fn machines(&self) -> usize {
        self.world_size() / self.gpus_per_machine
    }

    /// Checks internal consistency. Every dimension must be at least 1, the
    /// world size must be divisible by the GPUs-per-machine packing, and EP
    /// must divide DP.
    pub fn validate(&self) -> Result<(), String> {
        if self.tp == 0 || self.pp == 0 || self.dp == 0 || self.ep == 0 {
            return Err("all parallelism dimensions must be >= 1".into());
        }
        if self.gpus_per_machine == 0 {
            return Err("gpus_per_machine must be >= 1".into());
        }
        if !self.world_size().is_multiple_of(self.gpus_per_machine) {
            return Err(format!(
                "world size {} is not divisible by gpus_per_machine {}",
                self.world_size(),
                self.gpus_per_machine
            ));
        }
        if !self.dp.is_multiple_of(self.ep) {
            return Err(format!("ep {} must divide dp {}", self.ep, self.dp));
        }
        Ok(())
    }

    /// Whether this configuration has more than one kind of parallel group
    /// (i.e. it is genuinely 3D rather than pure data parallelism). The
    /// backup strategy falls back to neighbouring machines when it is not
    /// (§6.3).
    pub fn is_multi_dimensional(&self) -> bool {
        [self.tp, self.pp, self.dp]
            .iter()
            .filter(|&&d| d > 1)
            .count()
            > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_size_and_machines() {
        let cfg = ParallelismConfig::fig7_example();
        assert_eq!(cfg.world_size(), 32);
        assert_eq!(cfg.machines(), 16);

        let t5 = ParallelismConfig::table5_70b_small();
        assert_eq!(t5.world_size(), 2048);
        assert_eq!(t5.machines(), 128);

        let t5l = ParallelismConfig::table5_256b_large();
        assert_eq!(t5l.world_size(), 16384);
        assert_eq!(t5l.machines(), 1024);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(ParallelismConfig {
            tp: 0,
            pp: 1,
            dp: 1,
            ep: 1,
            gpus_per_machine: 1
        }
        .validate()
        .is_err());
        assert!(ParallelismConfig {
            tp: 2,
            pp: 2,
            dp: 2,
            ep: 3,
            gpus_per_machine: 2
        }
        .validate()
        .is_err());
        assert!(ParallelismConfig {
            tp: 3,
            pp: 1,
            dp: 1,
            ep: 1,
            gpus_per_machine: 2
        }
        .validate()
        .is_err());
        assert!(ParallelismConfig {
            tp: 2,
            pp: 2,
            dp: 2,
            ep: 1,
            gpus_per_machine: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid parallelism config")]
    fn constructor_panics_on_invalid() {
        let _ = ParallelismConfig::new_3d(3, 1, 1, 2);
    }

    #[test]
    fn multi_dimensional_detection() {
        assert!(ParallelismConfig::fig7_example().is_multi_dimensional());
        // Pure ZeRO data parallelism: only DP > 1.
        let zero = ParallelismConfig::new_3d(1, 1, 8, 8);
        assert!(!zero.is_multi_dimensional());
    }

    #[test]
    fn moe_config_with_ep() {
        let cfg = ParallelismConfig::new_moe(2, 2, 8, 4, 8);
        assert_eq!(cfg.world_size(), 32);
        assert_eq!(cfg.ep, 4);
    }
}
