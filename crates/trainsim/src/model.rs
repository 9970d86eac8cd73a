//! Model specifications: parameter counts, architecture, and the FLOPs /
//! state-size arithmetic the step-time and checkpoint models need.

/// Transformer architecture variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Architecture {
    /// Dense decoder-only transformer (the paper's Llama-like 70+B job).
    Dense,
    /// Mixture-of-experts transformer (the paper's 200+B MoE job). Only a
    /// fraction of parameters is active per token.
    MoE {
        /// Total number of experts per MoE layer.
        experts: u32,
        /// Experts activated per token.
        active_experts: u32,
    },
}

/// A model to be trained.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Human-readable name.
    pub name: String,
    /// Total parameter count, in billions.
    pub params_b: f64,
    /// Architecture variant.
    pub architecture: Architecture,
    /// Number of transformer layers (used by dual-phase replay, which reduces
    /// layers to shrink the replayed job).
    pub layers: u32,
    /// Training sequence length in tokens.
    pub seq_len: u32,
    /// Bytes per parameter for weights in training precision (2 for bf16).
    pub bytes_per_param: u32,
}

impl ModelSpec {
    /// The ~70B dense model of Table 5 / §8.1.
    pub fn dense_70b() -> Self {
        ModelSpec {
            name: "dense-70b".to_string(),
            params_b: 70.0,
            architecture: Architecture::Dense,
            layers: 80,
            seq_len: 8_192,
            bytes_per_param: 2,
        }
    }

    /// The ~256B MoE model of Table 5 / §8.1 (200+B class).
    pub fn moe_256b() -> Self {
        ModelSpec {
            name: "moe-256b".to_string(),
            params_b: 256.0,
            architecture: Architecture::MoE {
                experts: 64,
                active_experts: 8,
            },
            layers: 61,
            seq_len: 8_192,
            bytes_per_param: 2,
        }
    }

    /// A tiny model for unit tests and the quickstart example.
    pub fn tiny_test() -> Self {
        ModelSpec {
            name: "tiny-1b".to_string(),
            params_b: 1.0,
            architecture: Architecture::Dense,
            layers: 16,
            seq_len: 2_048,
            bytes_per_param: 2,
        }
    }

    /// Total parameters.
    pub fn total_params(&self) -> f64 {
        self.params_b * 1e9
    }

    /// Parameters that participate in each token's forward pass. For MoE
    /// models this is the active-expert fraction plus a dense share
    /// (attention + shared layers, roughly 1/3 of parameters).
    pub fn active_params(&self) -> f64 {
        match self.architecture {
            Architecture::Dense => self.total_params(),
            Architecture::MoE {
                experts,
                active_experts,
            } => {
                let dense_share = 1.0 / 3.0;
                let expert_share = 1.0 - dense_share;
                self.total_params()
                    * (dense_share + expert_share * active_experts as f64 / experts as f64)
            }
        }
    }

    /// Training FLOPs per token (the standard `6 * N_active` estimate for
    /// forward + backward).
    pub fn flops_per_token(&self) -> f64 {
        6.0 * self.active_params()
    }

    /// Bytes of model weights held per model replica.
    pub fn weight_bytes(&self) -> f64 {
        self.total_params() * self.bytes_per_param as f64
    }

    /// Bytes of optimizer state per model replica: Adam keeps fp32 master
    /// weights, momentum and variance — about 6x the bf16 weight bytes (§2.1).
    pub fn optimizer_bytes(&self) -> f64 {
        self.weight_bytes() * 6.0
    }

    /// Whether this is a mixture-of-experts model.
    pub fn is_moe(&self) -> bool {
        matches!(self.architecture, Architecture::MoE { .. })
    }

    /// A copy with the layer count reduced by `factor` (at least one layer).
    /// Dual-phase replay (§4.2) replays a reduced-layer job to cut cost.
    pub fn with_reduced_layers(&self, factor: u32) -> ModelSpec {
        let mut reduced = self.clone();
        reduced.layers = (self.layers / factor.max(1)).max(1);
        reduced.params_b = self.params_b * reduced.layers as f64 / self.layers as f64;
        reduced.name = format!("{}-reduced{}", self.name, factor);
        reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_flops_use_all_params() {
        let m = ModelSpec::dense_70b();
        assert!((m.active_params() - m.total_params()).abs() < 1.0);
        assert!((m.flops_per_token() - 6.0 * 70e9).abs() / (6.0 * 70e9) < 1e-9);
    }

    #[test]
    fn moe_activates_fraction_of_params() {
        let m = ModelSpec::moe_256b();
        assert!(m.is_moe());
        let active = m.active_params();
        assert!(active < m.total_params() * 0.6, "active = {active}");
        assert!(active > m.total_params() * 0.2, "active = {active}");
    }

    #[test]
    fn optimizer_state_is_6x_weights() {
        let m = ModelSpec::dense_70b();
        assert!((m.optimizer_bytes() / m.weight_bytes() - 6.0).abs() < 1e-9);
        // 70B bf16 weights = 140 GB.
        assert!((m.weight_bytes() - 140e9).abs() < 1e6);
    }

    #[test]
    fn reduced_layers_shrinks_model() {
        let m = ModelSpec::dense_70b();
        let r = m.with_reduced_layers(4);
        assert_eq!(r.layers, 20);
        assert!((r.params_b - 17.5).abs() < 1e-9);
        // Never reduce below one layer.
        let tiny = m.with_reduced_layers(1000);
        assert_eq!(tiny.layers, 1);
    }

    #[test]
    fn tiny_model_is_dense() {
        let m = ModelSpec::tiny_test();
        assert!(!m.is_moe());
        assert!(m.flops_per_token() > 0.0);
    }
}
