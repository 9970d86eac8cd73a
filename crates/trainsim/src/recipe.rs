//! The multi-stage LLM pretraining recipe (Fig. 1).
//!
//! LLM pretraining is not a single fixed-configuration run: it progresses
//! through warmup, general, enhance, long-context and anneal/cooldown stages,
//! each with different data mixtures, context lengths, machine scales, and
//! engineering code (§2.1). Stage boundaries are a major source of manual
//! restarts and code updates, which is why ByteRobust folds code evolution
//! into its fault-tolerance design.

/// The kind of a pretraining stage, in the order of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Small-scale pure-text pretraining that validates algorithmic changes.
    Warmup,
    /// Full-scale text pretraining on a broad corpus.
    General,
    /// Data re-weighting toward STEM/coding/multimodal corpora.
    Enhance,
    /// Context window expansion (e.g. 8K → 256K) with scenario-tailored code.
    LongContext,
    /// Final annealing / cooldown on curated data.
    Anneal,
}

impl StageKind {
    /// All stages in recipe order.
    pub const ORDER: [StageKind; 5] = [
        StageKind::Warmup,
        StageKind::General,
        StageKind::Enhance,
        StageKind::LongContext,
        StageKind::Anneal,
    ];

    /// Human-readable name matching Fig. 1.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Warmup => "Warmup Stage",
            StageKind::General => "General Stage",
            StageKind::Enhance => "Enhance Stage",
            StageKind::LongContext => "Long Context Stage",
            StageKind::Anneal => "Cooldown Stage",
        }
    }
}

/// One stage of the recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct RecipeStage {
    /// Which stage this is.
    pub kind: StageKind,
    /// Fraction of the job's total optimizer steps spent in this stage.
    pub step_fraction: f64,
    /// Sequence length used during the stage.
    pub seq_len: u32,
    /// Relative machine scale versus the General stage (warmup uses a reduced
    /// DP size; long-context progressively expands machines).
    pub relative_scale: f64,
    /// Expected number of code updates integrated during this stage per 10k
    /// steps (stage transitions and new features drive manual restarts).
    pub code_updates_per_10k_steps: f64,
}

/// A full pretraining recipe: an ordered list of stages.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainRecipe {
    /// Stages in execution order.
    pub stages: Vec<RecipeStage>,
}

impl PretrainRecipe {
    /// The standard five-stage recipe of Fig. 1.
    pub fn standard() -> Self {
        PretrainRecipe {
            stages: vec![
                RecipeStage {
                    kind: StageKind::Warmup,
                    step_fraction: 0.05,
                    seq_len: 8_192,
                    relative_scale: 0.25,
                    code_updates_per_10k_steps: 8.0,
                },
                RecipeStage {
                    kind: StageKind::General,
                    step_fraction: 0.55,
                    seq_len: 8_192,
                    relative_scale: 1.0,
                    code_updates_per_10k_steps: 3.0,
                },
                RecipeStage {
                    kind: StageKind::Enhance,
                    step_fraction: 0.20,
                    seq_len: 8_192,
                    relative_scale: 1.0,
                    code_updates_per_10k_steps: 4.0,
                },
                RecipeStage {
                    kind: StageKind::LongContext,
                    step_fraction: 0.15,
                    seq_len: 262_144,
                    relative_scale: 1.2,
                    code_updates_per_10k_steps: 6.0,
                },
                RecipeStage {
                    kind: StageKind::Anneal,
                    step_fraction: 0.05,
                    seq_len: 262_144,
                    relative_scale: 1.0,
                    code_updates_per_10k_steps: 2.0,
                },
            ],
        }
    }

    /// The stage active at a given normalized progress in `[0, 1]`.
    pub fn stage_at(&self, progress: f64) -> &RecipeStage {
        let p = progress.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for stage in &self.stages {
            acc += stage.step_fraction;
            if p <= acc + 1e-12 {
                return stage;
            }
        }
        self.stages.last().expect("recipe has at least one stage")
    }

    /// Checks that the stage fractions sum to 1 (within tolerance).
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("recipe must have at least one stage".into());
        }
        let total: f64 = self.stages.iter().map(|s| s.step_fraction).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(format!("stage fractions sum to {total}, expected 1.0"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_recipe_is_valid_and_ordered() {
        let recipe = PretrainRecipe::standard();
        recipe.validate().unwrap();
        let kinds: Vec<StageKind> = recipe.stages.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, StageKind::ORDER.to_vec());
    }

    #[test]
    fn stage_lookup_by_progress() {
        let recipe = PretrainRecipe::standard();
        assert_eq!(recipe.stage_at(0.0).kind, StageKind::Warmup);
        assert_eq!(recipe.stage_at(0.3).kind, StageKind::General);
        assert_eq!(recipe.stage_at(0.7).kind, StageKind::Enhance);
        assert_eq!(recipe.stage_at(0.9).kind, StageKind::LongContext);
        assert_eq!(recipe.stage_at(1.0).kind, StageKind::Anneal);
        // Out-of-range progress clamps.
        assert_eq!(recipe.stage_at(7.0).kind, StageKind::Anneal);
        assert_eq!(recipe.stage_at(-1.0).kind, StageKind::Warmup);
    }

    #[test]
    fn long_context_stage_expands_sequence_length() {
        let recipe = PretrainRecipe::standard();
        let general = recipe.stage_at(0.3);
        let long_ctx = recipe.stage_at(0.9);
        assert!(long_ctx.seq_len > general.seq_len * 10);
    }

    #[test]
    fn warmup_has_highest_code_churn() {
        let recipe = PretrainRecipe::standard();
        let warmup = &recipe.stages[0];
        assert!(recipe
            .stages
            .iter()
            .all(|s| s.code_updates_per_10k_steps <= warmup.code_updates_per_10k_steps));
    }

    #[test]
    fn invalid_recipes_rejected() {
        let mut recipe = PretrainRecipe::standard();
        recipe.stages[0].step_fraction += 0.5;
        assert!(recipe.validate().is_err());
        let empty = PretrainRecipe { stages: vec![] };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn stage_names_match_figure() {
        assert_eq!(StageKind::Warmup.name(), "Warmup Stage");
        assert_eq!(StageKind::Anneal.name(), "Cooldown Stage");
    }
}
