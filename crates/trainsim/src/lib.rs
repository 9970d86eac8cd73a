//! Training workload model.
//!
//! ByteRobust's decisions depend on *how* an LLM training job behaves — step
//! timing and its breakdown into compute/communication phases, MFU, the loss
//! trajectory, and the per-rank call stacks the on-demand tracer captures — not on the numerical content of the tensors.
//! This crate provides an analytic model of all of that, replacing the real
//! Megatron-style training framework used in production:
//!
//! * [`ModelSpec`] / [`JobSpec`] — the model and job being trained (the 70B
//!   dense and 256B MoE configurations of Table 5 are provided as presets),
//! * [`StepModel`] — per-step time breakdown and MFU given the cluster's
//!   health and the code version's efficiency,
//! * [`loss_at`] — the smooth power-law pretraining loss curve,
//! * [`stacktrace`] — the static catalogue of Python-style stack templates for
//!   normal execution, hangs, and fail-slow scenarios, and the grouped
//!   [`StackCapture`] that is the input to §5's aggregation analysis,
//! * [`TrainingRuntime`] — the running job's step counter, code version and
//!   active fault, and the effect of that fault on the stacks.

pub mod job;
pub mod loss;
pub mod model;
pub mod runtime;
pub mod stacktrace;
pub mod step;

pub use job::{HardwareSpec, JobSpec};
pub use loss::loss_at;
pub use model::{Architecture, ModelSpec};
pub use runtime::TrainingRuntime;
pub use stacktrace::{ProcessKind, StackCapture, StackFrame, StackGroup, StackTrace};
pub use step::{CodeVersion, StepBreakdown, StepModel, TrainPhase};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::job::{HardwareSpec, JobSpec};
    pub use crate::loss::loss_at;
    pub use crate::model::{Architecture, ModelSpec};
    pub use crate::runtime::TrainingRuntime;
    pub use crate::stacktrace::{ProcessKind, StackCapture, StackFrame, StackGroup, StackTrace};
    pub use crate::step::{CodeVersion, StepBreakdown, StepModel, TrainPhase};
}
