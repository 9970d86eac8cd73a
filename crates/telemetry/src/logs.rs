//! The coarse class of an error indication.
//!
//! Explicit failures are characterised by clear indicators in logs or exit
//! codes (§2.2). The controller's real-time analysis distinguishes user-space
//! errors (TypeError, IndexError — traceable to code modules, triggering a
//! rollback) from infrastructure-looking errors (CUDA/NCCL errors — triggering
//! stop-time checks). No log text is simulated: the controller derives the
//! class from the fault itself (`RobustController::log_class_for` in the core
//! crate).

/// Coarse classification of an error indication, driving the controller's
/// first routing decision (Fig. 5 steps 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogClass {
    /// User-space error clearly traceable to user code (TypeError, IndexError,
    /// assertion in model code, shape mismatch) — triggers a code rollback.
    UserCode,
    /// CUDA / GPU runtime error — triggers stop-time GPU diagnostics.
    CudaOrGpu,
    /// NCCL / communication error or watchdog timeout — triggers network
    /// diagnostics.
    Communication,
    /// Host resource problem (OOM, disk full).
    HostResource,
    /// Remote storage (HDFS/checkpoint store) problem.
    Storage,
    /// Nothing recognizable.
    Unknown,
}
