//! stdout/stderr log lines, process exit codes, and rule-based log
//! classification.
//!
//! Explicit failures are characterised by clear indicators in logs or exit
//! codes (§2.2). The controller's real-time analysis distinguishes user-space
//! errors (TypeError, IndexError — traceable to code modules, triggering a
//! rollback) from infrastructure-looking errors (CUDA/NCCL errors — triggering
//! stop-time checks), which is exactly what [`classify_log`] does.

use byterobust_cluster::MachineId;
use byterobust_sim::SimTime;

/// Severity of a log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogLevel {
    /// Informational output.
    Info,
    /// Warning.
    Warning,
    /// Error output (stderr, tracebacks).
    Error,
}

/// A captured log line from a training process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLine {
    /// When the line was emitted.
    pub at: SimTime,
    /// Machine that emitted it.
    pub machine: MachineId,
    /// Severity.
    pub level: LogLevel,
    /// Raw text.
    pub text: String,
}

impl LogLine {
    /// Creates an error-level log line.
    pub fn error(at: SimTime, machine: MachineId, text: &str) -> Self {
        LogLine {
            at,
            machine,
            level: LogLevel::Error,
            text: text.to_string(),
        }
    }
}

/// A process exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExitCode(pub i32);

impl ExitCode {
    /// Clean exit.
    pub const SUCCESS: ExitCode = ExitCode(0);
    /// Generic Python exception.
    pub const PYTHON_EXCEPTION: ExitCode = ExitCode(1);
    /// Process killed by SIGKILL (e.g. the OOM killer).
    pub const SIGKILL: ExitCode = ExitCode(137);
    /// Process aborted (SIGABRT), typical of CUDA assertion failures.
    pub const SIGABRT: ExitCode = ExitCode(134);
    /// Segmentation fault.
    pub const SIGSEGV: ExitCode = ExitCode(139);

    /// Whether the exit was clean.
    pub fn is_success(self) -> bool {
        self.0 == 0
    }
}

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

/// Classifies a raw error line using the same kind of rules a production log
/// agent applies.
pub fn classify_log(text: &str) -> LogClass {
    let t = text.to_ascii_lowercase();
    // Order matters: NCCL errors often also mention CUDA, so check comms
    // first; user-space Python exceptions are checked before generic CUDA
    // because a traceback may embed both.
    if t.contains("nccl") || t.contains("watchdog") || t.contains("timed out") || t.contains("rdma")
    {
        return LogClass::Communication;
    }
    if t.contains("typeerror")
        || t.contains("indexerror")
        || t.contains("keyerror")
        || t.contains("valueerror")
        || t.contains("assertionerror")
        || t.contains("shape mismatch")
        || t.contains("modulenotfounderror")
    {
        return LogClass::UserCode;
    }
    if t.contains("cuda error")
        || t.contains("cuda_error")
        || t.contains("illegal memory access")
        || t.contains("uncorrectable ecc")
        || t.contains("device-side assert")
        || t.contains("xid")
    {
        return LogClass::CudaOrGpu;
    }
    if t.contains("out of memory") || t.contains("oom") || t.contains("no space left on device") {
        return LogClass::HostResource;
    }
    if t.contains("hdfs") || t.contains("checkpoint upload") || t.contains("filesystem") {
        return LogClass::Storage;
    }
    LogClass::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_code_errors_classified() {
        assert_eq!(
            classify_log("TypeError: unsupported operand type(s)"),
            LogClass::UserCode
        );
        assert_eq!(
            classify_log("IndexError: list index out of range"),
            LogClass::UserCode
        );
        assert_eq!(
            classify_log("AssertionError: expected hidden dim 8192, shape mismatch"),
            LogClass::UserCode
        );
    }

    #[test]
    fn cuda_errors_classified() {
        assert_eq!(
            classify_log("RuntimeError: CUDA error: an illegal memory access was encountered"),
            LogClass::CudaOrGpu
        );
        assert_eq!(
            classify_log("dmesg: NVRM: Xid (PCI:0000:4f:00): 63"),
            LogClass::CudaOrGpu
        );
    }

    #[test]
    fn communication_errors_classified_before_cuda() {
        assert_eq!(
            classify_log("NCCL Internal Error: watchdog caught collective operation timeout"),
            LogClass::Communication
        );
        assert_eq!(
            classify_log("ncclUnhandledCudaError: Call to CUDA function failed"),
            LogClass::Communication
        );
    }

    #[test]
    fn host_and_storage_errors_classified() {
        assert_eq!(
            classify_log("Killed: out of memory"),
            LogClass::HostResource
        );
        assert_eq!(
            classify_log("OSError: No space left on device"),
            LogClass::HostResource
        );
        assert_eq!(
            classify_log("hdfs.ConnectTimeout: failed to reach namenode"),
            LogClass::Storage
        );
    }

    #[test]
    fn unknown_errors_fall_through() {
        assert_eq!(
            classify_log("something inexplicable happened"),
            LogClass::Unknown
        );
    }

    #[test]
    fn exit_codes() {
        assert!(ExitCode::SUCCESS.is_success());
        assert!(!ExitCode::SIGKILL.is_success());
        assert_eq!(ExitCode::SIGKILL, ExitCode(137));
    }

    #[test]
    fn log_line_constructor() {
        let line = LogLine::error(
            SimTime::from_secs(5),
            MachineId(3),
            "CUDA error: device lost",
        );
        assert_eq!(line.level, LogLevel::Error);
        assert_eq!(classify_log(&line.text), LogClass::CudaOrGpu);
    }
}
