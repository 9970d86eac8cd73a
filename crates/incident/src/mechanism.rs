//! The resolution-mechanism taxonomy (Table 4).
//!
//! This type historically lived in `byterobust-core`'s `ft` module; it moved
//! here so the classification matrix can key on it without a dependency
//! cycle. The core crate re-exports it from its old path.

/// Which mechanism finally resolved an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResolutionMechanism {
    /// Real-time checks identified the machine; evicted immediately
    /// (AutoFT-ER fast path).
    ImmediateEviction,
    /// Stop-time checks identified the machines; evicted (AutoFT-ER).
    StopTimeEviction,
    /// All checks passed; a plain restart cleared the transient fault.
    Reattempt,
    /// Reverting recent user code cleared the fault (Rollback).
    Rollback,
    /// Dual-phase replay isolated the machines; evicted.
    DualPhaseReplay,
    /// The Runtime Analyzer's aggregation analysis over-evicted a parallel
    /// group (Analyzer-ER).
    AnalyzerEviction,
    /// A manual code/data adjustment handled by the in-place hot update
    /// (AutoFT-HU).
    HotUpdate,
}

impl ResolutionMechanism {
    /// The row label used in Table 4.
    pub fn table4_label(self) -> &'static str {
        match self {
            ResolutionMechanism::ImmediateEviction
            | ResolutionMechanism::StopTimeEviction
            | ResolutionMechanism::DualPhaseReplay
            | ResolutionMechanism::Reattempt => "AutoFT-ER",
            ResolutionMechanism::HotUpdate => "AutoFT-HU",
            ResolutionMechanism::AnalyzerEviction => "Analyzer-ER",
            ResolutionMechanism::Rollback => "Rollback",
        }
    }

    /// Human-readable mechanism name (the §4.2 "lesson" rows).
    pub fn display_name(self) -> &'static str {
        match self {
            ResolutionMechanism::ImmediateEviction => "Real-time eviction",
            ResolutionMechanism::StopTimeEviction => "Stop-time eviction",
            ResolutionMechanism::Reattempt => "Reattempt",
            ResolutionMechanism::Rollback => "Rollback",
            ResolutionMechanism::DualPhaseReplay => "Dual-phase replay",
            ResolutionMechanism::AnalyzerEviction => "Analyzer eviction",
            ResolutionMechanism::HotUpdate => "Hot update",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_labels() {
        assert_eq!(
            ResolutionMechanism::ImmediateEviction.table4_label(),
            "AutoFT-ER"
        );
        assert_eq!(ResolutionMechanism::HotUpdate.table4_label(), "AutoFT-HU");
        assert_eq!(
            ResolutionMechanism::AnalyzerEviction.table4_label(),
            "Analyzer-ER"
        );
        assert_eq!(ResolutionMechanism::Rollback.table4_label(), "Rollback");
    }
}
