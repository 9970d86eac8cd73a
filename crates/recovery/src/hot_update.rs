//! In-place hot updates (§6.1).
//!
//! Manual code/data adjustments are the single largest incident class in
//! Table 1. Instead of tearing the job down and rescheduling machines,
//! ByteRobust applies code changes *in place*, preserving the pod
//! environment. Pending changes are merged lazily into the next restart, and
//! a merged batch can be rolled back to the previous code version when the
//! stop-time checks implicate recent user code. The manager keeps only the
//! current and previous code versions and when the last batch was applied.

use byterobust_sim::SimTime;
use byterobust_trainsim::CodeVersion;

/// A requested code/data change, applied at the next restart.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// Probability the change introduces a bug that later surfaces as a
    /// user-code failure.
    pub bug_risk: f64,
}

/// Manages pending hot updates and the resulting code version.
#[derive(Debug, Clone, PartialEq)]
pub struct HotUpdateManager {
    pending: Vec<UpdateRequest>,
    last_applied_at: Option<SimTime>,
    current: CodeVersion,
    previous: Option<CodeVersion>,
}

impl HotUpdateManager {
    /// Creates a manager starting from the initial naive code version.
    pub fn new() -> Self {
        HotUpdateManager {
            pending: Vec::new(),
            last_applied_at: None,
            current: CodeVersion::initial(),
            previous: None,
        }
    }

    /// When the most recent batch of pending updates was applied, if ever.
    pub fn last_applied_at(&self) -> Option<SimTime> {
        self.last_applied_at
    }

    /// Files an update request for the next lazy merge.
    pub fn submit(&mut self, request: UpdateRequest) {
        self.pending.push(request);
    }

    /// Whether there is anything to apply.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Applies every pending update in place (lazy merge at a restart
    /// opportunity). Returns the new code version, or `None` if nothing was
    /// pending. The aggregate bug risk of the merged updates carries into the
    /// new version.
    pub fn apply_pending(&mut self, now: SimTime) -> Option<CodeVersion> {
        if self.pending.is_empty() {
            return None;
        }
        let merged_risk = 1.0
            - self
                .pending
                .drain(..)
                .fold(1.0, |acc, r| acc * (1.0 - r.bug_risk.clamp(0.0, 1.0)));
        self.previous = Some(self.current);
        let new_version = self.current.improved(merged_risk);
        self.last_applied_at = Some(now);
        self.current = new_version;
        Some(new_version)
    }

    /// Rolls back to the previous code version (Fig. 5 rollback path).
    /// Returns the restored version, or `None` if there is nothing to roll
    /// back to.
    pub fn rollback(&mut self) -> Option<CodeVersion> {
        let previous = self.previous.take()?;
        let restored = self.current.rolled_back_to(&previous);
        self.current = restored;
        Some(restored)
    }
}

impl Default for HotUpdateManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(risk: f64) -> UpdateRequest {
        UpdateRequest { bug_risk: risk }
    }

    #[test]
    fn lazy_apply_merges_all_pending() {
        let mut mgr = HotUpdateManager::new();
        mgr.submit(request(0.05));
        mgr.submit(request(0.10));
        let v0 = CodeVersion::initial();
        let v1 = mgr.apply_pending(SimTime::from_hours(2)).unwrap();
        assert_eq!(v1.version, v0.version + 1);
        assert!(v1.kernel_efficiency > v0.kernel_efficiency);
        assert!(!mgr.has_pending());
        assert_eq!(mgr.last_applied_at(), Some(SimTime::from_hours(2)));
        // Merged risk combines both (1 - 0.95*0.90 ≈ 0.145).
        assert!((v1.bug_risk - 0.145).abs() < 1e-9);
    }

    #[test]
    fn apply_with_nothing_pending_is_none() {
        let mut mgr = HotUpdateManager::new();
        assert!(mgr.apply_pending(SimTime::ZERO).is_none());
        assert_eq!(mgr.last_applied_at(), None);
    }

    #[test]
    fn rollback_restores_previous_efficiency_and_marks_history() {
        let mut mgr = HotUpdateManager::new();
        let original = CodeVersion::initial();
        mgr.submit(request(0.9));
        mgr.apply_pending(SimTime::from_hours(1)).unwrap();
        let rolled = mgr.rollback().unwrap();
        assert!((rolled.kernel_efficiency - original.kernel_efficiency).abs() < 1e-12);
        // The rollback does not erase when the batch was applied.
        assert_eq!(mgr.last_applied_at(), Some(SimTime::from_hours(1)));
        // A second rollback has nothing to restore.
        assert!(mgr.rollback().is_none());
    }

    #[test]
    fn version_counter_moves_forward_across_rollbacks() {
        let mut mgr = HotUpdateManager::new();
        mgr.submit(request(0.5));
        let v1 = mgr.apply_pending(SimTime::from_hours(1)).unwrap();
        let v2 = mgr.rollback().unwrap();
        assert!(v2.version > v1.version);
    }
}
