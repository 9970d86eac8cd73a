//! In-place hot updates (§6.1).
//!
//! Manual code/data adjustments are the single largest incident class in
//! Table 1. Instead of tearing the job down and rescheduling machines,
//! ByteRobust applies code changes *in place*, preserving the pod
//! environment. Urgent changes (bug fixes) stop training immediately;
//! non-critical changes are merged lazily into the next failure-driven
//! restart, or forced once a triggering window (default 24 h) expires. Every
//! applied change is persisted so it can be rolled back when the stop-time
//! checks implicate recent user code.

use byterobust_sim::{SimDuration, SimTime};
use byterobust_trainsim::CodeVersion;

/// How urgently an update must be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateUrgency {
    /// Bug fix or algorithm correction: halt training and apply now.
    Critical,
    /// Optimization / version bump: apply at the next restart or when the
    /// triggering window expires.
    NonCritical,
}

/// A requested code/data change.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// When the request was filed.
    pub requested_at: SimTime,
    /// Urgency class.
    pub urgency: UpdateUrgency,
    /// Human-readable description (persisted for traceability).
    pub description: &'static str,
    /// Probability the change introduces a bug that later surfaces as a
    /// user-code failure.
    pub bug_risk: f64,
}

/// A record of an applied update (the persistence the paper requires for
/// traceability and reproducibility).
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedUpdate {
    /// The original request.
    pub request: UpdateRequest,
    /// When it was applied.
    pub applied_at: SimTime,
    /// Code version produced by applying it.
    pub resulting_version: u32,
    /// Whether it was later rolled back.
    pub rolled_back: bool,
}

/// Manages pending and applied hot updates and the resulting code version.
#[derive(Debug, Clone, PartialEq)]
pub struct HotUpdateManager {
    /// Window after which a pending non-critical update is force-applied.
    pub trigger_window: SimDuration,
    /// Time to apply an in-place update and resume (Table 7 measures 46–65 s
    /// at increasing scale; the scale dependence lives in
    /// [`crate::restart::RestartCostModel`]).
    pub apply_time: SimDuration,
    pending: Vec<UpdateRequest>,
    history: Vec<AppliedUpdate>,
    current: CodeVersion,
    previous: Option<CodeVersion>,
}

impl HotUpdateManager {
    /// Creates a manager starting from the initial naive code version with the
    /// paper's 24-hour trigger window.
    pub fn new() -> Self {
        HotUpdateManager {
            trigger_window: SimDuration::from_hours(24),
            apply_time: SimDuration::from_secs(50),
            pending: Vec::new(),
            history: Vec::new(),
            current: CodeVersion::initial(),
            previous: None,
        }
    }

    /// Currently deployed code version.
    pub fn current_version(&self) -> &CodeVersion {
        &self.current
    }

    /// Pending (not yet applied) updates.
    pub fn pending(&self) -> &[UpdateRequest] {
        &self.pending
    }

    /// Applied-update history (persisted database in production).
    pub fn history(&self) -> &[AppliedUpdate] {
        &self.history
    }

    /// Files an update request. Returns `true` if the update is critical and
    /// the caller should halt training to apply it immediately.
    pub fn submit(&mut self, request: UpdateRequest) -> bool {
        let critical = request.urgency == UpdateUrgency::Critical;
        self.pending.push(request);
        critical
    }

    /// Whether any pending non-critical update has exceeded the trigger
    /// window as of `now` (forcing an apply even without a failure).
    pub fn window_expired(&self, now: SimTime) -> bool {
        self.pending
            .iter()
            .any(|r| now.saturating_since(r.requested_at) >= self.trigger_window)
    }

    /// Whether there is anything to apply.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Applies every pending update in place (lazy merge at a restart
    /// opportunity or on window expiry). Returns the new code version, or
    /// `None` if nothing was pending. The aggregate bug risk of the merged
    /// updates carries into the new version.
    pub fn apply_pending(&mut self, now: SimTime) -> Option<CodeVersion> {
        if self.pending.is_empty() {
            return None;
        }
        let merged_risk = 1.0
            - self
                .pending
                .iter()
                .fold(1.0, |acc, r| acc * (1.0 - r.bug_risk.clamp(0.0, 1.0)));
        self.previous = Some(self.current);
        let new_version = self.current.improved(merged_risk);
        for request in self.pending.drain(..) {
            self.history.push(AppliedUpdate {
                request,
                applied_at: now,
                resulting_version: new_version.version,
                rolled_back: false,
            });
        }
        self.current = new_version;
        Some(new_version)
    }

    /// Rolls back to the previous code version (Fig. 5 rollback path),
    /// marking the most recent batch of applied updates as rolled back.
    /// Returns the restored version, or `None` if there is nothing to roll
    /// back to.
    pub fn rollback(&mut self) -> Option<CodeVersion> {
        let previous = self.previous.take()?;
        let restored = self.current.rolled_back_to(&previous);
        let latest_version = self
            .history
            .iter()
            .map(|h| h.resulting_version)
            .max()
            .unwrap_or(self.current.version);
        for entry in self
            .history
            .iter_mut()
            .filter(|h| h.resulting_version == latest_version)
        {
            entry.rolled_back = true;
        }
        self.current = restored;
        Some(restored)
    }

    /// Whether the most recently applied (non rolled-back) updates carry a
    /// meaningful bug risk — used by the diagnoser to decide whether a
    /// rollback is a plausible fix.
    pub fn recent_update_suspicious(&self) -> bool {
        self.previous.is_some() && self.current.bug_risk > 0.10
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

    fn request(urgency: UpdateUrgency, at_hours: u64, risk: f64) -> UpdateRequest {
        UpdateRequest {
            requested_at: SimTime::from_hours(at_hours),
            urgency,
            description: "fused kernel rollout",
            bug_risk: risk,
        }
    }

    #[test]
    fn critical_updates_demand_immediate_apply() {
        let mut mgr = HotUpdateManager::new();
        assert!(mgr.submit(request(UpdateUrgency::Critical, 0, 0.1)));
        assert!(!mgr.submit(request(UpdateUrgency::NonCritical, 0, 0.1)));
    }

    #[test]
    fn lazy_apply_merges_all_pending() {
        let mut mgr = HotUpdateManager::new();
        mgr.submit(request(UpdateUrgency::NonCritical, 0, 0.05));
        mgr.submit(request(UpdateUrgency::NonCritical, 1, 0.10));
        let v0 = *mgr.current_version();
        let v1 = mgr.apply_pending(SimTime::from_hours(2)).unwrap();
        assert_eq!(v1.version, v0.version + 1);
        assert!(v1.kernel_efficiency > v0.kernel_efficiency);
        assert!(!mgr.has_pending());
        assert_eq!(mgr.history().len(), 2);
        // Merged risk combines both (1 - 0.95*0.90 ≈ 0.145).
        assert!((mgr.current_version().bug_risk - 0.145).abs() < 1e-9);
    }

    #[test]
    fn apply_with_nothing_pending_is_none() {
        let mut mgr = HotUpdateManager::new();
        assert!(mgr.apply_pending(SimTime::ZERO).is_none());
    }

    #[test]
    fn window_expiry_forces_apply() {
        let mut mgr = HotUpdateManager::new();
        mgr.submit(request(UpdateUrgency::NonCritical, 0, 0.02));
        assert!(!mgr.window_expired(SimTime::from_hours(10)));
        assert!(mgr.window_expired(SimTime::from_hours(24)));
    }

    #[test]
    fn rollback_restores_previous_efficiency_and_marks_history() {
        let mut mgr = HotUpdateManager::new();
        let original = *mgr.current_version();
        mgr.submit(request(UpdateUrgency::NonCritical, 0, 0.9));
        mgr.apply_pending(SimTime::from_hours(1)).unwrap();
        assert!(mgr.recent_update_suspicious());
        let rolled = mgr.rollback().unwrap();
        assert!((rolled.kernel_efficiency - original.kernel_efficiency).abs() < 1e-12);
        assert!(mgr.history().iter().all(|h| h.rolled_back));
        // A second rollback has nothing to restore.
        assert!(mgr.rollback().is_none());
    }

    #[test]
    fn version_counter_moves_forward_across_rollbacks() {
        let mut mgr = HotUpdateManager::new();
        mgr.submit(request(UpdateUrgency::NonCritical, 0, 0.5));
        let v1 = mgr.apply_pending(SimTime::from_hours(1)).unwrap();
        let v2 = mgr.rollback().unwrap();
        assert!(v2.version > v1.version);
    }
}
