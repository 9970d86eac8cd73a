//! Failover cost accounting (Fig. 3).
//!
//! The unproductive time of an incident decomposes into detection,
//! localization, and failover; failover itself decomposes into scheduling
//! replacement machines, rebuilding pod environments, loading the latest
//! checkpoint, and recomputing the training progress lost since that
//! checkpoint. This module aggregates those pieces so the lifecycle driver
//! and the Fig. 3 bench can report the same breakdown the paper shows.

use byterobust_sim::SimDuration;

/// Breakdown of one incident's unproductive time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FailoverCost {
    /// Time from the fault occurring to the system noticing it.
    pub detection: SimDuration,
    /// Time spent locating / isolating the faulty machines (stop-time checks,
    /// aggregation analysis, replay).
    pub localization: SimDuration,
    /// Time spent scheduling replacement machines (or awakening standbys, or
    /// performing the in-place restart).
    pub scheduling: SimDuration,
    /// Time spent rebuilding pod environments (zero for hot updates and
    /// warm standbys, whose pods are pre-built).
    pub pod_build: SimDuration,
    /// Time spent loading the checkpoint.
    pub checkpoint_load: SimDuration,
    /// Time spent recomputing the steps lost since the restored checkpoint.
    pub recompute: SimDuration,
}

impl FailoverCost {
    /// Total unproductive time of the incident.
    pub fn total(&self) -> SimDuration {
        self.detection
            + self.localization
            + self.scheduling
            + self.pod_build
            + self.checkpoint_load
            + self.recompute
    }

    /// The failover portion only (excluding detection and localization), as
    /// decomposed in Fig. 3.
    pub fn failover_only(&self) -> SimDuration {
        self.scheduling + self.pod_build + self.checkpoint_load + self.recompute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> FailoverCost {
        FailoverCost {
            detection: SimDuration::from_secs(30),
            localization: SimDuration::from_secs(300),
            scheduling: SimDuration::from_secs(60),
            pod_build: SimDuration::from_secs(0),
            checkpoint_load: SimDuration::from_secs(45),
            recompute: SimDuration::from_secs(15),
        }
    }

    #[test]
    fn total_is_sum_of_components() {
        assert_eq!(cost().total(), SimDuration::from_secs(450));
        assert_eq!(cost().failover_only(), SimDuration::from_secs(120));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(FailoverCost::default().total(), SimDuration::ZERO);
    }
}
