//! Effective Training Time Ratio accounting (Fig. 10).
//!
//! ETTR is the ratio of productive training time to wall-clock time. The
//! paper reports two views: the **cumulative** ETTR since job start, and a
//! **sliding-window** ETTR over the last hour, which surfaces the impact of
//! individual incidents that the cumulative figure smooths away.

use byterobust_incident::codec::{CodecError, Decode, Encode, JsonValue};
use byterobust_sim::{SimDuration, SimTime};

/// One recorded segment of job time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    start: SimTime,
    duration: SimDuration,
    productive: bool,
}

/// Tracks productive vs. unproductive time and derives ETTR curves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EttrTracker {
    segments: Vec<Segment>,
}

impl Encode for EttrTracker {
    /// Segments are contiguous by construction (each starts where the
    /// previous one ended), so the wire form carries only `(duration,
    /// productive)` pairs; start times are rederived on decode.
    fn encode(&self) -> JsonValue {
        JsonValue::Array(
            self.segments
                .iter()
                .map(|segment| {
                    JsonValue::object(vec![
                        ("duration", segment.duration.encode()),
                        ("productive", segment.productive.encode()),
                    ])
                })
                .collect(),
        )
    }
}

impl Decode for EttrTracker {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        #[derive(Debug)]
        struct WireSegment {
            duration: SimDuration,
            productive: bool,
        }
        impl Decode for WireSegment {
            fn decode(value: &JsonValue) -> Result<Self, CodecError> {
                Ok(WireSegment {
                    duration: value.field("duration")?,
                    productive: value.field("productive")?,
                })
            }
        }
        let wire: Vec<WireSegment> = Vec::decode(value)?;
        let mut tracker = EttrTracker::new();
        for segment in wire {
            tracker.push(segment.duration, segment.productive);
        }
        Ok(tracker)
    }
}

impl EttrTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current end of the recorded timeline.
    pub fn now(&self) -> SimTime {
        self.segments
            .last()
            .map(|s| s.start + s.duration)
            .unwrap_or(SimTime::ZERO)
    }

    fn push(&mut self, duration: SimDuration, productive: bool) {
        if duration.is_zero() {
            return;
        }
        let start = self.now();
        self.segments.push(Segment {
            start,
            duration,
            productive,
        });
    }

    /// Records a stretch of productive training.
    pub fn record_productive(&mut self, duration: SimDuration) {
        self.push(duration, true);
    }

    /// Records a stretch of unproductive time (detection, diagnosis,
    /// failover, recomputation).
    pub fn record_unproductive(&mut self, duration: SimDuration) {
        self.push(duration, false);
    }

    /// Total wall-clock time recorded.
    pub fn total_time(&self) -> SimDuration {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// Total productive time recorded.
    pub fn productive_time(&self) -> SimDuration {
        self.segments
            .iter()
            .filter(|s| s.productive)
            .map(|s| s.duration)
            .sum()
    }

    /// Total unproductive time recorded.
    pub fn unproductive_time(&self) -> SimDuration {
        self.total_time() - self.productive_time()
    }

    /// Cumulative ETTR over the whole recorded timeline (1.0 when empty).
    pub fn cumulative_ettr(&self) -> f64 {
        let total = self.total_time();
        if total.is_zero() {
            return 1.0;
        }
        self.productive_time().as_secs_f64() / total.as_secs_f64()
    }

    /// ETTR within the window `[at - window, at]` (1.0 if the window contains
    /// no recorded time).
    pub fn sliding_ettr(&self, at: SimTime, window: SimDuration) -> f64 {
        let window_start = if at.as_millis() > window.as_millis() {
            at - window
        } else {
            SimTime::ZERO
        };
        let mut productive = 0u64;
        let mut total = 0u64;
        for seg in &self.segments {
            let seg_end = seg.start + seg.duration;
            let overlap_start = seg.start.max(window_start);
            let overlap_end = seg_end.min(at);
            if overlap_end > overlap_start {
                let overlap = overlap_end.since(overlap_start).as_millis();
                total += overlap;
                if seg.productive {
                    productive += overlap;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            productive as f64 / total as f64
        }
    }

    /// Samples the cumulative-ETTR curve at `points` evenly spaced instants
    /// over the recorded timeline. Returns `(time, cumulative ettr)` pairs.
    pub fn cumulative_series(&self, points: usize) -> Vec<(SimTime, f64)> {
        self.sample_series(points, |tracker, at| tracker.cumulative_up_to(at))
    }

    /// Samples the sliding-window-ETTR curve (window length `window`) at
    /// `points` evenly spaced instants.
    pub fn sliding_series(&self, points: usize, window: SimDuration) -> Vec<(SimTime, f64)> {
        self.sample_series(points, |tracker, at| tracker.sliding_ettr(at, window))
    }

    fn sample_series<F: Fn(&Self, SimTime) -> f64>(
        &self,
        points: usize,
        f: F,
    ) -> Vec<(SimTime, f64)> {
        let end = self.now();
        if points == 0 || end == SimTime::ZERO {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let at = SimTime::from_millis(end.as_millis() * i as u64 / points as u64);
                (at, f(self, at))
            })
            .collect()
    }

    /// Cumulative ETTR considering only time up to `at`.
    fn cumulative_up_to(&self, at: SimTime) -> f64 {
        let mut productive = 0u64;
        let mut total = 0u64;
        for seg in &self.segments {
            let seg_end = seg.start + seg.duration;
            let overlap_end = seg_end.min(at);
            if overlap_end > seg.start {
                let overlap = overlap_end.since(seg.start).as_millis();
                total += overlap;
                if seg.productive {
                    productive += overlap;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            productive as f64 / total as f64
        }
    }

    /// The longest single unproductive segment (the paper reports keeping
    /// unproductive time within 50 minutes per incident).
    pub fn longest_unproductive(&self) -> SimDuration {
        self.segments
            .iter()
            .filter(|s| !s.productive)
            .map(|s| s.duration)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_perfect() {
        let t = EttrTracker::new();
        assert_eq!(t.cumulative_ettr(), 1.0);
        assert_eq!(t.total_time(), SimDuration::ZERO);
    }

    #[test]
    fn cumulative_ettr_matches_ratio() {
        let mut t = EttrTracker::new();
        t.record_productive(SimDuration::from_hours(9));
        t.record_unproductive(SimDuration::from_hours(1));
        assert!((t.cumulative_ettr() - 0.9).abs() < 1e-9);
        assert_eq!(t.unproductive_time(), SimDuration::from_hours(1));
        assert_eq!(t.now(), SimTime::from_hours(10));
    }

    #[test]
    fn sliding_ettr_reflects_recent_incident() {
        let mut t = EttrTracker::new();
        t.record_productive(SimDuration::from_hours(10));
        t.record_unproductive(SimDuration::from_mins(30));
        t.record_productive(SimDuration::from_mins(30));
        let now = t.now();
        // Over the last hour: half unproductive.
        let sliding = t.sliding_ettr(now, SimDuration::from_hours(1));
        assert!((sliding - 0.5).abs() < 1e-6, "sliding = {sliding}");
        // Cumulative barely moves.
        assert!(t.cumulative_ettr() > 0.94);
        // A window fully inside the productive prefix is 1.0.
        assert_eq!(
            t.sliding_ettr(SimTime::from_hours(5), SimDuration::from_hours(1)),
            1.0
        );
    }

    #[test]
    fn series_are_monotone_in_time_and_bounded() {
        let mut t = EttrTracker::new();
        for _ in 0..10 {
            t.record_productive(SimDuration::from_hours(5));
            t.record_unproductive(SimDuration::from_mins(20));
        }
        let series = t.cumulative_series(20);
        assert_eq!(series.len(), 20);
        for window in series.windows(2) {
            assert!(window[0].0 < window[1].0);
        }
        for (_, v) in &series {
            assert!((0.0..=1.0).contains(v));
        }
        let sliding = t.sliding_series(20, SimDuration::from_hours(1));
        assert_eq!(sliding.len(), 20);
    }

    #[test]
    fn zero_duration_segments_are_ignored() {
        let mut t = EttrTracker::new();
        t.record_productive(SimDuration::ZERO);
        t.record_unproductive(SimDuration::ZERO);
        assert_eq!(t.total_time(), SimDuration::ZERO);
        assert_eq!(t.cumulative_ettr(), 1.0);
    }

    #[test]
    fn longest_unproductive_segment() {
        let mut t = EttrTracker::new();
        t.record_productive(SimDuration::from_hours(1));
        t.record_unproductive(SimDuration::from_mins(10));
        t.record_productive(SimDuration::from_hours(1));
        t.record_unproductive(SimDuration::from_mins(45));
        assert_eq!(t.longest_unproductive(), SimDuration::from_mins(45));
    }
}
