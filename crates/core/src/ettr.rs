//! Effective Training Time Ratio accounting (Fig. 10).
//!
//! ETTR is the ratio of productive training time to wall-clock time. The
//! paper reports two views: the **cumulative** ETTR since job start, and a
//! **sliding-window** ETTR over the last hour, which surfaces the impact of
//! individual incidents that the cumulative figure smooths away.

use byterobust_incident::codec::{CodecError, Decode, Encode, JsonValue, JsonWriter};
use byterobust_incident::struct_codec;
use byterobust_sim::{SimDuration, SimTime};

/// One recorded segment of job time. Segments are contiguous (each starts
/// where the previous one ended), so a segment stores no start time: readers
/// rederive starts by prefix sum, and the tracker keeps the running end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    duration: SimDuration,
    productive: bool,
}

/// Tracks productive vs. unproductive time and derives ETTR curves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EttrTracker {
    segments: Vec<Segment>,
    /// End of the last segment (the sum of every duration).
    end: SimTime,
}

struct_codec!(Segment {
    duration,
    productive
});

impl Encode for EttrTracker {
    /// The wire form is the segment list itself, `(duration, productive)`
    /// pairs; decode replays them to rederive the running end.
    fn encode(&self, w: &mut JsonWriter) {
        self.segments.encode(w);
    }
}

impl Decode for EttrTracker {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let mut tracker = EttrTracker::new();
        for segment in Vec::<Segment>::decode(value)? {
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
        self.end
    }

    fn push(&mut self, duration: SimDuration, productive: bool) {
        if duration.is_zero() {
            return;
        }
        self.end += duration;
        self.segments.push(Segment {
            duration,
            productive,
        });
    }

    /// Every segment with its start time, rederived by prefix sum.
    fn timeline(&self) -> impl Iterator<Item = (SimTime, &Segment)> + '_ {
        self.segments.iter().scan(SimTime::ZERO, |start, segment| {
            let at = *start;
            *start += segment.duration;
            Some((at, segment))
        })
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
        for (start, seg) in self.timeline() {
            let seg_end = start + seg.duration;
            let overlap_start = start.max(window_start);
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
        for (start, seg) in self.timeline() {
            let seg_end = start + seg.duration;
            let overlap_end = seg_end.min(at);
            if overlap_end > start {
                let overlap = overlap_end.since(start).as_millis();
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

    /// ETTR segments are kept for the whole run (about two million on the
    /// mega drill). If this trips, keep the start out of the segment.
    #[test]
    fn segments_stay_compact() {
        assert!(std::mem::size_of::<Segment>() <= 16);
    }

    /// The tracker as it was when every segment carried its start time: the
    /// reference the start-free tracker must match bit for bit.
    #[derive(Default)]
    struct StartCarryingTracker {
        segments: Vec<(SimTime, SimDuration, bool)>,
    }

    impl StartCarryingTracker {
        fn now(&self) -> SimTime {
            self.segments
                .last()
                .map(|&(start, duration, _)| start + duration)
                .unwrap_or(SimTime::ZERO)
        }

        fn push(&mut self, duration: SimDuration, productive: bool) {
            if duration.is_zero() {
                return;
            }
            let start = self.now();
            self.segments.push((start, duration, productive));
        }

        fn sliding_ettr(&self, at: SimTime, window: SimDuration) -> f64 {
            let window_start = if at.as_millis() > window.as_millis() {
                at - window
            } else {
                SimTime::ZERO
            };
            let mut productive = 0u64;
            let mut total = 0u64;
            for &(start, duration, is_productive) in &self.segments {
                let overlap_start = start.max(window_start);
                let overlap_end = (start + duration).min(at);
                if overlap_end > overlap_start {
                    let overlap = overlap_end.since(overlap_start).as_millis();
                    total += overlap;
                    if is_productive {
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

        fn cumulative_up_to(&self, at: SimTime) -> f64 {
            let mut productive = 0u64;
            let mut total = 0u64;
            for &(start, duration, is_productive) in &self.segments {
                let overlap_end = (start + duration).min(at);
                if overlap_end > start {
                    let overlap = overlap_end.since(start).as_millis();
                    total += overlap;
                    if is_productive {
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

        fn series(&self, points: usize, f: impl Fn(SimTime) -> f64) -> Vec<(SimTime, u64)> {
            let end = self.now();
            if points == 0 || end == SimTime::ZERO {
                return Vec::new();
            }
            (1..=points)
                .map(|i| {
                    let at = SimTime::from_millis(end.as_millis() * i as u64 / points as u64);
                    (at, f(at).to_bits())
                })
                .collect()
        }

        fn longest_unproductive(&self) -> SimDuration {
            self.segments
                .iter()
                .filter(|&&(_, _, productive)| !productive)
                .map(|&(_, duration, _)| duration)
                .max()
                .unwrap_or(SimDuration::ZERO)
        }
    }

    fn bits(series: Vec<(SimTime, f64)>) -> Vec<(SimTime, u64)> {
        series
            .into_iter()
            .map(|(at, v)| (at, v.to_bits()))
            .collect()
    }

    #[test]
    fn start_free_segments_match_the_start_carrying_reference() {
        use byterobust_incident::codec::{from_json, to_json};
        use byterobust_sim::SimRng;

        let window = SimDuration::from_hours(1);
        for seed in 0..40u64 {
            let mut rng = SimRng::new(seed);
            let mut tracker = EttrTracker::new();
            let mut reference = StartCarryingTracker::default();
            for _ in 0..rng.range_u64(0, 60) {
                // One push in four is zero-length, which both must drop.
                let duration = if rng.chance(0.25) {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_millis(rng.range_u64(1, 4 * 3_600_000))
                };
                let productive = rng.chance(0.6);
                if productive {
                    tracker.record_productive(duration);
                } else {
                    tracker.record_unproductive(duration);
                }
                reference.push(duration, productive);
            }
            assert_eq!(tracker.now(), reference.now(), "seed {seed}");
            assert_eq!(
                tracker.longest_unproductive(),
                reference.longest_unproductive(),
                "seed {seed}"
            );
            let end = reference.now().as_millis();
            for _ in 0..50 {
                let at = SimTime::from_millis(rng.range_u64(0, end + 7_200_000));
                let window = SimDuration::from_millis(rng.range_u64(0, 3 * 3_600_000));
                assert_eq!(
                    tracker.sliding_ettr(at, window).to_bits(),
                    reference.sliding_ettr(at, window).to_bits(),
                    "seed {seed}, at {at}, window {window}"
                );
            }
            for points in [0, 1, 7, 50] {
                assert_eq!(
                    bits(tracker.cumulative_series(points)),
                    reference.series(points, |at| reference.cumulative_up_to(at)),
                    "seed {seed}, {points} points"
                );
                assert_eq!(
                    bits(tracker.sliding_series(points, window)),
                    reference.series(points, |at| reference.sliding_ettr(at, window)),
                    "seed {seed}, {points} points"
                );
            }
            let exported = to_json(&tracker);
            let imported: EttrTracker = from_json(&exported).expect("export decodes");
            assert_eq!(imported, tracker, "seed {seed}");
            assert_eq!(imported.now(), reference.now(), "seed {seed}");
            assert_eq!(to_json(&imported), exported, "seed {seed}");
        }
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
