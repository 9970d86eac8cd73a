//! Effective Training Time Ratio accounting (Fig. 10).
//!
//! ETTR is the ratio of productive training time to wall-clock time. The
//! paper reports two views: the **cumulative** ETTR since job start, and a
//! **sliding-window** ETTR over the last hour, which surfaces the impact of
//! individual incidents that the cumulative figure smooths away.

use byterobust_incident::codec::{CodecError, Decode, Encode, JsonValue, JsonWriter};
use byterobust_sim::{SimDuration, SimTime};

/// One recorded segment of job time. Segments are contiguous (each starts
/// where the previous one ended), so a segment stores no start time: readers
/// rederive starts by prefix sum, and the tracker keeps the running end.
///
/// A run keeps two segments per incident, so a segment is packed into one
/// `u64`: the duration in milliseconds above the lowest bit, and the
/// productive flag in it. Durations up to [`Segment::MAX_MILLIS`] (about
/// 292 million years) fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment(u64);

impl Segment {
    /// The longest duration a segment holds, in milliseconds.
    const MAX_MILLIS: u64 = u64::MAX >> 1;

    fn new(duration: SimDuration, productive: bool) -> Segment {
        debug_assert!(duration.as_millis() <= Segment::MAX_MILLIS);
        Segment(duration.as_millis() << 1 | u64::from(productive))
    }

    fn duration(self) -> SimDuration {
        SimDuration::from_millis(self.0 >> 1)
    }

    fn productive(self) -> bool {
        self.0 & 1 == 1
    }
}

/// Tracks productive vs. unproductive time and derives ETTR curves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EttrTracker {
    segments: Vec<Segment>,
    /// End of the last segment (the sum of every duration).
    end: SimTime,
}

// A segment travels as `{duration, productive}`, the fields it packs.
impl Encode for Segment {
    fn encode(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.member("duration", &self.duration());
            w.member("productive", &self.productive());
        });
    }
}

impl Decode for Segment {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let duration: SimDuration = value.field("duration")?;
        if duration.as_millis() > Segment::MAX_MILLIS {
            return Err(CodecError::other(format!(
                "segment duration {} ms exceeds {} ms",
                duration.as_millis(),
                Segment::MAX_MILLIS
            ))
            .in_field("duration"));
        }
        Ok(Segment::new(duration, value.field("productive")?))
    }
}

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
            tracker.push(segment.duration(), segment.productive());
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
        self.segments.push(Segment::new(duration, productive));
    }

    /// Every segment with its start time, rederived by prefix sum.
    fn timeline(&self) -> impl Iterator<Item = (SimTime, Segment)> + '_ {
        self.segments.iter().scan(SimTime::ZERO, |start, &segment| {
            let at = *start;
            *start += segment.duration();
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
        self.segments.iter().map(|s| s.duration()).sum()
    }

    /// Total productive time recorded.
    pub fn productive_time(&self) -> SimDuration {
        self.segments
            .iter()
            .filter(|s| s.productive())
            .map(|s| s.duration())
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
            let seg_end = start + seg.duration();
            let overlap_start = start.max(window_start);
            let overlap_end = seg_end.min(at);
            if overlap_end > overlap_start {
                let overlap = overlap_end.since(overlap_start).as_millis();
                total += overlap;
                if seg.productive() {
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
            let seg_end = start + seg.duration();
            let overlap_end = seg_end.min(at);
            if overlap_end > start {
                let overlap = overlap_end.since(start).as_millis();
                total += overlap;
                if seg.productive() {
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
            .filter(|s| !s.productive())
            .map(|s| s.duration())
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
    /// mega drill). If this trips, keep the start out of the segment and
    /// the flag inside the duration's word.
    #[test]
    fn segments_stay_compact() {
        assert!(std::mem::size_of::<Segment>() <= 8);
    }

    #[test]
    fn a_segment_packs_its_duration_and_flag_losslessly() {
        for millis in [
            0,
            1,
            2,
            3_600_000,
            Segment::MAX_MILLIS - 1,
            Segment::MAX_MILLIS,
        ] {
            for productive in [false, true] {
                let segment = Segment::new(SimDuration::from_millis(millis), productive);
                assert_eq!(segment.duration().as_millis(), millis);
                assert_eq!(segment.productive(), productive);
            }
        }
        // The wire form is the unpacked pair, and a duration the packing
        // cannot hold is an error, not a truncation.
        use byterobust_incident::codec::{from_json, to_json};
        let segment = Segment::new(SimDuration::from_secs(90), true);
        assert_eq!(to_json(&segment), r#"{"duration":90000,"productive":true}"#);
        assert_eq!(from_json::<Segment>(&to_json(&segment)), Ok(segment));
        let too_long = format!(r#"{{"duration":{},"productive":false}}"#, u64::MAX);
        assert!(from_json::<Segment>(&too_long).is_err());
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

    /// Pushes one segment into both trackers.
    fn push_both(
        tracker: &mut EttrTracker,
        reference: &mut StartCarryingTracker,
        duration: SimDuration,
        productive: bool,
    ) {
        if productive {
            tracker.record_productive(duration);
        } else {
            tracker.record_unproductive(duration);
        }
        reference.push(duration, productive);
    }

    /// Asserts that `tracker` answers every read bit for bit like
    /// `reference`, probing the sliding window at instants drawn from `rng`,
    /// and that its export is an import fixed point.
    fn assert_matches_reference(
        tracker: &EttrTracker,
        reference: &StartCarryingTracker,
        rng: &mut byterobust_sim::SimRng,
        case: &str,
    ) {
        use byterobust_incident::codec::{from_json, to_json};

        let window = SimDuration::from_hours(1);
        assert_eq!(tracker.now(), reference.now(), "{case}");
        assert_eq!(
            tracker.longest_unproductive(),
            reference.longest_unproductive(),
            "{case}"
        );
        let end = reference.now().as_millis();
        for _ in 0..50 {
            let at = SimTime::from_millis(rng.range_u64(0, end + 7_200_000));
            let window = SimDuration::from_millis(rng.range_u64(0, 3 * 3_600_000));
            assert_eq!(
                tracker.sliding_ettr(at, window).to_bits(),
                reference.sliding_ettr(at, window).to_bits(),
                "{case}, at {at}, window {window}"
            );
        }
        for points in [0, 1, 7, 50] {
            assert_eq!(
                bits(tracker.cumulative_series(points)),
                reference.series(points, |at| reference.cumulative_up_to(at)),
                "{case}, {points} points"
            );
            assert_eq!(
                bits(tracker.sliding_series(points, window)),
                reference.series(points, |at| reference.sliding_ettr(at, window)),
                "{case}, {points} points"
            );
        }
        let exported = to_json(tracker);
        let imported: EttrTracker = from_json(&exported).expect("export decodes");
        assert_eq!(&imported, tracker, "{case}");
        assert_eq!(imported.now(), reference.now(), "{case}");
        assert_eq!(to_json(&imported), exported, "{case}");
    }

    #[test]
    fn start_free_segments_match_the_start_carrying_reference() {
        use byterobust_sim::SimRng;

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
                push_both(&mut tracker, &mut reference, duration, productive);
            }
            assert_matches_reference(&tracker, &reference, &mut rng, &format!("seed {seed}"));
        }

        let ms = SimDuration::from_millis;
        // Fixed (duration, productive) pushes: only zero lengths; zero
        // lengths between and around segments; back-to-back runs of one
        // kind, which stay separate segments; and one-millisecond segments.
        let cases: [&[(SimDuration, bool)]; 5] = [
            &[(ms(0), true), (ms(0), false), (ms(0), true)],
            &[
                (ms(0), false),
                (ms(5_000), true),
                (ms(0), true),
                (ms(0), false),
                (ms(7_000), false),
                (ms(0), true),
            ],
            &[
                (ms(3_600_000), true),
                (ms(3_600_000), true),
                (ms(1_800_000), true),
                (ms(600_000), false),
                (ms(600_000), false),
                (ms(0), false),
                (ms(2_400_000), false),
            ],
            &[
                (ms(900_000), false),
                (ms(900_000), false),
                (ms(7_200_000), true),
                (ms(1), true),
                (ms(1), false),
                (ms(1), false),
            ],
            &[(ms(1), true), (ms(1), true), (ms(1), false), (ms(1), true)],
        ];
        for (index, pushes) in cases.iter().enumerate() {
            let mut tracker = EttrTracker::new();
            let mut reference = StartCarryingTracker::default();
            for &(duration, productive) in pushes.iter() {
                push_both(&mut tracker, &mut reference, duration, productive);
            }
            let kept = pushes.iter().filter(|(d, _)| !d.is_zero()).count();
            assert_eq!(tracker.segments.len(), kept, "case {index}");
            assert_eq!(reference.segments.len(), kept, "case {index}");
            let mut rng = SimRng::new(index as u64);
            assert_matches_reference(&tracker, &reference, &mut rng, &format!("case {index}"));
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
