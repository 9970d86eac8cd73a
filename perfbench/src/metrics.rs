//! The metric catalogue, the percentile rule, and the result line.
//!
//! Both catalogues below are mirrored in `BENCHMARK.json`; a unit test keeps
//! the two identical, so a metric cannot be emitted without being declared.

use byterobust_incident::JsonValue;

use crate::checks::Checks;

/// `(name, unit)` of every end-to-end metric, emitted by every workload with
/// `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("fleet_ettr", "ratio"),
    ("attribution_accuracy", "ratio"),
];

/// `(name, unit)` of every per-layer metric, emitted by every workload with
/// `--trace 1`. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The query plane and the alert plane run on `live_query` only.
    ("query_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_samples", "count"),
    ("alert_recall", "ratio"),
    // Replay cross-check: the untraced run's work and wall time beside the
    // traced replay's.
    ("run.events", "count"),
    ("run.incidents", "count"),
    ("run.warehouse_len", "count"),
    ("run.wall_s", "s"),
    ("replay.events", "count"),
    ("replay.incidents", "count"),
    ("replay.warehouse_len", "count"),
    ("replay.wall_s", "s"),
    // core.lifecycle
    ("lifecycle.new_s", "s"),
    ("lifecycle.advance.calls", "count"),
    ("lifecycle.advance.busy_s", "s"),
    ("lifecycle.advance.p50_us", "us"),
    ("lifecycle.advance.p99_us", "us"),
    ("lifecycle.advance.busy_s.immediate_eviction", "s"),
    ("lifecycle.advance.busy_s.stop_time_eviction", "s"),
    ("lifecycle.advance.busy_s.reattempt", "s"),
    ("lifecycle.advance.busy_s.rollback", "s"),
    ("lifecycle.advance.busy_s.dual_phase_replay", "s"),
    ("lifecycle.advance.busy_s.analyzer_eviction", "s"),
    ("lifecycle.advance.busy_s.hot_update", "s"),
    ("lifecycle.advance.busy_s.finished", "s"),
    // fleet.scheduler
    ("scheduler.picks", "count"),
    ("scheduler.heap_pushes", "count"),
    ("scheduler.stale_drops", "count"),
    ("scheduler.tie_draws", "count"),
    // fleet.runner
    ("runner.cpu_user_s", "s"),
    ("runner.cpu_sys_s", "s"),
    ("runner.cpu_util", "ratio"),
    ("runner.ctx_switches", "count"),
    ("runner.unattributed_s", "s"),
    ("runner.default_run.events_per_s", "1/s"),
    ("runner.default_run.cpu_sys_s", "s"),
    ("runner.default_run.cpu_util", "ratio"),
    // fleet.warehouse
    ("warehouse.insert.calls", "count"),
    ("warehouse.insert.busy_s", "s"),
    ("warehouse.insert.p99_us", "us"),
    ("warehouse.spill.segments_written", "count"),
    ("warehouse.spill.bytes_written", "bytes"),
    ("warehouse.fault_ins", "count"),
    ("warehouse.fault_in_bytes", "bytes"),
    // fleet.service
    ("service.publish.calls", "count"),
    ("service.publish.busy_s", "s"),
    ("service.answer.live_p99_us", "us"),
    ("service.answer.sealed_p99_us", "us"),
    ("service.plan.machine", "count"),
    ("service.plan.category", "count"),
    ("service.plan.severity_floor", "count"),
    ("service.plan.time_bucket", "count"),
    ("service.plan.scan", "count"),
    ("service.plan.digest", "count"),
    ("service.cache.hits", "count"),
    ("service.cache.faults", "count"),
    ("service.cache.evictions", "count"),
    ("service.cache.hit_ratio", "ratio"),
    // fleet.ledger
    ("ledger.observe.busy_s", "s"),
    ("ledger.offender_changes", "count"),
    // obs.alert
    ("alert.publish.busy_s", "s"),
    ("alert.evaluate.calls", "count"),
    ("alert.evaluate.busy_s", "s"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(declared, _)| *declared == name)
        .map(|&(_, unit)| unit)
}

/// Whether `name` follows the metric-name grammar: starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Whether `unit` follows the unit grammar: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// A timing distribution summarised by the percentile rule: the median, the
/// highest standard percentile with at least ten samples beyond it, and the
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    pub count: usize,
    pub p50: f64,
    /// The highest of p99.9, p99, p90 and p50 that has at least ten samples
    /// above it (p50 when there are fewer than twenty samples).
    pub tail_q: f64,
    pub tail: f64,
    /// p99 when the rule allows it (at least 1,000 samples), else `None`.
    pub p99: Option<f64>,
}

/// The 1-based nearest rank of the quantile `per_mille / 1000` among
/// `count` samples, in integer arithmetic so that no rounding moves it.
fn rank(count: usize, per_mille: usize) -> usize {
    (per_mille * count).div_ceil(1000).clamp(1, count)
}

/// Nearest-rank quantile of a non-empty ascending slice.
fn nearest_rank(sorted: &[f64], per_mille: usize) -> f64 {
    sorted[rank(sorted.len(), per_mille) - 1]
}

impl Percentiles {
    /// Summarises `samples` (sorted in place). `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Percentiles> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable_by(f64::total_cmp);
        Some(Percentiles::summarise(samples.len(), |per_mille| {
            nearest_rank(samples, per_mille)
        }))
    }

    /// Applies the rule to `count` samples whose nearest-rank quantile
    /// `per_mille / 1000` is `quantile(per_mille)`.
    fn summarise(count: usize, quantile: impl Fn(usize) -> f64) -> Percentiles {
        let enough = |per_mille| count - rank(count, per_mille) >= 10;
        let tail = [999, 990, 900]
            .into_iter()
            .find(|&per_mille| enough(per_mille))
            .unwrap_or(500);
        Percentiles {
            count,
            p50: quantile(500),
            tail_q: tail as f64 / 1000.0,
            tail: quantile(tail),
            p99: enough(990).then(|| quantile(990)),
        }
    }

    /// One line for the human-readable table.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.3} {unit}, p{} {:.3} {unit}, n={}",
            self.p50,
            self.tail_q * 100.0,
            self.tail,
            self.count
        )
    }
}

/// Latencies in a log-linear histogram of nanoseconds, 32 buckets per power
/// of two: memory stays fixed however many queries a run answers (so it
/// cannot move `peak_rss_mb`), and a percentile read from it lies within
/// 1/64 of the sample it stands for.
#[derive(Debug, Clone)]
pub struct Latencies {
    counts: Vec<u64>,
}

/// log2 of the sub-buckets per power of two.
const SUB_BITS: u32 = 5;

impl Latencies {
    pub fn new() -> Latencies {
        Latencies {
            counts: vec![0; (65 - SUB_BITS as usize) << SUB_BITS],
        }
    }

    fn index(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) as usize & ((1 << SUB_BITS) - 1))
    }

    /// The midpoint of bucket `index`, in microseconds.
    fn midpoint_us(index: usize) -> f64 {
        if index < 1 << SUB_BITS {
            return index as f64 * 1e-3;
        }
        let shift = (index >> SUB_BITS) - 1;
        let sub = index & ((1 << SUB_BITS) - 1);
        let lower = (((1 << SUB_BITS) + sub) as u64) << shift;
        (lower as f64 + (1u64 << shift) as f64 / 2.0) * 1e-3
    }

    pub fn record(&mut self, elapsed: std::time::Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Latencies::index(ns)] += 1;
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    pub fn count(&self) -> usize {
        self.counts.iter().sum::<u64>() as usize
    }

    /// The value of the `rank`-th smallest sample (1-based).
    fn at_rank(&self, rank: usize) -> f64 {
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count as usize;
            if seen >= rank {
                return Latencies::midpoint_us(index);
            }
        }
        unreachable!("rank {rank} beyond {seen} samples")
    }

    /// The percentile-rule summary. `None` when empty.
    pub fn percentiles(&self) -> Option<Percentiles> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        Some(Percentiles::summarise(count, |per_mille| {
            self.at_rank(rank(count, per_mille))
        }))
    }
}

/// The median of a non-empty list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no measurements");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The metrics of one run, in the order they were set, plus free-form notes
/// (sample counts, percentile ranks) for the human-readable table.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Sets a declared metric. Panics on an undeclared name: every metric
    /// must be in a catalogue, and therefore in `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// Sets a `<prefix>p99_us` metric (and notes the full summary) from a
    /// summary in microseconds. Without enough samples for a p99 the metric
    /// reports the highest percentile the rule allows, and the note says so.
    pub fn set_p99(&mut self, name: &str, summary: Option<Percentiles>) {
        match summary {
            Some(summary) => {
                self.set(name, summary.p99.unwrap_or(summary.tail));
                self.note(format!("{name}: {}", summary.describe("us")));
            }
            None => self.set(name, 0.0),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Every metric set so far, one per line with its unit, then the notes.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            let unit = unit_of(name).expect("declared");
            out.push_str(&format!("{name:<46} {value:>18.6} {unit}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// The final result line: exactly the per-layer or the end-to-end
    /// catalogue's metrics, each with its value and unit. An unset per-layer
    /// metric is a layer the workload does not exercise and reports 0; an
    /// unset end-to-end metric is a bug.
    pub fn result_line(&self, per_layer: bool, checks: &Checks) -> String {
        let catalogue = if per_layer { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(value) => value,
                    None if per_layer => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (
                    name.to_string(),
                    JsonValue::object(vec![
                        ("value", JsonValue::F64(value)),
                        ("unit", JsonValue::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        JsonValue::object(vec![
            ("correct", JsonValue::Bool(checks.failed() == 0)),
            ("attempted", JsonValue::U64(checks.attempted().max(1))),
            ("failed", JsonValue::U64(checks.failed())),
            ("metrics", JsonValue::Object(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "metric {name} declared twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|&(name, unit)| name == "setup_s" && unit == "s"));
    }

    #[test]
    fn name_grammar_rejects_what_it_should() {
        assert!(valid_name("lifecycle.advance.busy_s.hot_update"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("µs"));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond_the_tail() {
        let mut few: Vec<f64> = (1..=19).map(f64::from).collect();
        let summary = Percentiles::of(&mut few).unwrap();
        assert_eq!((summary.tail_q, summary.p99), (0.5, None));
        assert_eq!(summary.p50, 10.0);

        let mut hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let summary = Percentiles::of(&mut hundred).unwrap();
        assert_eq!(
            (summary.tail_q, summary.tail, summary.p99),
            (0.9, 90.0, None)
        );

        let mut thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let summary = Percentiles::of(&mut thousand).unwrap();
        assert_eq!(summary.tail_q, 0.99);
        assert_eq!(summary.p99, Some(990.0));
        assert_eq!(summary.count, 1000);

        let mut many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let summary = Percentiles::of(&mut many).unwrap();
        assert_eq!((summary.tail_q, summary.tail), (0.999, 9990.0));
        assert_eq!(summary.p99, Some(9900.0));
        assert!(Percentiles::of(&mut []).is_none());
    }

    #[test]
    fn set_p99_falls_back_to_the_highest_allowed_percentile() {
        let mut metrics = Metrics::new();
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        metrics.set_p99("warehouse.insert.p99_us", Percentiles::of(&mut samples));
        assert_eq!(metrics.get("warehouse.insert.p99_us"), Some(90.0));
        assert!(metrics.render_table().contains("p90 90.000 us, n=100"));
    }

    #[test]
    fn histogram_percentiles_track_the_samples() {
        let mut latencies = Latencies::new();
        let mut samples = Vec::new();
        for micros in 1..=2000u64 {
            latencies.record(std::time::Duration::from_nanos(micros * 1000 + 7));
            samples.push((micros * 1000 + 7) as f64 * 1e-3);
        }
        let mut other = Latencies::new();
        other.record(std::time::Duration::from_nanos(3));
        latencies.merge(&other);
        samples.push(0.003);
        let exact = Percentiles::of(&mut samples).unwrap();
        let binned = latencies.percentiles().unwrap();
        assert_eq!(binned.count, 2001);
        assert_eq!(binned.tail_q, exact.tail_q);
        for (binned, exact) in [
            (binned.p50, exact.p50),
            (binned.tail, exact.tail),
            (binned.p99.unwrap(), exact.p99.unwrap()),
        ] {
            assert!(
                (binned - exact).abs() <= exact / 64.0,
                "{binned} vs {exact}"
            );
        }
        assert!(Latencies::new().percentiles().is_none());
        assert_eq!(
            Latencies::index(u64::MAX),
            Latencies::new().counts.len() - 1
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_catalogue_metrics() {
        let mut metrics = Metrics::new();
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            metrics.set(name, 1.5 + i as f64);
        }
        metrics.set("query_qps", 7.0);
        let mut checks = Checks::new();
        checks.check(true, String::new);
        let line = JsonValue::parse(&metrics.result_line(false, &checks)).unwrap();
        let keys: Vec<&str> = match &line {
            JsonValue::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        let JsonValue::Object(emitted) = line.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        let names: Vec<&str> = emitted.iter().map(|(name, _)| name.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, declared);
        assert_eq!(
            emitted[0].1.get("unit"),
            Some(&JsonValue::Str("s".to_string()))
        );

        // Per-layer metrics a workload never set report 0.
        let layer = JsonValue::parse(&metrics.result_line(true, &checks)).unwrap();
        let value = layer
            .get("metrics")
            .unwrap()
            .get("scheduler.picks")
            .unwrap();
        assert_eq!(value.get("value"), Some(&JsonValue::F64(0.0)));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::new().set("made_up", 1.0);
    }
}
