//! Wall-clock self-profiling: counters, gauges, and log-scale latency
//! histograms for the machinery itself.
//!
//! Everything in this module lives in the *host* domain — nanoseconds on the
//! bench machine, allocation counts, bytes spilled — and therefore varies
//! run to run. The contract (enforced by the trace/report byte-diff oracles)
//! is that none of it ever reaches a deterministic rendering: registries are
//! exported to telemetry sinks (`BENCH_obs.json`, stderr) only.
//!
//! The live instrument ([`LatencyHistogram`]) is lock-free atomics so the
//! parallel harness can share it across worker threads. Snapshots are plain
//! data: bucket counts that round-trip through the codec.

use std::sync::atomic::{AtomicU64, Ordering};

use byterobust_incident::codec::{
    parse_document, render_document, CodecError, Decode, Encode, JsonValue, JsonWriter,
};

/// Format header written by [`MetricsRegistry::export_json`].
pub const METRICS_FORMAT: &str = "byterobust-metrics";

/// Number of fixed log-scale buckets in a [`LatencyHistogram`]. Bucket `i`
/// holds values whose bit length is `i` (bucket 0 holds zero), i.e. bucket
/// boundaries are powers of two, so a u64 value always lands in one of 64
/// buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂-scale histogram of u64 samples (latencies in
/// nanoseconds, sizes in bytes). Recording is a single relaxed atomic add.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Bucket index for a sample: its bit length, so boundaries are powers of
/// two. Zero goes to bucket 0; anything ≥ 2⁶² saturates into bucket 63.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Clone for LatencyHistogram {
    fn clone(&self) -> LatencyHistogram {
        let clone = LatencyHistogram::new();
        for (dst, src) in clone.buckets.iter().zip(&self.buckets) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        clone
    }
}

/// A frozen histogram: plain bucket counts, encodable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Exactly [`HISTOGRAM_BUCKETS`] counts; bucket `i` covers values with
    /// bit length `i` (`[2^(i-1), 2^i)`; bucket 0 is the value zero).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (exclusive) of the bucket containing the `q`-quantile
    /// sample, or 0 for an empty histogram. Log-scale buckets make this an
    /// order-of-magnitude answer, which is all a self-profile needs.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { 1u64 << i };
            }
        }
        u64::MAX
    }
}

impl Encode for HistogramSnapshot {
    fn encode(&self, w: &mut JsonWriter) {
        w.object(|w| w.member("buckets", &self.buckets));
    }
}

impl Decode for HistogramSnapshot {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let buckets: Vec<u64> = value.field("buckets")?;
        if buckets.len() != HISTOGRAM_BUCKETS {
            return Err(CodecError::other(format!(
                "histogram has {} buckets (expected {HISTOGRAM_BUCKETS})",
                buckets.len()
            )));
        }
        Ok(HistogramSnapshot { buckets })
    }
}

/// A named bag of frozen metrics, ready for export. Names are kept in
/// insertion order (the panel decides the order once; the document then
/// renders byte-identically for identical measurements).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    /// Named counter totals.
    pub counters: Vec<(String, u64)>,
    /// Named point-in-time readings.
    pub gauges: Vec<(String, f64)>,
    /// Named histogram snapshots.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records (or overwrites) a counter total.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        Self::upsert(&mut self.counters, name, value);
    }

    /// Records (or overwrites) a gauge reading.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        Self::upsert(&mut self.gauges, name, value);
    }

    fn upsert<T>(entries: &mut Vec<(String, T)>, name: &str, value: T) {
        match entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = value,
            None => entries.push((name.to_string(), value)),
        }
    }

    /// Exports the registry as a self-describing JSON document.
    pub fn export_json(&self) -> String {
        fn named<T: Encode>(w: &mut JsonWriter, key: &'static str, entries: &[(String, T)]) {
            w.key(key);
            w.array(|w| {
                for (name, value) in entries {
                    w.object(|w| {
                        w.member("name", name);
                        w.member("value", value);
                    });
                }
            });
        }
        render_document(METRICS_FORMAT, |w| {
            named(w, "counters", &self.counters);
            named(w, "gauges", &self.gauges);
            named(w, "histograms", &self.histograms);
        })
    }

    /// Imports a registry written by [`MetricsRegistry::export_json`].
    pub fn import_json(text: &str) -> Result<MetricsRegistry, CodecError> {
        let document = parse_document(text, METRICS_FORMAT)?;
        fn named<T: Decode>(
            document: &JsonValue,
            key: &str,
        ) -> Result<Vec<(String, T)>, CodecError> {
            let JsonValue::Array(items) = document
                .get(key)
                .ok_or_else(|| CodecError::other(format!("missing field `{key}`")))?
            else {
                return Err(CodecError::other(format!("field `{key}` is not an array")));
            };
            items
                .iter()
                .map(|item| Ok((item.field("name")?, item.field("value")?)))
                .collect()
        }
        Ok(MetricsRegistry {
            counters: named(&document, "counters")?,
            gauges: named(&document, "gauges")?,
            histograms: named(&document, "histograms")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_incident::codec::{ErrorPosition, FORMAT_VERSION};

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, bound 128
        }
        h.record(1_000_000); // bucket 20
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 128);
        assert_eq!(snap.quantile(0.99), 128);
        assert_eq!(snap.quantile(1.0), 1 << 20);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn quantile_of_an_empty_histogram_is_zero_for_every_q() {
        let empty = HistogramSnapshot::default();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0, -1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn quantile_extremes_clamp_and_hit_the_edge_buckets() {
        let h = LatencyHistogram::new();
        h.record(100); // bucket 7, bound 128
        h.record(1_000_000); // bucket 20
        let snap = h.snapshot();
        // q=0 means "the first sample": rank clamps up to 1.
        assert_eq!(snap.quantile(0.0), 128);
        // q=1 is the last sample; out-of-range q clamps to [0, 1].
        assert_eq!(snap.quantile(1.0), 1 << 20);
        assert_eq!(snap.quantile(-0.5), snap.quantile(0.0));
        assert_eq!(snap.quantile(7.0), snap.quantile(1.0));
    }

    #[test]
    fn quantile_of_a_single_bucket_histogram_is_flat() {
        let h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(1000); // bucket 10, bound 1024
        }
        let snap = h.snapshot();
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(snap.quantile(q), 1024, "q={q}");
        }
        // The zero bucket's (exclusive) upper bound is 1.
        let zeros = LatencyHistogram::new();
        zeros.record(0);
        assert_eq!(zeros.snapshot().quantile(0.5), 1);
    }

    #[test]
    fn quantile_saturates_in_the_top_bucket() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX); // bucket 63
        h.record(1 << 62); // bit length 63... also saturates into bucket 63
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let snap = h.snapshot();
        // The top bucket has no finite exclusive bound: quantile reports
        // u64::MAX instead of overflowing the shift.
        assert_eq!(snap.quantile(0.5), u64::MAX);
        assert_eq!(snap.quantile(1.0), u64::MAX);
    }

    #[test]
    fn registry_roundtrips_exactly() {
        let mut registry = MetricsRegistry::new();
        registry.set_counter("scheduler/heap/picks", 1234);
        registry.set_counter("scheduler/naive/comparisons", 98765);
        registry.set_gauge("pool/occupancy", 0.8125);
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(512);
        h.record(1 << 33);
        registry
            .histograms
            .push(("warehouse/query/hot".to_string(), h.snapshot()));

        let text = registry.export_json();
        let back = MetricsRegistry::import_json(&text).expect("import succeeds");
        assert_eq!(back, registry);
        assert_eq!(back.export_json(), text);
        assert_eq!(back.counters[0], ("scheduler/heap/picks".to_string(), 1234));
        assert_eq!(back.histograms[0].1.count(), 3);
    }

    #[test]
    fn registry_set_overwrites_in_place() {
        let mut registry = MetricsRegistry::new();
        registry.set_counter("a", 1);
        registry.set_counter("b", 2);
        registry.set_counter("a", 10);
        assert_eq!(
            registry.counters,
            vec![("a".to_string(), 10), ("b".to_string(), 2)]
        );
    }

    #[test]
    fn corrupted_registry_documents_fail_with_positioned_errors() {
        let mut registry = MetricsRegistry::new();
        let h = LatencyHistogram::new();
        h.record(42);
        registry.histograms.push(("h".to_string(), h.snapshot()));
        let good = registry.export_json();

        let truncated = &good[..good.len() - 10];
        let err = MetricsRegistry::import_json(truncated).expect_err("truncated must fail");
        assert!(matches!(err.at, ErrorPosition::Byte { .. }), "{err}");

        let foreign = good.replace(METRICS_FORMAT, "byterobust-trace");
        let err = MetricsRegistry::import_json(&foreign).expect_err("foreign format must fail");
        assert!(err.to_string().contains("unexpected format"), "{err}");

        let current = format!("\"version\":{FORMAT_VERSION}");
        let future = good.replacen(&current, &format!("\"version\":{}", FORMAT_VERSION + 1), 1);
        assert_ne!(future, good, "the document has no `{current}` header");
        let err = MetricsRegistry::import_json(&future).expect_err("future version must fail");
        assert!(err.to_string().contains("unsupported version"), "{err}");

        // A histogram with the wrong bucket count is structural corruption.
        let short = good.replacen("[0,0,0,0,0,0,", "[0,0,0,0,0,", 1);
        let err = MetricsRegistry::import_json(&short).expect_err("short histogram must fail");
        assert!(err.to_string().contains("buckets"), "{err}");
    }
}
