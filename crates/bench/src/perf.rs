//! The perf-measurement substrate: machine-readable benchmark artifacts.
//!
//! Every future perf claim about this repository is pinned by a JSON
//! artifact: `reproduce` emits `BENCH_reproduce.json` (wall-clock per table /
//! figure plus the total) and `BENCH_fleet.json` (the `large_drill`
//! throughput benchmark — events/sec under the heap scheduler and the
//! measured speedup over the retained naive scan — plus [`MegaBenchStats`],
//! the mega-drill panel: events/sec, wall time, and peak RSS). The
//! `bench_guard` binary
//! compares the former against the checked-in budget in
//! `ci/bench_budget.json` and fails CI when the total regresses more than 2×.
//!
//! The writers emit the (small, flat) JSON by hand, escaping names through
//! the in-repo codec; `bench_guard` reads the documents back with the
//! codec's parser and [`read_sections`].

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use byterobust_incident::codec::JsonValue;

/// Where benchmark artifacts are written: `$BYTEROBUST_BENCH_DIR` if set,
/// else the current directory.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("BYTEROBUST_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Writes one benchmark artifact `name` into `dir`, creating `dir` if it does
/// not exist, and returns the artifact's path. The error names the artifact,
/// so a caller reporting it needs no context of its own.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|err| std::io::Error::new(err.kind(), format!("{}: {err}", path.display())))?;
    Ok(path)
}

/// Runs `f`, returning its output and the elapsed wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One timed section of a benchmark run.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section name (a table/figure identifier).
    pub name: String,
    /// Wall-clock seconds the section took on its thread.
    pub wall_secs: f64,
}

/// Accumulates per-section timings for one benchmark run and renders the
/// `BENCH_reproduce.json` artifact.
#[derive(Debug, Default)]
pub struct PerfRecorder {
    sections: Vec<Section>,
}

impl PerfRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one section's wall time.
    pub fn record(&mut self, name: &str, wall_secs: f64) {
        self.sections.push(Section {
            name: name.to_string(),
            wall_secs,
        });
    }

    /// Renders the `BENCH_reproduce.json` document. `total_wall_secs` is the
    /// whole run's wall time (under a parallel harness it is less than the
    /// sum of the per-section times — that difference *is* the speedup).
    pub fn render_json(&self, fast_mode: bool, parallel: bool, total_wall_secs: f64) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"reproduce\",");
        let _ = writeln!(out, "  \"fast_mode\": {fast_mode},");
        let _ = writeln!(out, "  \"parallel\": {parallel},");
        let _ = writeln!(out, "  \"total_wall_secs\": {total_wall_secs:.4},");
        let sum: f64 = self.sections.iter().map(|s| s.wall_secs).sum();
        let _ = writeln!(out, "  \"sections_wall_secs_sum\": {sum:.4},");
        out.push_str("  \"sections\": [\n");
        for (i, section) in self.sections.iter().enumerate() {
            let comma = if i + 1 == self.sections.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"wall_secs\": {:.4}}}{comma}",
                JsonValue::Str(section.name.clone()).render(),
                section.wall_secs
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The `large_drill` fleet throughput measurement backing `BENCH_fleet.json`.
#[derive(Debug, Clone)]
pub struct FleetBenchStats {
    /// Fleet seed.
    pub seed: u64,
    /// Concurrent jobs in the drill.
    pub jobs: usize,
    /// Total machines across the fleet.
    pub machines: usize,
    /// Incidents processed over the run.
    pub incidents: usize,
    /// Scheduler events processed (incidents plus job-end events).
    pub events: usize,
    /// Wall seconds for the heap-scheduler run.
    pub heap_wall_secs: f64,
    /// Wall seconds for the retained naive-scan reference run.
    pub naive_wall_secs: f64,
}

impl FleetBenchStats {
    /// Heap-scheduler throughput in events per second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.heap_wall_secs.max(1e-9)
    }

    /// Naive-scan wall time over heap wall time.
    pub fn scheduler_speedup(&self) -> f64 {
        self.naive_wall_secs / self.heap_wall_secs.max(1e-9)
    }

    /// Renders the `BENCH_fleet.json` document, appending the mega-drill
    /// measurement when one was taken. The document stays flat: mega keys
    /// are `mega_`-prefixed, so no key appears twice.
    pub fn render_json_with_mega(&self, mega: Option<&MegaBenchStats>) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"fleet_large_drill\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"machines\": {},", self.machines);
        let _ = writeln!(out, "  \"incidents\": {},", self.incidents);
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(out, "  \"heap_wall_secs\": {:.4},", self.heap_wall_secs);
        let _ = writeln!(out, "  \"naive_wall_secs\": {:.4},", self.naive_wall_secs);
        let _ = writeln!(out, "  \"events_per_sec\": {:.1},", self.events_per_sec());
        match mega {
            None => {
                let _ = writeln!(
                    out,
                    "  \"scheduler_speedup\": {:.2}",
                    self.scheduler_speedup()
                );
            }
            Some(mega) => {
                let _ = writeln!(
                    out,
                    "  \"scheduler_speedup\": {:.2},",
                    self.scheduler_speedup()
                );
                out.push_str(&mega.render_fields());
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The mega-drill measurement appended to `BENCH_fleet.json`: the 100×-scale
/// fleet run once through the serial event loop, with events/sec and the
/// process peak RSS. Keys are `mega_`-prefixed so the document stays flat
/// and collision-free.
#[derive(Debug, Clone)]
pub struct MegaBenchStats {
    /// Fleet seed.
    pub seed: u64,
    /// Whether fast mode substituted the scaled-down smoke drill.
    pub fast_mode: bool,
    /// Concurrent jobs in the drill.
    pub jobs: usize,
    /// Total machines across the fleet.
    pub machines: usize,
    /// Incidents processed over the run.
    pub incidents: usize,
    /// Scheduler events processed (incidents plus job-end events).
    pub events: usize,
    /// Wall seconds for the run.
    pub serial_wall_secs: f64,
    /// Process peak RSS in bytes (`VmHWM`), read right after the run. The
    /// mega drill dominates the process high-water mark by an order of
    /// magnitude, so this is an honest ceiling for the drill itself.
    pub peak_rss_bytes: u64,
}

impl MegaBenchStats {
    /// Throughput of the run in events per second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.serial_wall_secs.max(1e-9)
    }

    /// Renders the `mega_`-prefixed lines appended inside `BENCH_fleet.json`.
    fn render_fields(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  \"mega_fast_mode\": {},", self.fast_mode);
        let _ = writeln!(out, "  \"mega_jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"mega_machines\": {},", self.machines);
        let _ = writeln!(out, "  \"mega_incidents\": {},", self.incidents);
        let _ = writeln!(out, "  \"mega_events\": {},", self.events);
        let _ = writeln!(
            out,
            "  \"mega_serial_wall_secs\": {:.4},",
            self.serial_wall_secs
        );
        let _ = writeln!(
            out,
            "  \"mega_events_per_sec\": {:.1},",
            self.events_per_sec()
        );
        let _ = writeln!(out, "  \"mega_peak_rss_bytes\": {}", self.peak_rss_bytes);
        out
    }
}

/// The process's peak resident-set size in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// The resident query-plane measurement backing `BENCH_query.json`: an
/// open-loop synthetic stream served by the live [`WarehouseService`] during
/// `large_drill`, with throughput, latency quantiles, the planner mix, and
/// segment-cache behaviour. All wall-clock self-profiling — none of it
/// reaches the deterministic report.
///
/// [`WarehouseService`]: byterobust_fleet::WarehouseService
#[derive(Debug, Clone)]
pub struct QueryBenchStats {
    /// Fleet seed of the drill the service was attached to.
    pub seed: u64,
    /// Traffic-stream seed.
    pub traffic_seed: u64,
    /// Synthetic queries answered against the live service.
    pub queries: u64,
    /// Reader threads that drove the open-loop stream.
    pub reader_threads: usize,
    /// Epochs the runner published over the drill.
    pub epochs: u64,
    /// Wall seconds the query stream took (concurrent with the drill).
    pub stream_wall_secs: f64,
    /// Wall seconds of the whole drill (run + stream drain).
    pub drill_wall_secs: f64,
    /// Median per-query latency in nanoseconds (histogram bucket upper
    /// bound).
    pub p50_nanos: u64,
    /// 99th-percentile per-query latency in nanoseconds (bucket upper
    /// bound).
    pub p99_nanos: u64,
    /// Per-plan answer counts, `(label, count)`.
    pub plans: Vec<(String, u64)>,
    /// Segment-cache hits.
    pub cache_hits: u64,
    /// Segment-cache faults (segment loads).
    pub cache_faults: u64,
    /// Segment-cache evictions.
    pub cache_evictions: u64,
}

impl QueryBenchStats {
    /// Live-service throughput in queries per second.
    pub fn queries_per_sec(&self) -> f64 {
        self.queries as f64 / self.stream_wall_secs.max(1e-9)
    }

    /// Renders the `BENCH_query.json` document.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"query_plane_large_drill\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"traffic_seed\": {},", self.traffic_seed);
        let _ = writeln!(out, "  \"queries\": {},", self.queries);
        let _ = writeln!(out, "  \"reader_threads\": {},", self.reader_threads);
        let _ = writeln!(out, "  \"epochs\": {},", self.epochs);
        let _ = writeln!(out, "  \"stream_wall_secs\": {:.4},", self.stream_wall_secs);
        let _ = writeln!(out, "  \"drill_wall_secs\": {:.4},", self.drill_wall_secs);
        let _ = writeln!(out, "  \"queries_per_sec\": {:.1},", self.queries_per_sec());
        let _ = writeln!(out, "  \"p50_nanos\": {},", self.p50_nanos);
        let _ = writeln!(out, "  \"p99_nanos\": {},", self.p99_nanos);
        let _ = writeln!(out, "  \"cache_hits\": {},", self.cache_hits);
        let _ = writeln!(out, "  \"cache_faults\": {},", self.cache_faults);
        let _ = writeln!(out, "  \"cache_evictions\": {},", self.cache_evictions);
        out.push_str("  \"plans\": [\n");
        for (i, (label, count)) in self.plans.iter().enumerate() {
            let comma = if i + 1 == self.plans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"count\": {count}}}{comma}",
                JsonValue::Str(label.clone()).render()
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The observability self-profiling artifact backing `BENCH_obs.json`:
/// trace codec timings plus the full wall-clock metrics registry export.
#[derive(Debug, Clone)]
pub struct ObsBenchStats {
    /// Wall seconds to export the drill trace to JSON.
    pub trace_export_secs: f64,
    /// Wall seconds to re-import the export.
    pub trace_import_secs: f64,
    /// Wall seconds to reconstruct every cause chain from the trace.
    pub trace_diagnose_secs: f64,
    /// The alerting plane's section — scoring wall clock plus the two
    /// rule-set scorecards — embedded verbatim as the `alerts` value
    /// (rendered by `AlertsStats::render_json`).
    pub alerts_json: String,
    /// The metrics registry's own JSON export (scheduler op counters,
    /// warehouse spill counters, broker grant outcomes, pool gauges),
    /// embedded verbatim as the `metrics` value.
    pub metrics_json: String,
}

impl ObsBenchStats {
    /// Renders the `BENCH_obs.json` document.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"obs\",");
        let _ = writeln!(
            out,
            "  \"trace_export_secs\": {:.6},",
            self.trace_export_secs
        );
        let _ = writeln!(
            out,
            "  \"trace_import_secs\": {:.6},",
            self.trace_import_secs
        );
        let _ = writeln!(
            out,
            "  \"trace_diagnose_secs\": {:.6},",
            self.trace_diagnose_secs
        );
        let _ = writeln!(out, "  \"alerts\": {},", self.alerts_json.trim_end());
        let _ = writeln!(out, "  \"metrics\": {}", self.metrics_json.trim_end());
        out.push_str("}\n");
        out
    }
}

/// Reads the `sections` array of a `BENCH_reproduce.json` or
/// `ci/bench_budget.json` document as `(name, <value_key>)` pairs, in
/// document order. Every entry must carry a string `name` and a numeric
/// `value_key`; the first one that does not is an error naming it, so a
/// misspelled budget key fails the gate instead of silently unguarding its
/// section.
pub fn read_sections(document: &JsonValue, value_key: &str) -> Result<Vec<(String, f64)>, String> {
    let Some(JsonValue::Array(entries)) = document.get("sections") else {
        return Err("no `sections` array".to_string());
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let name: String = entry
                .field("name")
                .map_err(|err| format!("sections[{i}] has no string `name`: {}", err.message))?;
            let value = entry.field(value_key).map_err(|err| {
                format!(
                    "sections[{i}] `{name}` has no numeric `{value_key}`: {}",
                    err.message
                )
            })?;
            Ok((name, value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a rendered document with the codec, so every test also checks
    /// that the writer emits well-formed JSON.
    fn parse(json: &str) -> JsonValue {
        JsonValue::parse(json).unwrap_or_else(|err| panic!("{err}\n{json}"))
    }

    fn number(document: &JsonValue, key: &str) -> f64 {
        document.field(key).unwrap()
    }

    #[test]
    fn artifact_write_errors_name_the_artifact() {
        let root =
            std::env::temp_dir().join(format!("byterobust-bench-dir-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        // A missing bench dir is created.
        let made = write_artifact(&root.join("fresh"), "BENCH_query.json", "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&made).unwrap(), "{}\n");
        // A bench dir below a regular file cannot exist: the write fails, and
        // the error names the artifact it could not write.
        let blocker = root.join("not-a-dir");
        std::fs::write(&blocker, "").unwrap();
        let blocked = write_artifact(&blocker.join("bench"), "BENCH_fleet.json", "{}\n");
        std::fs::remove_dir_all(&root).unwrap();
        let err = blocked.unwrap_err();
        assert!(err.to_string().contains("BENCH_fleet.json"), "{err}");
    }

    #[test]
    fn recorder_renders_and_reads_back() {
        let mut perf = PerfRecorder::new();
        perf.record("table1_incidents", 0.25);
        perf.record("fig2_loss_mfu", 1.5);
        let doc = parse(&perf.render_json(true, true, 1.75));
        assert_eq!(number(&doc, "total_wall_secs"), 1.75);
        assert_eq!(number(&doc, "sections_wall_secs_sum"), 1.75);
        assert_eq!(doc.field::<bool>("parallel"), Ok(true));
        assert_eq!(
            read_sections(&doc, "wall_secs").unwrap()[1],
            ("fig2_loss_mfu".to_string(), 1.5)
        );
    }

    #[test]
    fn fleet_stats_derivations() {
        let stats = FleetBenchStats {
            seed: 1,
            jobs: 24,
            machines: 1280,
            incidents: 500,
            events: 524,
            heap_wall_secs: 0.5,
            naive_wall_secs: 1.0,
        };
        assert!((stats.events_per_sec() - 1048.0).abs() < 1e-9);
        assert!((stats.scheduler_speedup() - 2.0).abs() < 1e-9);
        let doc = parse(&stats.render_json_with_mega(None));
        assert_eq!(number(&doc, "events"), 524.0);
        assert_eq!(number(&doc, "scheduler_speedup"), 2.0);
        let mega = MegaBenchStats {
            seed: 1,
            fast_mode: true,
            jobs: 60,
            machines: 5120,
            incidents: 12_000,
            events: 12_865,
            serial_wall_secs: 0.5,
            peak_rss_bytes: 1 << 20,
        };
        let doc = parse(&stats.render_json_with_mega(Some(&mega)));
        assert_eq!(number(&doc, "scheduler_speedup"), 2.0);
        assert_eq!(number(&doc, "mega_events_per_sec"), 25_730.0);
        assert_eq!(number(&doc, "mega_peak_rss_bytes"), 1_048_576.0);
    }

    #[test]
    fn query_stats_derivations() {
        let stats = QueryBenchStats {
            seed: 1,
            traffic_seed: 2,
            queries: 1_000_000,
            reader_threads: 4,
            epochs: 615,
            stream_wall_secs: 10.0,
            drill_wall_secs: 10.5,
            p50_nanos: 4096,
            p99_nanos: 65536,
            plans: vec![("machine".to_string(), 7), ("scan".to_string(), 3)],
            cache_hits: 100,
            cache_faults: 5,
            cache_evictions: 2,
        };
        assert!((stats.queries_per_sec() - 100_000.0).abs() < 1e-6);
        let doc = parse(&stats.render_json());
        assert_eq!(number(&doc, "queries"), 1_000_000.0);
        assert_eq!(number(&doc, "p99_nanos"), 65536.0);
        assert_eq!(number(&doc, "cache_faults"), 5.0);
        let Some(JsonValue::Array(plans)) = doc.get("plans") else {
            panic!("no plans array");
        };
        let plans: Vec<(String, u64)> = plans
            .iter()
            .map(|plan| (plan.field("name").unwrap(), plan.field("count").unwrap()))
            .collect();
        assert_eq!(plans, stats.plans);
    }

    #[test]
    fn name_number_pairs_extraction() {
        let mut perf = PerfRecorder::new();
        perf.record("table1_incidents", 0.25);
        perf.record("fleet \"panel\"", 1.5);
        let doc = parse(&perf.render_json(true, false, 1.75));
        assert_eq!(
            read_sections(&doc, "wall_secs"),
            Ok(vec![
                ("table1_incidents".to_string(), 0.25),
                ("fleet \"panel\"".to_string(), 1.5)
            ])
        );
        // A budget-shaped document with a different value key.
        let budget = parse(
            r#"{"sections": [
                {"name": "a", "budget_secs": 0.5},
                {"name": "b", "budget_secs": 2}
            ]}"#,
        );
        assert_eq!(
            read_sections(&budget, "budget_secs"),
            Ok(vec![("a".to_string(), 0.5), ("b".to_string(), 2.0)])
        );
        assert_eq!(
            read_sections(&parse(r#"{"sections": []}"#), "wall_secs"),
            Ok(vec![])
        );
        assert!(read_sections(&parse("{}"), "wall_secs").is_err());
    }

    #[test]
    fn misspelled_budget_key_is_an_error_naming_the_entry() {
        let budget = parse(
            r#"{"sections": [
                {"name": "table1_incidents", "budget_secs": 0.25},
                {"name": "fleet_panel", "budget_sec": 0.5}
            ]}"#,
        );
        let err = read_sections(&budget, "budget_secs").unwrap_err();
        assert!(err.contains("sections[1] `fleet_panel`"), "{err}");
        assert!(err.contains("`budget_secs`"), "{err}");
        let text = parse(r#"{"sections": [{"name": "fleet_panel", "budget_secs": "0.5"}]}"#);
        let err = read_sections(&text, "budget_secs").unwrap_err();
        assert!(err.contains("sections[0] `fleet_panel`"), "{err}");
        let unnamed = parse(r#"{"sections": [{"budget_secs": 0.5}]}"#);
        let err = read_sections(&unnamed, "budget_secs").unwrap_err();
        assert!(err.contains("sections[0] has no string `name`"), "{err}");
    }

    #[test]
    fn obs_stats_render_embeds_metrics() {
        let stats = ObsBenchStats {
            trace_export_secs: 0.001,
            trace_import_secs: 0.002,
            trace_diagnose_secs: 0.003,
            alerts_json: "{\"score_secs\": 0.000001}".to_string(),
            metrics_json: "{\"format\": 1}".to_string(),
        };
        let json = stats.render_json();
        let doc = parse(&json);
        assert_eq!(number(&doc, "trace_export_secs"), 0.001);
        assert_eq!(number(&doc, "trace_diagnose_secs"), 0.003);
        assert!(json.contains("\"alerts\": {\"score_secs\": 0.000001},"));
        assert!(json.contains("\"metrics\": {\"format\": 1}"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn timed_measures_and_passes_through() {
        let (value, secs) = timed(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }
}
