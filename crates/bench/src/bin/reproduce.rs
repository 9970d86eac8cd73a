//! Regenerates every table and figure of the paper's evaluation in one pass,
//! and records the perf trajectory of the run itself.
//!
//! ```text
//! cargo run --release -p byterobust-bench --bin reproduce
//! BYTEROBUST_FAST=1 cargo run --release -p byterobust-bench --bin reproduce     # shorter simulated durations
//! BYTEROBUST_SERIAL=1 cargo run --release -p byterobust-bench --bin reproduce   # force single-threaded
//! BYTEROBUST_PARALLEL=1 cargo run --release -p byterobust-bench --bin reproduce # force the thread fan-out
//! ```
//!
//! On multi-core hosts (the default policy — see
//! `byterobust_bench::parallel_harness`) the heavy, mutually independent
//! simulations (Fig. 2, the fleet drills, and the two §8.1 production
//! deployments) run on `std::thread::scope` threads; each owns its seed, so
//! stdout is byte-identical to a `BYTEROBUST_SERIAL=1` run — only the wall
//! clock changes. Sections are printed in the fixed document order
//! regardless of completion order.
//!
//! Four machine-readable artifacts are written afterwards (into
//! `$BYTEROBUST_BENCH_DIR`, default `.`): `BENCH_reproduce.json` with
//! per-section and total wall times, `BENCH_fleet.json` with the
//! `large_drill` scheduler-throughput measurement plus the `mega_panel`
//! stats (mega-drill events/sec, wall time, peak RSS — the `mega_*` keys),
//! `BENCH_obs.json`
//! with the observability plane's self-profiling (trace codec timings, the
//! alerting plane's lead-time scorecards, plus the full wall-clock metrics
//! registry), and `BENCH_query.json` with the resident query plane's
//! open-loop throughput and latency quantiles. `ci/bench_budget.json` + the
//! `bench_guard` binary turn the first into a CI regression gate.
//!
//! Setting `BYTEROBUST_PERSIST_DIR=<dir>` additionally writes the incident
//! warehouse's persistence artifacts there (`warehouse.json` plus the
//! original and re-imported digests, asserted byte-identical in-panel) —
//! the `bench-smoke` CI job sets it and uploads them alongside the bench
//! JSON. The `persistence-roundtrip` CI job exercises the same round trip
//! through `examples/fleet_drill.rs` (`BYTEROBUST_EXPORT_DIR`) and diffs
//! the digests itself.

use byterobust_bench::experiments;
use byterobust_bench::perf::{timed, ObsBenchStats, PerfRecorder};

fn main() {
    let run_start = std::time::Instant::now();
    let fast = byterobust_bench::fast_mode();
    let serial = !byterobust_bench::parallel_harness();
    println!("ByteRobust reproduction — regenerating all tables and figures");
    println!("(seed = {}, fast mode = {})\n", experiments::SEED, fast);
    // The parallel/serial choice must not leak into stdout: the document is
    // byte-identical either way (pinned by the bench determinism tests).
    eprintln!("harness: parallel = {}", !serial);

    let mut perf = PerfRecorder::new();

    // The heavy simulations are independent (each owns its forked seed), so
    // they run concurrently with the cheap closed-form sections and with each
    // other; printing happens in document order below.
    let (cheap, fig2, fleet_panel, broker_panel, persistence, obs, alerts, production) =
        std::thread::scope(|scope| {
            let spawn_or_inline = |f: fn() -> String| {
                if serial {
                    None
                } else {
                    Some(scope.spawn(move || timed(f)))
                }
            };
            let fig2 = spawn_or_inline(experiments::fig2_loss_mfu);
            let fleet_panel = spawn_or_inline(experiments::fleet_panel);
            let broker_panel = spawn_or_inline(experiments::broker_panel);
            let persistence = if serial {
                None
            } else {
                Some(scope.spawn(|| timed(experiments::persistence_panel)))
            };
            let obs = if serial {
                None
            } else {
                Some(scope.spawn(|| timed(experiments::obs_panel)))
            };
            let alerts = if serial {
                None
            } else {
                Some(scope.spawn(|| timed(experiments::alerts_panel)))
            };
            let production = if serial {
                None
            } else {
                Some(scope.spawn(|| timed(experiments::production_reports)))
            };

            // Cheap, closed-form experiments on the main thread.
            let cheap: Vec<(&str, (String, f64))> = vec![
                ("table1_incidents", timed(experiments::table1_incidents)),
                ("table3_detection", timed(experiments::table3_detection)),
                ("table7_hot_update", timed(experiments::table7_hot_update)),
                ("fig12_was", timed(experiments::fig12_was)),
                ("table8_checkpoint", timed(experiments::table8_checkpoint)),
                (
                    "replay_localization",
                    timed(experiments::replay_localization),
                ),
                (
                    "analyzer_aggregation",
                    timed(experiments::analyzer_aggregation),
                ),
            ];

            let join = |handle: Option<std::thread::ScopedJoinHandle<'_, (String, f64)>>,
                        f: fn() -> String| {
                match handle {
                    Some(handle) => handle.join().expect("experiment thread panicked"),
                    None => timed(f),
                }
            };
            let fig2 = join(fig2, experiments::fig2_loss_mfu);
            let fleet_panel = join(fleet_panel, experiments::fleet_panel);
            let broker_panel = join(broker_panel, experiments::broker_panel);
            let persistence = match persistence {
                Some(handle) => handle.join().expect("experiment thread panicked"),
                None => timed(experiments::persistence_panel),
            };
            let obs = match obs {
                Some(handle) => handle.join().expect("experiment thread panicked"),
                None => timed(experiments::obs_panel),
            };
            let alerts = match alerts {
                Some(handle) => handle.join().expect("experiment thread panicked"),
                None => timed(experiments::alerts_panel),
            };
            let production = match production {
                Some(handle) => handle.join().expect("experiment thread panicked"),
                None => timed(experiments::production_reports),
            };
            (
                cheap,
                fig2,
                fleet_panel,
                broker_panel,
                persistence,
                obs,
                alerts,
                production,
            )
        });

    // The scheduler-throughput measurement runs alone on the main thread,
    // after every worker has joined, so the heap-vs-naive comparison is not
    // skewed by concurrent load.
    let ((throughput_panel, fleet_stats), throughput_secs) = timed(experiments::fleet_throughput);

    for (name, (rendered, secs)) in &cheap {
        println!("{rendered}");
        perf.record(name, *secs);
    }

    // The 1,000-GPU 10-day job of Fig. 2.
    println!("{}", fig2.0);
    perf.record("fig2_loss_mfu", fig2.1);

    // Fleet orchestration: concurrent jobs over a shared standby pool.
    println!("{}", fleet_panel.0);
    perf.record("fleet_panel", fleet_panel.1);

    // Fleet resource broker: the starved drill, broker off vs on, plus the
    // non-starved byte-identity oracle (asserted inside the panel).
    println!("{}", broker_panel.0);
    perf.record("broker_panel", broker_panel.1);

    // Warehouse persistence: export→import→render and disk-spill round
    // trips (oracles asserted inside the panel). The deterministic panel
    // goes to stdout; the export/import/cold-query wall clocks go to the
    // JSON only, as their own guarded sections.
    let ((persistence_text, persistence_stats), persistence_secs) = persistence;
    println!("{persistence_text}");
    perf.record("persistence_panel", persistence_secs);
    perf.record("persistence_export", persistence_stats.export_secs);
    perf.record("persistence_import", persistence_stats.import_secs);
    perf.record("persistence_cold_query", persistence_stats.cold_query_secs);
    perf.record("persistence_hot_query", persistence_stats.hot_query_secs);

    // Observability: sim-time tracing determinism oracles, cause-chain
    // conformance against the incident store, and the wall-clock metrics
    // registry (asserted inside the panel). The deterministic panel goes to
    // stdout; the trace codec wall clocks become their own guarded sections
    // and the registry becomes `BENCH_obs.json`.
    let ((obs_text, obs_stats), obs_secs) = obs;
    println!("{obs_text}");
    perf.record("obs_panel", obs_secs);
    perf.record("obs_trace_export", obs_stats.trace_export_secs);
    perf.record("obs_trace_import", obs_stats.trace_import_secs);
    perf.record("obs_trace_diagnose", obs_stats.trace_diagnose_secs);

    // Alerting: the declarative rule engine on the large drill, scored for
    // lead time against ground truth across both built-in rule sets
    // (determinism and trade-off oracles asserted inside the panel). The
    // deterministic panel goes to stdout; the scoring wall clock becomes its
    // own guarded section and the scorecards land in `BENCH_obs.json`.
    let ((alerts_text, alerts_stats), alerts_secs) = alerts;
    println!("{alerts_text}");
    perf.record("alerts_panel", alerts_secs);
    perf.record("alerts_score", alerts_stats.score_secs);

    // Fleet scale-out: the large drill under the heap scheduler. The panel is
    // deterministic; the measured throughput goes to stderr and the JSON.
    println!("{throughput_panel}");
    perf.record("fleet_large_drill", throughput_secs);
    eprintln!(
        "large drill: {} events in {:.2}s ({:.0} events/sec, {:.2}x over the naive scan)",
        fleet_stats.events,
        fleet_stats.heap_wall_secs,
        fleet_stats.events_per_sec(),
        fleet_stats.scheduler_speedup(),
    );

    // The resident query plane: large drill re-run with a live
    // WarehouseService attached and an open-loop synthetic query stream
    // hammering it from reader threads (live-vs-post-hoc and
    // planner-vs-oracle byte-identity asserted inside the panel). It runs
    // alone on the main thread like the throughput measurement so its
    // latency quantiles are not skewed by concurrent sections. The panel
    // is deterministic; throughput and latency go to stderr and
    // `BENCH_query.json`.
    let ((query_panel_text, query_stats), query_panel_secs) = timed(experiments::query_panel);
    println!("{query_panel_text}");
    perf.record("query_panel", query_panel_secs);
    eprintln!(
        "query plane: {} queries in {:.2}s ({:.0} queries/sec, p50 = {} ns, p99 = {} ns)",
        query_stats.queries,
        query_stats.stream_wall_secs,
        query_stats.queries_per_sec(),
        query_stats.p50_nanos,
        query_stats.p99_nanos,
    );

    // The mega drill: 100x fleet scale through the fleet event loop. It
    // runs alone on the main thread — it is the largest single allocation
    // and wall-clock item, so nothing may skew it. The panel is
    // deterministic; walls, events/sec, and peak RSS go to stderr,
    // `BENCH_fleet.json`, and the guarded sections.
    let ((mega_text, mega_stats), mega_secs) = timed(experiments::mega_panel);
    println!("{mega_text}");
    perf.record("mega_panel", mega_secs);
    perf.record("mega_serial", mega_stats.bench.serial_wall_secs);
    eprintln!(
        "mega drill: {} events in {:.2}s ({:.0} events/sec, peak RSS {} MiB)",
        mega_stats.bench.events,
        mega_stats.bench.serial_wall_secs,
        mega_stats.bench.events_per_sec(),
        mega_stats.bench.peak_rss_bytes >> 20,
    );

    // The two production deployment jobs of §8.1 drive the remaining tables.
    let ((dense, moe), production_secs) = production;
    perf.record("production_reports", production_secs);
    let (fig3, fig3_secs) = timed(|| experiments::fig3_unproductive(&dense));
    println!("{fig3}");
    perf.record("fig3_unproductive", fig3_secs);
    let (table4, table4_secs) = timed(|| experiments::table4_resolution(&dense, &moe));
    println!("{table4}");
    perf.record("table4_resolution", table4_secs);
    let (table6, table6_secs) = timed(|| experiments::table6_resolution_cost(&dense, &moe));
    println!("{table6}");
    perf.record("table6_resolution_cost", table6_secs);
    let (fig10, fig10_secs) = timed(|| experiments::fig10_ettr(&dense, &moe));
    println!("{fig10}");
    perf.record("fig10_ettr", fig10_secs);
    let (fig11, fig11_secs) = timed(|| experiments::fig11_mfu(&dense, &moe));
    println!("{fig11}");
    perf.record("fig11_mfu", fig11_secs);

    let total = run_start.elapsed().as_secs_f64();
    match perf.write_reproduce_json(fast, !serial, total) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write BENCH_reproduce.json: {err}"),
    }
    match fleet_stats.write_fleet_json(Some(&mega_stats.bench)) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write BENCH_fleet.json: {err}"),
    }
    // Merge the mega drill's self-profiling into the registry: its scheduler
    // op counters sit alongside the small drill's under their own names.
    let mut registry = obs_stats.registry;
    registry.set_counter("scheduler.mega.picks", mega_stats.scheduler_ops.picks);
    registry.set_counter(
        "scheduler.mega.pushes",
        mega_stats.scheduler_ops.heap_pushes,
    );
    registry.set_counter(
        "scheduler.mega.stale_drops",
        mega_stats.scheduler_ops.stale_drops,
    );
    registry.set_counter(
        "scheduler.mega.tie_draws",
        mega_stats.scheduler_ops.tie_draws,
    );
    let obs_bench = ObsBenchStats {
        trace_export_secs: obs_stats.trace_export_secs,
        trace_import_secs: obs_stats.trace_import_secs,
        trace_diagnose_secs: obs_stats.trace_diagnose_secs,
        alerts_json: alerts_stats.render_json(),
        metrics_json: registry.export_json(),
    };
    match obs_bench.write_obs_json() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write BENCH_obs.json: {err}"),
    }
    match query_stats.write_query_json() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write BENCH_query.json: {err}"),
    }
    eprintln!("reproduce finished in {total:.2}s (parallel = {})", !serial);
}
