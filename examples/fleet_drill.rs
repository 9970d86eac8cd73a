//! Fleet drill: three concurrent jobs — a dense 16-machine job, an
//! MoE-flavoured variant, and a Table-5-scale 128-machine job — run over one
//! shared warm-standby pool, with every incident aggregated into the indexed
//! cross-job warehouse, the escalation backlog drained in-run (stress-test
//! sweeps returning over-evicted machines to the pool), and the
//! repeat-offender ledger lowering eviction thresholds fleet-wide.
//!
//! The printed report is byte-identical across runs with the same seed —
//! including across the persistence modes below, which only write to stderr
//! and to files. The `persistence-roundtrip` CI job relies on that to diff
//! spill-on vs spill-off runs byte-for-byte.
//!
//! ```text
//! cargo run --release --example fleet_drill
//! BYTEROBUST_SPILL=1 cargo run --release --example fleet_drill
//!     # spill cold warehouse shards to segment files (dir from
//!     # BYTEROBUST_SPILL_DIR, default target/fleet_drill_spill);
//!     # stdout is byte-identical to the in-memory run
//! BYTEROBUST_EXPORT_DIR=out cargo run --release --example fleet_drill
//!     # additionally export the warehouse to out/warehouse.json, re-import
//!     # it, render both digests (out/warehouse_digest*.txt), and assert
//!     # they are byte-identical
//! BYTEROBUST_TRACE_DIR=out cargo run --release --example fleet_drill
//!     # additionally dump the merged sim-time trace to out/trace.json (the
//!     # in-repo codec, asserted an import fixed point) and
//!     # out/trace_chrome.json (load it in chrome://tracing / Perfetto);
//!     # stdout stays byte-identical, telemetry goes to stderr
//! BYTEROBUST_ALERT_RULES=ci/alert_rules.json cargo run --release --example fleet_drill
//!     # evaluate a declarative alert rule set in sim time during the run
//!     # (any document in the byterobust-alert-rules format); the timeline
//!     # and its lead-time scorecard go to stderr, stdout stays
//!     # byte-identical
//! BYTEROBUST_ALERT_DIR=out cargo run --release --example fleet_drill
//!     # additionally export the alert timeline to out/alerts.json (codec,
//!     # asserted an import fixed point) and the digest to
//!     # out/alert_digest.txt; uses the built-in default rules when
//!     # BYTEROBUST_ALERT_RULES is not also set
//! BYTEROBUST_QUERY_TRAFFIC=50000 cargo run --release --example fleet_drill
//!     # attach the resident query service and drive that many open-loop
//!     # synthetic queries against it from a reader thread while the drill
//!     # runs; sampled live answers are replayed post-hoc from their epoch
//!     # snapshots (asserted byte-identical), the traffic summary goes to
//!     # stderr, stdout stays byte-identical
//! BYTEROBUST_QUERY_CACHE=64 cargo run --release --example fleet_drill
//!     # cap the query service's segment cache at that many resident
//!     # dossiers (default 4096); pair with BYTEROBUST_SPILL=1 to watch the
//!     # LRU fault and evict under live traffic
//! ```
//!
//! The full `BYTEROBUST_*` flag table lives in `docs/FLAGS.md`.

use byterobust::prelude::*;

/// Fixed seed so CI smoke runs (and curious readers) get identical output.
const FLEET_SEED: u64 = 20250916;

/// A deliberately small resident budget so the drill actually exercises the
/// spill path: the three shards hold ~100 dossiers between them.
const SPILL_BUDGET: usize = 16;

fn main() {
    let mut config = FleetConfig::small_drill();
    let spill = std::env::var("BYTEROBUST_SPILL")
        .map(|v| v == "1")
        .unwrap_or(false);
    if spill {
        let dir = std::env::var_os("BYTEROBUST_SPILL_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("target/fleet_drill_spill"));
        config = config.with_warehouse_storage(WarehouseStorage::new(SPILL_BUDGET, dir));
    }
    // Alerting is attached when either alert flag is present; the rendered
    // report on stdout is byte-identical with or without it (the timeline is
    // its own document).
    let rules_path = std::env::var_os("BYTEROBUST_ALERT_RULES").map(std::path::PathBuf::from);
    let alert_dir = std::env::var_os("BYTEROBUST_ALERT_DIR").map(std::path::PathBuf::from);
    let alerting = rules_path.is_some() || alert_dir.is_some();
    if alerting {
        let rules = match &rules_path {
            Some(path) => {
                let text = std::fs::read_to_string(path).expect("read BYTEROBUST_ALERT_RULES file");
                RuleSet::import_json(&text).expect("parse BYTEROBUST_ALERT_RULES document")
            }
            None => RuleSet::default_rules(),
        };
        config = config.with_alert_rules(rules);
    }
    // Query traffic: attach the resident query service and drive an
    // open-loop synthetic stream against it from a reader thread while the
    // drill executes. Live answers are sampled and replayed post-hoc from
    // their epoch snapshots (asserted byte-identical); the summary goes to
    // stderr, stdout stays byte-identical to a run without traffic.
    let traffic: Option<u64> = std::env::var("BYTEROBUST_QUERY_TRAFFIC").ok().map(|v| {
        v.parse()
            .expect("BYTEROBUST_QUERY_TRAFFIC must be a query count")
    });
    let cache_budget: usize = std::env::var("BYTEROBUST_QUERY_CACHE")
        .ok()
        .map(|v| {
            v.parse()
                .expect("BYTEROBUST_QUERY_CACHE must be a dossier count")
        })
        .unwrap_or(DEFAULT_CACHE_BUDGET);
    let service = traffic.map(|_| WarehouseService::new(cache_budget));
    if let Some(service) = &service {
        config = config.with_query_service(service.clone());
    }

    let runner = FleetRunner::new(config, FLEET_SEED);
    let report = match (&service, traffic) {
        (Some(service), Some(queries)) => {
            let live = drive_live_traffic(&runner, FLEET_SEED + 1, queries, 1, queries / 16);
            if let Err(mismatch) = replay_samples(service, &live.generator, &live.samples) {
                panic!("{mismatch}");
            }
            // Query telemetry goes to stderr only: stdout stays byte-identical.
            eprintln!(
                "query traffic: {}; live samples replayed byte-identically",
                service.stats().summary()
            );
            live.report
        }
        _ => runner.run(),
    };
    print!("{}", report.render());

    // The acceptance bar for the drill: the backlog actually drained and the
    // ledger actually fired.
    assert!(
        report.jobs.len() >= 3,
        "the drill runs three concurrent jobs"
    );
    assert!(
        report.drain.sweeps_completed_in_run >= 1,
        "at least one stress-test sweep must drain while jobs are running"
    );
    assert!(
        report.drain.machines_returned_to_standby >= 1,
        "at least one swept machine must return to the standby pool"
    );
    assert!(!report.warehouse.is_empty());

    if spill {
        let stats = report.warehouse.spill_stats();
        assert!(
            stats.segments_written >= 1,
            "the spill budget must force at least one segment write"
        );
        // Spill telemetry goes to stderr only: stdout stays byte-identical
        // to the in-memory run.
        eprintln!(
            "warehouse spill: {} segment write(s), {} fault-in(s), {} dossier(s) resident / {} \
             on disk at exit",
            stats.segments_written,
            stats.fault_ins,
            stats.resident_dossiers,
            stats.spilled_dossiers,
        );
    }

    if alerting {
        let exported = report.alerts.export_json();
        let reimported =
            AlertTimeline::import_json(&exported).expect("the drill's own timeline must re-import");
        assert_eq!(
            reimported.export_json(),
            exported,
            "alert export→import→export must be a fixed point"
        );
        let scorecard = score_alerts(&report.alerts, &report.fault_windows());
        if let Some(dir) = &alert_dir {
            std::fs::create_dir_all(dir).expect("create BYTEROBUST_ALERT_DIR");
            std::fs::write(dir.join("alerts.json"), &exported).expect("write alerts.json");
            std::fs::write(dir.join("alert_digest.txt"), report.render_alert_digest())
                .expect("write alert_digest.txt");
        }
        // Alert telemetry goes to stderr only: stdout stays byte-identical.
        eprintln!(
            "alerts ({}): {} alert(s), {} escalated, {} unresolved; recall {:.3}, precision \
             {:.3}, median lead {:.0}s over {} fault(s)",
            report.alerts.rule_set,
            scorecard.alerts,
            scorecard.escalated,
            scorecard.unresolved,
            scorecard.recall,
            scorecard.precision,
            scorecard.median_lead_secs,
            scorecard.faults,
        );
    }

    if let Some(dir) = std::env::var_os("BYTEROBUST_TRACE_DIR").map(std::path::PathBuf::from) {
        std::fs::create_dir_all(&dir).expect("create BYTEROBUST_TRACE_DIR");
        let exported = report.trace.export_json();
        let reimported =
            Trace::import_json(&exported).expect("the drill's own trace must re-import");
        assert_eq!(
            reimported.export_json(),
            exported,
            "trace export→import→export must be a fixed point"
        );
        let chrome = report.trace.to_chrome_json();
        std::fs::write(dir.join("trace.json"), &exported).expect("write trace.json");
        std::fs::write(dir.join("trace_chrome.json"), &chrome).expect("write trace_chrome.json");
        // Trace telemetry goes to stderr only: stdout stays byte-identical.
        eprintln!(
            "trace export: {} span(s) across {} scope(s), {} bytes ({} bytes Chrome) -> {}",
            report.trace.spans.len(),
            report.trace.scopes().len(),
            exported.len(),
            chrome.len(),
            dir.display()
        );
    }

    if let Some(dir) = std::env::var_os("BYTEROBUST_EXPORT_DIR").map(std::path::PathBuf::from) {
        std::fs::create_dir_all(&dir).expect("create BYTEROBUST_EXPORT_DIR");
        let exported = report.warehouse.export_json();
        let digest = report.warehouse.render_digest();
        let imported = IncidentWarehouse::import_json(&exported)
            .expect("the drill's own export must re-import");
        let reimported_digest = imported.render_digest();
        assert_eq!(
            digest, reimported_digest,
            "export→import→render must reproduce the warehouse byte-for-byte"
        );
        std::fs::write(dir.join("warehouse.json"), &exported).expect("write warehouse.json");
        std::fs::write(dir.join("warehouse_digest.txt"), &digest).expect("write digest");
        std::fs::write(
            dir.join("warehouse_digest_reimported.txt"),
            &reimported_digest,
        )
        .expect("write reimported digest");
        eprintln!(
            "warehouse export: {} bytes, digest {} bytes, re-import byte-identical -> {}",
            exported.len(),
            digest.len(),
            dir.display()
        );
    }
}
