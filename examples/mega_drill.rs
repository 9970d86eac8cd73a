//! Mega drill: the 100×-scale fleet (600 jobs over ~52k machines, ≥1M
//! events) driven through the fleet event loop, or its ~5k-machine
//! `mega_smoke` stand-in when `BYTEROBUST_FAST=1` (the CI default).
//!
//! The printed report is byte-identical across runs with the same seed —
//! across warehouse spill on/off and with live query traffic attached. The
//! `determinism-matrix` CI job relies on that to diff the toggled runs
//! byte-for-byte.
//!
//! ```text
//! BYTEROBUST_FAST=1 cargo run --release --example mega_drill
//! BYTEROBUST_SPILL=1 cargo run --release --example mega_drill
//!     # spill cold warehouse shards to segment files (dir from
//!     # BYTEROBUST_SPILL_DIR, default target/mega_drill_spill);
//!     # stdout is byte-identical to the in-memory run
//! BYTEROBUST_QUERY_TRAFFIC=20000 cargo run --release --example mega_drill
//!     # attach the resident query service and drive that many open-loop
//!     # synthetic queries from a reader thread during the run; sampled
//!     # live answers are replayed post-hoc (asserted byte-identical),
//!     # the summary goes to stderr, stdout stays byte-identical; the
//!     # service's segment cache holds SPILL_BUDGET (8192) dossiers unless
//!     # BYTEROBUST_QUERY_CACHE says otherwise
//! ```
//!
//! The full `BYTEROBUST_*` flag table lives in `docs/FLAGS.md`.

use byterobust::prelude::*;

/// Fixed seed so CI smoke runs get identical output; offset from the small
/// drill's seed so the two histories never alias.
const FLEET_SEED: u64 = 20251015;

/// Resident-dossier budget when spill is forced on. Small enough that even
/// the fast-mode smoke config writes segments, large enough to hold most of
/// the fleet's hot shards — a starved budget makes every round-robin insert
/// evict, write, and fault the same shards back (pure disk churn at 60+
/// jobs), which stresses the disk, not the determinism contract this
/// example's CI diffs exist to pin. It is also the query service's default
/// segment-cache budget: the fast drill spills 4,724 dossiers, so a
/// 4,096-dossier cache evicts under every cyclic scan and query traffic
/// spends minutes re-parsing segments.
const SPILL_BUDGET: usize = 8192;

fn main() {
    let fast = std::env::var("BYTEROBUST_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let mut config = if fast {
        FleetConfig::mega_smoke()
    } else {
        FleetConfig::mega_drill()
    };
    let spill = std::env::var("BYTEROBUST_SPILL")
        .map(|v| v == "1")
        .unwrap_or(false);
    if spill {
        let dir = std::env::var_os("BYTEROBUST_SPILL_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("target/mega_drill_spill"));
        config = config.with_warehouse_storage(WarehouseStorage::new(SPILL_BUDGET, dir));
    }
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
        .unwrap_or(SPILL_BUDGET);
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

    // The acceptance bar: the mega fleet actually ran at scale and the
    // warehouse absorbed the incident stream.
    let (min_jobs, min_events) = if fast { (40, 5_000) } else { (500, 1_000_000) };
    assert!(
        report.jobs.len() >= min_jobs,
        "mega drill must field at least {min_jobs} jobs, got {}",
        report.jobs.len()
    );
    assert!(
        report.events_processed >= min_events,
        "mega drill must process at least {min_events} events, got {}",
        report.events_processed
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

    eprintln!(
        "mega drill: {} job(s), {} machine(s), {} event(s), fleet ETTR {:.4}",
        report.jobs.len(),
        runner.config().total_machines(),
        report.events_processed,
        report.fleet_ettr(),
    );
}
