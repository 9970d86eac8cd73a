//! Memory guard: the heap a fleet run holds per dossier in its warehouse
//! and per advance in its job reports' series, measured by this test
//! binary's own counting allocator.
//!
//! The allocator lives here, in an integration test binary of its own, and
//! never in a library crate: it wraps the system allocator for this binary
//! alone. The binary runs one test, so nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use byterobust::prelude::*;

/// The system allocator, counting the bytes currently requested.
struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Requested heap bytes per warehouse dossier after a serial `mega_smoke`
/// run (about 13k dossiers, nearly all hot updates). A hot-update dossier is
/// one `Arc` (the 128-byte dossier plus its two counts), one 40-byte
/// evidence entry and its 8-byte slot in the shard: 184 bytes. The run
/// measures 196. The budget leaves 10% for the rarer dossiers with more
/// evidence and for the shared contexts, and fails a dossier that stores
/// its classification (40 bytes more) or a capture that records its
/// recovery timeline (about 480 more).
const BYTES_PER_DOSSIER_BUDGET: usize = 216;

/// Requested heap bytes per scheduler event held by the fleet job reports'
/// MFU series and ETTR accounts. An event is one advance: one 24-byte MFU
/// point and one 8-byte productive segment, plus an 8-byte unproductive
/// segment when an incident ended it. With the vectors' spare capacity the
/// run measures 47. The budget leaves 20% for capacity doubling, and fails
/// a stored loss curve (24 bytes more per point) or 16-byte segments (about
/// 16 more).
const BYTES_PER_ADVANCE_BUDGET: usize = 56;

/// Frees what `drop` frees and returns how many requested bytes that was.
fn freed_by(drop: impl FnOnce()) -> usize {
    let held = LIVE_BYTES.load(Ordering::Relaxed);
    drop();
    held - LIVE_BYTES.load(Ordering::Relaxed)
}

#[test]
fn warehouse_dossiers_stay_within_their_heap_budget() {
    let mut report = FleetRunner::new(FleetConfig::mega_smoke(), 20250916).run();
    let advances = report.events_processed;
    assert!(advances > 5_000, "mega_smoke processed {advances} events");
    let series = freed_by(|| {
        for job in &mut report.jobs {
            job.mfu_series = Vec::new();
            job.ettr = EttrTracker::new();
        }
    });
    let per_advance = series / advances;
    eprintln!("job series: {series} bytes for {advances} advances, {per_advance} per advance");

    let warehouse = report.warehouse;
    let dossiers = warehouse.len();
    assert!(dossiers > 5_000, "mega_smoke closed {dossiers} incidents");
    let freed = freed_by(|| drop(warehouse));
    let per_dossier = freed / dossiers;
    eprintln!("warehouse: {freed} bytes for {dossiers} dossiers, {per_dossier} per dossier");
    assert!(
        per_dossier <= BYTES_PER_DOSSIER_BUDGET,
        "{per_dossier} requested bytes per dossier, over the budget of {BYTES_PER_DOSSIER_BUDGET}"
    );
    assert!(
        per_advance <= BYTES_PER_ADVANCE_BUDGET,
        "{per_advance} requested bytes per advance, over the budget of {BYTES_PER_ADVANCE_BUDGET}"
    );
}
