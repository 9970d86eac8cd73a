//! Memory guard: the heap a fleet warehouse holds per dossier, measured by
//! this test binary's own counting allocator.
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
/// one `Arc` (the 168-byte dossier plus its two counts), one 40-byte
/// evidence entry and its slot in the shard; the budget leaves room for the
/// rarer dossiers with more evidence and for the shared contexts, and fails
/// a capture that records its recovery timeline again (about 480 bytes per
/// dossier).
const BYTES_PER_DOSSIER_BUDGET: usize = 300;

#[test]
fn warehouse_dossiers_stay_within_their_heap_budget() {
    let warehouse = FleetRunner::new(FleetConfig::mega_smoke(), 20250916)
        .run()
        .warehouse;
    let dossiers = warehouse.len();
    assert!(dossiers > 5_000, "mega_smoke closed {dossiers} incidents");
    let held = LIVE_BYTES.load(Ordering::Relaxed);
    drop(warehouse);
    let freed = held - LIVE_BYTES.load(Ordering::Relaxed);
    let per_dossier = freed / dossiers;
    eprintln!("warehouse: {freed} bytes for {dossiers} dossiers, {per_dossier} per dossier");
    assert!(
        per_dossier <= BYTES_PER_DOSSIER_BUDGET,
        "{per_dossier} requested bytes per dossier, over the budget of {BYTES_PER_DOSSIER_BUDGET}"
    );
}
