//! The shared filter core behind every incident query surface.
//!
//! [`IncidentStore::query`](crate::IncidentStore::query) and the fleet's
//! epoch snapshots (their planner and their brute-force oracle) all answer
//! the same question — which
//! dossiers match an [`IncidentQuery`] — and historically each grew its own
//! copy of the predicate plumbing. This module is the single home for that
//! logic:
//!
//! * [`matches()`] — the conjunctive predicate itself (every `Some` field must
//!   hold; `None` fields match everything).
//! * [`filter`] — the predicate applied over a dossier slice, preserving
//!   order.
//! * [`implicated_machines_into`] — the "involves" machine set (evicted plus
//!   capture-mentioned, sorted and deduped), exactly the semantics of
//!   [`IncidentQuery::machine`] and of the warehouse's machine index.
//! * [`canonical_key`] — the fleet-wide canonical result ordering
//!   `(start time, job label, seq)` every multi-shard query surface sorts by.
//!
//! Keeping these here means an index can only ever disagree with a scan
//! through a bug in the index, never through predicate drift.

use byterobust_cluster::MachineId;
use byterobust_sim::SimTime;

use crate::store::{IncidentDossier, IncidentQuery};

/// Whether a dossier satisfies every bound field of the query. This is the
/// one predicate all query surfaces share; `IncidentQuery::matches` is a
/// method-syntax wrapper over it.
pub fn matches(query: &IncidentQuery, dossier: &IncidentDossier) -> bool {
    if let Some(category) = query.category {
        if dossier.category != category {
            return false;
        }
    }
    if let Some(kind) = query.kind {
        if dossier.kind != kind {
            return false;
        }
    }
    if let Some(floor) = query.min_severity {
        if !dossier.classification.severity.is_at_least(floor) {
            return false;
        }
    }
    if let Some((from, to)) = query.window {
        if dossier.at < from || dossier.at >= to {
            return false;
        }
    }
    if let Some(machine) = query.machine {
        if !dossier.involves_machine(machine) {
            return false;
        }
    }
    if let Some(mechanism) = query.mechanism {
        if dossier.mechanism != mechanism {
            return false;
        }
    }
    true
}

/// The predicate applied over a dossier slice, preserving the slice's order.
pub fn filter<'a>(
    dossiers: &'a [std::sync::Arc<IncidentDossier>],
    query: &IncidentQuery,
) -> Vec<&'a IncidentDossier> {
    dossiers
        .iter()
        .map(std::sync::Arc::as_ref)
        .filter(|dossier| matches(query, dossier))
        .collect()
}

/// Collects the machines a dossier implicates — evicted machines plus
/// machines mentioned in the capture evidence — into `out`, sorted and
/// deduplicated. `out` is cleared first, so a scratch buffer can be reused
/// across calls. These are exactly the semantics of
/// [`IncidentDossier::involves_machine`] and of the warehouse machine index.
pub fn implicated_machines_into(dossier: &IncidentDossier, out: &mut Vec<MachineId>) {
    out.clear();
    out.extend_from_slice(&dossier.evicted);
    dossier.capture.machines_mentioned_into(out);
    out.sort_unstable();
    out.dedup();
}

/// The canonical fleet-wide result ordering: `(start time, job label, seq)`.
/// Every multi-shard query surface — indexed, snapshot, or brute-force —
/// returns hits sorted by this key, which is what makes results independent
/// of shard insertion order.
pub fn canonical_key<'a>(job: &'a str, dossier: &IncidentDossier) -> (SimTime, &'a str, u64) {
    (dossier.at, job, dossier.seq)
}
