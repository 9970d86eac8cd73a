//! The incident store: durable dossiers with a query API.
//!
//! Every incident the controller closes becomes an [`IncidentDossier`] —
//! resolution record, frozen flight-recorder capture, and classification —
//! appended to an [`IncidentStore`]. The store is the single source of truth
//! for incident aggregation: `JobReport`'s incident summaries and the bench
//! tables (Table 4's mechanism distribution, Table 1-style symptom counts)
//! are computed as store queries rather than ad-hoc recomputation over raw
//! records, and [`IncidentQuery`] supports filtering by category, symptom,
//! severity floor, time window, machine, and mechanism.

use std::collections::BTreeMap;
use std::sync::Arc;

use byterobust_cluster::{FaultCategory, FaultKind, MachineId, RootCause};
use byterobust_recovery::FailoverCost;
use byterobust_sim::{SimDuration, SimTime};

use crate::classify::{Classification, Escalation, Severity};
use crate::mechanism::ResolutionMechanism;
use crate::postmortem::Postmortem;
use crate::recorder::{IncidentCapture, RecorderEvent};

/// The Table 4 column label for an incident category.
pub fn category_label(category: FaultCategory) -> &'static str {
    match category {
        FaultCategory::Explicit => "Explicit",
        FaultCategory::Implicit => "Implicit",
        FaultCategory::ManualRestart => "Manual Restart",
    }
}

/// Everything the system durably knows about one closed incident.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentDossier {
    /// Incident sequence number (the injector's `seq`).
    pub seq: u64,
    /// When the incident began.
    pub at: SimTime,
    /// Symptom.
    pub kind: FaultKind,
    /// Incident category.
    pub category: FaultCategory,
    /// Ground-truth root cause.
    pub root_cause: RootCause,
    /// The root cause the control plane itself *concluded* from its evidence
    /// (diagnoser verdicts, analyzer decisions, replay outcomes) — what a
    /// production postmortem would record. Comparing it against the
    /// simulator's `root_cause` ground truth is how attribution accuracy is
    /// scored (the §9 false-positive/negative discussion).
    pub concluded_cause: RootCause,
    /// Mechanism that resolved it.
    pub mechanism: ResolutionMechanism,
    /// Unproductive-time breakdown.
    pub cost: FailoverCost,
    /// Machines evicted while resolving it (almost always none, so a boxed
    /// slice: 16 bytes and no spare capacity).
    pub evicted: Box<[MachineId]>,
    /// Whether any eviction was an over-eviction.
    pub over_evicted: bool,
    /// The step training resumed from.
    pub resumed_step: u64,
    /// Severity classification.
    pub classification: Classification,
    /// The frozen flight-recorder capture.
    pub capture: IncidentCapture,
}

impl IncidentDossier {
    /// The "resolution time" Table 6 measures: from failure localization to
    /// successful restart (scheduling + pod rebuild + checkpoint load).
    pub fn resolution_time(&self) -> SimDuration {
        self.cost.scheduling + self.cost.pod_build + self.cost.checkpoint_load
    }

    /// Machines evicted, and how many of those evictions were
    /// over-evictions of machines that were not true culprits.
    ///
    /// The over count is exact when the capture carries one
    /// [`RecorderEvent::Eviction`] per evicted machine (the controller
    /// records each with its own over-eviction flag, so a group eviction
    /// containing one real culprit counts its hostages only). Otherwise
    /// (synthetic dossiers), the incident-level `over_evicted` flag is used
    /// as an upper-bound fallback.
    pub fn eviction_counts(&self) -> (usize, usize) {
        let (mut events, mut over) = (0, 0);
        for entry in &self.capture.window {
            if let RecorderEvent::Eviction { over_eviction, .. } = entry.event {
                events += 1;
                over += usize::from(over_eviction);
            }
        }
        let evicted = self.evicted.len();
        if events == evicted {
            (evicted, over)
        } else if self.over_evicted {
            (evicted, evicted)
        } else {
            (evicted, 0)
        }
    }

    /// Whether this incident touched the given machine — evicted it, or
    /// mentioned it anywhere in the captured evidence. Short-circuits and
    /// allocates nothing: it runs per dossier on every machine-predicate scan.
    pub fn involves_machine(&self, machine: MachineId) -> bool {
        self.evicted.contains(&machine) || self.capture.mentions_machine(machine)
    }
}

/// A conjunctive filter over the store; `None` fields match everything.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IncidentQuery {
    /// Match this incident category.
    pub category: Option<FaultCategory>,
    /// Match this symptom.
    pub kind: Option<FaultKind>,
    /// Match incidents at least this severe.
    pub min_severity: Option<Severity>,
    /// Match incidents whose start time falls in `[window.0, window.1)`.
    pub window: Option<(SimTime, SimTime)>,
    /// Match incidents involving this machine (evicted or in evidence).
    pub machine: Option<MachineId>,
    /// Match this resolution mechanism.
    pub mechanism: Option<ResolutionMechanism>,
}

impl IncidentQuery {
    /// The match-everything query.
    pub fn any() -> Self {
        IncidentQuery::default()
    }

    /// Restricts to one category.
    pub fn category(mut self, category: FaultCategory) -> Self {
        self.category = Some(category);
        self
    }

    /// Restricts to one symptom.
    pub fn kind(mut self, kind: FaultKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restricts to incidents at least as severe as `floor`.
    pub fn at_least(mut self, floor: Severity) -> Self {
        self.min_severity = Some(floor);
        self
    }

    /// Restricts to incidents starting in `[from, to)`.
    pub fn window(mut self, from: SimTime, to: SimTime) -> Self {
        self.window = Some((from, to));
        self
    }

    /// Restricts to incidents involving a machine.
    pub fn machine(mut self, machine: MachineId) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Restricts to one resolution mechanism.
    pub fn mechanism(mut self, mechanism: ResolutionMechanism) -> Self {
        self.mechanism = Some(mechanism);
        self
    }
}

/// The durable, queryable collection of incident dossiers for one job.
///
/// Dossiers are held behind `Arc`, so a dossier moves between owners (a
/// job's store hands it to the fleet warehouse) and is shared with epoch
/// snapshots without a copy. Each dossier has one owning store: a solo run's
/// store, or the fleet warehouse shard it was moved into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IncidentStore {
    dossiers: Vec<Arc<IncidentDossier>>,
}

impl IncidentStore {
    /// An empty store.
    pub fn new() -> Self {
        IncidentStore::default()
    }

    /// Inserts a closed incident's dossier, keeping the store sorted by
    /// sequence number. The lifecycle driver closes incidents in seq order,
    /// so the common case is an O(1) append; out-of-order inserts (synthetic
    /// dossiers, shard merges) are placed at their sorted position so
    /// [`IncidentStore::get`] can binary-search.
    pub fn insert(&mut self, dossier: IncidentDossier) {
        self.insert_shared(Arc::new(dossier));
    }

    /// [`insert`](IncidentStore::insert) for an already-shared dossier: the
    /// store keeps a reference, not a copy. A job run produces dossiers in
    /// `seq` order, so the common case is an append; only an out-of-order
    /// dossier pays for the binary search.
    pub fn insert_shared(&mut self, dossier: Arc<IncidentDossier>) {
        match self.dossiers.last() {
            Some(last) if last.seq > dossier.seq => {
                let pos = self.dossiers.partition_point(|d| d.seq <= dossier.seq);
                self.dossiers.insert(pos, dossier);
            }
            _ => self.dossiers.push(dossier),
        }
    }

    /// Number of stored incidents.
    pub fn len(&self) -> usize {
        self.dossiers.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.dossiers.is_empty()
    }

    /// All dossiers, sorted by sequence number (which is also time order for
    /// dossiers produced by a job run: the injector's seq is monotone in the
    /// fault time).
    pub fn all(&self) -> &[Arc<IncidentDossier>] {
        &self.dossiers
    }

    /// Removes and returns the latest dossier if its sequence number is
    /// `seq`: the hand-off of a just-closed incident to a new owner.
    pub fn take_latest(&mut self, seq: u64) -> Option<Arc<IncidentDossier>> {
        match self.dossiers.last() {
            Some(last) if last.seq == seq => self.dossiers.pop(),
            _ => None,
        }
    }

    /// Dossiers matching a query, in time order.
    pub fn query(&self, query: &IncidentQuery) -> Vec<&IncidentDossier> {
        crate::filter::filter(&self.dossiers, query)
    }

    /// Looks up one incident by sequence number. The store is kept sorted by
    /// seq (see [`IncidentStore::insert`]), so this is O(1) for the latest
    /// dossier — the one a job run just closed — and a binary search, not a
    /// linear scan, for any other.
    pub fn get(&self, seq: u64) -> Option<&IncidentDossier> {
        match self.dossiers.last() {
            Some(last) if last.seq == seq => Some(last.as_ref()),
            _ => self
                .dossiers
                .binary_search_by_key(&seq, |dossier| dossier.seq)
                .ok()
                .map(|index| self.dossiers[index].as_ref()),
        }
    }

    /// Generates the postmortem for one stored incident.
    pub fn postmortem(&self, seq: u64) -> Option<Postmortem> {
        self.get(seq).map(Postmortem::for_dossier)
    }

    /// Incident counts grouped by (Table 4 mechanism label, category label).
    pub fn resolution_counts(&self) -> BTreeMap<(&'static str, &'static str), usize> {
        let mut counts = BTreeMap::new();
        for dossier in &self.dossiers {
            *counts
                .entry((
                    dossier.mechanism.table4_label(),
                    category_label(dossier.category),
                ))
                .or_insert(0) += 1;
        }
        counts
    }

    /// Share of incidents resolved by each concrete mechanism (the §4.2
    /// "lesson" percentages).
    pub fn mechanism_shares(&self) -> BTreeMap<&'static str, f64> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for dossier in &self.dossiers {
            *counts.entry(dossier.mechanism.display_name()).or_insert(0) += 1;
        }
        let total = self.dossiers.len().max(1) as f64;
        counts
            .into_iter()
            .map(|(name, count)| (name, count as f64 / total))
            .collect()
    }

    /// Incident counts per symptom (Table 1-style distribution).
    pub fn counts_by_symptom(&self) -> BTreeMap<FaultKind, usize> {
        let mut counts = BTreeMap::new();
        for dossier in &self.dossiers {
            *counts.entry(dossier.kind).or_insert(0) += 1;
        }
        counts
    }

    /// Incident counts per severity class.
    pub fn severity_counts(&self) -> BTreeMap<Severity, usize> {
        let mut counts = BTreeMap::new();
        for dossier in &self.dossiers {
            *counts.entry(dossier.classification.severity).or_insert(0) += 1;
        }
        counts
    }

    /// Total machines evicted, and how many of those evictions were
    /// over-evictions (the §9 false-positive discussion): the sum of every
    /// dossier's [`IncidentDossier::eviction_counts`].
    pub fn eviction_stats(&self) -> (usize, usize) {
        self.dossiers
            .iter()
            .map(|dossier| dossier.eviction_counts())
            .fold((0, 0), |(total, over), (t, o)| (total + t, over + o))
    }

    /// Attribution scoring per incident category: how many incidents'
    /// concluded root cause matched the simulator's ground truth, as
    /// `(matching, total)` pairs. This is the groundwork for the paper's §9
    /// false-positive/false-negative table: a mismatch means the control
    /// plane resolved the incident under a wrong theory of its cause.
    pub fn attribution_stats(&self) -> BTreeMap<FaultCategory, (usize, usize)> {
        let mut stats: BTreeMap<FaultCategory, (usize, usize)> = BTreeMap::new();
        for dossier in &self.dossiers {
            let entry = stats.entry(dossier.category).or_insert((0, 0));
            if dossier.concluded_cause == dossier.root_cause {
                entry.0 += 1;
            }
            entry.1 += 1;
        }
        stats
    }

    /// The operational backlog this job generated: every (incident, follow-up
    /// escalation) pair, in time order. This is the backlog-feedback half of
    /// the flight-recorder contract: classifications don't just label
    /// incidents, they queue work.
    pub fn escalation_backlog(&self) -> Vec<(u64, Escalation)> {
        let mut backlog = Vec::new();
        for dossier in &self.dossiers {
            for &escalation in &dossier.classification.escalations {
                backlog.push((dossier.seq, escalation));
            }
        }
        backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassificationInput;

    fn dossier(
        seq: u64,
        at_hours: u64,
        kind: FaultKind,
        mechanism: ResolutionMechanism,
        evicted: Vec<MachineId>,
    ) -> IncidentDossier {
        let cost = FailoverCost {
            detection: SimDuration::from_secs(30),
            localization: SimDuration::from_secs(120),
            scheduling: SimDuration::from_secs(60),
            pod_build: SimDuration::ZERO,
            checkpoint_load: SimDuration::from_secs(20),
            recompute: SimDuration::from_secs(15),
        };
        let classification = ClassificationInput {
            category: kind.category(),
            root_cause: RootCause::Infrastructure,
            mechanism,
            blast_radius: evicted.len(),
            over_evicted: false,
            reproducible: true,
            downtime: cost.total(),
        }
        .classify();
        IncidentDossier {
            seq,
            at: SimTime::from_hours(at_hours),
            kind,
            category: kind.category(),
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Infrastructure,
            mechanism,
            cost,
            evicted: evicted.into(),
            over_evicted: false,
            resumed_step: 100 * seq,
            classification,
            capture: IncidentCapture::empty(seq, kind, SimTime::from_hours(at_hours)),
        }
    }

    fn store() -> IncidentStore {
        let mut store = IncidentStore::new();
        store.insert(dossier(
            1,
            1,
            FaultKind::CudaError,
            ResolutionMechanism::StopTimeEviction,
            vec![MachineId(3)],
        ));
        store.insert(dossier(
            2,
            2,
            FaultKind::CudaError,
            ResolutionMechanism::Reattempt,
            vec![],
        ));
        store.insert(dossier(
            3,
            5,
            FaultKind::JobHang,
            ResolutionMechanism::AnalyzerEviction,
            vec![MachineId(4), MachineId(5)],
        ));
        store.insert(dossier(
            4,
            9,
            FaultKind::CodeDataAdjustment,
            ResolutionMechanism::HotUpdate,
            vec![],
        ));
        store
    }

    #[test]
    fn query_filters_compose() {
        let store = store();
        assert_eq!(store.query(&IncidentQuery::any()).len(), 4);
        assert_eq!(
            store
                .query(&IncidentQuery::any().kind(FaultKind::CudaError))
                .len(),
            2
        );
        assert_eq!(
            store
                .query(&IncidentQuery::any().category(FaultCategory::Implicit))
                .len(),
            1
        );
        assert_eq!(
            store
                .query(
                    &IncidentQuery::any()
                        .kind(FaultKind::CudaError)
                        .mechanism(ResolutionMechanism::Reattempt)
                )
                .len(),
            1
        );
    }

    #[test]
    fn window_query_is_half_open() {
        let store = store();
        let hits = store
            .query(&IncidentQuery::any().window(SimTime::from_hours(1), SimTime::from_hours(5)));
        // Includes hour-1 and hour-2 incidents, excludes the hour-5 one.
        assert_eq!(hits.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn window_boundary_semantics() {
        let store = store();
        let seqs = |from: SimTime, to: SimTime| -> Vec<u64> {
            store
                .query(&IncidentQuery::any().window(from, to))
                .iter()
                .map(|d| d.seq)
                .collect()
        };
        // `from` is inclusive: a window starting exactly at an incident's
        // start time includes it.
        assert_eq!(
            seqs(SimTime::from_hours(5), SimTime::from_hours(6)),
            vec![3]
        );
        // `to` is exclusive: a window ending exactly at an incident's start
        // time excludes it.
        assert_eq!(
            seqs(SimTime::from_hours(2), SimTime::from_hours(5)),
            vec![2]
        );
        // An empty window (`from == to`) matches nothing, even when an
        // incident starts exactly at that instant.
        assert!(seqs(SimTime::from_hours(5), SimTime::from_hours(5)).is_empty());
        // An inverted window matches nothing.
        assert!(seqs(SimTime::from_hours(9), SimTime::from_hours(1)).is_empty());
        // A window covering everything returns the whole store.
        assert_eq!(
            seqs(SimTime::ZERO, SimTime::from_hours(1000)),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn inserts_keep_the_store_sorted_by_seq() {
        // Dossiers inserted out of order land at their sorted position, so
        // `get` can binary-search. This pins the sorted-insert invariant.
        let mut store = IncidentStore::new();
        for seq in [5u64, 1, 9, 3, 7] {
            store.insert(dossier(
                seq,
                seq,
                FaultKind::CudaError,
                ResolutionMechanism::Reattempt,
                vec![],
            ));
        }
        let seqs: Vec<u64> = store.all().iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![1, 3, 5, 7, 9]);
        for seq in [1u64, 3, 5, 7, 9] {
            assert_eq!(store.get(seq).map(|d| d.seq), Some(seq));
        }
        assert!(store.get(2).is_none());
        assert!(store.get(10).is_none());
        assert!(store.get(0).is_none());
    }

    #[test]
    fn attribution_stats_score_concluded_vs_ground_truth() {
        let mut store = store();
        let (matching, total) = store.attribution_stats()[&FaultCategory::Explicit];
        assert_eq!(
            matching, total,
            "every seeded dossier is attributed correctly"
        );
        // A transient fault the control plane wrongly pinned on hardware.
        let mut wrong = dossier(
            9,
            11,
            FaultKind::InfinibandError,
            ResolutionMechanism::StopTimeEviction,
            vec![MachineId(7)],
        );
        wrong.root_cause = RootCause::Transient;
        wrong.concluded_cause = RootCause::Infrastructure;
        store.insert(wrong);
        let stats = store.attribution_stats();
        // Explicit incidents: the two CUDA errors (correctly attributed) plus
        // the misattributed InfiniBand transient.
        let (matching, total) = stats[&FaultCategory::Explicit];
        assert_eq!((matching, total), (2, 3));
    }

    #[test]
    fn machine_query_matches_evicted_machines() {
        let store = store();
        let hits = store.query(&IncidentQuery::any().machine(MachineId(4)));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].seq, 3);
        assert!(store
            .query(&IncidentQuery::any().machine(MachineId(99)))
            .is_empty());
    }

    #[test]
    fn severity_floor_query() {
        let store = store();
        // The 2-machine analyzer eviction is Sev2; everything else is milder.
        let severe = store.query(&IncidentQuery::any().at_least(Severity::Sev2));
        assert_eq!(severe.len(), 1);
        assert_eq!(severe[0].seq, 3);
        let all = store.query(&IncidentQuery::any().at_least(Severity::Sev4));
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn resolution_counts_group_by_label_and_category() {
        let counts = store().resolution_counts();
        assert_eq!(counts[&("AutoFT-ER", "Explicit")], 2);
        assert_eq!(counts[&("Analyzer-ER", "Implicit")], 1);
        assert_eq!(counts[&("AutoFT-HU", "Manual Restart")], 1);
    }

    #[test]
    fn mechanism_shares_sum_to_one() {
        let shares = store().mechanism_shares();
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn counts_and_stats() {
        let store = store();
        assert_eq!(store.counts_by_symptom()[&FaultKind::CudaError], 2);
        assert_eq!(store.eviction_stats(), (3, 0));
        let severities = store.severity_counts();
        assert_eq!(severities[&Severity::Sev2], 1);
        assert_eq!(severities[&Severity::Sev4], 2);
    }

    #[test]
    fn eviction_stats_count_hostages_not_culprits_when_events_are_recorded() {
        // A group over-eviction of 4 machines containing 1 real culprit: the
        // capture's per-machine eviction events make the over count exact (3
        // hostages), not the incident-level approximation (4).
        use crate::recorder::RecorderEntry;
        let mut d = dossier(
            9,
            3,
            FaultKind::JobHang,
            ResolutionMechanism::AnalyzerEviction,
            (0..4).map(MachineId).collect(),
        );
        d.over_evicted = true;
        for machine in 0..4u32 {
            d.capture.window.push(RecorderEntry {
                at: d.at,
                event: RecorderEvent::Eviction {
                    machine: MachineId(machine),
                    over_eviction: machine != 2, // machine-2 is the culprit
                },
            });
        }
        let mut store = IncidentStore::new();
        store.insert(d);
        assert_eq!(store.eviction_stats(), (4, 3));

        // Without per-machine events, the incident-level flag is the
        // upper-bound fallback.
        let mut synthetic = dossier(
            10,
            4,
            FaultKind::JobHang,
            ResolutionMechanism::AnalyzerEviction,
            (0..4).map(MachineId).collect(),
        );
        synthetic.over_evicted = true;
        let mut fallback_store = IncidentStore::new();
        fallback_store.insert(synthetic);
        assert_eq!(fallback_store.eviction_stats(), (4, 4));
    }

    #[test]
    fn appends_and_out_of_order_inserts_keep_the_store_sorted_by_seq() {
        let make = |seq| {
            dossier(
                seq,
                seq,
                FaultKind::CudaError,
                ResolutionMechanism::Reattempt,
                vec![],
            )
        };
        let mut store = IncidentStore::new();
        // In-order appends (the fast path), including a repeated seq...
        for seq in [2, 4, 4, 7] {
            store.insert(make(seq));
        }
        // ...then inserts that land before, between and at existing seqs.
        for seq in [1, 5, 4, 3, 9, 0] {
            store.insert(make(seq));
        }
        let seqs: Vec<u64> = store.all().iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 4, 4, 5, 7, 9]);
        assert_eq!(store.get(5).map(|d| d.seq), Some(5));
    }

    #[test]
    fn lookups_after_an_out_of_order_shared_insert() {
        let make = |seq| {
            Arc::new(dossier(
                seq,
                seq,
                FaultKind::CudaError,
                ResolutionMechanism::Reattempt,
                vec![],
            ))
        };
        let shared: Vec<Arc<IncidentDossier>> = [1, 2, 4, 6, 3].into_iter().map(make).collect();
        let mut store = IncidentStore::new();
        for dossier in &shared {
            store.insert_shared(Arc::clone(dossier));
        }
        // Seq 3 went in below the last seq, so the latest dossier (6) is
        // still at the end and every seq is found, pointing at the
        // allocation that was inserted.
        assert_eq!(store.all().last().map(|d| d.seq), Some(6));
        for dossier in &shared {
            assert!(std::ptr::eq(
                store.get(dossier.seq).expect("stored seq"),
                dossier.as_ref()
            ));
        }
        for missing in [0, 5, 7] {
            assert!(store.get(missing).is_none(), "seq {missing}");
            assert!(store.take_latest(missing).is_none(), "seq {missing}");
        }
        // Only the latest dossier can be taken, and taking it hands back
        // the inserted allocation.
        assert!(store.take_latest(3).is_none());
        let last = store.take_latest(6).expect("latest seq");
        assert!(Arc::ptr_eq(&last, &shared[3]));
        assert!(store.get(6).is_none());
        assert_eq!(store.all().last().map(|d| d.seq), Some(4));
        assert!(IncidentStore::new().take_latest(1).is_none());
    }

    #[test]
    fn postmortem_lookup_by_seq() {
        let store = store();
        let postmortem = store.postmortem(3).expect("incident 3 exists");
        assert!(postmortem.title.contains("Job Hang"));
        assert!(store.postmortem(99).is_none());
    }

    #[test]
    fn escalation_backlog_is_in_time_order() {
        let backlog = store().escalation_backlog();
        // Evicting incidents queue hardware tickets; seqs are non-decreasing.
        assert!(backlog
            .iter()
            .any(|(seq, e)| *seq == 1 && *e == Escalation::HardwareTicket));
        let seqs: Vec<u64> = backlog.iter().map(|(seq, _)| *seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }
}
