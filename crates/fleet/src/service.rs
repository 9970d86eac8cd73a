//! The resident warehouse query plane: snapshot-isolated reads served
//! concurrently with fleet execution.
//!
//! Before this module, the warehouse was query-after-the-fact: every figure
//! and oracle ran its reads once the drill had finished. [`WarehouseService`]
//! makes the warehouse a *service*: the runner publishes an **epoch** after
//! every insert batch ([`WarehouseService::publish`], a handful of `Arc`
//! clones), and any number of reader threads answer [`FleetQuery`]s against
//! the epoch they pinned — while the runner keeps inserting.
//!
//! # Epoch contract
//!
//! * Epoch `N` is the warehouse content after the `N`-th publish. Epoch 0 is
//!   published empty before the first event.
//! * A reader pins an [`EpochSnapshot`] once and sees that epoch's exact
//!   content for as long as it holds the pin — bytes-identical before and
//!   after later inserts and spills (the snapshot-isolation oracle).
//! * Shard heads are copy-on-write: a publish captures each resident shard's
//!   `Arc` head; the runner's next insert to that shard copies it
//!   ([`Arc::make_mut`]) and the snapshot keeps the old head. Readers never
//!   block the writer and vice versa.
//! * Per-shard insertion is strictly append-ordered, so epoch `N`'s shard
//!   content is a *prefix* of every later capture. That is what lets
//!   [`WarehouseService::snapshot_at`] re-derive **any** historical epoch
//!   from the latest heads plus the recorded per-epoch lengths — the
//!   post-hoc half of the live-vs-post-hoc determinism oracle.
//!
//! [`EpochSnapshot`] is the repo's one read path over incident history:
//! the same type serves live readers here, post-hoc epoch replays, and —
//! through the memoized
//! [`IncidentWarehouse::snapshot`](crate::warehouse::IncidentWarehouse::snapshot)
//! — every post-run read of a finished warehouse.
//!
//! # Planner
//!
//! A query is answered through one of four secondary indexes — machine,
//! category, severity floor, time bucket — chosen by **estimated
//! selectivity** (posting-list lengths, which the index knows exactly),
//! falling back to a full scan when no index applies. The indexes are built
//! lazily, on a snapshot's first planned query; they are the only posting
//! lists in the repo. Whatever the plan, the residual conjunctive filter
//! (`byterobust_incident::filter::matches`) is applied and hits come back in
//! canonical (start time, job, seq) order, so every plan is
//! answer-equivalent to [`EpochSnapshot::oracle_answer`] — the repo's single
//! brute-force oracle, pinned byte-identical at every epoch by the
//! planner-equivalence tests.
//!
//! Whole-shard aggregates (totals, per-job/severity/category/machine
//! counts, attribution scoring, resolution times, the digest) never touch
//! the planner: they are folds over the snapshot's shard prefixes.
//!
//! # Segment cache (LRU)
//!
//! A snapshot head for a spilled shard names its segment file. Reads fault
//! segments in through a **capacity-bounded LRU** ([`ShardCache`]) shared by
//! all snapshots of a service (or of a warehouse), which evicts
//! least-recently-used shards once its dossier budget is exceeded, so
//! resident memory stays flat under scans over cold history. Eviction just
//! drops an `Arc`: in-flight readers holding the store keep it alive until
//! they finish. A segment rewritten with more appended dossiers since an
//! epoch was published is detected by length and reloaded; the epoch reads
//! its exact prefix either way.
//!
//! # Determinism
//!
//! Everything this module adds is read-only over published heads: attaching
//! a service to a run changes no warehouse content, no event order, and no
//! rendered report (pinned by the `FleetReport::render` oracles). Latency
//! histograms, cache counters, and planner counters are wall-clock
//! self-profiling — exported to `BENCH_query.json`, never rendered.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use byterobust_cluster::{FaultCategory, FaultKind, MachineId};
use byterobust_incident::filter;
use byterobust_incident::{IncidentDossier, IncidentQuery, IncidentStore, Severity};
use byterobust_obs::{HistogramSnapshot, LatencyHistogram};
use byterobust_sim::{SimDuration, SimRng, SimTime};

use crate::query::{FleetQuery, QueryResponse, WarehouseDigest};
use crate::warehouse::{load_segment_at_least, IncidentWarehouse, ShardContent, ShardHead};

/// The time-bucket index of a start time under a bucket width.
fn bucket_index_of(bucket_width: SimDuration, at: SimTime) -> u64 {
    (at.as_secs_f64() / bucket_width.as_secs_f64()).floor() as u64
}

/// Which access path the planner chose for one incidents/dossiers query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// The machine posting list.
    Machine,
    /// The category posting list.
    Category,
    /// The merged severity-floor posting lists.
    SeverityFloor,
    /// The time-bucket range.
    TimeBucket,
    /// Full scan over every shard prefix.
    Scan,
}

impl PlanChoice {
    /// Stable label for stats and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            PlanChoice::Machine => "machine",
            PlanChoice::Category => "category",
            PlanChoice::SeverityFloor => "severity_floor",
            PlanChoice::TimeBucket => "time_bucket",
            PlanChoice::Scan => "scan",
        }
    }

    const ALL: [PlanChoice; 5] = [
        PlanChoice::Machine,
        PlanChoice::Category,
        PlanChoice::SeverityFloor,
        PlanChoice::TimeBucket,
        PlanChoice::Scan,
    ];
}

/// Counters describing what the segment cache has done. Wall-clock
/// self-profiling domain — never rendered into the deterministic report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Segment loads (cold shard, or stale entry superseded by a longer
    /// rewrite).
    pub faults: u64,
    /// Entries dropped to keep the resident total under budget.
    pub evictions: u64,
    /// Segment bytes read by faults.
    pub fault_bytes: u64,
    /// Dossiers currently resident in the cache.
    pub resident_dossiers: u64,
}

/// One cached faulted-in segment.
struct CacheEntry {
    store: Arc<IncidentStore>,
    touch: u64,
}

/// The capacity-bounded LRU over spilled-shard segments, shared by every
/// snapshot of one service. See the module docs for the policy.
pub struct ShardCache {
    /// Maximum dossiers kept resident across cached segments. A single
    /// shard larger than the budget still loads (the budget is a target,
    /// not a hard floor for one oversized shard); everything else evicts.
    budget: usize,
    inner: Mutex<CacheState>,
    hits: AtomicU64,
    faults: AtomicU64,
    evictions: AtomicU64,
    fault_bytes: AtomicU64,
}

struct CacheState {
    entries: BTreeMap<usize, CacheEntry>,
    clock: u64,
}

impl std::fmt::Debug for ShardCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCache")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ShardCache {
    /// A cache bounded to `budget` resident dossiers.
    pub fn new(budget: usize) -> ShardCache {
        ShardCache {
            budget,
            inner: Mutex::new(CacheState {
                entries: BTreeMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            fault_bytes: AtomicU64::new(0),
        }
    }

    /// The configured dossier budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let resident = {
            let inner = self.inner.lock().expect("cache lock");
            inner
                .entries
                .values()
                .map(|entry| entry.store.len() as u64)
                .sum()
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            fault_bytes: self.fault_bytes.load(Ordering::Relaxed),
            resident_dossiers: resident,
        }
    }

    /// The store behind a spilled shard head, faulted in and cached. The
    /// returned store holds at least `min_len` dossiers (the epoch's exact
    /// content is its first `min_len`). The load happens under the cache
    /// lock — coarse, but segment faults are the cold path by design.
    fn fetch(&self, shard: usize, path: &Path, label: &str, min_len: usize) -> Arc<IncidentStore> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(&shard) {
            if entry.store.len() >= min_len {
                entry.touch = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.store);
            }
            // The segment was rewritten with more appended dossiers since
            // this entry was cached; reload the longer version.
            inner.entries.remove(&shard);
        }
        self.faults.fetch_add(1, Ordering::Relaxed);
        let (store, bytes) = load_segment_at_least(path, label, min_len).unwrap_or_else(|err| {
            panic!(
                "query-plane segment {} for shard `{label}` is unreadable: {err}",
                path.display()
            )
        });
        self.fault_bytes.fetch_add(bytes, Ordering::Relaxed);
        let store = Arc::new(store);
        inner.entries.insert(
            shard,
            CacheEntry {
                store: Arc::clone(&store),
                touch: clock,
            },
        );
        // Evict least-recently-used entries (never the one just loaded)
        // until the resident total fits the budget again. Dropping the Arc
        // is all eviction is: readers mid-query keep their pin alive.
        loop {
            let resident: usize = inner.entries.values().map(|entry| entry.store.len()).sum();
            if resident <= self.budget {
                break;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(&index, _)| index != shard)
                .min_by_key(|(_, entry)| entry.touch)
                .map(|(&index, _)| index);
            let Some(victim) = victim else { break };
            inner.entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        store
    }
}

/// A published epoch's identity: its number and every shard's dossier count
/// at publish time. Tiny — the service retains one per epoch, which is what
/// makes any historical epoch reconstructible post-hoc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochStamp {
    /// The epoch number (0-based publish counter).
    pub epoch: u64,
    /// Per-shard dossier counts at publish, in shard creation order.
    pub shard_lens: Vec<usize>,
}

/// Canonical sort key within a snapshot: (start time, job label, seq).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SnapKey {
    at: SimTime,
    shard: usize,
    seq: u64,
}

/// The four secondary indexes of one epoch, built lazily from the shard
/// prefixes on the first planned query (posting lists over [`SnapKey`]s,
/// each in canonical order).
struct SnapshotIndex {
    by_machine: BTreeMap<MachineId, Vec<SnapKey>>,
    by_severity: BTreeMap<Severity, Vec<SnapKey>>,
    by_category: BTreeMap<FaultCategory, Vec<SnapKey>>,
    by_bucket: BTreeMap<u64, Vec<SnapKey>>,
}

/// One pinned epoch: an immutable, snapshot-isolated view of the warehouse
/// as of that epoch's publish. Cheap to hold (shard heads are `Arc`s or
/// segment paths), safe to query from any thread.
pub struct EpochSnapshot {
    epoch: u64,
    bucket_width: SimDuration,
    /// Shard heads from a capture at this epoch *or any later one* — the
    /// prefix lengths in `lens` carve this epoch's exact content out.
    heads: Arc<Vec<ShardHead>>,
    /// Per-shard content length at this epoch. Shorter than `heads` when
    /// shards were created after this epoch (their length here is 0).
    lens: Vec<usize>,
    cache: Arc<ShardCache>,
    index: OnceLock<SnapshotIndex>,
}

impl std::fmt::Debug for EpochSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochSnapshot")
            .field("epoch", &self.epoch)
            .field("shards", &self.lens.len())
            .field("total", &self.total())
            .finish()
    }
}

impl EpochSnapshot {
    /// A snapshot over captured shard heads, carving out the first
    /// `lens[shard]` dossiers of each (`lens` may be shorter than `heads`:
    /// shards created after this epoch have length 0 here).
    pub(crate) fn new(
        epoch: u64,
        bucket_width: SimDuration,
        heads: Arc<Vec<ShardHead>>,
        lens: Vec<usize>,
        cache: Arc<ShardCache>,
    ) -> EpochSnapshot {
        EpochSnapshot {
            epoch,
            bucket_width,
            heads,
            lens,
            cache,
            index: OnceLock::new(),
        }
    }

    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total dossiers visible at this epoch.
    pub fn total(&self) -> usize {
        self.lens.iter().sum()
    }

    fn shard_len(&self, shard: usize) -> usize {
        self.lens.get(shard).copied().unwrap_or(0)
    }

    fn label(&self, shard: usize) -> &str {
        &self.heads[shard].label
    }

    /// The store behind one shard head (resident heads are free; spilled
    /// heads go through the shared LRU cache). Its first
    /// `lens[shard]` dossiers are this epoch's content.
    pub(crate) fn store(&self, shard: usize) -> Arc<IncidentStore> {
        match &self.heads[shard].content {
            ShardContent::Resident(store) => Arc::clone(store),
            ShardContent::Spilled(path) => {
                self.cache
                    .fetch(shard, path, &self.heads[shard].label, self.shard_len(shard))
            }
        }
    }

    fn canonical<'a>(&'a self, key: &SnapKey) -> (SimTime, &'a str, u64) {
        (key.at, self.label(key.shard), key.seq)
    }

    /// Visits every dossier visible at this epoch with its shard index:
    /// shards in creation order, each shard's prefix in append order.
    /// Shards are streamed one at a time, so a fold over spilled history
    /// stays within the cache budget. The index build and every aggregate
    /// are folds over this.
    fn for_each_dossier(&self, mut visit: impl FnMut(usize, &IncidentDossier)) {
        for shard in 0..self.heads.len() {
            let len = self.shard_len(shard);
            if len == 0 {
                continue;
            }
            let store = self.store(shard);
            for dossier in &store.all()[..len] {
                visit(shard, dossier);
            }
        }
    }

    fn index(&self) -> &SnapshotIndex {
        self.index.get_or_init(|| {
            let mut by_machine: BTreeMap<MachineId, Vec<SnapKey>> = BTreeMap::new();
            let mut by_severity: BTreeMap<Severity, Vec<SnapKey>> = BTreeMap::new();
            let mut by_category: BTreeMap<FaultCategory, Vec<SnapKey>> = BTreeMap::new();
            let mut by_bucket: BTreeMap<u64, Vec<SnapKey>> = BTreeMap::new();
            let mut machines = Vec::new();
            self.for_each_dossier(|shard, dossier| {
                let key = SnapKey {
                    at: dossier.at,
                    shard,
                    seq: dossier.seq,
                };
                filter::implicated_machines_into(dossier, &mut machines);
                for &machine in &machines {
                    by_machine.entry(machine).or_default().push(key);
                }
                by_severity
                    .entry(dossier.classification.severity)
                    .or_default()
                    .push(key);
                by_category.entry(dossier.category).or_default().push(key);
                by_bucket
                    .entry(bucket_index_of(self.bucket_width, dossier.at))
                    .or_default()
                    .push(key);
            });
            for list in by_machine
                .values_mut()
                .chain(by_severity.values_mut())
                .chain(by_category.values_mut())
                .chain(by_bucket.values_mut())
            {
                list.sort_by(|a, b| self.canonical(a).cmp(&self.canonical(b)));
            }
            SnapshotIndex {
                by_machine,
                by_severity,
                by_category,
                by_bucket,
            }
        })
    }

    /// Chooses the access path by estimated selectivity: every applicable
    /// index's candidate count is known exactly from its posting-list
    /// lengths, the smallest wins (ties break in machine > category >
    /// severity > bucket order for determinism), and a query no index
    /// applies to scans. Returns the choice and the canonically ordered
    /// candidate keys.
    fn plan(&self, query: &IncidentQuery) -> (PlanChoice, Vec<SnapKey>) {
        let index = self.index();
        let mut best: Option<(usize, usize, PlanChoice)> = None;
        let mut consider = |estimate: usize, order: usize, choice: PlanChoice| {
            if best.is_none_or(|(e, o, _)| (estimate, order) < (e, o)) {
                best = Some((estimate, order, choice));
            }
        };
        if let Some(machine) = query.machine {
            let estimate = index.by_machine.get(&machine).map_or(0, Vec::len);
            consider(estimate, 0, PlanChoice::Machine);
        }
        if let Some(category) = query.category {
            let estimate = index.by_category.get(&category).map_or(0, Vec::len);
            consider(estimate, 1, PlanChoice::Category);
        }
        if let Some(floor) = query.min_severity {
            let estimate = index
                .by_severity
                .iter()
                .filter(|(severity, _)| severity.is_at_least(floor))
                .map(|(_, keys)| keys.len())
                .sum();
            consider(estimate, 2, PlanChoice::SeverityFloor);
        }
        if let Some((from, to)) = query.window {
            if from >= to {
                return (PlanChoice::TimeBucket, Vec::new());
            }
            let estimate = index
                .by_bucket
                .range(
                    bucket_index_of(self.bucket_width, from)
                        ..=bucket_index_of(self.bucket_width, to),
                )
                .map(|(_, keys)| keys.len())
                .sum();
            consider(estimate, 3, PlanChoice::TimeBucket);
        }
        let Some((_, _, choice)) = best else {
            return (PlanChoice::Scan, self.scan_keys());
        };
        let keys = match choice {
            PlanChoice::Machine => index
                .by_machine
                .get(&query.machine.expect("machine plan has a machine"))
                .cloned()
                .unwrap_or_default(),
            PlanChoice::Category => index
                .by_category
                .get(&query.category.expect("category plan has a category"))
                .cloned()
                .unwrap_or_default(),
            PlanChoice::SeverityFloor => {
                let floor = query.min_severity.expect("severity plan has a floor");
                let mut keys: Vec<SnapKey> = index
                    .by_severity
                    .iter()
                    .filter(|(severity, _)| severity.is_at_least(floor))
                    .flat_map(|(_, keys)| keys.iter().copied())
                    .collect();
                keys.sort_by(|a, b| self.canonical(a).cmp(&self.canonical(b)));
                keys
            }
            PlanChoice::TimeBucket => {
                let (from, to) = query.window.expect("bucket plan has a window");
                // Over-inclusive at both edges; the residual filter enforces
                // the exact half-open window. Concatenation in ascending
                // bucket order is already canonical (bucket time ranges are
                // disjoint and increasing).
                index
                    .by_bucket
                    .range(
                        bucket_index_of(self.bucket_width, from)
                            ..=bucket_index_of(self.bucket_width, to),
                    )
                    .flat_map(|(_, keys)| keys.iter().copied())
                    .collect()
            }
            PlanChoice::Scan => unreachable!("scan is the fallback, never the best index"),
        };
        (choice, keys)
    }

    /// Every dossier at this epoch as canonically sorted keys (the scan
    /// plan's candidate set).
    fn scan_keys(&self) -> Vec<SnapKey> {
        let mut keys = Vec::with_capacity(self.total());
        self.for_each_dossier(|shard, dossier| {
            keys.push(SnapKey {
                at: dossier.at,
                shard,
                seq: dossier.seq,
            })
        });
        keys.sort_by(|a, b| self.canonical(a).cmp(&self.canonical(b)));
        keys
    }

    /// Resolves candidate keys against the shard prefixes, applies the
    /// residual filter, and builds the response (summary rows or full
    /// dossiers). Stores are pinned once per shard for the resolve.
    fn resolve(&self, keys: &[SnapKey], query: &IncidentQuery, full: bool) -> QueryResponse {
        let mut stores: Vec<Option<Arc<IncidentStore>>> = vec![None; self.heads.len()];
        let mut rows = Vec::new();
        let mut dossiers = Vec::new();
        for key in keys {
            let slot = &mut stores[key.shard];
            if slot.is_none() {
                *slot = Some(self.store(key.shard));
            }
            let store = slot.as_deref().expect("slot was just filled");
            let dossier = store
                .get(key.seq)
                .expect("indexed dossier is present in its shard prefix");
            if !filter::matches(query, dossier) {
                continue;
            }
            if full {
                dossiers.push((self.label(key.shard).to_string(), dossier.clone()));
            } else {
                rows.push(crate::query::IncidentRow::of(
                    self.label(key.shard),
                    dossier,
                ));
            }
        }
        if full {
            QueryResponse::Dossiers(dossiers)
        } else {
            QueryResponse::Incidents(rows)
        }
    }

    /// Answers one warehouse-backed query through the planner. Returns the
    /// response and the plan the planner chose (`None` for the digest arm,
    /// a fold over the shard prefixes). Trace/alert arms are not
    /// warehouse-backed and return `None` — they are served post-hoc by
    /// [`FleetReport::answer`](crate::report::FleetReport::answer).
    pub fn answer(&self, query: &FleetQuery) -> Option<(QueryResponse, Option<PlanChoice>)> {
        match query {
            FleetQuery::Incidents(inner) => {
                let (choice, keys) = self.plan(inner);
                Some((self.resolve(&keys, inner, false), Some(choice)))
            }
            FleetQuery::Dossiers(inner) => {
                let (choice, keys) = self.plan(inner);
                Some((self.resolve(&keys, inner, true), Some(choice)))
            }
            FleetQuery::Digest => Some((QueryResponse::Digest(self.digest()), None)),
            FleetQuery::Spans(_) | FleetQuery::Alerts(_) => None,
        }
    }

    /// The brute-force oracle at this epoch, and the only one in the repo:
    /// evaluates an incidents or dossiers query by scanning every shard
    /// prefix with its own independent sort — no posting lists involved.
    /// The digest is a fold over the shard prefixes already, so both paths
    /// share it. The planner-equivalence tests pin
    /// `answer == oracle_answer` byte-for-byte at every published epoch.
    pub fn oracle_answer(&self, query: &FleetQuery) -> Option<QueryResponse> {
        match query {
            FleetQuery::Incidents(inner) => Some(self.linear_scan(inner, false)),
            FleetQuery::Dossiers(inner) => Some(self.linear_scan(inner, true)),
            FleetQuery::Digest => Some(QueryResponse::Digest(self.digest())),
            FleetQuery::Spans(_) | FleetQuery::Alerts(_) => None,
        }
    }

    /// The scan evaluator behind [`EpochSnapshot::oracle_answer`].
    fn linear_scan(&self, query: &IncidentQuery, full: bool) -> QueryResponse {
        let mut hits: Vec<(SimTime, &str, u64, &IncidentDossier)> = Vec::new();
        let mut stores = Vec::new();
        for shard in 0..self.heads.len() {
            if self.shard_len(shard) > 0 {
                stores.push((shard, self.store(shard)));
            }
        }
        for (shard, store) in &stores {
            for dossier in &store.all()[..self.shard_len(*shard)] {
                if filter::matches(query, dossier) {
                    hits.push((dossier.at, self.label(*shard), dossier.seq, dossier));
                }
            }
        }
        hits.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
        let hits = hits.into_iter().map(|(_, job, _, dossier)| (job, dossier));
        if full {
            QueryResponse::dossiers(hits)
        } else {
            QueryResponse::incidents(hits)
        }
    }

    /// The digest at this epoch: per-job counts plus one fold for the
    /// severity and category histograms.
    pub fn digest(&self) -> WarehouseDigest {
        let mut jobs: Vec<(String, u64)> = (0..self.heads.len())
            .filter(|&shard| self.shard_len(shard) > 0)
            .map(|shard| (self.label(shard).to_string(), self.shard_len(shard) as u64))
            .collect();
        jobs.sort();
        let mut severity: BTreeMap<Severity, u64> = BTreeMap::new();
        let mut category: BTreeMap<FaultCategory, u64> = BTreeMap::new();
        self.for_each_dossier(|_, dossier| {
            *severity.entry(dossier.classification.severity).or_default() += 1;
            *category.entry(dossier.category).or_default() += 1;
        });
        WarehouseDigest {
            total: self.total() as u64,
            jobs,
            severity: severity.into_iter().collect(),
            category: category.into_iter().collect(),
        }
    }

    /// Job labels with at least one incident at this epoch, sorted.
    pub fn jobs(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = (0..self.heads.len())
            .filter(|&shard| self.shard_len(shard) > 0)
            .map(|shard| self.label(shard))
            .collect();
        labels.sort_unstable();
        labels
    }

    /// Dossier counts per `key`, as a fold over the shard prefixes.
    fn count_by<K: Ord>(&self, key: impl Fn(&IncidentDossier) -> K) -> BTreeMap<K, usize> {
        let mut counts = BTreeMap::new();
        self.for_each_dossier(|_, dossier| *counts.entry(key(dossier)).or_default() += 1);
        counts
    }

    /// Incident counts per severity class.
    pub fn severity_counts(&self) -> BTreeMap<Severity, usize> {
        self.count_by(|dossier| dossier.classification.severity)
    }

    /// Incident counts per category.
    pub fn category_counts(&self) -> BTreeMap<FaultCategory, usize> {
        self.count_by(|dossier| dossier.category)
    }

    /// Per-machine incident counts: how many dossiers implicate each machine
    /// (the same "involves" set as `IncidentQuery::machine`).
    pub fn machine_incident_counts(&self) -> BTreeMap<MachineId, usize> {
        let mut counts = BTreeMap::new();
        let mut machines = Vec::new();
        self.for_each_dossier(|_, dossier| {
            filter::implicated_machines_into(dossier, &mut machines);
            for &machine in &machines {
                *counts.entry(machine).or_default() += 1;
            }
        });
        counts
    }

    /// Attribution scoring: `(matching, total)` incidents whose concluded
    /// cause equals ground truth, per category.
    pub fn attribution_stats(&self) -> BTreeMap<FaultCategory, (usize, usize)> {
        let mut stats: BTreeMap<FaultCategory, (usize, usize)> = BTreeMap::new();
        self.for_each_dossier(|_, dossier| {
            let entry = stats.entry(dossier.category).or_default();
            if dossier.concluded_cause == dossier.root_cause {
                entry.0 += 1;
            }
            entry.1 += 1;
        });
        stats
    }

    /// Attribution accuracy in `[0, 1]` (1.0 when empty).
    pub fn attribution_accuracy(&self) -> f64 {
        let (matching, total) = self
            .attribution_stats()
            .values()
            .fold((0usize, 0usize), |(m, t), &(dm, dt)| (m + dm, t + dt));
        if total == 0 {
            1.0
        } else {
            matching as f64 / total as f64
        }
    }

    /// Mean and max resolution time per symptom in seconds (the Table 6
    /// "ours" columns), accumulated in shard order.
    pub fn resolution_time_by_symptom(&self) -> BTreeMap<FaultKind, (f64, f64)> {
        let mut acc: BTreeMap<FaultKind, Vec<f64>> = BTreeMap::new();
        self.for_each_dossier(|_, dossier| {
            acc.entry(dossier.kind)
                .or_default()
                .push(dossier.resolution_time().as_secs_f64())
        });
        acc.into_iter()
            .map(|(kind, values)| {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let max = values.iter().copied().fold(0.0, f64::max);
                (kind, (mean, max))
            })
            .collect()
    }
}

/// Wall-clock self-profile of one service: query volume, latency, planner
/// mix, and cache behaviour. Never rendered into the deterministic report.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Queries answered.
    pub queries: u64,
    /// Epochs published.
    pub epochs: u64,
    /// Per-plan answer counts, in `PlanChoice::ALL` order plus `digest`.
    pub plans: Vec<(&'static str, u64)>,
    /// Per-query latency histogram (nanoseconds).
    pub latency: HistogramSnapshot,
    /// Segment-cache counters.
    pub cache: CacheStats,
}

struct ServiceState {
    bucket_width: SimDuration,
    latest: Option<Arc<EpochSnapshot>>,
    stamps: Vec<EpochStamp>,
}

struct ServiceShared {
    cache: Arc<ShardCache>,
    state: RwLock<ServiceState>,
    sealed: AtomicBool,
    queries: AtomicU64,
    plan_counts: [AtomicU64; 6],
    latency_nanos: LatencyHistogram,
}

/// The resident query plane. Cloning shares the service (it is a handle);
/// attach one to a run with
/// [`FleetConfig::with_query_service`](crate::runner::FleetConfig::with_query_service)
/// and query it from any thread while the fleet executes.
#[derive(Clone)]
pub struct WarehouseService {
    shared: Arc<ServiceShared>,
}

impl std::fmt::Debug for WarehouseService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.read().expect("service state lock");
        f.debug_struct("WarehouseService")
            .field("epochs", &state.stamps.len())
            .field("sealed", &self.shared.sealed.load(Ordering::Relaxed))
            .field("cache", &self.shared.cache)
            .finish()
    }
}

/// Default segment-cache budget (dossiers) when none is configured.
pub const DEFAULT_CACHE_BUDGET: usize = 4096;

impl Default for WarehouseService {
    fn default() -> Self {
        WarehouseService::new(DEFAULT_CACHE_BUDGET)
    }
}

impl WarehouseService {
    /// A fresh service whose segment cache keeps at most `cache_budget`
    /// dossiers resident.
    pub fn new(cache_budget: usize) -> WarehouseService {
        WarehouseService {
            shared: Arc::new(ServiceShared {
                cache: Arc::new(ShardCache::new(cache_budget)),
                state: RwLock::new(ServiceState {
                    bucket_width: SimDuration::from_hours(1),
                    latest: None,
                    stamps: Vec::new(),
                }),
                sealed: AtomicBool::new(false),
                queries: AtomicU64::new(0),
                plan_counts: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
                latency_nanos: LatencyHistogram::new(),
            }),
        }
    }

    /// Publishes the warehouse's current content as the next epoch. Called
    /// by the runner after every insert batch (and once before the first
    /// event, and once after the last); costs one `Arc` clone per resident
    /// shard. Returns the published epoch number.
    pub fn publish(&self, warehouse: &IncidentWarehouse) -> u64 {
        let heads = warehouse.epoch_heads();
        let lens: Vec<usize> = heads.iter().map(|head| head.len).collect();
        let mut state = self.shared.state.write().expect("service state lock");
        state.bucket_width = warehouse.bucket_width();
        let epoch = state.stamps.len() as u64;
        state.stamps.push(EpochStamp {
            epoch,
            shard_lens: lens.clone(),
        });
        state.latest = Some(Arc::new(EpochSnapshot::new(
            epoch,
            warehouse.bucket_width(),
            Arc::new(heads),
            lens,
            Arc::clone(&self.shared.cache),
        )));
        epoch
    }

    /// Marks the run complete: the latest epoch is final. Readers keep
    /// working identically; this only gates [`WarehouseService::is_sealed`].
    pub fn seal(&self) {
        self.shared.sealed.store(true, Ordering::Release);
    }

    /// Whether the owning run has finished.
    pub fn is_sealed(&self) -> bool {
        self.shared.sealed.load(Ordering::Acquire)
    }

    /// Pins the latest published epoch (`None` before the first publish).
    pub fn latest(&self) -> Option<Arc<EpochSnapshot>> {
        self.shared
            .state
            .read()
            .expect("service state lock")
            .latest
            .clone()
    }

    /// Every published epoch's stamp, in publish order.
    pub fn stamps(&self) -> Vec<EpochStamp> {
        self.shared
            .state
            .read()
            .expect("service state lock")
            .stamps
            .clone()
    }

    /// Pins a snapshot of any published epoch — the latest directly, any
    /// earlier one re-derived from the latest heads plus the epoch's
    /// recorded per-shard lengths (valid because per-shard content at epoch
    /// `N` is a prefix of every later capture). This is the post-hoc read
    /// path of the live-vs-post-hoc oracle: it reaches the same answers
    /// through a different head capture than the live reader used.
    pub fn snapshot_at(&self, epoch: u64) -> Option<Arc<EpochSnapshot>> {
        let state = self.shared.state.read().expect("service state lock");
        let stamp = state.stamps.get(epoch as usize)?;
        let latest = state.latest.as_ref()?;
        if latest.epoch == epoch {
            return Some(Arc::clone(latest));
        }
        Some(Arc::new(EpochSnapshot::new(
            epoch,
            state.bucket_width,
            Arc::clone(&latest.heads),
            stamp.shard_lens.clone(),
            Arc::clone(&self.shared.cache),
        )))
    }

    /// Answers one query against the latest epoch, recording latency and
    /// the planner's choice. Returns the response and the epoch it was
    /// answered at, or `None` before the first publish or for the
    /// non-warehouse arms (spans/alerts — post-hoc surfaces).
    pub fn answer(&self, query: &FleetQuery) -> Option<(QueryResponse, u64)> {
        let snapshot = self.latest()?;
        let response = self.answer_on(&snapshot, query)?;
        Some((response, snapshot.epoch))
    }

    /// Answers one query against an already pinned snapshot, recording
    /// latency and the planner's choice.
    pub fn answer_on(&self, snapshot: &EpochSnapshot, query: &FleetQuery) -> Option<QueryResponse> {
        let started = std::time::Instant::now();
        let (response, choice) = snapshot.answer(query)?;
        self.shared
            .latency_nanos
            .record(started.elapsed().as_nanos() as u64);
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        let slot = match choice {
            Some(plan) => PlanChoice::ALL
                .iter()
                .position(|&p| p == plan)
                .expect("plan is in ALL"),
            None => 5,
        };
        self.shared.plan_counts[slot].fetch_add(1, Ordering::Relaxed);
        Some(response)
    }

    /// The service's wall-clock self-profile.
    pub fn stats(&self) -> ServiceStats {
        let epochs = self
            .shared
            .state
            .read()
            .expect("service state lock")
            .stamps
            .len() as u64;
        let mut plans: Vec<(&'static str, u64)> = PlanChoice::ALL
            .iter()
            .enumerate()
            .map(|(slot, &plan)| {
                (
                    plan.label(),
                    self.shared.plan_counts[slot].load(Ordering::Relaxed),
                )
            })
            .collect();
        plans.push(("digest", self.shared.plan_counts[5].load(Ordering::Relaxed)));
        ServiceStats {
            queries: self.shared.queries.load(Ordering::Relaxed),
            epochs,
            plans,
            latency: self.shared.latency_nanos.snapshot(),
            cache: self.shared.cache.stats(),
        }
    }
}

// ---------------------------------------------------------------------------
// Open-loop synthetic traffic
// ---------------------------------------------------------------------------

/// Knobs of the open-loop synthetic query stream. The stream is a pure
/// function of this config: query `i` is the same `FleetQuery` on every
/// run, every thread split, and every machine.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Deterministic stream seed.
    pub seed: u64,
    /// Job-label universe, zipf-ranked in the given order (front = hot).
    pub jobs: Vec<String>,
    /// Machine-id universe `0..machines`, zipf-ranked (low id = hot).
    pub machines: u32,
    /// Upper bound (hours) for generated time windows.
    pub horizon_hours: u64,
    /// Zipf skew exponent for job and machine ranks (1.0 = classic zipf).
    pub zipf_exponent: f64,
}

impl TrafficConfig {
    /// A stream over the given universes with the classic skew.
    pub fn new(seed: u64, jobs: Vec<String>, machines: u32, horizon_hours: u64) -> TrafficConfig {
        TrafficConfig {
            seed,
            jobs,
            machines,
            horizon_hours: horizon_hours.max(2),
            zipf_exponent: 1.1,
        }
    }
}

/// Generates the deterministic open-loop query stream described by a
/// [`TrafficConfig`]: zipfian over machines and jobs, mixed query shapes
/// (every planner path plus digest and dossier reads). Query `i` is
/// `generator.query(i)` — threads split the index space however they like
/// without affecting the stream.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    machine_cdf: Vec<f64>,
    categories: Vec<FaultCategory>,
}

/// Cumulative zipf weights over ranks `0..n`.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 0..n {
        acc += 1.0 / ((rank + 1) as f64).powf(exponent);
        cdf.push(acc);
    }
    let total = cdf.last().copied().unwrap_or(1.0);
    for weight in &mut cdf {
        *weight /= total;
    }
    cdf
}

/// Samples a rank from a cumulative distribution with one uniform draw.
fn sample_cdf(cdf: &[f64], uniform: f64) -> usize {
    cdf.partition_point(|&weight| weight < uniform)
        .min(cdf.len().saturating_sub(1))
}

impl TrafficGenerator {
    /// Precomputes the zipf tables for a stream config.
    pub fn new(config: TrafficConfig) -> TrafficGenerator {
        let machine_cdf = zipf_cdf(config.machines.max(1) as usize, config.zipf_exponent);
        // The category universe, derived from the kind taxonomy (stable
        // order, deduplicated).
        let mut categories: Vec<FaultCategory> =
            FaultKind::ALL.iter().map(|kind| kind.category()).collect();
        categories.sort_unstable();
        categories.dedup();
        TrafficGenerator {
            config,
            machine_cdf,
            categories,
        }
    }

    /// The stream's `index`-th query — a pure function of (config, index).
    pub fn query(&self, index: u64) -> FleetQuery {
        let mut rng = SimRng::new(self.config.seed).fork(index);
        let shape = rng.weighted_index(&[
            30.0, // incidents by machine
            12.0, // incidents by category
            12.0, // incidents by severity floor
            12.0, // incidents by window
            8.0,  // incidents machine + severity combo
            8.0,  // incidents category + window combo
            5.0,  // incidents by kind (no dedicated index: scan plan)
            8.0,  // dossiers by machine
            5.0,  // digest
        ]);
        let draw_machine = |rng: &mut SimRng| -> MachineId {
            MachineId(sample_cdf(&self.machine_cdf, rng.uniform()) as u32)
        };
        let draw_window = |rng: &mut SimRng| -> (SimTime, SimTime) {
            let horizon = self.config.horizon_hours;
            let from = rng.range_u64(0, horizon - 1);
            let width = rng.range_u64(1, (horizon / 4).max(2));
            (
                SimTime::from_hours(from),
                SimTime::from_hours((from + width).min(horizon)),
            )
        };
        let severity = Severity::ALL[rng.index(Severity::ALL.len())];
        let category = self.categories[rng.index(self.categories.len())];
        let kind = FaultKind::ALL[rng.index(FaultKind::ALL.len())];
        match shape {
            0 => FleetQuery::Incidents(IncidentQuery::any().machine(draw_machine(&mut rng))),
            1 => FleetQuery::Incidents(IncidentQuery::any().category(category)),
            2 => FleetQuery::Incidents(IncidentQuery::any().at_least(severity)),
            3 => {
                let (from, to) = draw_window(&mut rng);
                FleetQuery::Incidents(IncidentQuery::any().window(from, to))
            }
            4 => FleetQuery::Incidents(
                IncidentQuery::any()
                    .machine(draw_machine(&mut rng))
                    .at_least(severity),
            ),
            5 => {
                let (from, to) = draw_window(&mut rng);
                FleetQuery::Incidents(IncidentQuery::any().category(category).window(from, to))
            }
            6 => FleetQuery::Incidents(IncidentQuery::any().kind(kind)),
            7 => FleetQuery::Dossiers(IncidentQuery::any().machine(draw_machine(&mut rng))),
            _ => FleetQuery::Digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::WarehouseStorage;
    use byterobust_cluster::RootCause;
    use byterobust_incident::{
        ClassificationInput, ClassificationMatrix, IncidentCapture, ResolutionMechanism,
    };
    use byterobust_recovery::FailoverCost;

    fn dossier(
        seq: u64,
        at_hours: u64,
        kind: FaultKind,
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
        let mechanism = if evicted.is_empty() {
            ResolutionMechanism::Reattempt
        } else {
            ResolutionMechanism::StopTimeEviction
        };
        let classification =
            ClassificationMatrix::byterobust_default().classify(&ClassificationInput {
                category: kind.category(),
                root_cause: RootCause::Infrastructure,
                mechanism,
                blast_radius: evicted.len(),
                over_evicted: false,
                reproducible: true,
                downtime: cost.total(),
            });
        IncidentDossier {
            seq,
            at: SimTime::from_hours(at_hours),
            kind,
            category: kind.category(),
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Infrastructure,
            mechanism,
            cost,
            evicted,
            over_evicted: false,
            resumed_step: 100 * seq,
            classification,
            capture: IncidentCapture::empty(seq, kind, SimTime::from_hours(at_hours)),
        }
    }

    /// A warehouse with three shards and a mixed kind/severity/machine/time
    /// spread, inserted through the normal per-incident path.
    fn filled() -> IncidentWarehouse {
        filled_into(IncidentWarehouse::new(SimDuration::from_hours(1)))
    }

    /// Like [`filled`], but with spill storage attached (generous budget, so
    /// nothing spills until `flush_to_disk`).
    fn filled_spillable(dir: &Path) -> IncidentWarehouse {
        filled_into(IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(1 << 20, dir),
        ))
    }

    fn filled_into(mut w: IncidentWarehouse) -> IncidentWarehouse {
        let kinds = [
            FaultKind::CudaError,
            FaultKind::JobHang,
            FaultKind::GpuMemoryError,
            FaultKind::InfinibandError,
            FaultKind::NanValue,
        ];
        for shard in 0..3u64 {
            let label = format!("job-{shard}");
            for seq in 1..=8u64 {
                let kind = kinds[((shard + seq) % kinds.len() as u64) as usize];
                let evicted = if seq % 3 == 0 {
                    vec![MachineId((seq % 4) as u32)]
                } else {
                    Vec::new()
                };
                w.insert(&label, dossier(seq, shard * 3 + seq, kind, evicted));
            }
        }
        w
    }

    /// The probe set the planner tests sweep: one query per plan shape plus
    /// combinations that force residual filtering.
    fn probes() -> Vec<FleetQuery> {
        vec![
            FleetQuery::Incidents(IncidentQuery::any()),
            FleetQuery::Incidents(IncidentQuery::any().machine(MachineId(0))),
            FleetQuery::Incidents(IncidentQuery::any().machine(MachineId(3))),
            FleetQuery::Incidents(IncidentQuery::any().category(FaultCategory::Explicit)),
            FleetQuery::Incidents(IncidentQuery::any().kind(FaultKind::JobHang)),
            FleetQuery::Incidents(IncidentQuery::any().at_least(Severity::ALL[1])),
            FleetQuery::Incidents(
                IncidentQuery::any().window(SimTime::from_hours(2), SimTime::from_hours(7)),
            ),
            FleetQuery::Incidents(
                IncidentQuery::any().window(SimTime::from_hours(7), SimTime::from_hours(2)),
            ),
            FleetQuery::Incidents(
                IncidentQuery::any()
                    .machine(MachineId(3))
                    .at_least(Severity::ALL[0])
                    .window(SimTime::ZERO, SimTime::from_hours(20)),
            ),
            FleetQuery::Dossiers(IncidentQuery::any().machine(MachineId(3))),
            FleetQuery::Dossiers(IncidentQuery::any().category(FaultCategory::Explicit)),
            FleetQuery::Digest,
        ]
    }

    #[test]
    fn planner_is_byte_identical_to_the_linear_scan_oracle() {
        let warehouse = filled();
        let service = WarehouseService::new(1 << 16);
        service.publish(&warehouse);
        let snapshot = service.latest().expect("published");
        for query in probes() {
            let (planned, _) = snapshot.answer(&query).expect("warehouse-backed arm");
            let oracle = snapshot
                .oracle_answer(&query)
                .expect("warehouse-backed arm");
            assert_eq!(
                planned.render(),
                oracle.render(),
                "plan/oracle drift on {query:?}"
            );
        }
    }

    #[test]
    fn snapshots_are_isolated_from_later_inserts_and_spills() {
        let dir = std::env::temp_dir().join(format!(
            "byterobust-service-test-iso-{}",
            std::process::id()
        ));
        let mut warehouse = filled_spillable(&dir);
        let service = WarehouseService::new(1 << 16);
        service.publish(&warehouse);
        let pinned = service.latest().expect("published");
        let before: Vec<String> = probes()
            .iter()
            .map(|q| pinned.answer(q).expect("answerable").0.render())
            .collect();

        // Mutate the live warehouse hard: new dossiers on existing and new
        // shards, then spill everything to disk.
        warehouse.insert(
            "job-0",
            dossier(99, 40, FaultKind::CudaError, vec![MachineId(3)]),
        );
        warehouse.insert(
            "job-9",
            dossier(1, 41, FaultKind::JobHang, vec![MachineId(0)]),
        );
        service.publish(&warehouse);
        warehouse.flush_to_disk();
        service.publish(&warehouse);

        let after: Vec<String> = probes()
            .iter()
            .map(|q| pinned.answer(q).expect("answerable").0.render())
            .collect();
        assert_eq!(before, after, "pinned epoch changed under later writes");

        // The latest epoch does see the new rows.
        let latest = service.latest().expect("published");
        assert!(latest.total() > pinned.total());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_at_rederives_every_published_epoch() {
        let mut warehouse = IncidentWarehouse::new(SimDuration::from_hours(1));
        let service = WarehouseService::new(1 << 16);
        service.publish(&warehouse); // epoch 0: empty
        let mut live_renders: Vec<String> = Vec::new();
        let probe = FleetQuery::Incidents(IncidentQuery::any());
        live_renders.push(service.latest().unwrap().answer(&probe).unwrap().0.render());
        for seq in 1..=6u64 {
            warehouse.insert(
                &format!("job-{}", seq % 2),
                dossier(seq, seq, FaultKind::CudaError, vec![MachineId(1)]),
            );
            service.publish(&warehouse);
            live_renders.push(service.latest().unwrap().answer(&probe).unwrap().0.render());
        }
        service.seal();
        for (epoch, live) in live_renders.iter().enumerate() {
            let replay = service
                .snapshot_at(epoch as u64)
                .expect("published epoch")
                .answer(&probe)
                .unwrap()
                .0
                .render();
            assert_eq!(&replay, live, "post-hoc epoch {epoch} diverged from live");
        }
        assert!(service.snapshot_at(99).is_none());
    }

    #[test]
    fn lru_cache_evicts_and_refaults_under_a_tiny_budget() {
        let dir = std::env::temp_dir().join(format!(
            "byterobust-service-test-lru-{}",
            std::process::id()
        ));
        let mut warehouse = filled_spillable(&dir);
        warehouse.flush_to_disk(); // every shard is now a segment file
                                   // Budget of 8 dossiers: one 8-dossier shard fits, two do not.
        let service = WarehouseService::new(8);
        service.publish(&warehouse);
        let snapshot = service.latest().expect("published");
        let scan = FleetQuery::Incidents(IncidentQuery::any());
        let first = snapshot.answer(&scan).unwrap().0.render();
        let stats = service.stats().cache;
        assert!(stats.faults >= 3, "all three shards faulted in: {stats:?}");
        assert!(stats.evictions >= 2, "budget forced evictions: {stats:?}");
        assert!(
            stats.resident_dossiers <= 8,
            "resident stays within budget: {stats:?}"
        );
        // Refaulting yields the same bytes.
        let second = snapshot.answer(&scan).unwrap().0.render();
        assert_eq!(first, second);
        let after = service.stats().cache;
        assert!(after.faults > stats.faults, "second scan refaults");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traffic_stream_is_a_pure_function_of_the_index() {
        let jobs: Vec<String> = (0..4).map(|i| format!("job-{i}")).collect();
        let generator = TrafficGenerator::new(TrafficConfig::new(7, jobs.clone(), 64, 24));
        let twin = TrafficGenerator::new(TrafficConfig::new(7, jobs, 64, 24));
        let mut arms = std::collections::BTreeSet::new();
        for index in 0..512u64 {
            let query = generator.query(index);
            assert_eq!(query, twin.query(index), "index {index} diverged");
            // Out-of-order generation is identical too.
            assert_eq!(query, generator.query(index));
            arms.insert(query.arm());
        }
        assert!(arms.contains("incidents"));
        assert!(arms.contains("dossiers"));
        assert!(arms.contains("digest"));
        // Zipf skew: the hottest machine must dominate the coldest.
        let counts = {
            let mut counts = vec![0usize; 64];
            for index in 0..2048u64 {
                if let FleetQuery::Incidents(q) | FleetQuery::Dossiers(q) = generator.query(index) {
                    if let Some(machine) = q.machine {
                        counts[machine.0 as usize] += 1;
                    }
                }
            }
            counts
        };
        assert!(counts[0] > counts[63] * 4, "zipf head {counts:?}");
    }

    #[test]
    fn service_stats_track_plans_and_latency() {
        let warehouse = filled();
        let service = WarehouseService::new(1 << 16);
        service.publish(&warehouse);
        for query in probes() {
            service.answer(&query).expect("answerable");
        }
        let stats = service.stats();
        assert_eq!(stats.queries, probes().len() as u64);
        assert_eq!(stats.latency.count(), stats.queries);
        let by_label: BTreeMap<&str, u64> = stats.plans.iter().copied().collect();
        assert!(by_label["machine"] >= 1);
        assert!(by_label["scan"] >= 1);
        assert!(by_label["digest"] >= 1);
    }
}
