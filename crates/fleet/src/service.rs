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
//! * Shard heads are copy-on-write: a publish captures each shard's segment
//!   list and resident tail as `Arc`s; the runner's next insert to that
//!   shard copies the tail ([`Arc::make_mut`]) and the snapshot keeps the
//!   old one. Segments are never rewritten. Readers never block the writer
//!   and vice versa.
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
//! Two secondary indexes — machine and time bucket — serve the queries that
//! name a machine or a window; when a query names both, the shorter posting
//! list wins (their lengths are known exactly). Every other incidents or
//! dossiers query is answered by the linear scan behind
//! [`EpochSnapshot::oracle_answer`] (filter every shard prefix, then sort
//! the hits), counted as [`PlanChoice::Scan`]. The indexes are built lazily,
//! on a snapshot's first query that can use one; they are the only posting
//! lists in the repo. Whatever the plan, the residual conjunctive filter
//! (`byterobust_incident::filter::matches`) is applied and hits come back in
//! canonical (start time, job, seq) order, so both index paths are
//! answer-equivalent to the oracle, pinned byte-identical at every epoch by
//! the planner-equivalence tests.
//!
//! Only these two indexes pay for themselves. Timed over 20,000 traffic
//! queries against a finished drill's final snapshot (2 vCPUs, in memory),
//! planner vs linear scan per query:
//!
//! | Path | `mega_smoke` (12,806 dossiers) | `large_drill` (592 dossiers) |
//! |---|---|---|
//! | machine index | 2 µs vs 791 µs | 3 µs vs 36 µs |
//! | time-bucket index | 68 µs vs 157 µs | 8 µs vs 12 µs |
//! | category index (removed) | 447 µs vs 379 µs | 22 µs vs 29 µs |
//! | severity-floor index (removed) | 506 µs vs 395 µs | 33 µs vs 35 µs |
//! | sorted-key scan (removed) | 1,522 µs vs 159 µs | 62 µs vs 10 µs |
//!
//! A category or severity posting list covers a large share of history, so
//! resolving its keys one by one costs more than filtering every dossier.
//!
//! Whole-shard aggregates (totals, per-job/severity/category/machine
//! counts, attribution scoring, resolution times, the digest) never touch
//! the planner: they are folds over the snapshot's shard prefixes.
//!
//! # Segment cache (LRU)
//!
//! A snapshot head names its shard's spilled segment files; its resident
//! tail is read in place. Reads fault segments in through a
//! **capacity-bounded LRU** ([`ShardCache`]) shared by all snapshots of a
//! service (or of a warehouse), which evicts least-recently-used shards once
//! its dossier budget is exceeded, so resident memory stays flat under scans
//! over cold history. Segments never change once written, so a shard's
//! cache entry is the concatenation of its first few segments: a head with
//! more segments than the entry holds *extends* the entry with the ones it
//! lacks, and an older epoch reads its exact prefix of it. Eviction just
//! drops an `Arc`: in-flight readers holding the store keep it alive until
//! they finish.
//!
//! # Determinism
//!
//! Everything this module adds is read-only over published heads: attaching
//! a service to a run changes no warehouse content, no event order, and no
//! rendered report (pinned by the `FleetReport::render` oracles). Latency
//! histograms, cache counters, and planner counters are wall-clock
//! self-profiling — exported to `BENCH_query.json`, never rendered.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use byterobust_cluster::{FaultCategory, FaultKind, MachineId};
use byterobust_incident::filter;
use byterobust_incident::{IncidentDossier, IncidentQuery, IncidentStore, Severity};
use byterobust_obs::{HistogramSnapshot, LatencyHistogram};
use byterobust_sim::{SimDuration, SimRng, SimTime};

use crate::query::{FleetQuery, QueryResponse, WarehouseDigest};
use crate::report::FleetReport;
use crate::runner::FleetRunner;
use crate::warehouse::{load_segment, IncidentWarehouse, ShardHead};

/// The time-bucket index of a start time under a bucket width.
fn bucket_index_of(bucket_width: SimDuration, at: SimTime) -> u64 {
    (at.as_secs_f64() / bucket_width.as_secs_f64()).floor() as u64
}

/// Which access path the planner chose for one incidents/dossiers query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// The machine posting list.
    Machine,
    /// The time-bucket range.
    TimeBucket,
    /// The linear scan of [`EpochSnapshot::oracle_answer`].
    Scan,
}

impl PlanChoice {
    /// Stable label for stats and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            PlanChoice::Machine => "machine",
            PlanChoice::TimeBucket => "time_bucket",
            PlanChoice::Scan => "scan",
        }
    }

    /// Every plan in declaration order, so `plan as usize` is its slot.
    const ALL: [PlanChoice; 3] = [
        PlanChoice::Machine,
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
    /// Segment files read (each into the entry of a cold shard, or
    /// extending a cached shard by a segment written since).
    pub faults: u64,
    /// Entries dropped to keep the resident total under budget.
    pub evictions: u64,
    /// Segment bytes read by faults.
    pub fault_bytes: u64,
    /// Dossiers currently resident in the cache.
    pub resident_dossiers: u64,
}

/// One shard's cached spilled prefix: its first `segments` segments.
struct CacheEntry {
    store: Arc<IncidentStore>,
    segments: usize,
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

    /// The first `need` spilled dossiers of one shard, faulted in from its
    /// `segments` and cached. The returned store may hold more (a later
    /// epoch's segments); the caller reads its first `need`. Segment loads
    /// happen under the cache lock — coarse, but faults are the cold path
    /// by design.
    fn fetch(
        &self,
        shard: usize,
        label: &str,
        segments: &[(PathBuf, usize)],
        need: usize,
    ) -> Arc<IncidentStore> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.entries.entry(shard).or_insert_with(|| CacheEntry {
            store: Arc::default(),
            segments: 0,
            touch: clock,
        });
        entry.touch = clock;
        if entry.store.len() >= need {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&entry.store);
        }
        let store = Arc::make_mut(&mut entry.store);
        while store.len() < need {
            let (path, len) = &segments[entry.segments];
            let (segment, bytes) = load_segment(path, label, *len).unwrap_or_else(|err| {
                panic!(
                    "query-plane segment {} for shard `{label}` is unreadable: {err}",
                    path.display()
                )
            });
            self.faults.fetch_add(1, Ordering::Relaxed);
            self.fault_bytes.fetch_add(bytes, Ordering::Relaxed);
            for dossier in segment.all() {
                store.insert_shared(Arc::clone(dossier));
            }
            entry.segments += 1;
        }
        let store = Arc::clone(&entry.store);
        // Evict least-recently-used entries (never the one just extended)
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

/// The two secondary indexes of one epoch, built lazily from the shard
/// prefixes on the first query that names a machine or a window (posting
/// lists over [`SnapKey`]s, each in canonical order).
struct SnapshotIndex {
    by_machine: BTreeMap<MachineId, Vec<SnapKey>>,
    by_bucket: BTreeMap<u64, Vec<SnapKey>>,
}

/// One shard's content at one epoch, read in place: the cached spilled
/// prefix, then the resident tail, each cut to the epoch's length.
struct ShardView<'a> {
    spilled: Option<Arc<IncidentStore>>,
    spilled_len: usize,
    tail: &'a [Arc<IncidentDossier>],
}

impl ShardView<'_> {
    fn prefix(&self) -> &[Arc<IncidentDossier>] {
        self.spilled
            .as_deref()
            .map_or(&[], |store| &store.all()[..self.spilled_len])
    }

    /// The epoch's dossiers in append order.
    fn dossiers(&self) -> impl Iterator<Item = &Arc<IncidentDossier>> {
        self.prefix().iter().chain(self.tail)
    }
}

/// One pinned epoch: an immutable, snapshot-isolated view of the warehouse
/// as of that epoch's publish. Cheap to hold (shard heads are `Arc`s and
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
    /// The digest, folded on the first request and served from here after:
    /// an epoch's content never changes.
    digest: OnceLock<WarehouseDigest>,
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
            digest: OnceLock::new(),
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

    pub(crate) fn label(&self, shard: usize) -> &str {
        &self.heads[shard].label
    }

    /// How many of one shard's dossiers at this epoch are spilled.
    fn spilled_len(&self, shard: usize) -> usize {
        self.shard_len(shard).min(self.heads[shard].spilled)
    }

    /// One shard's spilled prefix through the shared LRU cache. It may hold
    /// more than this epoch's [`spilled_len`](Self::spilled_len) dossiers.
    fn spilled(&self, shard: usize) -> Arc<IncidentStore> {
        let head = &self.heads[shard];
        self.cache
            .fetch(shard, &head.label, &head.segments, self.spilled_len(shard))
    }

    /// One shard's content at this epoch, in place: the spilled prefix
    /// through the shared LRU cache, the tail straight from the head.
    fn view(&self, shard: usize) -> ShardView<'_> {
        let spilled_len = self.spilled_len(shard);
        ShardView {
            spilled: (spilled_len > 0).then(|| self.spilled(shard)),
            spilled_len,
            tail: &self.heads[shard].tail.all()[..self.shard_len(shard) - spilled_len],
        }
    }

    /// One shard's content at this epoch as one store. Free for a shard
    /// that never spilled; otherwise assembled from its view.
    pub(crate) fn store(&self, shard: usize) -> Arc<IncidentStore> {
        let head = &self.heads[shard];
        if head.spilled == 0 && head.tail.len() == self.shard_len(shard) {
            return Arc::clone(&head.tail);
        }
        let mut store = IncidentStore::new();
        for dossier in self.view(shard).dossiers() {
            store.insert_shared(Arc::clone(dossier));
        }
        Arc::new(store)
    }

    fn canonical<'a>(&'a self, key: &SnapKey) -> (SimTime, &'a str, u64) {
        (key.at, self.label(key.shard), key.seq)
    }

    /// Visits every dossier visible at this epoch with its shard index:
    /// shards in creation order, each shard's prefix in append order.
    /// Shards are streamed one at a time, so a fold over spilled history
    /// stays within the cache budget. The index build and every aggregate
    /// are folds over this.
    pub(crate) fn for_each_dossier(&self, mut visit: impl FnMut(usize, &IncidentDossier)) {
        for shard in 0..self.heads.len() {
            if self.shard_len(shard) == 0 {
                continue;
            }
            for dossier in self.view(shard).dossiers() {
                visit(shard, dossier);
            }
        }
    }

    fn index(&self) -> &SnapshotIndex {
        self.index.get_or_init(|| {
            let mut by_machine: BTreeMap<MachineId, Vec<SnapKey>> = BTreeMap::new();
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
                by_bucket
                    .entry(bucket_index_of(self.bucket_width, dossier.at))
                    .or_default()
                    .push(key);
            });
            for list in by_machine.values_mut().chain(by_bucket.values_mut()) {
                list.sort_by(|a, b| self.canonical(a).cmp(&self.canonical(b)));
            }
            SnapshotIndex {
                by_machine,
                by_bucket,
            }
        })
    }

    /// Chooses an index for a query that names a machine or a window: both
    /// candidate counts are known exactly from posting-list lengths, and
    /// the shorter list wins (the machine list on a tie). Returns the
    /// choice and the canonically ordered candidate keys, or `None` when
    /// neither applies and the linear scan answers the query.
    fn plan(&self, query: &IncidentQuery) -> Option<(PlanChoice, Vec<SnapKey>)> {
        if query.machine.is_none() && query.window.is_none() {
            return None;
        }
        if query.window.is_some_and(|(from, to)| from >= to) {
            return Some((PlanChoice::TimeBucket, Vec::new()));
        }
        let index = self.index();
        let machine = query.machine.map(|machine| {
            index
                .by_machine
                .get(&machine)
                .map_or(&[][..], Vec::as_slice)
        });
        // Over-inclusive at both edges; the residual filter enforces the
        // exact half-open window. Concatenation in ascending bucket order is
        // already canonical (bucket time ranges are disjoint and increasing).
        let buckets: Option<Vec<&[SnapKey]>> = query.window.map(|(from, to)| {
            index
                .by_bucket
                .range(
                    bucket_index_of(self.bucket_width, from)
                        ..=bucket_index_of(self.bucket_width, to),
                )
                .map(|(_, keys)| keys.as_slice())
                .collect()
        });
        let candidates = |lists: &[&[SnapKey]]| lists.iter().map(|keys| keys.len()).sum::<usize>();
        match (machine, buckets) {
            (Some(keys), Some(lists)) if candidates(&lists) < keys.len() => {
                Some((PlanChoice::TimeBucket, lists.concat()))
            }
            (Some(keys), _) => Some((PlanChoice::Machine, keys.to_vec())),
            (None, lists) => lists.map(|lists| (PlanChoice::TimeBucket, lists.concat())),
        }
    }

    /// Resolves candidate keys against the shard prefixes, applies the
    /// residual filter, and builds the response (summary rows or full
    /// dossiers). A key at or past its shard's first resident seq is read
    /// from the tail in place; a shard's spilled prefix is fetched at most
    /// once per resolve, and only for a key below the tail.
    fn resolve(&self, keys: &[SnapKey], query: &IncidentQuery, full: bool) -> QueryResponse {
        let mut spilled: Vec<Option<Arc<IncidentStore>>> = vec![None; self.heads.len()];
        let mut rows = Vec::new();
        let mut dossiers = Vec::new();
        for key in keys {
            let tail = &self.heads[key.shard].tail;
            let store: &IncidentStore = match tail.all().first() {
                Some(first) if first.seq <= key.seq => tail,
                _ => spilled[key.shard].get_or_insert_with(|| self.spilled(key.shard)),
            };
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
        let (inner, full) = match query {
            FleetQuery::Incidents(inner) => (inner, false),
            FleetQuery::Dossiers(inner) => (inner, true),
            FleetQuery::Digest => return Some((QueryResponse::Digest(self.digest()), None)),
            FleetQuery::Spans(_) | FleetQuery::Alerts(_) => return None,
        };
        Some(match self.plan(inner) {
            Some((choice, keys)) => (self.resolve(&keys, inner, full), Some(choice)),
            None => (self.linear_scan(inner, full), Some(PlanChoice::Scan)),
        })
    }

    /// The brute-force oracle at this epoch, and the only one in the repo:
    /// evaluates an incidents or dossiers query by scanning every shard
    /// prefix with its own independent sort — no posting lists involved.
    /// The planner's [`PlanChoice::Scan`] runs this same scan, and the
    /// digest is a fold over the shard prefixes already, so it is the
    /// independent check of the two index paths. The planner-equivalence
    /// tests pin `answer == oracle_answer` byte-for-byte at every published
    /// epoch.
    pub fn oracle_answer(&self, query: &FleetQuery) -> Option<QueryResponse> {
        match query {
            FleetQuery::Incidents(inner) => Some(self.linear_scan(inner, false)),
            FleetQuery::Dossiers(inner) => Some(self.linear_scan(inner, true)),
            FleetQuery::Digest => Some(QueryResponse::Digest(self.digest())),
            FleetQuery::Spans(_) | FleetQuery::Alerts(_) => None,
        }
    }

    /// The scan evaluator behind [`EpochSnapshot::oracle_answer`] and the
    /// planner's [`PlanChoice::Scan`].
    fn linear_scan(&self, query: &IncidentQuery, full: bool) -> QueryResponse {
        let mut hits: Vec<(SimTime, &str, u64, &IncidentDossier)> = Vec::new();
        let views: Vec<(usize, ShardView<'_>)> = (0..self.heads.len())
            .filter(|&shard| self.shard_len(shard) > 0)
            .map(|shard| (shard, self.view(shard)))
            .collect();
        for (shard, view) in &views {
            for dossier in view.dossiers() {
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
    /// severity and category histograms. Folded once per snapshot, like the
    /// index; later requests clone the memo and fault nothing in.
    pub fn digest(&self) -> WarehouseDigest {
        self.digest.get_or_init(|| self.fold_digest()).clone()
    }

    fn fold_digest(&self) -> WarehouseDigest {
        let mut jobs: Vec<(String, u64)> = (0..self.heads.len())
            .filter(|&shard| self.shard_len(shard) > 0)
            .map(|shard| (self.label(shard).to_string(), self.shard_len(shard) as u64))
            .collect();
        jobs.sort();
        let mut severity: BTreeMap<Severity, u64> = BTreeMap::new();
        let mut category: BTreeMap<FaultCategory, u64> = BTreeMap::new();
        self.for_each_dossier(|_, dossier| {
            *severity.entry(dossier.severity()).or_default() += 1;
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

    /// Incident counts per severity class, as a fold over the shard
    /// prefixes.
    pub fn severity_counts(&self) -> BTreeMap<Severity, usize> {
        let mut counts = BTreeMap::new();
        self.for_each_dossier(|_, dossier| *counts.entry(dossier.severity()).or_default() += 1);
        counts
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

impl ServiceStats {
    /// One line of traffic telemetry: volume, latency quantiles and cache
    /// hits, faults and evictions.
    pub fn summary(&self) -> String {
        format!(
            "{} answered across {} epoch(s), p50 {} ns, p99 {} ns, cache {} hit(s) / {} \
             fault(s) / {} eviction(s)",
            self.queries,
            self.epochs,
            self.latency.quantile(0.50),
            self.latency.quantile(0.99),
            self.cache.hits,
            self.cache.faults,
            self.cache.evictions,
        )
    }
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
    /// One counter per [`PlanChoice::ALL`] entry, then the digest's.
    plan_counts: [AtomicU64; PlanChoice::ALL.len() + 1],
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
                plan_counts: std::array::from_fn(|_| AtomicU64::new(0)),
                latency_nanos: LatencyHistogram::new(),
            }),
        }
    }

    /// Publishes the warehouse's current content as the next epoch. Called
    /// by the runner after every insert batch (and once before the first
    /// event, and once after the last); costs three `Arc` clones per shard
    /// (its label, segment list and tail) and allocates no per-shard data.
    /// Returns the published epoch number.
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
        let slot = choice.map_or(PlanChoice::ALL.len(), |plan| plan as usize);
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
        let plans = PlanChoice::ALL
            .iter()
            .map(|plan| plan.label())
            .chain(["digest"])
            .zip(&self.shared.plan_counts)
            .map(|(label, count)| (label, count.load(Ordering::Relaxed)))
            .collect();
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
}

/// Zipf skew exponent for machine ranks (1.0 would be classic zipf).
const ZIPF_EXPONENT: f64 = 1.1;

impl TrafficConfig {
    /// A stream over the given universes.
    pub fn new(seed: u64, jobs: Vec<String>, machines: u32, horizon_hours: u64) -> TrafficConfig {
        TrafficConfig {
            seed,
            jobs,
            machines,
            horizon_hours: horizon_hours.max(2),
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
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 0..n {
        acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
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
        let machine_cdf = zipf_cdf(config.machines.max(1) as usize);
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

// ---------------------------------------------------------------------------
// Live traffic: one drill, one reader pool, one replay oracle
// ---------------------------------------------------------------------------

/// One live answer kept for the post-hoc replay oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveSample {
    /// Stream index of the query.
    pub index: u64,
    /// Epoch the live answer was served at.
    pub epoch: u64,
    /// The live answer, rendered.
    pub rendered: String,
}

/// What [`drive_live_traffic`] returns.
#[derive(Debug)]
pub struct LiveTraffic {
    /// The drill's report — byte-identical to a run without readers.
    pub report: FleetReport,
    /// The stream the readers drew from; replay asks the same queries.
    pub generator: TrafficGenerator,
    /// Every sampled live answer, sorted by stream index.
    pub samples: Vec<LiveSample>,
    /// Wall seconds from spawning the reader pool to its last reader's exit.
    pub readers_wall_secs: f64,
}

/// Runs `runner`'s drill on one thread while `readers` threads drain an
/// open-loop stream of `queries` queries against the runner's query
/// service, keeping every `sample_every`-th answer with its serving epoch.
///
/// The stream is a [`TrafficGenerator`] over the runner's job labels and
/// machines with a 26 h horizon, seeded by `traffic_seed`. Each reader waits
/// once for epoch 0, then pulls stream indices from a shared counter and
/// answers each against whatever epoch is latest; which reader asks which
/// query changes nothing, since query `i` is a pure function of `i`. Check
/// the samples with [`replay_samples`].
///
/// # Panics
///
/// If the runner's config carries no query service, or the drill or a
/// reader panics.
pub fn drive_live_traffic(
    runner: &FleetRunner,
    traffic_seed: u64,
    queries: u64,
    readers: usize,
    sample_every: u64,
) -> LiveTraffic {
    let config = runner.config();
    let service = config
        .query_service
        .as_ref()
        .expect("live traffic needs a query service in the runner's config");
    let labels = config.jobs.iter().map(|job| job.label.clone()).collect();
    let machines = config.total_machines() as u32;
    let generator = TrafficGenerator::new(TrafficConfig::new(traffic_seed, labels, machines, 26));
    let sample_every = sample_every.max(1);
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let (report, readers_wall_secs) = std::thread::scope(|scope| {
        let run = scope.spawn(|| runner.run());
        let started = std::time::Instant::now();
        let pool: Vec<_> = (0..readers)
            .map(|_| {
                scope.spawn(|| {
                    while service.latest().is_none() {
                        std::thread::yield_now();
                    }
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= queries {
                            break;
                        }
                        let (response, epoch) = service
                            .answer(&generator.query(index))
                            .expect("stream queries are warehouse-backed");
                        if index.is_multiple_of(sample_every) {
                            samples.lock().expect("sample lock").push(LiveSample {
                                index,
                                epoch,
                                rendered: response.render(),
                            });
                        }
                    }
                })
            })
            .collect();
        for reader in pool {
            reader.join().expect("reader thread panicked");
        }
        let readers_wall_secs = started.elapsed().as_secs_f64();
        (
            run.join().expect("drill thread panicked"),
            readers_wall_secs,
        )
    });
    let mut samples = samples.into_inner().expect("sample lock");
    samples.sort_unstable_by_key(|sample| sample.index);
    LiveTraffic {
        report,
        generator,
        samples,
        readers_wall_secs,
    }
}

/// The first live sample whose post-hoc replay did not reproduce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// Stream index of the diverging query.
    pub index: u64,
    /// Epoch its live answer was served at.
    pub epoch: u64,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query {}: post-hoc replay diverged from its live answer at epoch {}",
            self.index, self.epoch
        )
    }
}

/// The live-vs-post-hoc oracle: re-answers each sample's query from
/// [`WarehouseService::snapshot_at`] its epoch and requires the rendered
/// bytes to equal the live answer. A sample whose epoch was never published
/// counts as a mismatch.
pub fn replay_samples(
    service: &WarehouseService,
    generator: &TrafficGenerator,
    samples: &[LiveSample],
) -> Result<(), ReplayMismatch> {
    for sample in samples {
        let replayed = service
            .snapshot_at(sample.epoch)
            .and_then(|snapshot| snapshot.answer(&generator.query(sample.index)));
        if replayed.is_none_or(|(response, _)| response.render() != sample.rendered) {
            return Err(ReplayMismatch {
                index: sample.index,
                epoch: sample.epoch,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::WarehouseStorage;
    use byterobust_cluster::RootCause;
    use byterobust_incident::{IncidentCapture, ResolutionMechanism};
    use byterobust_recovery::FailoverCost;
    use std::path::Path;

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
            reproducible: true,
            capture: IncidentCapture::default(),
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
    /// combinations that force residual filtering, each with the plan it
    /// must take on [`filled`] (`None` for the digest).
    fn probes() -> Vec<(FleetQuery, Option<PlanChoice>)> {
        use PlanChoice::{Machine, Scan, TimeBucket};
        let hours = SimTime::from_hours;
        vec![
            (FleetQuery::Incidents(IncidentQuery::any()), Some(Scan)),
            (
                FleetQuery::Incidents(IncidentQuery::any().machine(MachineId(0))),
                Some(Machine),
            ),
            (
                FleetQuery::Incidents(IncidentQuery::any().machine(MachineId(3))),
                Some(Machine),
            ),
            (
                FleetQuery::Incidents(IncidentQuery::any().category(FaultCategory::Explicit)),
                Some(Scan),
            ),
            (
                FleetQuery::Incidents(IncidentQuery::any().kind(FaultKind::JobHang)),
                Some(Scan),
            ),
            (
                FleetQuery::Incidents(IncidentQuery::any().at_least(Severity::ALL[1])),
                Some(Scan),
            ),
            (
                FleetQuery::Incidents(IncidentQuery::any().window(hours(2), hours(7))),
                Some(TimeBucket),
            ),
            (
                FleetQuery::Incidents(IncidentQuery::any().window(hours(7), hours(2))),
                Some(TimeBucket),
            ),
            (
                FleetQuery::Incidents(
                    IncidentQuery::any()
                        .machine(MachineId(3))
                        .at_least(Severity::ALL[0]),
                ),
                Some(Machine),
            ),
            (
                FleetQuery::Incidents(
                    IncidentQuery::any()
                        .machine(MachineId(3))
                        .at_least(Severity::ALL[0])
                        .window(SimTime::ZERO, hours(20)),
                ),
                Some(Machine),
            ),
            // Machine 2 has three postings; hours 1..=2 hold two dossiers.
            (
                FleetQuery::Incidents(
                    IncidentQuery::any()
                        .machine(MachineId(2))
                        .window(hours(1), hours(2)),
                ),
                Some(TimeBucket),
            ),
            (
                FleetQuery::Incidents(
                    IncidentQuery::any()
                        .category(FaultCategory::Explicit)
                        .window(hours(2), hours(9)),
                ),
                Some(TimeBucket),
            ),
            (
                FleetQuery::Incidents(
                    IncidentQuery::any()
                        .machine(MachineId(2))
                        .category(FaultCategory::Explicit),
                ),
                Some(Machine),
            ),
            (
                FleetQuery::Dossiers(IncidentQuery::any().machine(MachineId(3))),
                Some(Machine),
            ),
            (
                FleetQuery::Dossiers(IncidentQuery::any().category(FaultCategory::Explicit)),
                Some(Scan),
            ),
            (FleetQuery::Digest, None),
        ]
    }

    #[test]
    fn planner_is_byte_identical_to_the_linear_scan_oracle() {
        let warehouse = filled();
        let service = WarehouseService::new(1 << 16);
        service.publish(&warehouse);
        let snapshot = service.latest().expect("published");
        for (query, plan) in probes() {
            let (planned, choice) = snapshot.answer(&query).expect("warehouse-backed arm");
            assert_eq!(choice, plan, "wrong plan for {query:?}");
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
            .map(|(q, _)| pinned.answer(q).expect("answerable").0.render())
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
            .map(|(q, _)| pinned.answer(q).expect("answerable").0.render())
            .collect();
        assert_eq!(before, after, "pinned epoch changed under later writes");

        // The latest epoch does see the new rows.
        let latest = service.latest().expect("published");
        assert!(latest.total() > pinned.total());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_digest_is_memoized_and_faults_nothing_in() {
        let dir = std::env::temp_dir().join(format!(
            "byterobust-service-test-digest-{}",
            std::process::id()
        ));
        let mut warehouse = filled_spillable(&dir);
        warehouse.flush_to_disk();
        // A budget of 8 dossiers holds one of the three spilled shards, so a
        // second fold would have to fault the others back in.
        let service = WarehouseService::new(8);
        service.publish(&warehouse);
        let snapshot = service.latest().expect("published");
        let first = snapshot.digest();
        let after_first = service.stats().cache;
        assert!(after_first.faults >= 3, "the fold faulted every shard in");
        assert_eq!(first.total, 24);
        let second = snapshot.digest();
        assert_eq!(second, first);
        let after_second = service.stats().cache;
        assert_eq!(after_second.faults, after_first.faults, "no fault-in");
        assert_eq!(after_second.hits, after_first.hits, "no cache lookup");
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
    fn replay_names_the_first_sample_with_an_edited_byte() {
        // Live samples over twelve epochs of a growing warehouse: the oracle
        // accepts them as recorded, and rejects a one-byte edit by naming
        // that sample's index and epoch.
        let mut warehouse = IncidentWarehouse::new(SimDuration::from_hours(1));
        let service = WarehouseService::new(1 << 16);
        let jobs: Vec<String> = (0..3).map(|i| format!("job-{i}")).collect();
        let generator = TrafficGenerator::new(TrafficConfig::new(11, jobs, 4, 26));
        let mut samples = Vec::new();
        for (round, index) in (0..48u64).step_by(4).enumerate() {
            let seq = round as u64 + 1;
            warehouse.insert(
                &format!("job-{}", seq % 3),
                dossier(
                    seq,
                    seq,
                    FaultKind::CudaError,
                    vec![MachineId(seq as u32 % 4)],
                ),
            );
            service.publish(&warehouse);
            let (response, epoch) = service.answer(&generator.query(index)).expect("answerable");
            samples.push(LiveSample {
                index,
                epoch,
                rendered: response.render(),
            });
        }
        assert_eq!(replay_samples(&service, &generator, &samples), Ok(()));

        let edited = 7;
        let mut tampered = samples.clone();
        let mut bytes = std::mem::take(&mut tampered[edited].rendered).into_bytes();
        let middle = bytes.len() / 2;
        bytes[middle] = if bytes[middle] == b'x' { b'y' } else { b'x' };
        tampered[edited].rendered = String::from_utf8(bytes).expect("ascii edit");
        let mismatch = replay_samples(&service, &generator, &tampered).unwrap_err();
        assert_eq!(
            mismatch,
            ReplayMismatch {
                index: samples[edited].index,
                epoch: samples[edited].epoch,
            }
        );
        assert!(mismatch.to_string().starts_with("query 28: "), "{mismatch}");

        // A later mismatch does not hide an earlier one.
        tampered[edited + 2].rendered.push(' ');
        assert_eq!(
            replay_samples(&service, &generator, &tampered)
                .unwrap_err()
                .index,
            samples[edited].index
        );
        // A sample served at an epoch that was never published fails too.
        let mut unpublished = samples[..2].to_vec();
        unpublished[1].epoch = 99;
        assert_eq!(
            replay_samples(&service, &generator, &unpublished),
            Err(ReplayMismatch {
                index: samples[1].index,
                epoch: 99,
            })
        );
    }

    #[test]
    fn service_stats_track_plans_and_latency() {
        let warehouse = filled();
        let service = WarehouseService::new(1 << 16);
        service.publish(&warehouse);
        for (query, _) in probes() {
            service.answer(&query).expect("answerable");
        }
        let stats = service.stats();
        assert_eq!(stats.queries, probes().len() as u64);
        assert_eq!(stats.latency.count(), stats.queries);
        let count =
            |plan: Option<PlanChoice>| probes().iter().filter(|(_, p)| *p == plan).count() as u64;
        let expected: Vec<(&str, u64)> = PlanChoice::ALL
            .iter()
            .map(|&plan| (plan.label(), count(Some(plan))))
            .chain([("digest", count(None))])
            .collect();
        assert_eq!(stats.plans, expected);
    }
}
