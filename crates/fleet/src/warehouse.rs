//! The cross-job incident warehouse: a write-only log of per-job store
//! shards, with optional disk-spill of cold shards.
//!
//! A fleet run produces one [`IncidentStore`] per job. The warehouse keeps
//! each store intact as an append-only *shard* and does nothing else on the
//! write path: no secondary indexes, no read machinery. Every read goes
//! through one type, [`EpochSnapshot`] — the pinned view a
//! [`WarehouseService`](crate::service::WarehouseService) publishes live, and
//! the memoized [`IncidentWarehouse::snapshot`] for post-run reads. The
//! snapshot's planner builds posting lists only when a query needs them,
//! whole-shard aggregates are folds over its shard prefixes, and
//! [`EpochSnapshot::oracle_answer`] is the one brute-force oracle.
//!
//! # Append-only shards
//!
//! Per shard, dossiers arrive in ascending `seq` with non-decreasing start
//! times (a job's incidents close in time order — asserted on insert, and
//! checked by [`IncidentWarehouse::import_json`]). The content of any shard
//! at one point in time is therefore a *prefix* of its content at every
//! later point, which is what snapshot prefix reads and the segment cache
//! rely on.
//!
//! # Disk spill
//!
//! With a [`WarehouseStorage`] attached, the warehouse keeps at most
//! `budget` dossiers resident: when an insert pushes the resident total
//! over budget, the coldest shards (least recently inserted into) are
//! written to self-describing JSON segment files under `spill_dir`
//! (`segment-NNNN.json`, via the in-repo codec in
//! `byterobust_incident::codec`) and dropped from memory. An insert into a
//! spilled shard loads it back under `&mut self`; reads never load a shard
//! into the warehouse — snapshot reads of a spilled shard go through the
//! capacity-bounded [`ShardCache`], whose budget is the same
//! `WarehouseStorage::budget`. Spill is invisible to results by
//! construction: the codec round-trip is exact, so answers and rendered
//! reports are byte-identical with spill on or off (pinned by the oracle
//! tests and the `persistence-roundtrip` CI job).
//!
//! # Copy-on-write shard heads
//!
//! Resident shards live behind `Arc<IncidentStore>`, so a snapshot is a
//! handful of `Arc` clones: the writer keeps appending through
//! [`Arc::make_mut`] (which copies the shard only while a snapshot still
//! pins the old head), readers keep the head they pinned, and neither side
//! blocks the other. The memoized snapshot is dropped by every `&mut` call
//! before it writes, so it never forces such a copy. Segment files are
//! written via a temp-file + atomic rename so a concurrent snapshot reader
//! loading a segment never observes a torn write.
//!
//! The budget is enforced at insert time; the shard currently being
//! inserted into is spilled only as a last resort, so a budget at least as
//! large as the biggest shard keeps ingestion out of write-through (a
//! smaller budget still works, it just re-encodes that shard per insert).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use byterobust_incident::codec::{check_format, CodecError, Encode, JsonValue, FORMAT_VERSION};
use byterobust_incident::{IncidentDossier, IncidentStore};
use byterobust_sim::SimDuration;

use crate::service::{EpochSnapshot, ShardCache};

/// Format header of one spilled shard segment file.
pub const SEGMENT_FORMAT: &str = "byterobust-warehouse-segment";

/// Format header of a whole-warehouse export
/// ([`IncidentWarehouse::export_json`]).
pub const WAREHOUSE_FORMAT: &str = "byterobust-warehouse";

/// Disk-spill policy for the warehouse: how many dossiers may stay resident,
/// and where cold shards are written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarehouseStorage {
    /// Maximum dossiers kept resident across all shards. Inserting past the
    /// budget spills the coldest shards to `spill_dir`. Also the budget of
    /// the segment cache behind [`IncidentWarehouse::snapshot`] reads.
    pub budget: usize,
    /// Directory for segment files (created on first spill).
    pub spill_dir: PathBuf,
}

impl WarehouseStorage {
    /// A storage policy.
    pub fn new(budget: usize, spill_dir: impl Into<PathBuf>) -> Self {
        WarehouseStorage {
            budget,
            spill_dir: spill_dir.into(),
        }
    }
}

/// Counters describing what the spill layer has done. Observability only —
/// never rendered into the deterministic report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillStats {
    /// Segment files written (rewrites of a grown shard count again).
    pub segments_written: usize,
    /// Segment loads: by an insert targeting a spilled shard, and by
    /// [`IncidentWarehouse::snapshot`] reads missing the segment cache.
    pub fault_ins: usize,
    /// Dossiers currently resident.
    pub resident_dossiers: usize,
    /// Dossiers currently only on disk.
    pub spilled_dossiers: usize,
    /// Shards currently spilled.
    pub spilled_shards: usize,
    /// Bytes written to segment files over the warehouse's lifetime.
    pub spill_bytes_written: u64,
    /// Bytes read back from segment files by fault-ins.
    pub fault_in_bytes: u64,
}

/// Where one shard's dossiers live — in the warehouse, and in every shard
/// head an epoch captured.
#[derive(Debug, Clone)]
pub(crate) enum ShardContent {
    /// The resident store (`Arc`-shared with snapshots, copy-on-write).
    Resident(Arc<IncidentStore>),
    /// The segment file the shard was spilled to. A captured head's `len`
    /// dossiers are on disk at capture time, and — because segments are
    /// only rewritten with strictly more appended dossiers — at least `len`
    /// at any later time.
    Spilled(PathBuf),
}

/// One shard's head as captured for a snapshot: the label, the dossier count
/// at capture time, and where its dossiers live. Consumed by the read path
/// in `crate::service`.
#[derive(Debug, Clone)]
pub(crate) struct ShardHead {
    pub(crate) label: String,
    pub(crate) len: usize,
    pub(crate) content: ShardContent,
}

/// One per-job shard: its head plus a recency stamp, bumped on insert. The
/// smallest stamp is the coldest shard and spills first.
#[derive(Debug, Clone)]
struct Shard {
    head: ShardHead,
    last_touch: u64,
}

impl Shard {
    fn is_resident(&self) -> bool {
        matches!(self.head.content, ShardContent::Resident(_))
    }
}

/// The write-only, sharded fleet incident log. Reads go through
/// [`IncidentWarehouse::snapshot`].
#[derive(Debug)]
pub struct IncidentWarehouse {
    bucket_width: SimDuration,
    storage: Option<WarehouseStorage>,
    shards: Vec<Shard>,
    /// Label → shard index, so the per-insert shard lookup is a map probe
    /// instead of a linear scan over every job label.
    shard_by_label: BTreeMap<String, usize>,
    /// Recency clock for the spill policy.
    touch_clock: u64,
    /// Segment files written so far.
    segments_written: usize,
    /// Bytes written to segment files so far.
    spill_bytes_written: u64,
    /// Spilled shards loaded back by inserts, and the bytes they read.
    insert_fault_ins: usize,
    insert_fault_in_bytes: u64,
    /// The segment cache behind [`IncidentWarehouse::snapshot`] reads.
    cache: Arc<ShardCache>,
    /// The memoized snapshot of the current content; every `&mut` call
    /// drops it before writing.
    snapshot: OnceLock<EpochSnapshot>,
}

impl Clone for IncidentWarehouse {
    /// A clone is a fully in-memory copy: every spilled shard is read in
    /// first, and the clone carries neither segment paths nor a storage
    /// policy. Sharing either would be corruption waiting to happen — two
    /// warehouses writing the same `segment-NNNN.json` files would overwrite
    /// each other's segments.
    fn clone(&self) -> Self {
        let snapshot = self.snapshot();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| Shard {
                head: ShardHead {
                    label: shard.head.label.clone(),
                    len: shard.head.len,
                    content: ShardContent::Resident(snapshot.store(index)),
                },
                last_touch: shard.last_touch,
            })
            .collect();
        let mut clone = Self::build(self.bucket_width, None);
        clone.shards = shards;
        clone.shard_by_label = self.shard_by_label.clone();
        clone.touch_clock = self.touch_clock;
        clone
    }
}

impl IncidentWarehouse {
    /// An empty warehouse whose snapshots bucket incident start times at
    /// `bucket_width` granularity. Fully in-memory: shards never spill.
    pub fn new(bucket_width: SimDuration) -> Self {
        Self::build(bucket_width, None)
    }

    /// An empty warehouse that spills cold shards to disk per `storage`.
    pub fn with_storage(bucket_width: SimDuration, storage: WarehouseStorage) -> Self {
        Self::build(bucket_width, Some(storage))
    }

    fn build(bucket_width: SimDuration, storage: Option<WarehouseStorage>) -> Self {
        assert!(
            !bucket_width.is_zero(),
            "time-bucket width must be positive"
        );
        let cache_budget = storage.as_ref().map_or(0, |storage| storage.budget);
        IncidentWarehouse {
            bucket_width,
            storage,
            shards: Vec::new(),
            shard_by_label: BTreeMap::new(),
            touch_clock: 0,
            segments_written: 0,
            spill_bytes_written: 0,
            insert_fault_ins: 0,
            insert_fault_in_bytes: 0,
            cache: Arc::new(ShardCache::new(cache_budget)),
            snapshot: OnceLock::new(),
        }
    }

    /// The time-bucket width in effect.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket_width
    }

    /// The disk-spill policy, if one is attached.
    pub fn storage(&self) -> Option<&WarehouseStorage> {
        self.storage.as_ref()
    }

    /// What the spill layer has done so far.
    pub fn spill_stats(&self) -> SpillStats {
        let reads = self.cache.stats();
        let mut stats = SpillStats {
            segments_written: self.segments_written,
            fault_ins: self.insert_fault_ins + reads.faults as usize,
            spill_bytes_written: self.spill_bytes_written,
            fault_in_bytes: self.insert_fault_in_bytes + reads.fault_bytes,
            ..SpillStats::default()
        };
        for shard in &self.shards {
            if shard.is_resident() {
                stats.resident_dossiers += shard.head.len;
            } else {
                stats.spilled_dossiers += shard.head.len;
                stats.spilled_shards += 1;
            }
        }
        stats
    }

    /// Captures every shard's head: resident shards as `Arc` clones
    /// (copy-on-write — later inserts copy the shard, the capture keeps
    /// this head), spilled shards as their segment path. Never touches disk.
    pub(crate) fn epoch_heads(&self) -> Vec<ShardHead> {
        self.shards.iter().map(|shard| shard.head.clone()).collect()
    }

    /// The snapshot every post-run read goes through: the current content,
    /// built once from the shard heads and memoized until the next `&mut`
    /// call. Spilled shards are read through the segment
    /// cache, never loaded into the warehouse. Its epoch number is 0: it is
    /// not part of any service's publish sequence.
    pub fn snapshot(&self) -> &EpochSnapshot {
        self.snapshot.get_or_init(|| {
            let heads = self.epoch_heads();
            let lens = heads.iter().map(|head| head.len).collect();
            EpochSnapshot::new(
                0,
                self.bucket_width,
                Arc::new(heads),
                lens,
                Arc::clone(&self.cache),
            )
        })
    }

    fn shard_index(&mut self, job: &str) -> usize {
        if let Some(&index) = self.shard_by_label.get(job) {
            return index;
        }
        self.shards.push(Shard {
            head: ShardHead {
                label: job.to_string(),
                len: 0,
                content: ShardContent::Resident(Arc::new(IncidentStore::new())),
            },
            last_touch: self.touch_clock,
        });
        let index = self.shards.len() - 1;
        self.shard_by_label.insert(job.to_string(), index);
        index
    }

    /// The path a shard's segment file lives at.
    fn segment_path(dir: &Path, shard_index: usize) -> PathBuf {
        dir.join(format!("segment-{shard_index:04}.json"))
    }

    /// Mutable access to one shard's store, loading it from its segment
    /// file first if it is spilled. While a snapshot still pins the current
    /// head, `Arc::make_mut` copies the shard and the snapshot keeps the old
    /// head — the copy-on-write that makes snapshot reads torn-state-free.
    fn store_mut(&mut self, index: usize) -> &mut IncidentStore {
        let head = &mut self.shards[index].head;
        if let ShardContent::Spilled(path) = &head.content {
            let (store, bytes) = load_segment(path, &head.label, head.len).unwrap_or_else(|err| {
                panic!(
                    "warehouse segment {} for shard `{}` is unreadable: {err}",
                    path.display(),
                    head.label
                )
            });
            self.insert_fault_ins += 1;
            self.insert_fault_in_bytes += bytes;
            head.content = ShardContent::Resident(Arc::new(store));
        }
        match &mut head.content {
            ShardContent::Resident(store) => Arc::make_mut(store),
            ShardContent::Spilled(_) => unreachable!("the shard was just loaded"),
        }
    }

    /// Spills the coldest resident shards until the resident dossier total
    /// fits the budget again. No-op without attached storage.
    fn enforce_budget(&mut self) {
        let Some(storage) = self.storage.clone() else {
            return;
        };
        let mut resident: usize = self
            .shards
            .iter()
            .filter(|shard| shard.is_resident())
            .map(|shard| shard.head.len)
            .sum();
        while resident > storage.budget {
            // Coldest resident, non-empty shard first (empty shards carry no
            // dossiers, so spilling them would not reduce residency) — but
            // the shard that was just inserted into (the one carrying the
            // current clock stamp) only as a last resort. Evicting the
            // insert target eagerly would turn a hot shard bigger than the
            // budget into write-through: every insert re-decoding and
            // re-encoding the whole segment.
            let candidate = |exclude_current: bool| {
                self.shards
                    .iter()
                    .enumerate()
                    .filter(|(_, shard)| shard.is_resident() && shard.head.len > 0)
                    .filter(|(_, shard)| !exclude_current || shard.last_touch != self.touch_clock)
                    .min_by_key(|(_, shard)| shard.last_touch)
                    .map(|(index, _)| index)
            };
            let Some(victim) = candidate(true).or_else(|| candidate(false)) else {
                return;
            };
            resident -= self.shards[victim].head.len;
            self.spill_shard(victim, &storage.spill_dir);
        }
    }

    /// Writes one resident shard's segment file and drops the store.
    fn spill_shard(&mut self, index: usize, dir: &Path) {
        let head = &self.shards[index].head;
        let ShardContent::Resident(store) = &head.content else {
            return;
        };
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|err| panic!("cannot create spill dir {}: {err}", dir.display()));
        let path = Self::segment_path(dir, index);
        let document = render_segment(&head.label, store);
        self.spill_bytes_written += document.len() as u64;
        // Temp-file + atomic rename: a snapshot reader loading this segment
        // concurrently sees either the old complete file or the new complete
        // file, never a torn write.
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, document)
            .unwrap_or_else(|err| panic!("cannot write segment {}: {err}", tmp.display()));
        std::fs::rename(&tmp, &path)
            .unwrap_or_else(|err| panic!("cannot publish segment {}: {err}", path.display()));
        self.segments_written += 1;
        self.shards[index].head.content = ShardContent::Spilled(path);
    }

    /// Spills every non-empty resident shard to its segment file regardless
    /// of budget, e.g. to persist a finished run's warehouse into its run
    /// directory, or to set up a deliberately cold warehouse for latency
    /// measurements. No-op without attached storage. Returns the number of
    /// shards dropped from memory.
    pub fn flush_to_disk(&mut self) -> usize {
        self.snapshot.take();
        let Some(storage) = self.storage.clone() else {
            return 0;
        };
        let mut flushed = 0;
        for index in 0..self.shards.len() {
            if self.shards[index].is_resident() && self.shards[index].head.len > 0 {
                self.spill_shard(index, &storage.spill_dir);
                flushed += 1;
            }
        }
        flushed
    }

    /// Appends one closed incident to the named job's shard. Per shard,
    /// dossiers must arrive in ascending `seq` with non-decreasing start
    /// times (asserted).
    pub fn insert(&mut self, job: &str, dossier: IncidentDossier) {
        self.insert_shared(job, Arc::new(dossier));
    }

    /// [`insert`](IncidentWarehouse::insert) for a dossier that already lives
    /// behind an `Arc` (typically the job's own incident store): the shard
    /// keeps a reference to the same allocation instead of a deep copy.
    pub fn insert_shared(&mut self, job: &str, dossier: Arc<IncidentDossier>) {
        self.snapshot.take();
        let index = self.shard_index(job);
        let store = self.store_mut(index);
        debug_assert!(
            store
                .all()
                .last()
                .is_none_or(|prev| prev.seq < dossier.seq && prev.at <= dossier.at),
            "per-shard insertions must be in ascending seq / non-decreasing time order"
        );
        store.insert_shared(dossier);
        self.shards[index].head.len += 1;
        self.touch_clock += 1;
        self.shards[index].last_touch = self.touch_clock;
        self.enforce_budget();
    }

    /// Ingests a whole per-job store (e.g. from a finished
    /// `byterobust_core::JobReport`'s `incident_store`).
    pub fn ingest_store(&mut self, job: &str, store: &IncidentStore) {
        for dossier in store.all() {
            self.insert_shared(job, Arc::clone(dossier));
        }
    }

    /// The per-job shard for a label, if that job has any incidents, read
    /// through [`IncidentWarehouse::snapshot`].
    pub fn shard(&self, job: &str) -> Option<Arc<IncidentStore>> {
        self.shard_by_label
            .get(job)
            .map(|&index| self.snapshot().store(index))
    }

    /// Total incidents across every shard (resident or spilled; cached
    /// lengths, no read).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.head.len).sum()
    }

    /// Whether the warehouse holds no incidents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fleet-wide attribution accuracy in `[0, 1]` (1.0 when empty): a fold
    /// over [`IncidentWarehouse::snapshot`].
    pub fn attribution_accuracy(&self) -> f64 {
        self.snapshot().attribution_accuracy()
    }

    /// Exports the whole warehouse — bucket width plus every shard's store —
    /// as one self-describing JSON document. Shards appear in insertion
    /// order; shard order does not affect any answer (pinned by the
    /// merge-determinism tests).
    pub fn export_json(&self) -> String {
        let snapshot = self.snapshot();
        let shards = (0..self.shards.len())
            .map(|index| {
                JsonValue::object(vec![
                    ("job", JsonValue::Str(self.shards[index].head.label.clone())),
                    ("store", snapshot.store(index).encode()),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("format", JsonValue::Str(WAREHOUSE_FORMAT.to_string())),
            ("version", JsonValue::U64(FORMAT_VERSION)),
            (
                "bucket_width_ms",
                JsonValue::U64(self.bucket_width.as_millis()),
            ),
            ("shards", JsonValue::Array(shards)),
        ])
        .render()
    }

    /// Imports a warehouse previously written by
    /// [`IncidentWarehouse::export_json`]. The imported warehouse is fully
    /// in-memory (attach storage by re-ingesting into
    /// [`IncidentWarehouse::with_storage`] if spill is wanted). Never panics
    /// on corrupt input: a repeated job label, or a shard whose dossiers are
    /// not in ascending `seq` with non-decreasing start times, is an error
    /// naming the shard (and the offending seq), since either would break
    /// the append-only prefix contract snapshots rely on.
    pub fn import_json(text: &str) -> Result<IncidentWarehouse, CodecError> {
        let document = JsonValue::parse(text)?;
        check_format(&document, WAREHOUSE_FORMAT)?;
        let bucket_ms: u64 = document.field("bucket_width_ms")?;
        if bucket_ms == 0 {
            return Err(CodecError::other(
                "bucket_width_ms must be positive".to_string(),
            ));
        }
        let mut warehouse = IncidentWarehouse::new(SimDuration::from_millis(bucket_ms));
        let shards: Vec<(String, IncidentStore)> = match document.get("shards") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|item| {
                    let job: String = item.field("job")?;
                    let store: IncidentStore = item.field("store")?;
                    Ok((job, store))
                })
                .collect::<Result<_, CodecError>>()?,
            _ => {
                return Err(CodecError::other(
                    "missing or non-array `shards`".to_string(),
                ))
            }
        };
        let mut seen = BTreeSet::new();
        for (job, store) in &shards {
            if !seen.insert(job.as_str()) {
                return Err(CodecError::other(format!(
                    "shard `{job}` appears more than once"
                )));
            }
            if let Some(pair) = store
                .all()
                .windows(2)
                .find(|pair| pair[0].seq >= pair[1].seq || pair[0].at > pair[1].at)
            {
                return Err(CodecError::other(format!(
                    "shard `{job}`: dossier seq {} (at {}) does not follow seq {} (at {}) \
                     in ascending seq / non-decreasing time order",
                    pair[1].seq, pair[1].at, pair[0].seq, pair[0].at
                )));
            }
            warehouse.ingest_store(job, store);
        }
        Ok(warehouse)
    }

    /// A deterministic, human-diffable rendering of the warehouse's *entire*
    /// contents: fleet-wide aggregates, then every shard (sorted by label)
    /// with every dossier and its full capture. Two warehouses render the
    /// same digest iff their content is identical, which makes the digest
    /// the byte-for-byte artifact the export→import→render CI round-trip
    /// diffs.
    pub fn render_digest(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "==== IncidentWarehouse digest: {} incidents across {} shards (bucket width {}) ====",
            snapshot.total(),
            self.shards.len(),
            self.bucket_width,
        );
        for (severity, count) in snapshot.severity_counts() {
            let _ = writeln!(out, "  {:>5}: {}", severity.label(), count);
        }
        for (category, count) in snapshot.category_counts() {
            let _ = writeln!(out, "  {category:?}: {count}");
        }
        let _ = writeln!(
            out,
            "  attribution accuracy: {:.6}",
            snapshot.attribution_accuracy()
        );
        for (machine, count) in snapshot.machine_incident_counts() {
            let _ = writeln!(out, "  {machine}: {count} incident(s)");
        }
        for job in snapshot.jobs() {
            let store = self.shard(job).expect("listed job has a shard");
            let _ = writeln!(out, "\n-- shard {job}: {} incident(s)", store.len());
            for dossier in store.all() {
                let evicted: Vec<String> = dossier.evicted.iter().map(|m| m.to_string()).collect();
                let _ = writeln!(
                    out,
                    "  #{} at {} {:?} {} {} {:?}->{:?} evicted=[{}] over={} resumed={}",
                    dossier.seq,
                    dossier.at,
                    dossier.kind,
                    dossier.classification.severity.label(),
                    dossier.classification.rec_code,
                    dossier.root_cause,
                    dossier.concluded_cause,
                    evicted.join(", "),
                    dossier.over_evicted,
                    dossier.resumed_step,
                );
                for entry in dossier.capture.context.iter() {
                    let _ = writeln!(out, "    ctx {entry}");
                }
                for entry in &dossier.capture.window {
                    let _ = writeln!(out, "    win {entry}");
                }
            }
        }
        out
    }
}

impl Default for IncidentWarehouse {
    /// One-hour time buckets.
    fn default() -> Self {
        IncidentWarehouse::new(SimDuration::from_hours(1))
    }
}

/// Renders one shard's segment document.
fn render_segment(job: &str, store: &IncidentStore) -> String {
    JsonValue::object(vec![
        ("format", JsonValue::Str(SEGMENT_FORMAT.to_string())),
        ("version", JsonValue::U64(FORMAT_VERSION)),
        ("job", JsonValue::Str(job.to_string())),
        ("store", store.encode()),
    ])
    .render()
}

/// Loads and validates one shard's segment document, which must hold
/// exactly `expected_len` dossiers (the insert path's view). Returns the
/// store and the bytes read.
fn load_segment(
    path: &Path,
    job: &str,
    expected_len: usize,
) -> Result<(IncidentStore, u64), CodecError> {
    let (store, bytes) = load_segment_at_least(path, job, expected_len)?;
    if store.len() != expected_len {
        return Err(CodecError::other(format!(
            "segment holds {} dossiers, the shard expects {expected_len}",
            store.len()
        )));
    }
    Ok((store, bytes))
}

/// Loads one shard's segment document, requiring *at least* `min_len`
/// dossiers instead of an exact count. The segment cache uses this: a
/// segment may legitimately have been rewritten with more appended dossiers
/// since the snapshot that referenced it was captured (per-shard content
/// only ever grows), and the snapshot's exact content is the first
/// `min_len` dossiers of whatever is on disk. Returns the store and the
/// bytes read.
pub(crate) fn load_segment_at_least(
    path: &Path,
    job: &str,
    min_len: usize,
) -> Result<(IncidentStore, u64), CodecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| CodecError::other(format!("cannot read segment: {err}")))?;
    let document = JsonValue::parse(&text)?;
    check_format(&document, SEGMENT_FORMAT)?;
    let segment_job: String = document.field("job")?;
    if segment_job != job {
        return Err(CodecError::other(format!(
            "segment belongs to job `{segment_job}`, expected `{job}`"
        )));
    }
    let store: IncidentStore = document.field("store")?;
    if store.len() < min_len {
        return Err(CodecError::other(format!(
            "segment holds {} dossiers, the snapshot expects at least {min_len}",
            store.len()
        )));
    }
    Ok((store, text.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{FleetQuery, QueryResponse};
    use byterobust_cluster::{FaultCategory, FaultKind, MachineId, RootCause};
    use byterobust_incident::{
        ClassificationInput, ClassificationMatrix, IncidentCapture, IncidentQuery,
        ResolutionMechanism, Severity,
    };
    use byterobust_recovery::FailoverCost;
    use byterobust_sim::SimTime;

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

    fn warehouse() -> IncidentWarehouse {
        let mut w = IncidentWarehouse::default();
        fill(&mut w);
        w
    }

    fn fill(w: &mut IncidentWarehouse) {
        w.insert(
            "alpha",
            dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]),
        );
        w.insert(
            "alpha",
            dossier(2, 5, FaultKind::JobHang, vec![MachineId(4)]),
        );
        w.insert(
            "beta",
            dossier(1, 2, FaultKind::CudaError, vec![MachineId(3)]),
        );
        w.insert(
            "beta",
            dossier(2, 30, FaultKind::CodeDataAdjustment, vec![]),
        );
    }

    /// The (job, seq) ids of a planner answer, in answer order.
    fn ids(w: &IncidentWarehouse, query: IncidentQuery) -> Vec<(String, u64)> {
        match w.snapshot().answer(&FleetQuery::Incidents(query)) {
            Some((QueryResponse::Incidents(rows), _)) => {
                rows.into_iter().map(|row| (row.job, row.seq)).collect()
            }
            other => panic!("incidents arm answered {other:?}"),
        }
    }

    /// The rendered planner answer, asserted equal to the oracle's.
    fn checked(w: &IncidentWarehouse, query: IncidentQuery) -> String {
        let query = FleetQuery::Dossiers(query);
        let (planned, _) = w.snapshot().answer(&query).expect("warehouse-backed arm");
        let oracle = w
            .snapshot()
            .oracle_answer(&query)
            .expect("warehouse-backed arm");
        assert_eq!(
            planned.render(),
            oracle.render(),
            "plan/oracle drift on {query:?}"
        );
        planned.render()
    }

    /// A unique spill dir under the target-adjacent temp root; removed best
    /// effort by the caller.
    fn spill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "byterobust-warehouse-test-{tag}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn machine_index_spans_jobs() {
        let w = warehouse();
        assert_eq!(
            ids(&w, IncidentQuery::any().machine(MachineId(3))),
            vec![("alpha".to_string(), 1), ("beta".to_string(), 1)]
        );
        assert_eq!(w.snapshot().machine_incident_counts()[&MachineId(3)], 2);
        assert!(ids(&w, IncidentQuery::any().machine(MachineId(99))).is_empty());
    }

    #[test]
    fn category_and_severity_indexes() {
        let w = warehouse();
        let manual = IncidentQuery::any().category(FaultCategory::ManualRestart);
        assert_eq!(ids(&w, manual).len(), 1);
        assert_eq!(w.snapshot().category_counts()[&FaultCategory::Explicit], 2);
        let severe = ids(&w, IncidentQuery::any().at_least(Severity::Sev3));
        assert_eq!(severe.len(), 3, "evicting incidents are at least Sev3");
    }

    #[test]
    fn window_uses_buckets_but_keeps_half_open_semantics() {
        let w = warehouse();
        let window = IncidentQuery::any().window(SimTime::from_hours(1), SimTime::from_hours(5));
        assert_eq!(
            ids(&w, window),
            vec![("alpha".to_string(), 1), ("beta".to_string(), 1)]
        );
        let empty = IncidentQuery::any().window(SimTime::from_hours(3), SimTime::from_hours(3));
        assert!(ids(&w, empty).is_empty());
    }

    #[test]
    fn every_indexed_query_matches_the_linear_scan() {
        let w = warehouse();
        let queries = [
            IncidentQuery::any(),
            IncidentQuery::any().machine(MachineId(3)),
            IncidentQuery::any().machine(MachineId(4)),
            IncidentQuery::any().category(FaultCategory::Explicit),
            IncidentQuery::any().at_least(Severity::Sev2),
            IncidentQuery::any().at_least(Severity::Sev4),
            IncidentQuery::any().window(SimTime::ZERO, SimTime::from_hours(6)),
            IncidentQuery::any()
                .machine(MachineId(3))
                .kind(FaultKind::CudaError),
        ];
        for query in queries {
            checked(&w, query);
        }
    }

    #[test]
    fn merge_order_does_not_change_results() {
        let mut a = IncidentWarehouse::default();
        let mut b = IncidentWarehouse::default();
        let alpha = [
            dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]),
            dossier(2, 5, FaultKind::JobHang, vec![MachineId(4)]),
        ];
        let beta = [dossier(1, 2, FaultKind::CudaError, vec![MachineId(3)])];
        for d in &alpha {
            a.insert("alpha", d.clone());
        }
        for d in &beta {
            a.insert("beta", d.clone());
        }
        for d in &beta {
            b.insert("beta", d.clone());
        }
        for d in &alpha {
            b.insert("alpha", d.clone());
        }
        assert_eq!(ids(&a, IncidentQuery::any()), ids(&b, IncidentQuery::any()));
        let machine = IncidentQuery::any().machine(MachineId(3));
        assert_eq!(ids(&a, machine), ids(&b, machine));
        assert_eq!(a.snapshot().jobs(), b.snapshot().jobs());
    }

    #[test]
    fn spilled_warehouse_answers_queries_identically() {
        let dir = spill_dir("queries");
        let memory = warehouse();
        let mut spilled = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(1, &dir),
        );
        fill(&mut spilled);
        // A 1-dossier budget with two 2-dossier shards must have spilled.
        let stats = spilled.spill_stats();
        assert!(
            stats.segments_written >= 1,
            "budget forces a spill: {stats:?}"
        );
        assert!(stats.spilled_shards >= 1);
        assert_eq!(spilled.len(), memory.len(), "len uses cached counts");
        let spilled_shards = stats.spilled_shards;

        let queries = [
            IncidentQuery::any(),
            IncidentQuery::any().machine(MachineId(3)),
            IncidentQuery::any().category(FaultCategory::Explicit),
            IncidentQuery::any().at_least(Severity::Sev3),
            IncidentQuery::any().window(SimTime::ZERO, SimTime::from_hours(6)),
        ];
        for query in queries {
            assert_eq!(
                checked(&spilled, query),
                checked(&memory, query),
                "spill on/off must agree on {query:?}"
            );
        }
        // Reads went through the segment cache: bytes moved both ways, and
        // no read made a shard resident in the warehouse again.
        let stats = spilled.spill_stats();
        assert!(stats.fault_ins >= 1, "reads loaded spilled segments");
        assert!(stats.spill_bytes_written > 0);
        assert!(stats.fault_in_bytes > 0);
        assert_eq!(stats.spilled_shards, spilled_shards);
        assert_eq!(
            memory.spill_stats().fault_ins,
            0,
            "nothing spills in memory"
        );
        // Full-content identity, not just ids.
        assert_eq!(spilled.render_digest(), memory.render_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_keeps_aggregates_and_digest_stable() {
        let dir = spill_dir("aggregates");
        let memory = warehouse();
        let mut spilled = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(0, &dir),
        );
        fill(&mut spilled);
        // Budget 0: everything non-resident after each insert.
        assert_eq!(spilled.spill_stats().resident_dossiers, 0);
        let (s, m) = (spilled.snapshot(), memory.snapshot());
        assert_eq!(s.severity_counts(), m.severity_counts());
        assert_eq!(s.category_counts(), m.category_counts());
        assert_eq!(s.machine_incident_counts(), m.machine_incident_counts());
        assert_eq!(
            s.resolution_time_by_symptom(),
            m.resolution_time_by_symptom()
        );
        assert_eq!(s.attribution_stats(), m.attribution_stats());
        assert_eq!(spilled.render_digest(), memory.render_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_clean_faulted_in_shard_respills_without_a_rewrite() {
        let dir = spill_dir("clean");
        let mut w = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(0, &dir),
        );
        w.insert(
            "alpha",
            dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]),
        );
        let written_after_insert = w.spill_stats().segments_written;
        // A read faults alpha in through the segment cache, not into the
        // warehouse: it stays spilled…
        assert_eq!(ids(&w, IncidentQuery::any().machine(MachineId(3))).len(), 1);
        assert_eq!(w.spill_stats().fault_ins, 1);
        assert_eq!(w.spill_stats().resident_dossiers, 0);
        // …so budget enforcement through an insert into another shard never
        // rewrites it; only beta's new segment is written.
        w.insert(
            "beta",
            dossier(1, 2, FaultKind::JobHang, vec![MachineId(4)]),
        );
        let stats = w.spill_stats();
        assert_eq!(stats.resident_dossiers, 0);
        assert_eq!(
            stats.segments_written,
            written_after_insert + 1,
            "clean shard must not be rewritten"
        );
        // An insert into the spilled shard loads it under `&mut` and writes
        // it again, grown by one.
        w.insert(
            "alpha",
            dossier(2, 3, FaultKind::JobHang, vec![MachineId(3)]),
        );
        let stats = w.spill_stats();
        assert_eq!(stats.fault_ins, 2, "the insert loaded alpha's segment");
        assert_eq!(stats.segments_written, written_after_insert + 2);
        assert_eq!(ids(&w, IncidentQuery::any().machine(MachineId(3))).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_of_a_spilled_warehouse_share_no_segment_files() {
        let dir = spill_dir("clone");
        let mut original = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(0, &dir),
        );
        fill(&mut original);
        assert!(original.spill_stats().spilled_shards >= 1);
        let copy = original.clone();
        let baseline = copy.render_digest();
        // The clone is fully resident and detached from disk.
        assert_eq!(copy.storage(), None);
        assert_eq!(copy.spill_stats().spilled_dossiers, 0);
        // Mutating the original rewrites its segment files; the clone must
        // not notice — it reads nothing from disk.
        original.insert(
            "alpha",
            dossier(9, 40, FaultKind::JobHang, vec![MachineId(8)]),
        );
        std::fs::remove_dir_all(&dir).expect("segments are on disk");
        assert_eq!(copy.render_digest(), baseline);
        assert_eq!(ids(&copy, IncidentQuery::any()).len(), 4);
    }

    #[test]
    fn the_memoized_snapshot_follows_every_write() {
        let mut w = warehouse();
        assert_eq!(w.snapshot().total(), 4);
        w.insert(
            "gamma",
            dossier(1, 40, FaultKind::JobHang, vec![MachineId(8)]),
        );
        assert_eq!(w.snapshot().total(), 5);
        assert_eq!(w.snapshot().jobs(), vec!["alpha", "beta", "gamma"]);
        assert_eq!(ids(&w, IncidentQuery::any().machine(MachineId(8))).len(), 1);
    }

    #[test]
    fn export_import_round_trips_the_whole_warehouse() {
        let w = warehouse();
        let exported = w.export_json();
        let imported = IncidentWarehouse::import_json(&exported).expect("import succeeds");
        assert_eq!(imported.render_digest(), w.render_digest());
        assert_eq!(imported.export_json(), exported, "export is a fixed point");
        assert_eq!(imported.bucket_width(), w.bucket_width());
        assert_eq!(
            ids(&imported, IncidentQuery::any()),
            ids(&w, IncidentQuery::any())
        );

        // Corrupt exports fail with an error, never a panic.
        assert!(IncidentWarehouse::import_json(&exported[..exported.len() / 3]).is_err());
        assert!(IncidentWarehouse::import_json("{}").is_err());
        let foreign = exported.replace(WAREHOUSE_FORMAT, "not-a-warehouse");
        assert!(IncidentWarehouse::import_json(&foreign).is_err());
    }

    /// A warehouse export document over hand-built `(job, store)` shards,
    /// bypassing the insert path's ordering assertion.
    fn export_of(shards: &[(&str, &IncidentStore)]) -> String {
        let shards = shards
            .iter()
            .map(|(job, store)| {
                JsonValue::object(vec![
                    ("job", JsonValue::Str(job.to_string())),
                    ("store", store.encode()),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("format", JsonValue::Str(WAREHOUSE_FORMAT.to_string())),
            ("version", JsonValue::U64(FORMAT_VERSION)),
            ("bucket_width_ms", JsonValue::U64(3_600_000)),
            ("shards", JsonValue::Array(shards)),
        ])
        .render()
    }

    #[test]
    fn import_rejects_exports_that_break_the_append_order() {
        let mut alpha = IncidentStore::new();
        alpha.insert(dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]));
        alpha.insert(dossier(2, 5, FaultKind::JobHang, vec![MachineId(4)]));
        assert!(IncidentWarehouse::import_json(&export_of(&[("alpha", &alpha)])).is_ok());

        // A repeated job label: the doubled `shards` array of a real export.
        let doubled = export_of(&[("alpha", &alpha), ("alpha", &alpha)]);
        let err = IncidentWarehouse::import_json(&doubled).expect_err("duplicate shard");
        assert!(err.to_string().contains("`alpha`"), "{err}");

        // A repeated seq inside one shard.
        let mut repeated = alpha.clone();
        repeated.insert(dossier(2, 6, FaultKind::JobHang, vec![]));
        let err = IncidentWarehouse::import_json(&export_of(&[("alpha", &repeated)]))
            .expect_err("duplicate seq");
        assert!(err.to_string().contains("seq 2"), "{err}");

        // A later seq that starts before its predecessor.
        let mut backwards = alpha.clone();
        backwards.insert(dossier(3, 4, FaultKind::CudaError, vec![]));
        let err = IncidentWarehouse::import_json(&export_of(&[("beta", &backwards)]))
            .expect_err("time runs backwards");
        assert!(
            err.to_string().contains("`beta`") && err.to_string().contains("seq 3"),
            "{err}"
        );
    }

    #[test]
    fn corrupted_segment_faults_are_detected() {
        let dir = spill_dir("corrupt");
        let mut w = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(0, &dir),
        );
        w.insert(
            "alpha",
            dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]),
        );
        let segment = IncidentWarehouse::segment_path(&dir, 0);
        let text = std::fs::read_to_string(&segment).expect("segment exists");
        // Direct decode of a truncated segment is an error, not a panic.
        assert!(load_segment(&segment, "alpha", 1).is_ok());
        std::fs::write(&segment, &text[..text.len() / 2]).unwrap();
        assert!(load_segment(&segment, "alpha", 1).is_err());
        // Wrong-job and wrong-length segments are rejected too.
        std::fs::write(&segment, &text).unwrap();
        assert!(load_segment(&segment, "beta", 1).is_err());
        assert!(load_segment(&segment, "alpha", 2).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
