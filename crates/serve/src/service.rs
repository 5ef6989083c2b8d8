//! The sharded ingest/serving layer: per-shard aggregators behind
//! lock-free rings, a watermark→publish→merge snapshot cycle, and
//! backpressure accounting.
//!
//! # Determinism invariant
//!
//! The merged snapshot is **byte-identical for any shard count and any
//! producer interleaving**, and identical to what one thread calling
//! [`ProfileDatabase::add`] over the whole stream would build. Two
//! facts make that true:
//!
//! 1. Profile aggregation is a *sum* over samples — commutative and
//!    associative per PC (property-tested in `profileme-core`), so
//!    neither the order in which samples reach a shard *nor which
//!    shard they reach* can matter. That freedom is load-bearing:
//!    batched ingest routes whole batches round-robin (zero routing
//!    work, zero copies) while per-item ingest keeps PC-hash routing,
//!    and both land on the same merged bytes.
//! 2. The final merge folds shard databases in shard-index order on
//!    one thread, and addition of the per-PC sums is order-insensitive
//!    anyway.
//!
//! Supervision (see [`supervise`](crate::supervise)) preserves the
//! invariant across worker panics: whenever
//! [`IngestStats::lost`] is zero, the recovered snapshot is still
//! byte-identical to direct aggregation; when samples *were* lost —
//! to deadline expiry, a crashed shard's closed ring, or a
//! twice-panicking message — every loss is counted exactly, per
//! class, in [`IngestStats`].
//!
//! The service is pure mechanism: it never thins, sheds, or retries.
//! Admission policy lives in [`FleetService`](crate::FleetService)
//! alone; single-tenant degradation is `FleetConfig::uniform(1, quota)`.
//!
//! [`ProfileDatabase::add`]: profileme_core::ProfileDatabase::add

use crate::faults::ActiveFaults;
use crate::ring::{RingBuffer, TryPushError};
use crate::store::{ProfileStore, StoreConfig, StoreStats};
use crate::supervise::{
    run_worker, Msg, Publication, ShardCounters, SnapShared, SuperviseConfig, Work, WorkerCtx,
};
use profileme_core::{
    PairProfileDatabase, PairedSample, PcProfile, ProfileDatabase, ProfileError, ProfileField,
    Sample, TopNIndex, WireFormat,
};
use profileme_isa::Pc;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Anything the service can shard and aggregate: an empty accumulator
/// that absorbs items one at a time and merges with its peers.
///
/// Implementations must make `absorb` a commutative, associative
/// accumulation (sums, maxes over disjoint keys, …) for the service's
/// shard-count-independence invariant to hold, and the checkpoint
/// round-trip must be exact (`from_checkpoint_bytes(checkpoint_bytes(x))`
/// behaves identically to `x`) for crash recovery to preserve it.
pub trait ShardAggregate: Clone + Send + 'static {
    /// The streamed item.
    type Item: Send + 'static;

    /// The query index the service maintains over its materialized
    /// merged view on the delta plane, refreshed with exactly the rows
    /// each applied delta touched. Use `()` when no index is wanted.
    type ViewIndex: ViewIndex<Self>;

    /// Accumulates one item.
    fn absorb(&mut self, item: &Self::Item);

    /// Accumulates a peer aggregator built from a disjoint part of the
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if the two aggregators do not
    /// describe the same program/configuration.
    fn merge(&mut self, other: &Self) -> Result<(), ProfileError>;

    /// Which of `shards` queues the item routes to. Must be a pure
    /// function of the item, `< shards`. Used by the per-item ingest
    /// paths; batched ingest routes whole batches round-robin instead
    /// (any pure routing preserves the merged bytes — see the module
    /// docs).
    fn shard_of(item: &Self::Item, shards: usize) -> usize;

    /// Serializes the accumulator as a full image — used for
    /// crash-recovery checkpoints and the durable store's compaction
    /// snapshots. Implementations must route through their type's one
    /// canonical encode entry point (for the profile databases,
    /// `encode(WireFormat::Sparse)`).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if serialization fails.
    fn checkpoint_bytes(&self) -> Result<Vec<u8>, ProfileError>;

    /// Rebuilds an accumulator from [`checkpoint_bytes`] output.
    ///
    /// [`checkpoint_bytes`]: ShardAggregate::checkpoint_bytes
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if the bytes do not parse.
    fn from_checkpoint_bytes(bytes: &[u8]) -> Result<Self, ProfileError>;

    /// Serializes everything this accumulator absorbed since `base`
    /// (a past state of `self`, e.g. the empty prototype or the state
    /// at the previous call) as a sparse delta, and advances `base` to
    /// the current state. Must be O(touched rows), and
    /// [`apply_delta_bytes`](ShardAggregate::apply_delta_bytes) must
    /// be its exact inverse: applying every delta in emission order to
    /// a clone of the original `base` reproduces `self` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if `base` is not a past
    /// state of `self` (different program/configuration, or counters
    /// that ran backwards).
    fn extract_delta_bytes(&mut self, base: &mut Self) -> Result<Vec<u8>, ProfileError>;

    /// Merges one [`extract_delta_bytes`] chunk into this accumulator
    /// and returns the indices of the rows it touched (for incremental
    /// index maintenance).
    ///
    /// [`extract_delta_bytes`]: ShardAggregate::extract_delta_bytes
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Snapshot`] if the bytes do not parse,
    /// or [`ProfileError::Mismatch`] if they describe a different
    /// program/configuration.
    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u32>, ProfileError>;
}

/// An incrementally maintained query index over a materialized view:
/// the service calls [`rows_touched`](ViewIndex::rows_touched) after
/// applying each delta, with exactly the rows that changed.
pub trait ViewIndex<A: ?Sized>: Default + Send + 'static {
    /// Re-ranks `rows` of `view` after their values changed.
    fn rows_touched(&mut self, view: &A, rows: &[u32]);
}

/// The no-op index: for aggregates with no O(1) dashboard query.
impl<A: ?Sized> ViewIndex<A> for () {
    fn rows_touched(&mut self, _view: &A, _rows: &[u32]) {}
}

/// [`TopNIndex`] rides the delta plane: every applied delta reports
/// its touched rows, which is exactly the refresh the index needs to
/// stay equal to a from-scratch [`ProfileDatabase::top_n`].
///
/// [`ProfileDatabase::top_n`]: profileme_core::ProfileDatabase::top_n
impl ViewIndex<ProfileDatabase> for TopNIndex {
    fn rows_touched(&mut self, view: &ProfileDatabase, rows: &[u32]) {
        self.update_rows(view, rows);
    }
}

/// PC-hash sharding: spread nearby PCs across shards via a Fibonacci
/// multiplicative hash of the instruction address.
pub fn pc_shard(pc: Pc, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // Instructions are 4-byte aligned; mix the high bits down so dense
    // PC ranges don't all land in one shard.
    let mixed = (pc.addr() >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) as usize) % shards
}

impl ShardAggregate for ProfileDatabase {
    type Item = Sample;
    type ViewIndex = TopNIndex;

    fn absorb(&mut self, item: &Sample) {
        self.add(item);
    }

    fn merge(&mut self, other: &ProfileDatabase) -> Result<(), ProfileError> {
        ProfileDatabase::merge(self, other)
    }

    fn shard_of(item: &Sample, shards: usize) -> usize {
        // Empty selections carry no PC; give them a fixed home.
        item.record.as_ref().map_or(0, |r| pc_shard(r.pc, shards))
    }

    fn checkpoint_bytes(&self) -> Result<Vec<u8>, ProfileError> {
        self.encode(WireFormat::Sparse)
    }

    fn from_checkpoint_bytes(bytes: &[u8]) -> Result<ProfileDatabase, ProfileError> {
        ProfileDatabase::decode(bytes)
    }

    fn extract_delta_bytes(&mut self, base: &mut ProfileDatabase) -> Result<Vec<u8>, ProfileError> {
        self.extract_delta(base)
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u32>, ProfileError> {
        self.apply_delta(bytes)
    }
}

impl ShardAggregate for PairProfileDatabase {
    type Item = PairedSample;
    type ViewIndex = ();

    fn absorb(&mut self, item: &PairedSample) {
        self.add(item);
    }

    fn merge(&mut self, other: &PairProfileDatabase) -> Result<(), ProfileError> {
        PairProfileDatabase::merge(self, other)
    }

    fn shard_of(item: &PairedSample, shards: usize) -> usize {
        // A pair touches two PCs; route by the first. Any pure routing
        // works — merge sums per-PC rows across shards regardless.
        item.first
            .record
            .as_ref()
            .or(item.second.record.as_ref())
            .map_or(0, |r| pc_shard(r.pc, shards))
    }

    fn checkpoint_bytes(&self) -> Result<Vec<u8>, ProfileError> {
        self.encode(WireFormat::Sparse)
    }

    fn from_checkpoint_bytes(bytes: &[u8]) -> Result<PairProfileDatabase, ProfileError> {
        PairProfileDatabase::decode(bytes)
    }

    fn extract_delta_bytes(
        &mut self,
        base: &mut PairProfileDatabase,
    ) -> Result<Vec<u8>, ProfileError> {
        self.extract_delta(base)
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u32>, ProfileError> {
        self.apply_delta(bytes)
    }
}

/// Which snapshot data plane the service runs. Both planes produce
/// byte-identical merged snapshots; they differ only in steady-state
/// cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum SnapshotPlane {
    /// Workers publish full accumulator clones and the service
    /// re-merges from scratch every cycle — O(program × shards) per
    /// snapshot regardless of how little changed.
    Dense,
    /// Workers publish sparse deltas since their last publish and the
    /// service folds them into an incrementally-updated materialized
    /// view — O(rows touched since the last snapshot) per cycle.
    #[default]
    Delta,
}

impl SnapshotPlane {
    /// The wire name (`"dense"` / `"delta"`), as accepted by
    /// [`parse`](SnapshotPlane::parse).
    pub fn name(self) -> &'static str {
        match self {
            SnapshotPlane::Dense => "dense",
            SnapshotPlane::Delta => "delta",
        }
    }

    /// Parses a wire name; `None` for anything else.
    pub fn parse(s: &str) -> Option<SnapshotPlane> {
        match s {
            "dense" => Some(SnapshotPlane::Dense),
            "delta" => Some(SnapshotPlane::Delta),
            _ => None,
        }
    }
}

/// Configuration of the sharded ingest layer.
///
/// Prefer [`ServeConfig::builder`] over struct-literal construction:
/// the builder validates at `build()`, so the `profileme serve` flags
/// it backs are rejected exactly when the library rejects them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Aggregator shards (worker threads).
    pub shards: usize,
    /// Ring capacity per shard, in *messages* (a batch counts as one
    /// message, mirroring one buffered-interrupt delivery). Rounded up
    /// to the next power of two by the ring.
    pub queue_depth: usize,
    /// Worker supervision: panic recovery via checkpoint + journal.
    pub supervise: SuperviseConfig,
    /// Snapshot data plane: sparse deltas into a materialized view
    /// (the default), or full clones re-merged every cycle.
    pub plane: SnapshotPlane,
    /// Durable store: a delta WAL + compaction snapshots under a data
    /// directory, recovered on start. `None` (the default) keeps the
    /// service purely in-memory. Requires the delta plane.
    pub store: Option<StoreConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 4,
            queue_depth: 64,
            supervise: SuperviseConfig::default(),
            plane: SnapshotPlane::default(),
            store: None,
        }
    }
}

impl ServeConfig {
    /// A builder over every knob, mirroring
    /// [`SessionBuilder`](profileme_core::SessionBuilder): setters
    /// chain, and [`build`](ServeConfigBuilder::build) validates.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
            segment_bytes: None,
            compact_every: None,
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects zero shards, a zero queue depth, invalid supervision or
    /// store settings, and a store on the dense plane
    /// (the WAL records the delta plane's publications).
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.shards == 0 {
            return Err(ProfileError::config("shards", "must be at least 1 (got 0)"));
        }
        if self.queue_depth == 0 {
            return Err(ProfileError::config(
                "queue_depth",
                "must be at least 1 (got 0)",
            ));
        }
        self.supervise.validate()?;
        if let Some(store) = &self.store {
            store.validate()?;
            if self.plane != SnapshotPlane::Delta {
                return Err(ProfileError::config(
                    "store",
                    "requires the delta snapshot plane (the WAL persists delta publications)",
                ));
            }
        }
        Ok(())
    }
}

/// Builds a validated [`ServeConfig`]. Obtained from
/// [`ServeConfig::builder`]. Setters backed by a `profileme serve`
/// flag name it; the rest (`queue_depth`, `supervise`, `store`) are
/// library-only.
///
/// ```
/// use profileme_serve::ServeConfig;
///
/// let cfg = ServeConfig::builder()
///     .shards(8)
///     .queue_depth(128)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.shards, 8);
/// assert!(ServeConfig::builder().shards(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
    segment_bytes: Option<u64>,
    compact_every: Option<u64>,
}

impl ServeConfigBuilder {
    /// Aggregator shards (worker threads). CLI: `--shards`.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> ServeConfigBuilder {
        self.cfg.shards = shards;
        self
    }

    /// Ring capacity per shard, in messages.
    #[must_use]
    pub fn queue_depth(mut self, queue_depth: usize) -> ServeConfigBuilder {
        self.cfg.queue_depth = queue_depth;
        self
    }

    /// Worker supervision settings (see [`SuperviseConfig`]).
    #[must_use]
    pub fn supervise(mut self, supervise: SuperviseConfig) -> ServeConfigBuilder {
        self.cfg.supervise = supervise;
        self
    }

    /// Snapshot data plane. CLI: `--wire {dense,delta}`.
    #[must_use]
    pub fn plane(mut self, plane: SnapshotPlane) -> ServeConfigBuilder {
        self.cfg.plane = plane;
        self
    }

    /// Enables the durable store under `data_dir` with default
    /// segment size and compaction cadence. CLI: `--data-dir`.
    #[must_use]
    pub fn data_dir(mut self, data_dir: impl Into<std::path::PathBuf>) -> ServeConfigBuilder {
        self.cfg.store = Some(StoreConfig::new(data_dir));
        self
    }

    /// WAL segment size target in bytes; requires
    /// [`data_dir`](ServeConfigBuilder::data_dir). CLI:
    /// `--segment-bytes`.
    #[must_use]
    pub fn segment_bytes(mut self, segment_bytes: u64) -> ServeConfigBuilder {
        self.segment_bytes = Some(segment_bytes);
        self
    }

    /// Delta records between snapshot compactions (`0` = never);
    /// requires [`data_dir`](ServeConfigBuilder::data_dir). CLI:
    /// `--compact-every`.
    #[must_use]
    pub fn compact_every(mut self, compact_every: u64) -> ServeConfigBuilder {
        self.compact_every = Some(compact_every);
        self
    }

    /// Replaces the whole store configuration at once.
    #[must_use]
    pub fn store(mut self, store: Option<StoreConfig>) -> ServeConfigBuilder {
        self.cfg.store = store;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] naming the offending knob —
    /// including a `segment_bytes`/`compact_every` given without a
    /// `data_dir` — as [`ServeConfig::validate`].
    pub fn build(self) -> Result<ServeConfig, ProfileError> {
        let ServeConfigBuilder {
            mut cfg,
            segment_bytes,
            compact_every,
        } = self;
        match (&mut cfg.store, segment_bytes, compact_every) {
            (None, Some(_), _) => {
                return Err(ProfileError::config(
                    "segment_bytes",
                    "requires a data_dir (no store configured)",
                ))
            }
            (None, None, Some(_)) => {
                return Err(ProfileError::config(
                    "compact_every",
                    "requires a data_dir (no store configured)",
                ))
            }
            (Some(store), segment_bytes, compact_every) => {
                if let Some(b) = segment_bytes {
                    store.segment_bytes = b;
                }
                if let Some(n) = compact_every {
                    store.compact_every = n;
                }
            }
            (None, None, None) => {}
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Backpressure and fault accounting for the ingest layer. All
/// counters are cumulative since service start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IngestStats {
    /// Aggregator shards.
    pub shards: usize,
    /// Items accepted onto shard rings.
    pub enqueued: u64,
    /// Items that never reached an aggregator: pushes onto a crashed
    /// shard's closed ring, items abandoned when an
    /// [`ingest_deadline`](ShardedService::ingest_deadline) expired,
    /// and items left behind in a crashed shard's ring.
    pub dropped: u64,
    /// Deepest any shard ring has been, in messages.
    pub high_water: usize,
    /// Snapshot cycles served so far.
    pub snapshots: u64,
    /// Worker panics caught by supervision (plus any that killed an
    /// unsupervised worker).
    pub worker_panics: u64,
    /// Successful worker recoveries (checkpoint + journal rebuilds).
    pub workers_recovered: u64,
    /// Items absorbed into a worker state that was then lost to a
    /// twice-panicking message.
    pub lost_to_panics: u64,
    /// Checkpoints taken across all shards.
    pub checkpoints: u64,
    /// Deadline-bounded calls that ran out of budget.
    pub deadline_misses: u64,
    /// Delta publications shipped through the snapshot mailboxes
    /// (delta plane only; always 0 on the dense plane).
    pub deltas_published: u64,
    /// Serialized bytes across those delta publications.
    pub delta_bytes: u64,
    /// Incremental refreshes applied to the merged materialized view
    /// (one per completed delta-plane snapshot cycle).
    pub view_refreshes: u64,
}

impl IngestStats {
    /// Total items lost across every lossy path. Whenever this is
    /// zero, the merged snapshot is byte-identical to direct
    /// single-threaded aggregation.
    pub fn lost(&self) -> u64 {
        self.dropped + self.lost_to_panics
    }
}

/// A merged point-in-time view of the whole service.
#[derive(Debug, Clone)]
pub struct ServeSnapshot<A> {
    /// The shard aggregates merged in shard order.
    pub merged: A,
    /// 1-based snapshot sequence number.
    pub seq: u64,
    /// Ingest accounting at snapshot time.
    pub stats: IngestStats,
}

/// How long a snapshot requester parks per wait slice. Purely a
/// backstop against a lost notify — snapshots are rare and the worker
/// notifies on publish, so the poll almost never fires.
const SNAP_WAIT_SLICE: Duration = Duration::from_millis(5);

struct Shard<A: ShardAggregate> {
    ring: Arc<RingBuffer<Msg<A>>>,
    snap: Arc<SnapShared<A>>,
    worker: Option<JoinHandle<()>>,
    /// Receives the worker's final accumulator: a reapable result with
    /// a bounded wait, unlike `JoinHandle::join`. Behind a `Mutex` only
    /// because `mpsc::Receiver` is `!Sync` and the service is shared;
    /// it is touched solely at shutdown/drop.
    done: Mutex<mpsc::Receiver<A>>,
    counters: Arc<ShardCounters>,
}

impl<A: ShardAggregate> Shard<A> {
    fn accept(&self, items: u64) {
        self.counters.enqueued.fetch_add(items, Ordering::Relaxed);
    }

    fn drop_items(&self, items: u64) {
        self.counters.dropped.fetch_add(items, Ordering::Relaxed);
    }

    /// Waits (optionally bounded) for the worker's final accumulator.
    fn reap(&self, timeout: Option<Duration>) -> Result<A, mpsc::RecvTimeoutError> {
        let done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        match timeout {
            None => done
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            Some(t) => done.recv_timeout(t),
        }
    }
}

/// The delta plane's materialized view: the merged aggregate kept
/// incrementally up to date by folding in each shard's published
/// deltas, plus the query index refreshed with the touched rows —
/// and, when configured, the durable store the same deltas are
/// logged to before they are applied.
struct ViewState<A: ShardAggregate> {
    merged: A,
    index: A::ViewIndex,
    store: Option<ProfileStore<A>>,
}

/// The sharded profile-aggregation service: samples in, snapshots out,
/// collection never stops — and, supervised, it survives its own
/// workers panicking.
///
/// See the [module docs](self) for the determinism invariant and the
/// crate docs for a worked example.
pub struct ShardedService<A: ShardAggregate> {
    shards: Vec<Shard<A>>,
    /// Round-robin cursor for batched ingest.
    rr: AtomicUsize,
    snapshots: AtomicU64,
    deadline_misses: AtomicU64,
    view_refreshes: AtomicU64,
    faults: Option<Arc<ActiveFaults>>,
    /// Serializes snapshot cycles so each shard has at most one
    /// outstanding [`SnapShared`] request, and owns the delta plane's
    /// materialized view (`None` on the dense plane). Ingest never
    /// touches this.
    snap_cycle: Mutex<Option<ViewState<A>>>,
}

impl<A: ShardAggregate> ShardedService<A> {
    /// Starts `config.shards` worker threads, each owning a clone of
    /// the `empty` aggregator behind a lock-free ring. With
    /// [`ServeConfig::store`] set, the durable store is opened (and
    /// recovered into the materialized view) first.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an invalid `config`,
    /// [`ProfileError::Store`] if the store fails to open, or
    /// [`ProfileError::Mismatch`] if the stored profile describes a
    /// different program than `empty`.
    pub fn start(empty: A, config: ServeConfig) -> Result<ShardedService<A>, ProfileError> {
        ShardedService::start_inner(empty, config, None)
    }

    /// Starts the service with a deterministic [`FaultPlan`] injected
    /// into every worker — the reproducible-chaos entry point.
    ///
    /// [`FaultPlan`]: crate::faults::FaultPlan
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an invalid `config`.
    #[cfg(feature = "fault-injection")]
    pub fn start_with_faults(
        empty: A,
        config: ServeConfig,
        plan: crate::faults::FaultPlan,
    ) -> Result<ShardedService<A>, ProfileError> {
        let faults = (!plan.is_empty()).then(|| Arc::new(plan.activate(config.shards)));
        ShardedService::start_inner(empty, config, faults)
    }

    fn start_inner(
        empty: A,
        config: ServeConfig,
        faults: Option<Arc<ActiveFaults>>,
    ) -> Result<ShardedService<A>, ProfileError> {
        config.validate()?;
        // The delta plane's view starts at the shards' shared origin:
        // every worker's delta base begins as `empty`, so folding each
        // published delta into this view reproduces the sum of the
        // shard accumulators exactly. With a durable store the view
        // additionally starts at the *recovered* state — history from
        // previous runs the workers know nothing about — folded in
        // through the same delta path so the query index sees every
        // nonzero row. This happens before any worker spawns: a store
        // that fails to open leaves no threads behind.
        let view = if config.plane == SnapshotPlane::Delta {
            let mut merged = empty.clone();
            let mut index = A::ViewIndex::default();
            let store = match &config.store {
                None => None,
                Some(store_cfg) => {
                    let (store, mut recovered) =
                        ProfileStore::open(store_cfg.clone(), empty.clone())?;
                    let mut base = empty.clone();
                    let history = recovered.extract_delta_bytes(&mut base)?;
                    let rows = merged.apply_delta_bytes(&history)?;
                    index.rows_touched(&merged, &rows);
                    Some(store)
                }
            };
            Some(ViewState {
                merged,
                index,
                store,
            })
        } else {
            None
        };
        let shards = (0..config.shards)
            .map(|shard| {
                let ring = Arc::new(RingBuffer::new(config.queue_depth));
                let snap = Arc::new(SnapShared::new());
                let counters = Arc::new(ShardCounters::default());
                let (done_tx, done_rx) = mpsc::channel();
                let ctx = WorkerCtx {
                    shard,
                    ring: Arc::clone(&ring),
                    snap: Arc::clone(&snap),
                    empty: empty.clone(),
                    cfg: config.supervise,
                    plane: config.plane,
                    counters: Arc::clone(&counters),
                    done: done_tx,
                    faults: faults.clone(),
                };
                Shard {
                    ring,
                    snap,
                    worker: Some(std::thread::spawn(move || run_worker(ctx))),
                    done: Mutex::new(done_rx),
                    counters,
                }
            })
            .collect();
        Ok(ShardedService {
            shards,
            rr: AtomicUsize::new(0),
            snapshots: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            view_refreshes: AtomicU64::new(0),
            faults,
            snap_cycle: Mutex::new(view),
        })
    }

    /// The number of aggregator shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The next batched-ingest target: whole batches go round-robin —
    /// the merged result is routing-independent (module docs), so the
    /// batch path spends zero cycles partitioning and zero copies
    /// re-bucketing samples.
    fn next_shard(&self) -> &Shard<A> {
        let n = self.shards.len();
        if n == 1 {
            return &self.shards[0];
        }
        &self.shards[self.rr.fetch_add(1, Ordering::Relaxed) % n]
    }

    /// Lossless ingest of one item: blocks while the target shard's
    /// ring is full (backpressure). An item bound for a crashed
    /// shard's closed ring is counted as dropped.
    pub fn ingest(&self, item: A::Item) {
        let shard = &self.shards[A::shard_of(&item, self.shards.len())];
        match shard.ring.push(Msg::Work(Work::One(item))) {
            Ok(()) => shard.accept(1),
            Err(_) => shard.drop_items(1),
        }
    }

    /// Lossless batched ingest: hands the whole batch to the next
    /// round-robin shard as **one** ring message — the shape of §4.3's
    /// buffered sample delivery. The caller's `Vec` moves straight
    /// into the ring: no per-item routing, no partition copies (which
    /// is what let multi-shard finally beat direct aggregation in
    /// `bench_ingest`). Shard-level parallelism comes from successive
    /// batches landing on successive shards.
    pub fn ingest_batch(&self, items: Vec<A::Item>) {
        if items.is_empty() {
            return;
        }
        let shard = self.next_shard();
        let count = items.len() as u64;
        match shard.ring.push(Msg::Work(Work::Batch(items))) {
            Ok(()) => shard.accept(count),
            Err(_) => shard.drop_items(count),
        }
    }

    /// Lossless batched ingest carrying an admission credit (the
    /// multi-tenant path): `credit` was already incremented by the
    /// batch length at admission, and the worker releases it when the
    /// batch permanently leaves the pipeline. A batch bound for a
    /// crashed shard's closed ring is dropped with accounting and its
    /// credit is released here. Returns how many items were enqueued.
    pub(crate) fn ingest_batch_credited(
        &self,
        items: Vec<A::Item>,
        credit: &Arc<AtomicU64>,
    ) -> u64 {
        if items.is_empty() {
            return 0;
        }
        let shard = self.next_shard();
        let count = items.len() as u64;
        match shard
            .ring
            .push(Msg::Work(Work::Credited(items, Arc::clone(credit))))
        {
            Ok(()) => {
                shard.accept(count);
                count
            }
            Err(_) => {
                shard.drop_items(count);
                credit.fetch_sub(count, Ordering::Relaxed);
                0
            }
        }
    }

    /// Deadline-bounded batched ingest: like
    /// [`ingest_batch`](ShardedService::ingest_batch), but never
    /// blocks past `timeout`. A batch that could not be enqueued
    /// within the budget is dropped whole with accounting.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::DeadlineExceeded`] if the budget ran
    /// out; the batch is counted in [`IngestStats::dropped`].
    pub fn ingest_deadline(
        &self,
        items: Vec<A::Item>,
        timeout: Duration,
    ) -> Result<(), ProfileError> {
        if items.is_empty() {
            return Ok(());
        }
        let shard = self.next_shard();
        let count = items.len() as u64;
        match shard
            .ring
            .push_timeout(Msg::Work(Work::Batch(items)), timeout)
        {
            Ok(()) => {
                shard.accept(count);
                Ok(())
            }
            Err(TryPushError::Full(_)) => {
                shard.drop_items(count);
                self.deadline_misses.fetch_add(1, Ordering::Relaxed);
                Err(ProfileError::DeadlineExceeded {
                    what: "ingest",
                    millis: timeout.as_millis() as u64,
                })
            }
            // A crashed shard's closed ring: counted, not an error —
            // mirrors the blocking path.
            Err(TryPushError::Closed(_)) => {
                shard.drop_items(count);
                Ok(())
            }
        }
    }

    /// One watermark→publish→merge snapshot cycle: each shard records
    /// the ring position enqueued so far as a watermark, and its
    /// worker publishes a consistent accumulator clone the moment it
    /// has processed up to that mark (see
    /// [`SnapShared`](crate::supervise) for the protocol). Everything
    /// enqueued before this call is included; collection continues
    /// concurrently — ingest never waits on a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::WorkerCrashed`] if a shard worker died,
    /// [`ProfileError::Snapshot`] if the service is shut down, or
    /// [`ProfileError::Mismatch`] if shard aggregates disagree (which
    /// would indicate a bug in the `empty` prototype).
    pub fn snapshot(&self) -> Result<ServeSnapshot<A>, ProfileError> {
        self.snapshot_cycle(None)
    }

    /// [`snapshot`](ShardedService::snapshot) that never blocks past
    /// `timeout` in total — neither nudging a shard behind a full ring
    /// (a stalled worker) nor awaiting the published aggregates.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::DeadlineExceeded`] on budget expiry,
    /// otherwise as [`snapshot`](ShardedService::snapshot).
    pub fn snapshot_deadline(&self, timeout: Duration) -> Result<ServeSnapshot<A>, ProfileError> {
        self.snapshot_cycle(Some(timeout))
    }

    fn snapshot_cycle(&self, timeout: Option<Duration>) -> Result<ServeSnapshot<A>, ProfileError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let miss = |me: &Self| {
            me.deadline_misses.fetch_add(1, Ordering::Relaxed);
            ProfileError::DeadlineExceeded {
                what: "snapshot",
                millis: timeout.expect("only deadline cycles miss").as_millis() as u64,
            }
        };
        // One cycle at a time: each shard then has at most one
        // outstanding request, which is what the two-slot mailbox is
        // sized for. On the delta plane this guard also owns the
        // materialized view the cycle folds deltas into.
        let mut cycle = self
            .snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);

        // Phase 1: stamp a watermark + epoch per shard, then nudge the
        // ring so an idle (parked) worker wakes and notices.
        let mut epochs = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let watermark = shard.ring.tail() as u64;
            shard.snap.watermark.store(watermark, Ordering::Relaxed);
            let epoch = shard.snap.requested.load(Ordering::Relaxed) + 1;
            shard.snap.requested.store(epoch, Ordering::Release);
            match deadline {
                None => {
                    if shard.ring.push(Msg::Nudge).is_err() {
                        return Err(self.shard_closed_error(i));
                    }
                }
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    match shard.ring.push_timeout(Msg::Nudge, remaining) {
                        Ok(()) => {}
                        Err(TryPushError::Full(_)) => return Err(miss(self)),
                        Err(TryPushError::Closed(_)) => return Err(self.shard_closed_error(i)),
                    }
                }
            }
            epochs.push(epoch);
        }

        // Phase 2: await each shard's publish in shard order. Dense
        // plane: merge the full clones from scratch. Delta plane: fold
        // each shard's delta chunks into the materialized view — a
        // deadline miss partway through is safe, because the applied
        // prefix is a valid (merely earlier) view state and the
        // unconsumed publications are carried forward by their workers.
        let mut dense_merged: Option<A> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let epoch = epochs[i];
            loop {
                if shard.snap.published.load(Ordering::Acquire) >= epoch {
                    break;
                }
                if shard.counters.crashed.load(Ordering::Acquire) {
                    return Err(ProfileError::WorkerCrashed { shard: i });
                }
                let slice = match deadline {
                    None => SNAP_WAIT_SLICE,
                    Some(d) => {
                        let remaining = d.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return Err(miss(self));
                        }
                        remaining.min(SNAP_WAIT_SLICE)
                    }
                };
                shard.snap.wait(slice);
            }
            let publication = shard.snap.slots[(epoch & 1) as usize]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("a published epoch always fills its slot");
            match (cycle.as_mut(), publication) {
                (None, Publication::Full(part)) => match &mut dense_merged {
                    None => dense_merged = Some(part),
                    Some(m) => m.merge(&part)?,
                },
                (Some(view), Publication::Delta(chunks)) => {
                    for chunk in chunks {
                        // WAL first: once a delta is applied to the
                        // view it is part of every future compaction
                        // image, so the log must already hold it for
                        // recovery to reproduce the view exactly.
                        if let Some(store) = view.store.as_mut() {
                            store.append(&chunk)?;
                        }
                        let rows = view.merged.apply_delta_bytes(&chunk)?;
                        view.index.rows_touched(&view.merged, &rows);
                    }
                }
                (Some(_), Publication::Full(_)) | (None, Publication::Delta(_)) => {
                    unreachable!("workers publish the plane the service was configured with")
                }
            }
        }
        let merged = match cycle.as_mut() {
            None => dense_merged.expect("at least one shard"),
            Some(view) => {
                self.view_refreshes.fetch_add(1, Ordering::Relaxed);
                // The view now aggregates everything appended this
                // cycle: exactly the image the compaction invariant
                // asks for.
                if let ViewState {
                    merged,
                    store: Some(store),
                    ..
                } = view
                {
                    store.maybe_compact(merged)?;
                }
                view.merged.clone()
            }
        };
        let seq = self.snapshots.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(ServeSnapshot {
            merged,
            seq,
            stats: self.stats(),
        })
    }

    /// A clone of the delta plane's materialized view as of the most
    /// recent completed snapshot cycle — including, on a durable
    /// service, the history recovered from the store (which the
    /// workers' own accumulators never contain). `None` on the dense
    /// plane.
    pub fn view_merged(&self) -> Option<A> {
        let cycle = self
            .snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        cycle.as_ref().map(|view| view.merged.clone())
    }

    /// The durable store's recovery and append counters, or `None`
    /// when the service runs without a store.
    pub fn store_stats(&self) -> Option<StoreStats> {
        let cycle = self
            .snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        cycle
            .as_ref()
            .and_then(|view| view.store.as_ref())
            .map(ProfileStore::stats)
    }

    /// Whether a durable store is attached.
    fn has_store(&self) -> bool {
        let cycle = self
            .snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        cycle.as_ref().is_some_and(|view| view.store.is_some())
    }

    /// The error for a closed shard ring: `WorkerCrashed` if the
    /// worker gave up, otherwise the service is shut down.
    fn shard_closed_error(&self, shard: usize) -> ProfileError {
        if self.shards[shard].counters.crashed.load(Ordering::Acquire) {
            ProfileError::WorkerCrashed { shard }
        } else {
            ProfileError::Snapshot {
                reason: "service is shut down".into(),
            }
        }
    }

    /// Current backpressure and fault accounting across all shards.
    pub fn stats(&self) -> IngestStats {
        let sum = |f: &dyn Fn(&ShardCounters) -> &AtomicU64| -> u64 {
            self.shards
                .iter()
                .map(|s| f(&s.counters).load(Ordering::Relaxed))
                .sum()
        };
        IngestStats {
            shards: self.shards.len(),
            enqueued: sum(&|c| &c.enqueued),
            dropped: sum(&|c| &c.dropped),
            high_water: self
                .shards
                .iter()
                .map(|s| s.ring.high_water())
                .max()
                .unwrap_or(0),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            worker_panics: sum(&|c| &c.panics),
            workers_recovered: sum(&|c| &c.recoveries),
            lost_to_panics: sum(&|c| &c.lost_to_panics),
            checkpoints: sum(&|c| &c.checkpoints),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            deltas_published: sum(&|c| &c.deltas_published),
            delta_bytes: sum(&|c| &c.delta_bytes),
            view_refreshes: self.view_refreshes.load(Ordering::Relaxed),
        }
    }

    /// Closes every ring, drains the workers, and returns the final
    /// merged aggregate plus the final accounting.
    ///
    /// The returned aggregate covers **this process's stream** (the
    /// shard accumulators merged in shard order) — on a durable
    /// service, history recovered from the store lives in the view
    /// ([`view_merged`](ShardedService::view_merged)), and shutdown
    /// first runs one final snapshot cycle so every accepted item
    /// reaches the WAL. Blocks until every worker drains; use
    /// [`shutdown_deadline`](ShardedService::shutdown_deadline) when a
    /// worker might be stuck.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::WorkerCrashed`] if a shard worker died
    /// without delivering its aggregate.
    pub fn shutdown(self) -> Result<(A, IngestStats), ProfileError> {
        self.shutdown_impl(None)
    }

    /// [`shutdown`](ShardedService::shutdown) with a bound: waits at
    /// most `timeout` in total for the workers to drain.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::DeadlineExceeded`] if a worker did not
    /// drain in time (its thread is left to the bounded `Drop` reaper),
    /// or [`ProfileError::WorkerCrashed`] if one died.
    pub fn shutdown_deadline(self, timeout: Duration) -> Result<(A, IngestStats), ProfileError> {
        self.shutdown_impl(Some(timeout))
    }

    fn shutdown_impl(
        mut self,
        timeout: Option<Duration>,
    ) -> Result<(A, IngestStats), ProfileError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        // On a durable service, run one last snapshot cycle before the
        // rings close: `self` is consumed, so nothing can be enqueued
        // after the watermark this cycle stamps — every accepted item
        // reaches the WAL. Best-effort: a crashed worker degrades this
        // to whatever the log already holds, exactly as a crash would.
        if self.has_store() {
            let flushed = match deadline {
                None => self.snapshot().map(drop),
                Some(d) => self
                    .snapshot_deadline(d.saturating_duration_since(Instant::now()))
                    .map(drop),
            };
            drop(flushed);
            let mut cycle = self
                .snap_cycle
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(store) = cycle.as_mut().and_then(|view| view.store.as_mut()) {
                drop(store.sync());
            }
        }
        // `self` is consumed: no producer can race these closes, so
        // every accepted item is already in a ring and will be drained
        // by its worker.
        for shard in &self.shards {
            shard.ring.close();
        }
        let mut merged: Option<A> = None;
        for i in 0..self.shards.len() {
            let remaining =
                deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            let part = match self.shards[i].reap(remaining) {
                Ok(part) => part,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    return Err(ProfileError::DeadlineExceeded {
                        what: "shutdown",
                        millis: timeout.expect("deadline implies timeout").as_millis() as u64,
                    });
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ProfileError::WorkerCrashed { shard: i })
                }
            };
            // The worker has delivered; its thread is exiting.
            if let Some(worker) = self.shards[i].worker.take() {
                drop(worker.join());
            }
            match &mut merged {
                None => merged = Some(part),
                Some(m) => m.merge(&part)?,
            }
        }
        let stats = self.stats();
        Ok((merged.expect("at least one shard"), stats))
    }
}

impl ShardedService<ProfileDatabase> {
    /// The `n` hottest instructions by `field`, answered from the
    /// incrementally maintained [`TopNIndex`] over the materialized
    /// view — O(n), no clone, no sort, no snapshot cycle.
    ///
    /// The answer reflects the most recent completed snapshot cycle
    /// (the view advances per cycle, not per ingest). Returns `None`
    /// on the dense plane, or when `n` exceeds the index's rank depth
    /// — fall back to [`snapshot`](ShardedService::snapshot) plus
    /// [`ProfileDatabase::top_n`] for those.
    pub fn view_top_n(&self, n: usize, field: ProfileField) -> Option<Vec<(Pc, PcProfile)>> {
        let cycle = self
            .snap_cycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let view = cycle.as_ref()?;
        view.index.top_n(&view.merged, n, field)
    }
}

impl<A: ShardAggregate> Drop for ShardedService<A> {
    fn drop(&mut self) {
        // `shutdown` leaves no workers; a plain drop still unblocks and
        // reaps them — with a bounded wait, so a stuck worker detaches
        // instead of hanging the dropping thread forever.
        if let Some(faults) = &self.faults {
            faults.release_stalled();
        }
        for shard in &self.shards {
            shard.ring.close();
        }
        for i in 0..self.shards.len() {
            if let Some(worker) = self.shards[i].worker.take() {
                match self.shards[i].reap(Some(Duration::from_secs(2))) {
                    // Delivered or died: the thread is exiting, join is
                    // immediate.
                    Ok(_) | Err(mpsc::RecvTimeoutError::Disconnected) => drop(worker.join()),
                    // Genuinely stuck: detach rather than hang.
                    Err(mpsc::RecvTimeoutError::Timeout) => drop(worker),
                }
            }
        }
    }
}
