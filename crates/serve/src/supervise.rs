//! Worker supervision: per-shard aggregators that survive panics.
//!
//! Each shard worker runs under an in-thread supervisor: message
//! processing is wrapped in [`catch_unwind`], and the worker rebuilds
//! from the state it already keeps for the snapshot plane — its
//! **delta base** plus a **journal** of the work absorbed since:
//!
//! * every successfully absorbed message is appended to the journal
//!   (by *moving* the already-owned batch, so the lossless hot path
//!   never clones a sample);
//! * the journal is cleared whenever the base advances: at every delta
//!   publication, or on the worker's own once the journal holds
//!   [`JOURNAL_BOUND`] samples (that chunk rides the next delta
//!   publication; the dense plane, which publishes clones, drops it).
//!
//! On a panic the supervisor records the failure, rebuilds the
//! accumulator as `base.clone()` plus a replay of the journal, and
//! **retries the in-flight message once**: a transient panic (the
//! common injected case) therefore loses nothing and the recovered
//! `snapshot()` is byte-identical to direct aggregation. A message
//! that panics twice is dropped whole with exact accounting
//! (`lost_to_panics`) — a crash loses at most the in-flight batch. A
//! worker that exhausts its recovery budget fails the shard loudly:
//! it settles the in-flight work, closes its ring so producers
//! unblock, and later `snapshot`/`shutdown` calls surface
//! [`ProfileError::WorkerCrashed`](profileme_core::ProfileError).
//!
//! # Snapshots without barrier round-trips
//!
//! Snapshots no longer travel through the work ring as sentinel
//! messages. Instead each shard carries a [`SnapShared`] mailbox: the
//! service records the ring's enqueue position as a **watermark**,
//! bumps a request epoch, and drops a cheap [`Msg::Nudge`] into the
//! ring so an idle (parked) worker wakes up. The worker publishes a
//! clone of its accumulator into one of two epoch-parity slots as soon
//! as it has processed every ring position below the watermark — the
//! same "everything enqueued before the call is included" guarantee
//! the old barrier gave, without ever making ingest wait on a snapshot
//! reply channel. See [`SnapShared`] for the full protocol and its
//! memory-ordering argument.
//!
//! [`catch_unwind`]: std::panic::catch_unwind

use crate::faults::{ActiveFaults, FaultAction};
use crate::ring::RingBuffer;
use crate::service::{ShardAggregate, SnapshotPlane};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Configuration of the per-shard supervision layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SuperviseConfig {
    /// Recoveries each shard may perform before giving up; a bound so
    /// a deterministically-poisonous stream cannot spin forever. `0`
    /// fails the shard on its first panic.
    pub max_recoveries: u32,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            max_recoveries: 1024,
        }
    }
}

/// Samples the recovery journal holds before the worker advances its
/// delta base on its own — the worst-case replay on recovery. Counted
/// in samples, not messages, so the bound holds whatever the batch
/// size: 16 of `bench_ingest`'s 4,096-sample batches.
pub(crate) const JOURNAL_BOUND: u64 = 65_536;

/// Self-advanced delta chunks a worker carries toward its next
/// publication before folding them into one, so a service that never
/// snapshots still holds bounded memory.
pub(crate) const CARRY_FOLD: usize = 8;

/// One unit of aggregation work (the journal's entry type).
pub(crate) enum Work<A: ShardAggregate> {
    /// A single streamed item.
    One(A::Item),
    /// One buffered-delivery batch.
    Batch(Vec<A::Item>),
    /// A batch admitted against a queue-share credit (the multi-tenant
    /// path): the shared counter was incremented by the batch length at
    /// admission and [`settle`](Work::settle) releases it when the
    /// batch permanently leaves the pipeline.
    Credited(Vec<A::Item>, Arc<AtomicU64>),
}

impl<A: ShardAggregate> Work<A> {
    pub(crate) fn len(&self) -> u64 {
        match self {
            Work::One(_) => 1,
            Work::Batch(items) | Work::Credited(items, _) => items.len() as u64,
        }
    }

    pub(crate) fn absorb_into(&self, acc: &mut A) {
        match self {
            Work::One(item) => acc.absorb(item),
            Work::Batch(items) | Work::Credited(items, _) => {
                items.iter().for_each(|i| acc.absorb(i));
            }
        }
    }

    /// Releases this work's admission credit, if it carries one.
    ///
    /// Called exactly once per message, at the moment it permanently
    /// leaves the pipeline: absorbed into the accumulator, dropped
    /// whole after a double panic, or drained by the crash guard.
    /// Journal replay deliberately does **not** settle — the journal's
    /// copy is recovery bookkeeping for an absorb that already settled.
    pub(crate) fn settle(&self) {
        if let Work::Credited(items, credit) = self {
            credit.fetch_sub(items.len() as u64, Ordering::Relaxed);
        }
    }
}

/// A ring message: work, or a wakeup poke for the snapshot protocol.
pub(crate) enum Msg<A: ShardAggregate> {
    /// Aggregate this.
    Work(Work<A>),
    /// Wake an idle worker so it notices a pending [`SnapShared`]
    /// request. Carries no data, is not journaled, and does not
    /// consume a fault index — but it *does* occupy a ring position,
    /// which is fine because watermarks only ever require processing
    /// *more* positions, never fewer.
    Nudge,
}

/// What a worker hands a snapshot requester for one epoch.
pub(crate) enum Publication<A> {
    /// The dense plane: a full clone of the shard accumulator.
    Full(A),
    /// The delta plane: sparse delta chunks, oldest first, together
    /// covering everything the shard absorbed since the last chunk a
    /// requester actually consumed. Usually one chunk; more when the
    /// worker carried forward chunks from abandoned deadline epochs or
    /// from advancing its base on its own (see [`maybe_publish`]).
    Delta(Vec<Vec<u8>>),
}

/// The per-shard snapshot mailbox: how a consistent accumulator view
/// travels from the worker to a snapshot caller without a barrier
/// message round-trip.
///
/// # Protocol
///
/// The service serializes snapshot cycles (one at a time), so each
/// shard has at most one outstanding request:
///
/// 1. The requester stores `watermark` = the ring's enqueue position
///    (everything enqueued before the snapshot call sits below it),
///    then bumps `requested` to a fresh epoch, then nudges the ring.
/// 2. After every message it finishes, the worker checks: if
///    `requested` names an epoch it has not published and its count of
///    processed ring positions has reached `watermark`, it publishes
///    into `slots[epoch & 1]` — a full accumulator clone on the dense
///    plane, or the sparse delta since its last publish on the delta
///    plane — and stores `published = epoch`.
/// 3. The requester waits on `cv` until `published >= epoch` (or the
///    shard crashes), then takes `slots[epoch & 1]`.
///
/// # Why two slots
///
/// A deadline-bounded snapshot can abandon its epoch mid-flight; the
/// worker may publish that stale epoch arbitrarily late. Alternating
/// slots by epoch parity means a late stale publish lands in the slot
/// the *next* request does not read. Two consecutive abandonments
/// reuse a parity, but then the worker's stale write is ordered before
/// its fresh one (same thread), and the requester only reads after
/// observing `published >= epoch`, which the fresh write precedes.
///
/// On the delta plane an abandoned publication is not merely stale —
/// it is the *only* copy of that span of the shard's history (the
/// worker's delta base has already moved past it). So before
/// publishing a fresh epoch the worker sweeps **both** slots and
/// carries any unconsumed delta chunks into the new publication, ahead
/// of the fresh chunk. The sweep cannot race a reader: cycles are
/// serialized, and a slot is only swept while its epoch is either
/// already consumed (empty) or permanently abandoned.
///
/// # Memory ordering
///
/// `watermark` is stored before `requested` (Release); the worker
/// reads `requested` with Acquire, so a matching watermark is always
/// visible. The publication is written under the slot's `Mutex` and
/// `published` is stored with Release after it; the requester's
/// Acquire load of `published` plus the slot lock orders the read
/// after the write. `crashed` (in [`ShardCounters`]) uses
/// Release/Acquire so a requester that sees it also sees the drained
/// ring.
pub(crate) struct SnapShared<A> {
    /// Epoch of the most recent snapshot request (0 = never).
    pub requested: AtomicU64,
    /// Ring enqueue position the current request must cover.
    pub watermark: AtomicU64,
    /// Epoch of the most recent publish (0 = never).
    pub published: AtomicU64,
    /// Double buffer, indexed by `epoch & 1`.
    pub slots: [Mutex<Option<Publication<A>>>; 2],
    /// Requesters park here; the worker (or the crash guard) notifies.
    pub gate: Mutex<()>,
    pub cv: Condvar,
}

impl<A> SnapShared<A> {
    pub(crate) fn new() -> SnapShared<A> {
        SnapShared {
            requested: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            published: AtomicU64::new(0),
            slots: [Mutex::new(None), Mutex::new(None)],
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Wakes any requester parked on `cv`.
    pub(crate) fn notify(&self) {
        let _guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    /// Parks a requester briefly; the predicate is re-checked by the
    /// caller's loop, and the bounded timeout makes a lost notify cost
    /// latency, never a hang.
    pub(crate) fn wait(&self, timeout: Duration) {
        let guard = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Per-shard accounting shared between the worker and the service.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub enqueued: AtomicU64,
    pub dropped: AtomicU64,
    pub panics: AtomicU64,
    pub recoveries: AtomicU64,
    pub lost_to_panics: AtomicU64,
    /// Delta publications shipped through the snapshot mailbox.
    pub deltas_published: AtomicU64,
    /// Serialized bytes across those delta publications.
    pub delta_bytes: AtomicU64,
    /// Set when the worker gives up (recovery budget exhausted); the
    /// service reports `WorkerCrashed`.
    pub crashed: AtomicBool,
}

/// Everything one shard worker needs.
pub(crate) struct WorkerCtx<A: ShardAggregate> {
    pub shard: usize,
    pub ring: Arc<RingBuffer<Msg<A>>>,
    pub snap: Arc<SnapShared<A>>,
    pub empty: A,
    pub cfg: SuperviseConfig,
    /// Which publication kind this worker ships at snapshot epochs.
    pub plane: SnapshotPlane,
    pub counters: Arc<ShardCounters>,
    /// The final accumulator travels back over this channel so the
    /// service can reap results with a bounded wait (a bare
    /// `JoinHandle::join` cannot time out).
    pub done: mpsc::Sender<A>,
    /// Present only when a `FaultPlan` was activated (which requires
    /// the `fault-injection` feature); `None` costs one branch per
    /// message.
    pub faults: Option<Arc<ActiveFaults>>,
}

/// Applies any injected fault for this (shard, message) pair, then
/// absorbs the work. May panic — that is the point — so callers run
/// it under `catch_unwind`. An injected panic fires *mid-absorb*,
/// after the first half of a batch is already in the accumulator, so
/// recovery always starts from a half-updated accumulator.
fn absorb_with_fault<A: ShardAggregate>(
    ctx: &WorkerCtx<A>,
    idx: Option<u64>,
    work: &Work<A>,
    acc: &mut A,
) {
    if let (Some(faults), Some(idx)) = (&ctx.faults, idx) {
        match faults.action(ctx.shard, idx) {
            None => {}
            Some(FaultAction::Panic) => {
                if let Work::Batch(items) | Work::Credited(items, _) = work {
                    items[..items.len() / 2].iter().for_each(|i| acc.absorb(i));
                }
                panic!("injected fault: panic at shard {} message {idx}", ctx.shard)
            }
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Stall) => {
                // Park until the service tears down; deliberately
                // ignores ring close so deadline paths genuinely time
                // out.
                while !faults.stall_released() {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }
    work.absorb_into(acc);
}

/// A worker's recovery state: the accumulator, the delta base it last
/// advanced to, and the journal of work absorbed since — so the
/// accumulator is always `base` plus a replay of `journal`.
struct Recovery<A: ShardAggregate> {
    acc: A,
    base: A,
    journal: Vec<Work<A>>,
    /// Samples in `journal`.
    journaled: u64,
    /// Delta-plane chunks from self-advances, awaiting the next
    /// publication; never more than [`CARRY_FOLD`].
    carried: Vec<Vec<u8>>,
}

impl<A: ShardAggregate> Recovery<A> {
    /// Advances `base` to the accumulator and returns the delta between
    /// them — O(touched rows). The journal's work is now in the base.
    fn advance(&mut self) -> Vec<u8> {
        self.journal.clear();
        self.journaled = 0;
        // Infallible by construction: the base only ever advances by
        // syncing to the accumulator, so every counter diff is
        // non-negative and the headers always match.
        self.acc
            .extract_delta_bytes(&mut self.base)
            .expect("delta base is a past state of this accumulator")
    }

    /// Journals absorbed work; once the journal reaches its bound,
    /// advances the base on the worker's own.
    fn record(&mut self, work: Work<A>, plane: SnapshotPlane, empty: &A) {
        self.journaled += work.len();
        self.journal.push(work);
        if self.journaled >= JOURNAL_BOUND {
            let chunk = self.advance();
            if plane == SnapshotPlane::Delta {
                carry(&mut self.carried, chunk, empty);
            }
        }
    }

    /// Rebuilds the accumulator after a panic that may have left it
    /// half-updated: the state exactly as of the last successfully
    /// absorbed message.
    fn rebuild(&mut self) {
        self.acc = self.base.clone();
        for work in &self.journal {
            work.absorb_into(&mut self.acc);
        }
    }
}

/// Queues a self-advanced chunk for the next delta publication,
/// folding the queue into one chunk once it holds [`CARRY_FOLD`].
/// Deltas add, so the folded chunk is the sum of its parts.
fn carry<A: ShardAggregate>(carried: &mut Vec<Vec<u8>>, chunk: Vec<u8>, empty: &A) {
    carried.push(chunk);
    if carried.len() >= CARRY_FOLD {
        let mut sum = empty.clone();
        for chunk in carried.drain(..) {
            sum.apply_delta_bytes(&chunk)
                .expect("a chunk this worker extracted applies to its prototype");
        }
        let folded = sum
            .extract_delta_bytes(&mut empty.clone())
            .expect("the prototype is a past state of the folded sum");
        carried.push(folded);
    }
}

/// Marks the shard crashed and closes its ring on any abnormal worker
/// exit — an explicit give-up *or* a panic escaping supervision — so
/// producers unblock and `snapshot`/`shutdown` surface `WorkerCrashed`
/// instead of hanging on a reply no one will ever publish.
struct CrashGuard<'a, A: ShardAggregate> {
    counters: &'a ShardCounters,
    ring: &'a RingBuffer<Msg<A>>,
    snap: &'a SnapShared<A>,
    armed: bool,
}

impl<A: ShardAggregate> Drop for CrashGuard<'_, A> {
    fn drop(&mut self) {
        if self.armed {
            self.counters.crashed.store(true, Ordering::Release);
            self.ring.close();
            // Drain what the dead shard will never process: abandoned
            // work is counted as dropped. A `try_push` racing `close`
            // may still land an item after an empty drain observation,
            // so sweep until the ring stays empty across two passes.
            loop {
                let mut drained = false;
                while let Some(msg) = self.ring.try_pop() {
                    drained = true;
                    if let Msg::Work(work) = msg {
                        self.counters
                            .dropped
                            .fetch_add(work.len(), Ordering::Relaxed);
                        work.settle();
                    }
                }
                if !drained {
                    break;
                }
            }
            // Wake any snapshot requester so it sees `crashed` and
            // returns `WorkerCrashed` instead of waiting forever.
            self.snap.notify();
        }
    }
}

/// Publishes into the snapshot mailbox if an unanswered request's
/// watermark has been reached. `processed` counts ring positions this
/// worker has fully handled.
///
/// Dense plane: a full accumulator clone. Delta plane: the sparse delta
/// since the base — O(touched rows) — prefixed by any unconsumed chunks
/// swept from abandoned epochs (see [`SnapShared`]'s "why two slots")
/// and any chunks carried from self-advances.
fn maybe_publish<A: ShardAggregate>(
    ctx: &WorkerCtx<A>,
    state: &mut Recovery<A>,
    processed: u64,
    last_published: &mut u64,
) {
    let snap = &ctx.snap;
    let req = snap.requested.load(Ordering::Acquire);
    if req == *last_published || processed < snap.watermark.load(Ordering::Acquire) {
        return;
    }
    let publication = match ctx.plane {
        SnapshotPlane::Dense => Publication::Full(state.acc.clone()),
        SnapshotPlane::Delta => {
            // Sweep both parity slots for abandoned, never-consumed
            // chunks — they are the only copy of their history span.
            let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(1);
            for slot in &snap.slots {
                let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(Publication::Delta(stale)) = slot.take() {
                    chunks.extend(stale);
                }
            }
            let swept = chunks.len();
            chunks.append(&mut state.carried);
            chunks.push(state.advance());
            let fresh_bytes: usize = chunks[swept..].iter().map(Vec::len).sum();
            ctx.counters
                .deltas_published
                .fetch_add(1, Ordering::Relaxed);
            ctx.counters
                .delta_bytes
                .fetch_add(fresh_bytes as u64, Ordering::Relaxed);
            Publication::Delta(chunks)
        }
    };
    {
        let mut slot = snap.slots[(req & 1) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *slot = Some(publication);
    }
    snap.published.store(req, Ordering::Release);
    *last_published = req;
    snap.notify();
}

/// The shard worker: pops messages until the ring closes, absorbing
/// under supervision and answering snapshot requests between messages,
/// then sends the final accumulator over `done`.
pub(crate) fn run_worker<A: ShardAggregate>(ctx: WorkerCtx<A>) {
    let mut guard = CrashGuard {
        counters: &ctx.counters,
        ring: &ctx.ring,
        snap: &ctx.snap,
        armed: true,
    };
    let mut state = Recovery {
        acc: ctx.empty.clone(),
        base: ctx.empty.clone(),
        journal: Vec::new(),
        journaled: 0,
        carried: Vec::new(),
    };
    let mut recoveries_left = ctx.cfg.max_recoveries;
    // Ring positions fully handled; compared against snapshot
    // watermarks. Counts every message kind — Nudges occupy positions
    // too.
    let mut processed = 0u64;
    let mut last_published = 0u64;
    while let Some(msg) = ctx.ring.pop() {
        let work = match msg {
            Msg::Nudge => {
                processed += 1;
                maybe_publish(&ctx, &mut state, processed, &mut last_published);
                continue;
            }
            Msg::Work(work) => work,
        };
        // One fault index per message: a retry of the same message
        // re-evaluates the same index, so one-shot faults stay one-shot.
        let fault_idx = ctx.faults.as_ref().map(|f| f.next_message(ctx.shard));

        let mut absorbed = false;
        for _attempt in 0..2 {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                absorb_with_fault(&ctx, fault_idx, &work, &mut state.acc);
            }));
            match outcome {
                Ok(()) => {
                    absorbed = true;
                    break;
                }
                Err(_) => {
                    ctx.counters.panics.fetch_add(1, Ordering::Relaxed);
                    if recoveries_left == 0 {
                        // Budget exhausted: the guard marks the shard
                        // crashed and closes the ring. The in-flight
                        // work leaves the pipeline here.
                        work.settle();
                        return;
                    }
                    recoveries_left -= 1;
                    state.rebuild();
                    ctx.counters.recoveries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        work.settle();
        if absorbed {
            state.record(work, ctx.plane, &ctx.empty);
        } else {
            // Both attempts panicked: the in-flight message is lost,
            // and `acc` was rebuilt to exclude it — exact accounting.
            ctx.counters
                .lost_to_panics
                .fetch_add(work.len(), Ordering::Relaxed);
        }
        // The position is processed either way (absorbed or dropped
        // with accounting): a snapshot at this watermark must not wait
        // on a message that will never be absorbed.
        processed += 1;
        maybe_publish(&ctx, &mut state, processed, &mut last_published);
    }
    guard.armed = false;
    drop(ctx.done.send(state.acc));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, ShardedService};
    use profileme_core::{ProfileDatabase, Sample, WireFormat};

    /// A profiled ijpeg stream and its empty aggregate.
    fn stream() -> (ProfileDatabase, Vec<Sample>) {
        let (run, program) = crate::tests::sample_run();
        (
            ProfileDatabase::new(&program, run.db.interval()),
            run.samples,
        )
    }

    fn encoded(db: &ProfileDatabase) -> Vec<u8> {
        db.encode(WireFormat::Sparse).unwrap()
    }

    #[test]
    fn carried_chunks_fold_without_changing_their_sum() {
        let (empty, samples) = stream();
        let mut acc = empty.clone();
        let mut base = empty.clone();
        let mut carried = Vec::new();
        for batch in samples.chunks(7).cycle().take(3 * CARRY_FOLD + 2) {
            batch.iter().for_each(|s| acc.add(s));
            let chunk = acc.extract_delta_bytes(&mut base).unwrap();
            carry(&mut carried, chunk, &empty);
            assert!(carried.len() <= CARRY_FOLD, "{} carried", carried.len());
        }
        assert!(carried.len() < 3 * CARRY_FOLD + 2, "the list folded");
        let mut applied = empty.clone();
        for chunk in &carried {
            applied.apply_delta_bytes(chunk).unwrap();
        }
        assert_eq!(encoded(&applied), encoded(&acc));
    }

    /// `tests/fault_recovery.rs::recovery_replays_base_plus_journal`
    /// copies the journal bound as a literal and places its panics
    /// around self-advances: 512-sample batches alternating over two
    /// shards, a snapshot every 160 batches per shard, and panics at
    /// shard-local messages 100, 140, 200 (shard 0) and 300 (shard 1).
    /// This pins that geometry to the real bound, so changing
    /// [`JOURNAL_BOUND`] cannot quietly leave the test without a
    /// self-advance.
    #[test]
    fn base_plus_journal_test_geometry_straddles_the_bound() {
        const COPIED_BOUND: u64 = 65_536;
        const BATCH: u64 = 512;
        const PER_SHARD_INTERVAL: u64 = 160;
        assert_eq!(
            JOURNAL_BOUND, COPIED_BOUND,
            "update the integration test's copy"
        );
        assert_eq!(JOURNAL_BOUND % BATCH, 0);
        // The journal restarts at every snapshot, so each interval
        // self-advances once, after this many of the shard's batches.
        let advance_after = JOURNAL_BOUND / BATCH;
        assert!(
            advance_after < PER_SHARD_INTERVAL,
            "one self-advance per interval"
        );
        for (message, after_advance) in [(100, false), (140, true), (200, false), (300, true)] {
            let in_interval = (message - 1) % PER_SHARD_INTERVAL + 1;
            assert_eq!(
                in_interval > advance_after,
                after_advance,
                "message {message}"
            );
        }
    }

    /// Past `CARRY_FOLD + 1` journal bounds with no snapshot, the
    /// worker has self-advanced and folded; the one snapshot still
    /// equals direct aggregation, and its publication — one WAL record
    /// per chunk — carried at most `CARRY_FOLD` chunks plus the fresh one.
    #[test]
    fn unsnapshotted_ingest_past_the_fold_stays_byte_identical() {
        let (empty, samples) = stream();
        let dir = std::env::temp_dir().join(format!("pm-carry-{}", std::process::id()));
        drop(std::fs::remove_dir_all(&dir));
        let svc = ShardedService::start(
            empty.clone(),
            ServeConfig::builder()
                .shards(1)
                .data_dir(&dir)
                .build()
                .unwrap(),
        )
        .unwrap();
        let total = (CARRY_FOLD + 1) * JOURNAL_BOUND as usize + 1000;
        let stream: Vec<Sample> = samples.iter().cycle().take(total).cloned().collect();
        let mut direct = empty;
        for batch in stream.chunks(4096) {
            svc.ingest_batch(batch.to_vec());
            batch.iter().for_each(|s| direct.add(s));
        }
        let snap = svc.snapshot().unwrap();
        assert_eq!(encoded(&snap.merged), encoded(&direct));
        let records = svc.store_stats().unwrap().appended_records;
        assert!(
            (2..=CARRY_FOLD as u64 + 1).contains(&records),
            "{records} chunks in one publication"
        );
        let (merged, stats) = svc.shutdown().unwrap();
        assert_eq!(stats.lost(), 0);
        assert_eq!(encoded(&merged), encoded(&direct));
        drop(std::fs::remove_dir_all(&dir));
    }

    /// An epoch abandoned at its deadline leaves its chunk in a slot;
    /// a self-advance then carries a second span. The next snapshot
    /// ships both ahead of the fresh chunk, losing nothing.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn abandoned_epoch_then_self_advance_stays_byte_identical() {
        use crate::faults::FaultPlan;
        use profileme_core::ProfileError;
        use std::time::Duration;
        let (empty, samples) = stream();
        let svc = ShardedService::start_with_faults(
            empty.clone(),
            ServeConfig::builder().shards(1).build().unwrap(),
            FaultPlan::parse("delay:shard=0:nth=2:ms=500").unwrap(),
        )
        .unwrap();
        let total = 20 + JOURNAL_BOUND as usize + 4096;
        let stream: Vec<Sample> = samples.iter().cycle().take(total).cloned().collect();
        svc.ingest_batch(stream[..10].to_vec());
        svc.snapshot().unwrap();
        // The worker sleeps on this batch, so the deadline abandons
        // the epoch that covers it.
        svc.ingest_batch(stream[10..20].to_vec());
        assert!(matches!(
            svc.snapshot_deadline(Duration::from_millis(10)),
            Err(ProfileError::DeadlineExceeded { .. })
        ));
        // More than a journal bound before the next snapshot.
        for batch in stream[20..].chunks(4096) {
            svc.ingest_batch(batch.to_vec());
        }
        let snap = svc.snapshot().unwrap();
        let mut direct = empty;
        stream.iter().for_each(|s| direct.add(s));
        assert_eq!(encoded(&snap.merged), encoded(&direct));
        assert_eq!(svc.stats().deadline_misses, 1);
    }

    /// The dense plane advances its base only on its own; a panic
    /// after that rebuilds from the advanced base plus the journal.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn dense_plane_recovers_across_a_self_advance() {
        use crate::faults::FaultPlan;
        use crate::service::SnapshotPlane;
        let (empty, samples) = stream();
        // 4,096-sample batches: the base advances after the 16th.
        let svc = ShardedService::start_with_faults(
            empty.clone(),
            ServeConfig::builder()
                .shards(1)
                .plane(SnapshotPlane::Dense)
                .build()
                .unwrap(),
            FaultPlan::parse("panic:shard=0:nth=10; panic:shard=0:nth=20").unwrap(),
        )
        .unwrap();
        let total = 2 * JOURNAL_BOUND as usize;
        let stream: Vec<Sample> = samples.iter().cycle().take(total).cloned().collect();
        for batch in stream.chunks(4096) {
            svc.ingest_batch(batch.to_vec());
        }
        let snap = svc.snapshot().unwrap();
        let mut direct = empty;
        stream.iter().for_each(|s| direct.add(s));
        assert_eq!(encoded(&snap.merged), encoded(&direct));
        assert_eq!(snap.stats.workers_recovered, 2);
        assert_eq!(snap.stats.lost(), 0);
    }
}
