//! Multi-tenant fleet aggregation: per-tenant profile views, quotas,
//! and a per-tenant degradation ladder.
//!
//! DCPI's payoff was one aggregation service fed by an entire fleet of
//! production machines. That only works if the service degrades
//! **selectively**: one producer driving 4× its budget must be thinned
//! or shed — with exact accounting — while every other producer keeps
//! full fidelity and byte-identical snapshots. This module builds that
//! in three layers:
//!
//! 1. [`Tenanted<A>`] — a [`ShardAggregate`] wrapper keying per-tenant
//!    views of the underlying aggregate inside each shard. Absorb and
//!    merge stay commutative and associative per tenant, so the
//!    service's routing-independence invariant (byte-identical merged
//!    snapshots for any shard count) holds per tenant too.
//! 2. [`TenantQuota`] + [`TokenBucket`] — deterministic admission
//!    control: a token-bucket rate/burst cap and a queue-share cap on
//!    in-flight items, combined into a **tenant-attributable** pressure
//!    signal. Pressure feeds one [`OverloadController`] per tenant, so
//!    the Full→Sampled→Shed ladder moves independently per tenant.
//! 3. [`FleetService<A>`] — the multi-tenant façade over
//!    [`ShardedService`]: admission, per-tenant accounting
//!    ([`TenantStats`]), and an [`EpochRing`] of retained snapshots for
//!    time-windowed per-tenant deltas.
//!
//! This module is the service's only admission-policy layer: the
//! sharded service beneath it never thins, sheds, or retries, so the
//! thinning rule and the count it keeps are decided here and nowhere
//! else.
//!
//! Queue-share accounting rides the supervised worker pipeline: every
//! admitted batch carries an `Arc<AtomicU64>` credit that the worker
//! releases when the batch permanently leaves the pipeline (absorbed,
//! dropped after a double panic, or drained by the crash guard), so
//! `inflight` is exact even across injected worker crashes.

use crate::degrade::{DegradeConfig, DegradeLevel, OverloadController};
use crate::faults::mix64;
use crate::service::{IngestStats, ServeConfig, ShardAggregate, ShardedService};
use profileme_core::{ProfileDatabase, ProfileError};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A fleet producer's identity, carried with every sample through the
/// ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// A tenant's admission budget: a token-bucket rate/burst cap plus a
/// queue-share cap on items in flight inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TenantQuota {
    /// Sustained admission rate, in items per second (token refill).
    pub rate_per_sec: u64,
    /// Bucket capacity: how many items the tenant may burst above the
    /// sustained rate before pressure saturates.
    pub burst: u64,
    /// Maximum items this tenant may have in flight (enqueued but not
    /// yet absorbed) before share pressure saturates.
    pub queue_share: u64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            rate_per_sec: 100_000,
            burst: 100_000,
            queue_share: 65_536,
        }
    }
}

impl TenantQuota {
    /// Checks the quota.
    ///
    /// # Errors
    ///
    /// Rejects a zero rate, burst, or queue share — a tenant with no
    /// budget at all should simply not be registered.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.rate_per_sec == 0 {
            return Err(ProfileError::config(
                "rate_per_sec",
                "must be at least 1 (got 0)",
            ));
        }
        if self.burst == 0 {
            return Err(ProfileError::config("burst", "must be at least 1 (got 0)"));
        }
        if self.queue_share == 0 {
            return Err(ProfileError::config(
                "queue_share",
                "must be at least 1 (got 0)",
            ));
        }
        Ok(())
    }
}

/// A deterministic token bucket over an explicit clock: all methods
/// take time as nanoseconds since an arbitrary epoch, so tests drive
/// it without sleeping and two runs with the same timestamps agree
/// exactly.
///
/// Tokens are tracked in nano-tokens (`tokens × 10⁹`) so refill is
/// integer-exact: `rate_per_sec × elapsed_nanos` nano-tokens accrue.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: u64,
    burst_e9: u128,
    tokens_e9: u128,
    last_nanos: u64,
}

const E9: u128 = 1_000_000_000;

impl TokenBucket {
    /// A full bucket for `quota`, with the clock at `now_nanos`.
    pub fn new(quota: TenantQuota, now_nanos: u64) -> TokenBucket {
        let burst_e9 = u128::from(quota.burst) * E9;
        TokenBucket {
            rate_per_sec: quota.rate_per_sec,
            burst_e9,
            tokens_e9: burst_e9,
            last_nanos: now_nanos,
        }
    }

    /// Accrues tokens for the time since the last call, capped at the
    /// burst size. Time moving backwards accrues nothing.
    pub fn refill(&mut self, now_nanos: u64) {
        let elapsed = now_nanos.saturating_sub(self.last_nanos);
        self.last_nanos = self.last_nanos.max(now_nanos);
        self.tokens_e9 = self
            .tokens_e9
            .saturating_add(u128::from(self.rate_per_sec) * u128::from(elapsed))
            .min(self.burst_e9);
    }

    /// Consumes up to `n` tokens (all remaining ones if fewer are
    /// available — admission already happened; the deficit shows up as
    /// pressure instead of debt).
    pub fn take(&mut self, n: u64) {
        self.tokens_e9 = self.tokens_e9.saturating_sub(u128::from(n) * E9);
    }

    /// Whole tokens currently available.
    pub fn tokens(&self) -> u64 {
        (self.tokens_e9 / E9) as u64
    }

    /// How depleted the bucket is, as a percentage: 0 when full, 100
    /// when empty — the rate component of tenant pressure.
    pub fn deficit_pct(&self) -> u8 {
        if self.burst_e9 == 0 {
            return 100;
        }
        ((self.burst_e9 - self.tokens_e9) * 100 / self.burst_e9) as u8
    }
}

// ---------------------------------------------------------------------
// Tenant-keyed merge algebra
// ---------------------------------------------------------------------

/// A [`ShardAggregate`] keyed by tenant: each tenant gets its own view
/// of the underlying aggregate, created on first absorb by cloning the
/// empty prototype.
///
/// Per tenant, absorb/merge delegate to `A`, so they stay commutative
/// and associative and the sharded service's determinism invariant
/// holds **per tenant**: whenever a tenant loses no samples, its view
/// in the merged snapshot is byte-identical to direct single-threaded
/// aggregation of that tenant's stream — regardless of what happened
/// to other tenants.
///
/// The checkpoint image frames the prototype plus every tenant view
/// (magic `PMTC`); deltas frame one chunk per tenant touched since the
/// last extraction (magic `PMTD`), so epoch publication stays
/// O(touched tenants × touched rows).
#[derive(Debug, Clone)]
pub struct Tenanted<A: ShardAggregate> {
    /// The empty prototype new tenant views are cloned from.
    proto: A,
    /// Tenant views, sorted by tenant id (binary-searchable, and a
    /// canonical order for checkpoints and merges).
    views: Vec<(u32, A)>,
    /// Tenant ids touched since the last delta extraction — tracked
    /// here so extraction never serializes an unchanged tenant,
    /// independent of `A`'s wire format. Part of the checkpoint image:
    /// a crash-rebuilt accumulator must still know which tenants its
    /// next delta owes chunks for.
    touched: Vec<u32>,
}

const TENANT_CHECKPOINT_MAGIC: &[u8; 4] = b"PMTC";
const TENANT_DELTA_MAGIC: &[u8; 4] = b"PMTD";

fn push_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn truncated() -> ProfileError {
    ProfileError::Snapshot {
        reason: "tenant frame truncated".into(),
    }
}

fn read_u32(bytes: &[u8], at: &mut usize) -> Result<u32, ProfileError> {
    let end = at
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(truncated)?;
    let v = u32::from_le_bytes(bytes[*at..end].try_into().expect("4 bytes"));
    *at = end;
    Ok(v)
}

fn read_chunk<'a>(bytes: &'a [u8], at: &mut usize) -> Result<&'a [u8], ProfileError> {
    let len = read_u32(bytes, at)? as usize;
    let end = at
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(truncated)?;
    let chunk = &bytes[*at..end];
    *at = end;
    Ok(chunk)
}

impl<A: ShardAggregate> Tenanted<A> {
    /// An empty tenant-keyed aggregate over the given prototype.
    pub fn new(proto: A) -> Tenanted<A> {
        Tenanted {
            proto,
            views: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The view index for `id`, creating the view when absent.
    fn view_index(&mut self, id: u32) -> usize {
        match self.views.binary_search_by_key(&id, |(t, _)| *t) {
            Ok(i) => i,
            Err(i) => {
                self.views.insert(i, (id, self.proto.clone()));
                i
            }
        }
    }

    fn mark_touched(&mut self, id: u32) {
        if !self.touched.contains(&id) {
            self.touched.push(id);
        }
    }

    /// The tenant's view, if it has absorbed anything.
    pub fn tenant(&self, id: TenantId) -> Option<&A> {
        self.views
            .binary_search_by_key(&id.0, |(t, _)| *t)
            .ok()
            .map(|i| &self.views[i].1)
    }

    /// Every tenant present, in id order.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, &A)> {
        self.views.iter().map(|(id, v)| (TenantId(*id), v))
    }

    /// How many tenants have a view.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no tenant has absorbed anything yet.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

impl<A: ShardAggregate> ShardAggregate for Tenanted<A> {
    type Item = (TenantId, A::Item);
    type ViewIndex = ();

    fn absorb(&mut self, item: &Self::Item) {
        let id = item.0 .0;
        let i = self.view_index(id);
        self.views[i].1.absorb(&item.1);
        self.mark_touched(id);
    }

    fn merge(&mut self, other: &Tenanted<A>) -> Result<(), ProfileError> {
        for (id, view) in &other.views {
            let i = self.view_index(*id);
            self.views[i].1.merge(view)?;
            self.mark_touched(*id);
        }
        Ok(())
    }

    fn shard_of(item: &Self::Item, shards: usize) -> usize {
        // Tenant-home routing: a tenant's per-item stream lands on one
        // shard. Any pure routing preserves the merged bytes; keeping
        // tenants together merely improves locality.
        if shards <= 1 {
            return 0;
        }
        (mix64(u64::from(item.0 .0)) as usize) % shards
    }

    fn checkpoint_bytes(&self) -> Result<Vec<u8>, ProfileError> {
        let mut out = Vec::new();
        out.extend_from_slice(TENANT_CHECKPOINT_MAGIC);
        push_chunk(&mut out, &self.proto.checkpoint_bytes()?);
        out.extend_from_slice(&(self.views.len() as u32).to_le_bytes());
        for (id, view) in &self.views {
            out.extend_from_slice(&id.to_le_bytes());
            push_chunk(&mut out, &view.checkpoint_bytes()?);
        }
        // The touched set is state too: a crash-rebuilt accumulator
        // must still know which tenants its next delta owes chunks
        // for, or a recovery between an absorb and an extraction
        // would silently lose that tenant's span.
        let mut touched = self.touched.clone();
        touched.sort_unstable();
        out.extend_from_slice(&(touched.len() as u32).to_le_bytes());
        for id in touched {
            out.extend_from_slice(&id.to_le_bytes());
        }
        Ok(out)
    }

    fn from_checkpoint_bytes(bytes: &[u8]) -> Result<Tenanted<A>, ProfileError> {
        let mut at = 0usize;
        let magic = bytes.get(..4).ok_or(ProfileError::Snapshot {
            reason: "tenant checkpoint truncated".into(),
        })?;
        if magic != TENANT_CHECKPOINT_MAGIC {
            return Err(ProfileError::Snapshot {
                reason: "not a tenant checkpoint (bad magic)".into(),
            });
        }
        at += 4;
        let proto = A::from_checkpoint_bytes(read_chunk(bytes, &mut at)?)?;
        let corrupt = |what: &str| ProfileError::Snapshot {
            reason: format!("tenant checkpoint {what}"),
        };
        // Counts come from disk, so each reservation is bounded by the
        // bytes left (a view takes at least 8, a touched id 4). Ids must
        // be strictly increasing: `views` is binary-searched, and delta
        // extraction looks every touched id up in it.
        let count = read_u32(bytes, &mut at)? as usize;
        let mut views: Vec<(u32, A)> = Vec::with_capacity(count.min((bytes.len() - at) / 8));
        for _ in 0..count {
            let id = read_u32(bytes, &mut at)?;
            if views.last().is_some_and(|(last, _)| *last >= id) {
                return Err(corrupt("has unsorted or duplicate view ids"));
            }
            views.push((id, A::from_checkpoint_bytes(read_chunk(bytes, &mut at)?)?));
        }
        let count = read_u32(bytes, &mut at)? as usize;
        let mut touched: Vec<u32> = Vec::with_capacity(count.min((bytes.len() - at) / 4));
        for _ in 0..count {
            let id = read_u32(bytes, &mut at)?;
            if touched.last().is_some_and(|&last| last >= id)
                || views.binary_search_by_key(&id, |(t, _)| *t).is_err()
            {
                return Err(corrupt("has an unsorted, duplicate or unknown touched id"));
            }
            touched.push(id);
        }
        if at != bytes.len() {
            return Err(corrupt("has trailing bytes"));
        }
        Ok(Tenanted {
            proto,
            views,
            touched,
        })
    }

    fn extract_delta_bytes(&mut self, base: &mut Tenanted<A>) -> Result<Vec<u8>, ProfileError> {
        // Only tenants touched since the last extraction produce a
        // chunk; everyone else's base view is already identical.
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        let mut out = Vec::new();
        out.extend_from_slice(TENANT_DELTA_MAGIC);
        out.extend_from_slice(&(touched.len() as u32).to_le_bytes());
        for id in touched {
            let i = self
                .views
                .binary_search_by_key(&id, |(t, _)| *t)
                .expect("touched ids name existing views");
            let bi = base.view_index(id);
            out.extend_from_slice(&id.to_le_bytes());
            push_chunk(
                &mut out,
                &self.views[i].1.extract_delta_bytes(&mut base.views[bi].1)?,
            );
        }
        base.touched.clear();
        Ok(out)
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<Vec<u32>, ProfileError> {
        let mut at = 0usize;
        let magic = bytes.get(..4).ok_or(ProfileError::Snapshot {
            reason: "tenant delta truncated".into(),
        })?;
        if magic != TENANT_DELTA_MAGIC {
            return Err(ProfileError::Snapshot {
                reason: "not a tenant delta (bad magic)".into(),
            });
        }
        at += 4;
        let count = read_u32(bytes, &mut at)?;
        for _ in 0..count {
            let id = read_u32(bytes, &mut at)?;
            let chunk = read_chunk(bytes, &mut at)?;
            let i = self.view_index(id);
            self.views[i].1.apply_delta_bytes(chunk)?;
            self.mark_touched(id);
        }
        // No cross-tenant row index is maintained; the fleet answers
        // per-tenant queries from the views themselves.
        Ok(Vec::new())
    }
}

// ---------------------------------------------------------------------
// Epoch ring
// ---------------------------------------------------------------------

/// A bounded ring of retained snapshots, keyed by snapshot sequence
/// number: the history window behind time-windowed per-tenant deltas.
#[derive(Debug)]
pub struct EpochRing<T> {
    retain: usize,
    entries: VecDeque<(u64, T)>,
}

impl<T> EpochRing<T> {
    /// An empty ring retaining at most `retain` snapshots (at least 1).
    pub fn new(retain: usize) -> EpochRing<T> {
        EpochRing {
            retain: retain.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Retains `value` under `seq`, evicting the oldest entry beyond
    /// the retention bound.
    pub fn push(&mut self, seq: u64, value: T) {
        self.entries.push_back((seq, value));
        while self.entries.len() > self.retain {
            self.entries.pop_front();
        }
    }

    /// The retained snapshot for `seq`, if it has not been evicted.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.entries.iter().find(|(s, _)| *s == seq).map(|(_, v)| v)
    }

    /// The newest retained entry.
    pub fn latest(&self) -> Option<(u64, &T)> {
        self.entries.back().map(|(s, v)| (*s, v))
    }

    /// Sequence numbers currently retained, oldest first.
    pub fn seqs(&self) -> Vec<u64> {
        self.entries.iter().map(|(s, _)| *s).collect()
    }

    /// Retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retention bound.
    pub fn retain(&self) -> usize {
        self.retain
    }
}

// ---------------------------------------------------------------------
// The fleet service
// ---------------------------------------------------------------------

/// Per-tenant admission state: the quota, its token bucket, the
/// tenant's own degradation ladder, and the in-flight credit counter
/// the supervised workers settle.
struct TenantState {
    id: TenantId,
    quota: TenantQuota,
    bucket: Mutex<TokenBucket>,
    ladder: OverloadController,
    inflight: Arc<AtomicU64>,
    offered: AtomicU64,
    accepted: AtomicU64,
}

impl TenantState {
    /// Tenant-attributable pressure in `[0, 100]`: the worse of the
    /// token-bucket deficit (rate pressure) and the in-flight fraction
    /// of the queue share (share pressure). Neither component can be
    /// moved by another tenant's traffic, which is exactly what makes
    /// the per-tenant ladder fair.
    fn pressure(&self, now_nanos: u64) -> u8 {
        let rate = {
            let mut bucket = self.bucket.lock().unwrap_or_else(PoisonError::into_inner);
            bucket.refill(now_nanos);
            bucket.deficit_pct()
        };
        let inflight = self.inflight.load(Ordering::Relaxed);
        let share = (inflight.saturating_mul(100) / self.quota.queue_share).min(100) as u8;
        rate.max(share)
    }
}

/// Configuration of the multi-tenant layer: who the tenants are, how
/// their admission ladders behave, and how much snapshot history to
/// retain.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The registered tenants and their quotas. Samples for an
    /// unregistered tenant are rejected at admission.
    pub tenants: Vec<(TenantId, TenantQuota)>,
    /// Snapshots retained in the epoch ring for time-windowed deltas.
    pub epoch_retain: usize,
    /// The degradation ladder every tenant's admission runs: thinning
    /// factor, pressure watermarks, and upshift cooldown.
    pub degrade: DegradeConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            tenants: Vec::new(),
            epoch_retain: 8,
            degrade: DegradeConfig::default(),
        }
    }
}

impl FleetConfig {
    /// A uniform fleet: tenants `0..n`, all with `quota`.
    pub fn uniform(n: u32, quota: TenantQuota) -> FleetConfig {
        FleetConfig {
            tenants: (0..n).map(|i| (TenantId(i), quota)).collect(),
            ..FleetConfig::default()
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects an empty tenant list, duplicate tenant ids, any invalid
    /// quota, and an invalid degradation ladder.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.tenants.is_empty() {
            return Err(ProfileError::config(
                "tenants",
                "must register at least one tenant",
            ));
        }
        let mut ids: Vec<u32> = self.tenants.iter().map(|(t, _)| t.0).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(ProfileError::config("tenants", "duplicate tenant id"));
        }
        for (_, quota) in &self.tenants {
            quota.validate()?;
        }
        self.degrade.validate()
    }
}

/// One tenant's accounting, as reported by [`FleetService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: u32,
    /// Items offered to [`FleetService::ingest_batch`].
    pub offered: u64,
    /// Items admitted onto shard rings.
    pub accepted: u64,
    /// Items discarded by this tenant's 1-in-k thinning.
    pub thinned: u64,
    /// Items dropped whole at this tenant's `Shed` level.
    pub shed: u64,
    /// The tenant's current ladder position (0 = full fidelity).
    pub level: u8,
    /// This tenant's ladder downshifts.
    pub downshifts: u64,
    /// This tenant's ladder upshifts.
    pub upshifts: u64,
    /// Items admitted but not yet absorbed by a worker.
    pub inflight: u64,
}

/// Fleet-wide accounting: per-tenant stats plus their totals plus the
/// underlying service's [`IngestStats`]. The fairness invariant ties
/// them together: per-tenant `thinned`/`shed` sum to the totals, and
/// `enqueued` on the inner service equals the sum of per-tenant
/// `accepted`.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStats {
    /// Per-tenant accounting, in tenant-id order.
    pub tenants: Vec<TenantStats>,
    /// Σ per-tenant `offered`.
    pub offered: u64,
    /// Σ per-tenant `accepted`.
    pub accepted: u64,
    /// Σ per-tenant `thinned`.
    pub thinned: u64,
    /// Σ per-tenant `shed`.
    pub shed: u64,
    /// The inner sharded service's accounting.
    pub service: IngestStats,
}

/// A merged point-in-time view of the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetSnapshot<A: ShardAggregate> {
    /// Every tenant's view, merged in shard order.
    pub merged: Tenanted<A>,
    /// 1-based snapshot sequence number (also the epoch-ring key).
    pub seq: u64,
    /// Fleet accounting at snapshot time.
    pub stats: FleetStats,
}

/// The multi-tenant aggregation service: per-tenant admission control
/// and degradation over one [`ShardedService`] of tenant-keyed
/// aggregates.
///
/// # Fairness
///
/// Admission happens per tenant, against that tenant's own token
/// bucket, in-flight share, and [`OverloadController`]. A tenant
/// driving multiples of its quota walks its own ladder down
/// (Full→Sampled→Shed) with exact per-tenant `thinned`/`shed`
/// accounting, while tenants inside their quota never observe pressure
/// at all — their views in every snapshot stay byte-identical to
/// direct aggregation of their streams.
pub struct FleetService<A: ShardAggregate> {
    inner: ShardedService<Tenanted<A>>,
    /// Sorted by tenant id; fixed at start, so lookups are lock-free.
    tenants: Vec<TenantState>,
    epochs: Mutex<EpochRing<Tenanted<A>>>,
    /// The admission clock's epoch: buckets measure time as
    /// nanoseconds since service start.
    started: Instant,
}

impl<A: ShardAggregate> FleetService<A> {
    /// Starts the fleet service: a [`ShardedService`] over
    /// [`Tenanted<A>`] plus one admission state per registered tenant.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an invalid `config` or
    /// `fleet`, and whatever [`ShardedService::start`] reports.
    pub fn start(
        proto: A,
        config: ServeConfig,
        fleet: FleetConfig,
    ) -> Result<FleetService<A>, ProfileError> {
        fleet.validate()?;
        let inner = ShardedService::start(Tenanted::new(proto), config)?;
        Ok(FleetService::assemble(inner, fleet))
    }

    /// [`start`](FleetService::start) with a deterministic
    /// [`FaultPlan`](crate::faults::FaultPlan) injected into every
    /// worker — fairness under reproducible chaos.
    ///
    /// # Errors
    ///
    /// As [`start`](FleetService::start).
    #[cfg(feature = "fault-injection")]
    pub fn start_with_faults(
        proto: A,
        config: ServeConfig,
        fleet: FleetConfig,
        plan: crate::faults::FaultPlan,
    ) -> Result<FleetService<A>, ProfileError> {
        fleet.validate()?;
        let inner = ShardedService::start_with_faults(Tenanted::new(proto), config, plan)?;
        Ok(FleetService::assemble(inner, fleet))
    }

    fn assemble(inner: ShardedService<Tenanted<A>>, fleet: FleetConfig) -> FleetService<A> {
        let started = Instant::now();
        let mut tenants: Vec<TenantState> = fleet
            .tenants
            .into_iter()
            .map(|(id, quota)| TenantState {
                id,
                quota,
                bucket: Mutex::new(TokenBucket::new(quota, 0)),
                ladder: OverloadController::new(fleet.degrade),
                inflight: Arc::new(AtomicU64::new(0)),
                offered: AtomicU64::new(0),
                accepted: AtomicU64::new(0),
            })
            .collect();
        tenants.sort_by_key(|t| t.id);
        FleetService {
            inner,
            tenants,
            epochs: Mutex::new(EpochRing::new(fleet.epoch_retain)),
            started,
        }
    }

    fn state(&self, tenant: TenantId) -> Result<&TenantState, ProfileError> {
        self.tenants
            .binary_search_by_key(&tenant, |t| t.id)
            .map(|i| &self.tenants[i])
            .map_err(|_| ProfileError::config("tenant", format!("{tenant} is not registered")))
    }

    fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Admits one batch for `tenant` at whatever fidelity its own
    /// ladder currently allows: in full, thinned 1-in-k, or shed whole
    /// — always with exact per-tenant accounting. Returns the level
    /// that was applied.
    ///
    /// Admission consumes tokens for everything actually enqueued and
    /// raises the tenant's in-flight credit, which the shard workers
    /// settle as batches are absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an unregistered tenant.
    pub fn ingest_batch(
        &self,
        tenant: TenantId,
        items: Vec<A::Item>,
    ) -> Result<DegradeLevel, ProfileError> {
        self.admit_batch(tenant, items).map(|(level, _)| level)
    }

    /// [`ingest_batch`](FleetService::ingest_batch), also returning how
    /// many items actually reached a shard ring: the kept part of a
    /// thinned batch, 0 for a shed one, and 0 when the push hit a
    /// crashed shard's closed ring.
    pub(crate) fn admit_batch(
        &self,
        tenant: TenantId,
        items: Vec<A::Item>,
    ) -> Result<(DegradeLevel, u64), ProfileError> {
        let state = self.state(tenant)?;
        if items.is_empty() {
            return Ok((state.ladder.level(), 0));
        }
        let n = items.len() as u64;
        state.offered.fetch_add(n, Ordering::Relaxed);
        let level = state.ladder.observe(state.pressure(self.now_nanos()));
        let enqueued = match level {
            DegradeLevel::Full => self.admit(state, items),
            DegradeLevel::Sampled => {
                let k = state.ladder.config().thin_k as usize;
                let before = items.len();
                // Deterministic 1-in-k thinning by stream position.
                let kept: Vec<A::Item> = items
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, item)| (i % k == 0).then_some(item))
                    .collect();
                state.ladder.count_thinned((before - kept.len()) as u64);
                self.admit(state, kept)
            }
            DegradeLevel::Shed => {
                state.ladder.count_shed(n);
                0
            }
        };
        Ok((level, enqueued))
    }

    /// Enqueues already-admitted items: tags them with the tenant id,
    /// charges the token bucket, raises the in-flight credit, and
    /// hands the batch to the inner service as one credited message.
    /// Returns how many items were enqueued.
    fn admit(&self, state: &TenantState, items: Vec<A::Item>) -> u64 {
        if items.is_empty() {
            return 0;
        }
        let n = items.len() as u64;
        {
            let mut bucket = state.bucket.lock().unwrap_or_else(PoisonError::into_inner);
            bucket.refill(self.now_nanos());
            bucket.take(n);
        }
        let tagged: Vec<(TenantId, A::Item)> =
            items.into_iter().map(|item| (state.id, item)).collect();
        // Raise the credit before the push: the worker may settle the
        // batch the instant it lands, and the counter must never
        // underflow. A rejected push (crashed shard) is unwound by
        // `ingest_batch_credited` itself.
        state.inflight.fetch_add(n, Ordering::Relaxed);
        let accepted = self.inner.ingest_batch_credited(tagged, &state.inflight);
        state.accepted.fetch_add(accepted, Ordering::Relaxed);
        accepted
    }

    /// One snapshot cycle over the whole fleet; the merged tenant-keyed
    /// aggregate is additionally retained in the epoch ring for
    /// time-windowed deltas.
    ///
    /// # Errors
    ///
    /// As [`ShardedService::snapshot`].
    pub fn snapshot(&self) -> Result<FleetSnapshot<A>, ProfileError> {
        let snap = self.inner.snapshot()?;
        let mut epochs = self.epochs.lock().unwrap_or_else(PoisonError::into_inner);
        epochs.push(snap.seq, snap.merged.clone());
        drop(epochs);
        Ok(FleetSnapshot {
            merged: snap.merged,
            seq: snap.seq,
            stats: self.stats(),
        })
    }

    /// Sequence numbers currently retained in the epoch ring, oldest
    /// first.
    pub fn epoch_seqs(&self) -> Vec<u64> {
        self.epochs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .seqs()
    }

    /// A clone of the retained fleet snapshot for `seq`, if it is
    /// still in the ring.
    pub fn epoch(&self, seq: u64) -> Option<Tenanted<A>> {
        self.epochs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(seq)
            .cloned()
    }

    /// Per-tenant and fleet-wide accounting.
    pub fn stats(&self) -> FleetStats {
        let tenants: Vec<TenantStats> = self
            .tenants
            .iter()
            .map(|t| {
                let (downshifts, upshifts, thinned, shed) = t.ladder.counters();
                TenantStats {
                    tenant: t.id.0,
                    offered: t.offered.load(Ordering::Relaxed),
                    accepted: t.accepted.load(Ordering::Relaxed),
                    thinned,
                    shed,
                    level: t.ladder.level().as_u8(),
                    downshifts,
                    upshifts,
                    inflight: t.inflight.load(Ordering::Relaxed),
                }
            })
            .collect();
        FleetStats {
            offered: tenants.iter().map(|t| t.offered).sum(),
            accepted: tenants.iter().map(|t| t.accepted).sum(),
            thinned: tenants.iter().map(|t| t.thinned).sum(),
            shed: tenants.iter().map(|t| t.shed).sum(),
            service: self.inner.stats(),
            tenants,
        }
    }

    /// The current ladder level for one tenant.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] for an unregistered tenant.
    pub fn tenant_level(&self, tenant: TenantId) -> Result<DegradeLevel, ProfileError> {
        Ok(self.state(tenant)?.ladder.level())
    }

    /// Closes the fleet: drains the inner service and returns the
    /// final tenant-keyed aggregate plus the final accounting.
    ///
    /// # Errors
    ///
    /// As [`ShardedService::shutdown`].
    pub fn shutdown(self) -> Result<(Tenanted<A>, FleetStats), ProfileError> {
        let mut stats = self.stats();
        let (merged, service) = self.inner.shutdown()?;
        stats.service = service;
        // The drain settled every in-flight credit; report the final
        // values rather than the pre-drain sample.
        for (t, state) in stats.tenants.iter_mut().zip(&self.tenants) {
            t.inflight = state.inflight.load(Ordering::Relaxed);
        }
        Ok((merged, stats))
    }

    /// Shared access to the inner sharded service (snapshot deadlines,
    /// view queries, store stats).
    pub fn service(&self) -> &ShardedService<Tenanted<A>> {
        &self.inner
    }
}

impl FleetService<ProfileDatabase> {
    /// The interval delta of one tenant's profile between two retained
    /// epochs: what that tenant aggregated in `(from_seq, to_seq]`.
    /// `None` if either epoch left the ring or the tenant is absent at
    /// `to_seq`; a tenant absent at `from_seq` yields its whole
    /// profile at `to_seq`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Mismatch`] if the retained snapshots
    /// are inconsistent (which would indicate a bug in the snapshot
    /// plane).
    pub fn tenant_window(
        &self,
        tenant: TenantId,
        from_seq: u64,
        to_seq: u64,
    ) -> Result<Option<ProfileDatabase>, ProfileError> {
        let epochs = self.epochs.lock().unwrap_or_else(PoisonError::into_inner);
        let (Some(from), Some(to)) = (epochs.get(from_seq), epochs.get(to_seq)) else {
            return Ok(None);
        };
        let Some(later) = to.tenant(tenant) else {
            return Ok(None);
        };
        match from.tenant(tenant) {
            None => Ok(Some(later.clone())),
            Some(earlier) => later.delta_since(earlier).map(Some),
        }
    }
}
