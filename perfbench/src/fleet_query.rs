//! `fleet_query`: one thread drives an in-process durable
//! `FleetService` with 16 tenants on one shard. Each round sends one
//! 64-sample batch per tenant in a seeded order, runs one snapshot
//! cycle, a top-10 query per tenant and one 4-epoch `tenant_window`
//! query. Reads dominate: delta publish, view apply, one WAL append per
//! cycle and the epoch-ring clone; there is no network and admission is
//! light.
//!
//! Tenants stream the seven small-footprint programs (every suite
//! program but `gcc`); tenant `t` streams program `t mod 7` in its own
//! seeded batch order. With `gcc`'s 18k-instruction image every view
//! would be 3 MB, every round would copy 16 of them twice, and the run
//! would need half a gigabyte; small images keep a snapshot cycle at a
//! few hundred microseconds, as in a dashboard refresh.
//!
//! One operation is one round.

use crate::host::{self, Rng, ScratchDir};
use crate::stats::Dist;
use crate::trace::{Trace, Tracer};
use crate::{encoded, mix, op_log, secs, session, set_up, unmetered, Outcome, Params};
use profileme_core::{ProfileDatabase, ProfileError, ProfileField, Sample};
use profileme_serve::{FleetConfig, FleetService, ServeConfig, TenantId};
use std::hint::black_box;
use std::time::Instant;

/// Registered tenants.
const TENANTS: usize = 16;
/// Samples per batch.
const BATCH: usize = 64;
/// Epochs a window query spans.
const WINDOW: u64 = 4;
/// Rows per top-N query.
const TOP: usize = 10;
/// Untimed rounds before the first phase; more than [`WINDOW`], so
/// every timed round's window is retained.
const WARM_UP_ROUNDS: usize = 8;
/// Timed `FleetService::epoch` clones in the traced run.
const EPOCH_CLONES: usize = 32;
/// Dynamic instructions profiled per program per set-up: about 4k
/// samples, 64 batches, each.
const STREAM_INSTRUCTIONS: u64 = 150_000;

/// The generated inputs: per program its batches, per tenant its
/// seeded batch order.
struct Inputs {
    proto: ProfileDatabase,
    batches: Vec<Vec<Vec<Sample>>>,
    orders: Vec<Vec<usize>>,
}

impl Inputs {
    /// The batch tenant `t` sends in its `k`-th round.
    fn batch(&self, t: usize, k: usize) -> &[Sample] {
        let order = &self.orders[t];
        &self.batches[t % self.batches.len()][order[k % order.len()]]
    }
}

impl Inputs {
    /// The generated samples and batch orders, folded together.
    fn fingerprint(&self) -> u64 {
        let samples = crate::fingerprint(self.batches.iter().flatten().flatten());
        let orders = self.orders.iter().flatten().map(|&b| b as u64);
        orders.fold(samples, mix)
    }
}

struct Live {
    svc: FleetService<ProfileDatabase>,
    // Declared after `svc` so the store directory outlives the service.
    _dir: ScratchDir,
}

fn setup(params: &Params) -> Result<(Inputs, Live), ProfileError> {
    let budget = if params.tiny {
        20_000
    } else {
        STREAM_INSTRUCTIONS
    };
    let programs: Vec<_> = profileme_workloads::suite(budget)
        .into_iter()
        .filter(|w| w.name != "gcc")
        .collect();
    let widest = programs
        .iter()
        .max_by_key(|w| w.program.len())
        .expect("the suite is not empty");
    if programs
        .iter()
        .any(|w| w.program.base() != widest.program.base())
    {
        return Err(ProfileError::config("programs", "must share a base PC"));
    }
    let mut interval = 0;
    let mut batches = Vec::new();
    for w in &programs {
        let run = session(w, params.seed)?.profile_single()?;
        interval = interval.max(run.db.interval());
        batches.push(
            run.samples
                .chunks_exact(BATCH)
                .map(<[Sample]>::to_vec)
                .collect::<Vec<_>>(),
        );
    }
    let proto = ProfileDatabase::new(&widest.program, interval);
    let orders = (0..TENANTS)
        .map(|t| Rng::new(params.seed, t as u64).permutation(batches[t % batches.len()].len()))
        .collect();
    let dir = ScratchDir::new("query");
    let config = ServeConfig::builder()
        .shards(1)
        .data_dir(dir.path())
        .build()?;
    // Retain just the epochs a window query needs.
    let fleet = FleetConfig {
        epoch_retain: WINDOW as usize + 1,
        ..FleetConfig::uniform(TENANTS as u32, unmetered())
    };
    let svc = FleetService::start(proto.clone(), config, fleet)?;
    Ok((
        Inputs {
            proto,
            batches,
            orders,
        },
        Live { svc, _dir: dir },
    ))
}

/// What one phase measured; latencies in microseconds.
struct Phase {
    rounds: Vec<f64>,
    snapshots: Vec<f64>,
    queries: Vec<f64>,
    /// Whether tracing was on for each round.
    spanned: Vec<bool>,
    elapsed: f64,
    failed: u64,
    attempted: u64,
}

impl Phase {
    /// An empty phase whose logs hold [`OP_CAPACITY`](crate::OP_CAPACITY)
    /// rounds.
    fn new() -> Phase {
        Phase {
            rounds: op_log(),
            snapshots: op_log(),
            queries: op_log(),
            spanned: op_log(),
            elapsed: 0.0,
            failed: 0,
            attempted: 0,
        }
    }
}

/// The load generator's state across phases: the next round number,
/// the seeded tenant order source, and the last snapshot sequence.
struct Load<'a> {
    inputs: &'a Inputs,
    svc: &'a FleetService<ProfileDatabase>,
    round: usize,
    rng: Rng,
    last_seq: u64,
}

impl Load<'_> {
    /// One round: ingest, snapshot, queries. Returns (round, snapshot,
    /// query) seconds.
    fn round(&mut self, t: &mut Tracer, phase: &mut Phase) -> (f64, f64, f64) {
        let r = self.round;
        self.round += 1;
        let request = r as u64;
        let order = self.rng.permutation(TENANTS);
        let batches: Vec<(usize, Vec<Sample>)> = order
            .into_iter()
            .map(|tenant| (tenant, self.inputs.batch(tenant, r).to_vec()))
            .collect();
        let svc = self.svc;
        let (mut attempted, mut failed) = (0u64, 0u64);
        let started = Instant::now();
        let (snapshot_s, query_s) = t.span("fleet_query.round", request, |t| {
            for (tenant, items) in batches {
                let level = t.span("serve.tenant.ingest_batch", request, |_| {
                    svc.ingest_batch(TenantId(tenant as u32), items)
                });
                attempted += 1;
                failed += u64::from(!matches!(level, Ok(profileme_serve::DegradeLevel::Full)));
            }
            let s = Instant::now();
            let snap = t.span("serve.tenant.snapshot", request, |_| svc.snapshot());
            let snapshot_s = secs(s);
            let q = Instant::now();
            match snap {
                Ok(snap) => {
                    self.last_seq = snap.seq;
                    t.span("fleet_query.query", request, |t| {
                        for tenant in 0..TENANTS {
                            let top = t.span("core.sw.top_n", request, |_| {
                                snap.merged
                                    .tenant(TenantId(tenant as u32))
                                    .map(|db| db.top_n(TOP, ProfileField::Samples))
                            });
                            attempted += 1;
                            failed += u64::from(black_box(top).is_none_or(|v| v.is_empty()));
                        }
                        // The first rounds have no epoch `WINDOW` back yet.
                        if snap.seq > WINDOW {
                            let window = t.span("serve.tenant.tenant_window", request, |_| {
                                svc.tenant_window(
                                    TenantId((r % TENANTS) as u32),
                                    snap.seq - WINDOW,
                                    snap.seq,
                                )
                            });
                            attempted += 1;
                            failed += u64::from(!matches!(black_box(window), Ok(Some(_))));
                        }
                    });
                }
                Err(_) => failed += 1,
            }
            (snapshot_s, secs(q))
        });
        // The snapshot itself.
        phase.attempted += attempted + 1;
        phase.failed += failed;
        (secs(started), snapshot_s, query_s)
    }

    /// Rounds until the stop rule holds. With `t` enabled, tracing is on
    /// for every other round.
    fn phase(&mut self, params: &Params, t: &mut Tracer) -> Phase {
        let mut phase = Phase::new();
        let traced = t.enabled();
        let started = Instant::now();
        while !params.phase_done(started, phase.rounds.len()) {
            let spanned = traced && phase.rounds.len().is_multiple_of(2);
            t.set_enabled(spanned);
            phase.spanned.push(spanned);
            let (round, snapshot, query) = self.round(t, &mut phase);
            phase.rounds.push(round * 1e6);
            phase.snapshots.push(snapshot * 1e6);
            phase.queries.push(query * 1e6);
        }
        phase.elapsed = secs(started);
        phase
    }
}

/// Runs `fleet_query`.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let fingerprint = |(inputs, _): &(Inputs, Live)| inputs.fingerprint();
    let retire = |out: &mut Outcome, (_, old): (Inputs, Live)| {
        if let Err(e) = old.svc.shutdown() {
            out.check(false, || format!("closing a set-up: {e}"));
        }
    };
    let Some(((inputs, live), setups)) = set_up(&mut out, || setup(params), fingerprint, retire)
    else {
        return out;
    };
    let svc = &live.svc;
    let mut load = Load {
        inputs: &inputs,
        svc,
        round: 0,
        rng: Rng::new(params.seed, TENANTS as u64),
        last_seq: 0,
    };
    let epoch = Instant::now();
    let mut off = Tracer::new(false, 0, epoch);
    let mut warm = Phase::new();
    for _ in 0..WARM_UP_ROUNDS {
        load.round(&mut off, &mut warm);
    }
    out.ops(
        warm.attempted,
        warm.failed,
        "warm-up ingest, snapshot and query calls",
    );

    let faults = host::minor_faults();
    let untraced = load.phase(params, &mut off);
    let faults = host::minor_faults() - faults;
    out.ops(
        untraced.attempted,
        untraced.failed,
        "ingest, snapshot and query calls",
    );
    let samples = (untraced.rounds.len() * TENANTS * BATCH) as u64;
    out.end_to_end(&untraced.rounds, samples, untraced.elapsed, faults, &setups);

    if params.trace {
        let untraced_rate = untraced.rounds.len() as f64 / untraced.elapsed;
        out.layer("e2e.rounds_per_s", untraced_rate);
        let snapshots = Dist::new(untraced.snapshots);
        let queries = Dist::new(untraced.queries);
        out.layer_percentile("e2e.snapshot_p50_us", &snapshots, 0.5);
        out.layer_percentile("e2e.snapshot_p99_us", &snapshots, 0.99);
        out.layer_percentile("e2e.query_p50_us", &queries, 0.5);
        out.layer_percentile("e2e.query_p99_us", &queries, 0.99);

        let before = (svc.stats().service, store_bytes(svc));
        let mut t = Tracer::new(true, 0, epoch);
        let traced = load.phase(&params.traced(), &mut t);
        out.ops(
            traced.attempted,
            traced.failed,
            "traced ingest, snapshot and query calls",
        );
        let after = (svc.stats().service, store_bytes(svc));
        let cycles = (after.0.snapshots - before.0.snapshots).max(1) as f64;
        out.layer(
            "serve.service.delta_bytes_per_snapshot",
            (after.0.delta_bytes - before.0.delta_bytes) as f64 / cycles,
        );
        out.layer(
            "serve.store.appended_bytes_per_snapshot",
            (after.1 - before.1) as f64 / cycles,
        );
        t.set_enabled(true);
        for k in 0..EPOCH_CLONES {
            let clone = t.span("serve.tenant.epoch", k as u64, |_| svc.epoch(load.last_seq));
            out.check(black_box(clone).is_some(), || {
                "the latest epoch is not retained".into()
            });
        }
        let (on, off): (Vec<_>, Vec<_>) = traced
            .rounds
            .iter()
            .zip(&traced.spanned)
            .partition(|(_, &spanned)| spanned);
        out.trace_overhead(
            on.iter().map(|(&us, _)| us).collect(),
            off.iter().map(|(&us, _)| us).collect(),
        );
        let trace = Trace::merge([t]);
        out.layer(
            "serve.tenant.epoch_clone_us",
            trace.durations_us("serve.tenant.epoch").median(),
        );
        out.layer_percentile(
            "serve.tenant.window_p50_us",
            &trace.durations_us("serve.tenant.tenant_window"),
            0.5,
        );
        out.layer_percentile(
            "core.sw.top_n_p50_us",
            &trace.durations_us("core.sw.top_n"),
            0.5,
        );
        out.keep_trace(params, &trace);
    }

    verify(params, &mut out, &load);
    let stats = svc.stats();
    out.check(
        stats.thinned == 0 && stats.shed == 0 && stats.service.dropped == 0,
        || "admission or the service lost samples".to_string(),
    );
    if params.trace {
        out.layer("serve.service.dropped", stats.service.dropped as f64);
        out.layer("serve.tenant.thinned", stats.thinned as f64);
        out.layer("serve.tenant.shed", stats.shed as f64);
    }
    let Live { svc, _dir } = live;
    if let Err(e) = svc.shutdown() {
        out.check(false, || format!("shutdown failed: {e}"));
    }
    out
}

fn store_bytes(svc: &FleetService<ProfileDatabase>) -> u64 {
    svc.service().store_stats().map_or(0, |s| s.appended_bytes)
}

/// The final `tenant_window` answer of every tenant equals direct
/// aggregation of the batches it sent in the window's rounds.
fn verify(params: &Params, out: &mut Outcome, load: &Load) {
    let last = load.last_seq;
    let rounds = load.round;
    for tenant in 0..TENANTS {
        let mut direct = load.inputs.proto.clone();
        for r in rounds - WINDOW as usize..rounds {
            for s in load.inputs.batch(tenant, r) {
                direct.add(s);
            }
        }
        if params.corrupt_reference && tenant == 0 {
            direct.add(&load.inputs.batch(0, 0)[0]);
        }
        let window = load
            .svc
            .tenant_window(TenantId(tenant as u32), last - WINDOW, last);
        let bytes = window.as_ref().ok().and_then(Option::as_ref).map(encoded);
        out.check(bytes == Some(encoded(&direct)), || {
            format!(
                "tenant-{tenant}: the last {WINDOW}-epoch window differs from direct aggregation"
            )
        });
    }
}
