//! `fleet_ingest`: two producer threads, each with one loopback TCP
//! connection and one tenant, stream 512-sample batches into a
//! `FleetServer` over a durable two-shard `FleetService` and wait for
//! each ack before sending the next (closed loop, two clients). Tenant 0
//! streams `compress` samples and tenant 1 `gcc` samples; every 16th
//! batch producer 0 also takes a snapshot and a top-10 query per tenant.
//!
//! One operation is one cycle of producer 0: 16 batches, each from send
//! to ack, then the snapshot and the queries. A cycle so covers every
//! layer the batches pass: the codec and admission inside each ack;
//! inside the snapshot, absorb of what is still queued, delta publish,
//! the WAL append and view apply. The rest of the absorb work runs on
//! the shard threads alongside the producers, on the same cores. The traced run repeats the TCP phase with spans on
//! every other batch, then replays its batches in process through
//! `FleetService::ingest_batch` (store on and off) and an untenanted
//! `ShardedService::ingest_batch`, so `send` can be split into the parts
//! the layers below it account for.

use crate::host::{self, Rng, ScratchDir};
use crate::stats::Dist;
use crate::trace::{Trace, Tracer};
use crate::{encoded, mix, op_log, secs, session, set_up, unmetered, Outcome, Params, OP_CAPACITY};
use profileme_core::{ProfileDatabase, ProfileError, ProfileField, Sample};
use profileme_serve::{
    ClientConfig, DegradeLevel, FleetClient, FleetConfig, FleetServer, FleetService, FleetStats,
    ProfileStore, ServeConfig, ShardedService, TenantId, Tenanted,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Samples per batch.
const BATCH: usize = 512;
/// Shards under the fleet service.
const SHARDS: usize = 2;
/// Producer 0 snapshots and queries after every this many batches.
const SNAPSHOT_EVERY: usize = 16;
/// Rows per top-N query.
const TOP: usize = 10;
/// Untimed batches per producer before the first phase.
const WARM_UP: usize = 4;
/// Store-on/store-off replay pairs behind `serve.store.wal_overhead_pct`.
const WAL_PAIRS: usize = 3;
/// `compress` iterations profiled per set-up: about 16k samples.
const COMPRESS_ITERS: u64 = 32_000;
/// `gcc` iterations profiled per set-up: about 16k samples.
const GCC_ITERS: u64 = 75;

type Fleet = FleetService<ProfileDatabase>;

/// The generated inputs: each tenant's batches and the seeded order
/// its producer sends them in (cycled).
struct Inputs {
    proto: ProfileDatabase,
    batches: [Vec<Vec<Sample>>; 2],
    order: [Vec<usize>; 2],
}

impl Inputs {
    /// The generated samples and batch orders, folded together.
    fn fingerprint(&self) -> u64 {
        let samples = crate::fingerprint(self.batches.iter().flatten().flatten());
        let orders = self.order.iter().flatten().map(|&b| b as u64);
        orders.fold(samples, mix)
    }
}

/// A running server and its clients.
struct Live {
    svc: Arc<Fleet>,
    stop: Arc<AtomicBool>,
    server: JoinHandle<Result<(), ProfileError>>,
    clients: [FleetClient; 2],
    dir: ScratchDir,
}

fn setup(params: &Params) -> Result<(Inputs, Live), ProfileError> {
    let (c, g) = if params.tiny {
        (2_000, 3)
    } else {
        (COMPRESS_ITERS, GCC_ITERS)
    };
    let compress = profileme_workloads::compress(c);
    let gcc = profileme_workloads::gcc(g);
    // One prototype serves both tenants, so it must span both programs.
    if compress.program.base() != gcc.program.base() || compress.program.len() > gcc.program.len() {
        return Err(ProfileError::config(
            "programs",
            "gcc must cover compress's PCs",
        ));
    }
    let compress_run = session(&compress, params.seed)?.profile_single()?;
    let gcc_run = session(&gcc, params.seed)?.profile_single()?;
    let proto = ProfileDatabase::new(&gcc.program, gcc_run.db.interval());
    let batches = [compress_run.samples, gcc_run.samples].map(|samples| {
        samples
            .chunks_exact(BATCH)
            .map(<[Sample]>::to_vec)
            .collect::<Vec<_>>()
    });
    let order =
        [0, 1].map(|p: usize| Rng::new(params.seed, p as u64).permutation(batches[p].len()));

    let dir = ScratchDir::new("ingest");
    let config = ServeConfig::builder()
        .shards(SHARDS)
        .data_dir(dir.path())
        .build()?;
    let svc = Arc::new(FleetService::start(
        proto.clone(),
        config,
        FleetConfig::uniform(2, unmetered()),
    )?);
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&svc))?;
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let server = std::thread::spawn(move || server.run());
    let clients =
        [0, 1].map(|t| FleetClient::new(addr.clone(), TenantId(t), ClientConfig::default()));
    Ok((
        Inputs {
            proto,
            batches,
            order,
        },
        Live {
            svc,
            stop,
            server,
            clients,
            dir,
        },
    ))
}

/// What the fleet holds once the server has stopped and the service has
/// shut down.
struct Closed {
    merged: Tenanted<ProfileDatabase>,
    stats: FleetStats,
    appended_bytes: u64,
    retries: u64,
    reconnects: u64,
    dir: ScratchDir,
}

fn close(live: Live) -> Result<Closed, ProfileError> {
    let Live {
        svc,
        stop,
        server,
        clients,
        dir,
    } = live;
    let (retries, reconnects) = clients.iter().fold((0, 0), |(r, c), client| {
        let s = client.stats();
        (r + s.retries, c + s.reconnects)
    });
    clients.into_iter().for_each(FleetClient::close);
    stop.store(true, Ordering::Release);
    server
        .join()
        .map_err(|_| ProfileError::net("the server thread panicked"))??;
    let svc = Arc::try_unwrap(svc)
        .map_err(|_| ProfileError::net("the service is still shared after the server stopped"))?;
    let appended_bytes = svc.service().store_stats().map_or(0, |s| s.appended_bytes);
    let (merged, stats) = svc.shutdown()?;
    Ok(Closed {
        merged,
        stats,
        appended_bytes,
        retries,
        reconnects,
        dir,
    })
}

/// What one producer saw in one phase.
struct ProducerLog {
    /// Producer 0 only: each completed cycle of [`SNAPSHOT_EVERY`]
    /// batches, send to ack, plus the snapshot and top-10 queries that
    /// follow them (µs).
    cycles: Vec<f64>,
    /// Each acked send: latency (µs) and whether tracing was on for it.
    sends: Vec<(f64, bool)>,
    /// Indices of the batches acknowledged in full, in send order.
    acked: Vec<usize>,
    failed_sends: u64,
    queries: u64,
    failed_queries: u64,
}

impl ProducerLog {
    fn new() -> ProducerLog {
        ProducerLog {
            cycles: op_log(),
            sends: op_log(),
            acked: op_log(),
            failed_sends: 0,
            queries: 0,
            failed_queries: 0,
        }
    }
}

/// One producer's closed loop. `cursor` carries its place in the
/// seeded batch order across phases. Producer 0 completes a cycle
/// every [`SNAPSHOT_EVERY`] batches with a snapshot and a top-10 query
/// per tenant, and counts its cycles in `cycles_done`; producer 1
/// streams alongside as load. In a traced phase tracing is on for every
/// other batch.
#[allow(clippy::too_many_arguments)]
fn produce(
    p: usize,
    inputs: &Inputs,
    client: &mut FleetClient,
    cursor: &mut usize,
    svc: &Fleet,
    t: &mut Tracer,
    done: &dyn Fn() -> bool,
    cycles_done: &AtomicUsize,
) -> ProducerLog {
    let mut log = ProducerLog::new();
    let order = &inputs.order[p];
    let traced = t.enabled();
    let mut sent = 0usize;
    let mut cycle = Instant::now();
    // Logs stop at their capacity; the stop rule ends the phase there.
    while !done() && log.sends.len() < OP_CAPACITY {
        let spanned = traced && sent.is_multiple_of(2);
        t.set_enabled(spanned);
        let b = order[*cursor % order.len()];
        *cursor += 1;
        let batch = &inputs.batches[p][b];
        let seq = client.stats().batches_acked + 1;
        let start = Instant::now();
        let ack = t.span("serve.net.send", seq, |_| client.send(batch));
        let latency_us = start.elapsed().as_secs_f64() * 1e6;
        match ack {
            Ok(a)
                if a.level == DegradeLevel::Full && !a.duplicate && a.admitted == BATCH as u64 =>
            {
                log.sends.push((latency_us, spanned));
                log.acked.push(b);
            }
            _ => log.failed_sends += 1,
        }
        sent += 1;
        if p == 0 && sent.is_multiple_of(SNAPSHOT_EVERY) {
            log.queries += 1;
            if !snapshot_and_query(svc, t, seq) {
                log.failed_queries += 1;
            }
            log.cycles.push(cycle.elapsed().as_secs_f64() * 1e6);
            cycles_done.fetch_add(1, Ordering::Relaxed);
            cycle = Instant::now();
        }
    }
    log
}

/// A snapshot and a top-10 query per tenant; whether every answer came
/// back non-empty.
fn snapshot_and_query(svc: &Fleet, t: &mut Tracer, request: u64) -> bool {
    let Ok(snap) = t.span("serve.tenant.snapshot", request, |_| svc.snapshot()) else {
        return false;
    };
    (0..2).all(|tenant| {
        let top = t.span("core.sw.top_n", request, |_| {
            snap.merged
                .tenant(TenantId(tenant))
                .map(|db| db.top_n(TOP, ProfileField::Samples))
        });
        black_box(top).is_some_and(|rows| !rows.is_empty())
    })
}

/// One measured TCP phase: both producers until the stop rule holds.
struct Phase {
    logs: [ProducerLog; 2],
    elapsed: f64,
    tracers: Vec<Tracer>,
}

fn phase(
    params: &Params,
    inputs: &Inputs,
    live: &mut Live,
    cursors: &mut [usize; 2],
    traced: bool,
    epoch: Instant,
) -> Phase {
    let cycles_done = AtomicUsize::new(0);
    let started = Instant::now();
    let done = || params.phase_done(started, cycles_done.load(Ordering::Relaxed));
    let svc = &*live.svc;
    let [c0, c1] = &mut live.clients;
    let [k0, k1] = cursors;
    let results = std::thread::scope(|s| {
        let handles = [(0, c0, k0), (1, c1, k1)].map(|(p, client, cursor)| {
            let (done, cycles_done) = (&done, &cycles_done);
            s.spawn(move || {
                let mut t = Tracer::new(traced, p as u32, epoch);
                let log = produce(p, inputs, client, cursor, svc, &mut t, done, cycles_done);
                (log, t)
            })
        });
        handles.map(|h| h.join().expect("a producer thread panicked"))
    });
    let elapsed = secs(started);
    let [(l0, t0), (l1, t1)] = results;
    Phase {
        logs: [l0, l1],
        elapsed,
        tracers: vec![t0, t1],
    }
}

/// Runs `fleet_ingest`.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let fingerprint = |(inputs, _): &(Inputs, Live)| inputs.fingerprint();
    let retire = |out: &mut Outcome, (_, old): (Inputs, Live)| {
        if let Err(e) = close(old) {
            out.check(false, || format!("closing a set-up: {e}"));
        }
    };
    let Some(((inputs, mut live), setups)) =
        set_up(&mut out, || setup(params), fingerprint, retire)
    else {
        return out;
    };

    // Every batch acked in full, per tenant, for the byte-identity check.
    let mut acked: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut cursors = [0usize; 2];
    for p in 0..2 {
        for _ in 0..WARM_UP {
            let b = inputs.order[p][cursors[p] % inputs.order[p].len()];
            cursors[p] += 1;
            let ok = live.clients[p].send(&inputs.batches[p][b]).is_ok();
            out.check(ok, || format!("warm-up batch of tenant {p} failed"));
            if ok {
                acked[p].push(b);
            }
        }
    }

    let epoch = Instant::now();
    let faults = host::minor_faults();
    let untraced = phase(params, &inputs, &mut live, &mut cursors, false, epoch);
    let faults = host::minor_faults() - faults;
    account(&mut out, &untraced, &mut acked);

    let traced = params.trace.then(|| {
        phase(
            &params.traced(),
            &inputs,
            &mut live,
            &mut cursors,
            true,
            epoch,
        )
    });
    if let Some(ph) = &traced {
        account(&mut out, ph, &mut acked);
    }

    match close(live) {
        Ok(closed) => verify(params, &mut out, &inputs, &acked, &closed, traced.is_some()),
        Err(e) => out.check(false, || format!("closing the fleet: {e}")),
    }
    let samples: usize = untraced.logs.iter().map(|l| l.acked.len() * BATCH).sum();
    let cycles = &untraced.logs[0].cycles;
    out.end_to_end(cycles, samples as u64, untraced.elapsed, faults, &setups);
    let sends = Dist::new(
        untraced
            .logs
            .iter()
            .flat_map(|l| l.sends.iter().map(|s| s.0))
            .collect(),
    );
    out.layer_percentile("e2e.ack_p50_us", &sends, 0.5);
    out.layer_percentile("e2e.ack_p99_us", &sends, 0.99);

    if let Some(phase) = traced {
        let sends = phase.logs.iter().flat_map(|l| l.sends.iter());
        let (on, off): (Vec<&(f64, bool)>, Vec<_>) = sends.partition(|(_, spanned)| *spanned);
        out.trace_overhead(
            on.iter().map(|s| s.0).collect(),
            off.iter().map(|s| s.0).collect(),
        );
        let mut tracers = phase.tracers;
        let sequence = interleave(&phase.logs);
        let replay_tracer = replay(&mut out, &inputs, &sequence, epoch);
        tracers.push(replay_tracer);
        let trace = Trace::merge(tracers);
        let send = trace.durations_us("serve.net.send");
        let admit = trace.durations_us("serve.tenant.ingest_batch");
        out.layer_percentile("serve.net.send_p50_us", &send, 0.5);
        out.layer_percentile("serve.net.send_p99_us", &send, 0.99);
        // Means per batch: only every other send was spanned, while
        // the replay spans every batch.
        let mean = |d: &Dist| d.sum() / d.len().max(1) as f64;
        out.layer(
            "serve.net.share_pct",
            (1.0 - mean(&admit) / mean(&send)) * 100.0,
        );
        out.layer_percentile("serve.tenant.admit_p50_us", &admit, 0.5);
        out.layer_percentile("serve.tenant.admit_p99_us", &admit, 0.99);
        out.layer_percentile(
            "serve.service.enqueue_p50_us",
            &trace.durations_us("serve.service.ingest_batch"),
            0.5,
        );
        out.keep_trace(params, &trace);
    }
    out
}

/// Folds one phase's acks and failures into the run.
fn account(out: &mut Outcome, phase: &Phase, acked: &mut [Vec<usize>; 2]) {
    for (p, log) in phase.logs.iter().enumerate() {
        let attempted = log.acked.len() as u64 + log.failed_sends;
        out.ops(
            attempted,
            log.failed_sends,
            "sends (error or ack below Full)",
        );
        out.ops(log.queries, log.failed_queries, "snapshot-and-query rounds");
        acked[p].extend_from_slice(&log.acked);
    }
}

/// The checks made after the server stops: each tenant's final view and
/// its recovery from the store are byte-identical to direct
/// aggregation of the batches acked for it, and admission lost nothing.
fn verify(
    params: &Params,
    out: &mut Outcome,
    inputs: &Inputs,
    acked: &[Vec<usize>; 2],
    closed: &Closed,
    traced: bool,
) {
    let recovered = ProfileStore::<Tenanted<ProfileDatabase>>::recover(closed.dir.path());
    out.check(recovered.is_ok(), || {
        format!("store recovery failed: {:?}", recovered.as_ref().err())
    });
    for (p, batches) in acked.iter().enumerate() {
        let tenant = TenantId(p as u32);
        let mut direct = inputs.proto.clone();
        for &b in batches {
            for s in &inputs.batches[p][b] {
                direct.add(s);
            }
        }
        if params.corrupt_reference && p == 0 {
            direct.add(&inputs.batches[p][0][0]);
        }
        let expected = encoded(&direct);
        let view = closed.merged.tenant(tenant).map(encoded);
        out.check(view.as_ref() == Some(&expected), || {
            format!("{tenant}: final view differs from direct aggregation")
        });
        if let Ok((store, _)) = &recovered {
            let bytes = store.tenant(tenant).map(encoded);
            out.check(bytes.as_ref() == Some(&expected), || {
                format!("{tenant}: recovered view differs from direct aggregation")
            });
        }
        let sent = (batches.len() * BATCH) as u64;
        let st = closed.stats.tenants.iter().find(|s| s.tenant == tenant.0);
        out.check(
            st.is_some_and(|s| s.offered == sent && s.accepted == sent && s.inflight == 0),
            || format!("{tenant}: offered/accepted {st:?} differ from the {sent} samples acked"),
        );
    }
    let fleet = &closed.stats;
    out.check(
        fleet.thinned == 0 && fleet.shed == 0 && fleet.service.dropped == 0,
        || "admission or the service lost samples".to_string(),
    );
    if traced {
        out.layer("serve.net.retries", closed.retries as f64);
        out.layer("serve.net.reconnects", closed.reconnects as f64);
        out.layer("serve.service.high_water", fleet.service.high_water as f64);
        out.layer("serve.store.appended_bytes", closed.appended_bytes as f64);
        out.layer("serve.service.dropped", fleet.service.dropped as f64);
        out.layer("serve.tenant.thinned", fleet.thinned as f64);
        out.layer("serve.tenant.shed", fleet.shed as f64);
    }
}

/// The traced phase's acked batches as one sequence, alternating
/// producers as the server saw them in the closed loop.
fn interleave(logs: &[ProducerLog; 2]) -> Vec<(usize, usize)> {
    let n = logs[0].acked.len().max(logs[1].acked.len());
    (0..n)
        .flat_map(|i| (0..2).filter_map(move |p| logs[p].acked.get(i).map(|&b| (p, b))))
        .collect()
}

/// Replays `sequence` in process: store-on and store-off fleets for the
/// WAL overhead, then traced through a durable fleet (admission) and an
/// untenanted `ShardedService` (enqueue).
fn replay(
    out: &mut Outcome,
    inputs: &Inputs,
    sequence: &[(usize, usize)],
    epoch: Instant,
) -> Tracer {
    let mut t = Tracer::new(true, 2, epoch);
    let mut off = Tracer::new(false, 2, epoch);
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    for _ in 0..WAL_PAIRS {
        on_s.push(replay_fleet(out, inputs, sequence, true, &mut off));
        off_s.push(replay_fleet(out, inputs, sequence, false, &mut off));
    }
    let (on, off_median) = (Dist::new(on_s).median(), Dist::new(off_s).median());
    out.layer(
        "serve.store.wal_overhead_pct",
        (on / off_median - 1.0) * 100.0,
    );
    replay_fleet(out, inputs, sequence, true, &mut t);

    let config = ServeConfig::builder().shards(SHARDS).build();
    let started = config.and_then(|c| ShardedService::start(inputs.proto.clone(), c));
    match started {
        Ok(svc) => {
            for (k, &(p, b)) in sequence.iter().enumerate() {
                let items = inputs.batches[p][b].clone();
                t.span("serve.service.ingest_batch", k as u64, |_| {
                    svc.ingest_batch(items)
                });
            }
            let lost = svc.shutdown().map(|(_, stats)| stats.lost());
            out.check(lost.as_ref().is_ok_and(|&l| l == 0), || {
                format!("untenanted replay lost samples: {lost:?}")
            });
        }
        Err(e) => out.check(false, || format!("untenanted replay failed to start: {e}")),
    }
    t
}

/// One in-process pass over `sequence` through a fresh fleet, with a
/// snapshot after every 16th batch of tenant 0 as in the TCP loop.
/// Returns the loop's seconds.
fn replay_fleet(
    out: &mut Outcome,
    inputs: &Inputs,
    sequence: &[(usize, usize)],
    store: bool,
    t: &mut Tracer,
) -> f64 {
    let dir = ScratchDir::new("replay");
    let builder = ServeConfig::builder().shards(SHARDS);
    let builder = if store {
        builder.data_dir(dir.path())
    } else {
        builder
    };
    let started = builder.build().and_then(|config| {
        FleetService::start(
            inputs.proto.clone(),
            config,
            FleetConfig::uniform(2, unmetered()),
        )
    });
    let svc = match started {
        Ok(svc) => svc,
        Err(e) => {
            out.check(false, || format!("replay fleet failed to start: {e}"));
            return f64::NAN;
        }
    };
    let mut failed = 0u64;
    let mut tenant0 = 0usize;
    let begun = Instant::now();
    for (k, &(p, b)) in sequence.iter().enumerate() {
        let items = inputs.batches[p][b].clone();
        let level = t.span("serve.tenant.ingest_batch", k as u64, |_| {
            svc.ingest_batch(TenantId(p as u32), items)
        });
        if !matches!(level, Ok(DegradeLevel::Full)) {
            failed += 1;
        }
        if p == 0 {
            tenant0 += 1;
            if tenant0.is_multiple_of(SNAPSHOT_EVERY) {
                let snap = t.span("serve.tenant.snapshot", k as u64, |_| svc.snapshot());
                failed += u64::from(black_box(snap).is_err());
            }
        }
    }
    let seconds = secs(begun);
    let lost = svc
        .shutdown()
        .map(|(_, stats)| stats.thinned + stats.shed + stats.service.dropped);
    out.ops(sequence.len() as u64, failed, "in-process replay batches");
    out.check(lost.as_ref().is_ok_and(|&l| l == 0), || {
        format!("in-process replay lost samples: {lost:?}")
    });
    seconds
}
