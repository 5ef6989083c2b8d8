//! Multi-tenant fleet contracts, end to end:
//!
//! * **Fairness under overload** — a tenant driving multiples of its
//!   quota walks its own Full→Sampled→Shed ladder with exact
//!   per-tenant accounting, while every tenant inside its quota stays
//!   at full fidelity and its view remains **byte-identical** to
//!   direct single-threaded aggregation of its stream.
//! * **Tenant-keyed aggregate** — `Tenanted` checkpoints round-trip
//!   (including the pending touched set, so a worker crash between an
//!   absorb and the next delta extraction loses nothing), and its
//!   deltas apply cleanly onto an empty base.
//! * **Epoch ring** — retained snapshots answer time-windowed
//!   per-tenant deltas (`earlier ⊕ window == later`, byte for byte)
//!   and evict oldest-first.
//! * **TCP front-end** — a producer client survives a server stop and
//!   restart via retry/backoff, and no acknowledged sample is lost
//!   across the restart (the durable store carries acked history).

use profileme_core::{ProfileDatabase, ProfileMeConfig, Sample, Session, WireFormat};
use profileme_serve::{
    ClientConfig, DegradeLevel, FleetClient, FleetConfig, FleetServer, FleetService, ProfileStore,
    RetryPolicy, ServeConfig, ShardAggregate, TenantId, TenantQuota, Tenanted,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct Stream {
    program: profileme_isa::Program,
    samples: Vec<Sample>,
    interval: u64,
}

/// One deterministic profiling run shared by every test.
fn stream() -> &'static Stream {
    static STREAM: OnceLock<Stream> = OnceLock::new();
    STREAM.get_or_init(|| {
        let w = profileme_workloads::ijpeg(1200);
        let run = Session::builder(w.program.clone())
            .memory(w.memory.clone())
            .sampling(ProfileMeConfig {
                mean_interval: 8,
                ..Default::default()
            })
            .build()
            .expect("config is valid")
            .profile_single()
            .expect("workload completes");
        assert!(run.samples.len() > 440, "stream too thin for fleet tests");
        Stream {
            program: w.program,
            interval: run.db.interval(),
            samples: run.samples,
        }
    })
}

fn proto() -> ProfileDatabase {
    let s = stream();
    ProfileDatabase::new(&s.program, s.interval)
}

fn direct(samples: &[Sample]) -> ProfileDatabase {
    let mut db = proto();
    for sample in samples {
        ShardAggregate::absorb(&mut db, sample);
    }
    db
}

fn encoded(db: &ProfileDatabase) -> Vec<u8> {
    db.encode(WireFormat::Sparse).expect("snapshot serializes")
}

/// A quota so generous the test can never trip it.
fn unmetered() -> TenantQuota {
    TenantQuota {
        rate_per_sec: u64::MAX / 4,
        burst: u64::MAX / 4,
        queue_share: u64::MAX / 4,
    }
}

/// A quota the noisy tenant exhausts within the test: the bucket holds
/// `burst` tokens and refills slowly enough (relative to a
/// milliseconds-long test) that deficit pressure is driven by
/// consumption alone.
fn tight(burst: u64) -> TenantQuota {
    TenantQuota {
        rate_per_sec: 1,
        burst,
        queue_share: u64::MAX / 4,
    }
}

fn fleet_config(noisy_burst: u64) -> FleetConfig {
    FleetConfig {
        tenants: vec![
            (TenantId(0), unmetered()),
            (TenantId(1), unmetered()),
            (TenantId(2), tight(noisy_burst)),
        ],
        epoch_retain: 8,
        ..FleetConfig::default()
    }
}

/// Drives two victims at a trickle and one noisy tenant at ≥4× its
/// burst, then asserts the fairness contract on the final state.
fn assert_fair(svc: FleetService<ProfileDatabase>, chaos: bool) {
    let s = stream();
    let victim_a = &s.samples[..120];
    let victim_b = &s.samples[120..240];
    let noisy = &s.samples[240..];
    assert!(noisy.len() as u64 >= 4 * 40, "need ≥4× the noisy burst");

    // Interleave so the noisy tenant's pressure builds while victims
    // keep arriving — the scenario fairness must survive.
    let iters = [
        victim_a.chunks(12).collect::<Vec<_>>(),
        victim_b.chunks(12).collect::<Vec<_>>(),
        noisy.chunks(12).collect::<Vec<_>>(),
    ];
    let rounds = iters.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (tenant, chunks) in iters.iter().enumerate() {
            if let Some(chunk) = chunks.get(round) {
                svc.ingest_batch(TenantId(tenant as u32), chunk.to_vec())
                    .expect("tenant is registered");
            }
        }
    }

    assert_eq!(
        svc.tenant_level(TenantId(0)).unwrap(),
        DegradeLevel::Full,
        "victim A never degrades"
    );
    assert_eq!(svc.tenant_level(TenantId(1)).unwrap(), DegradeLevel::Full);
    assert!(
        svc.tenant_level(TenantId(2)).unwrap() > DegradeLevel::Full,
        "the noisy tenant must have walked its ladder down"
    );

    let (merged, stats) = svc.shutdown().expect("fleet drains");

    // Exact accounting, per tenant and in total.
    for t in &stats.tenants {
        assert_eq!(
            t.offered,
            t.accepted + t.thinned + t.shed,
            "tenant-{} accounting is inexact: {t:?}",
            t.tenant
        );
        assert_eq!(t.inflight, 0, "tenant-{} credit not settled", t.tenant);
    }
    let (a, b, n) = (&stats.tenants[0], &stats.tenants[1], &stats.tenants[2]);
    assert_eq!((a.thinned, a.shed, a.level), (0, 0, 0), "victim A lossless");
    assert_eq!((b.thinned, b.shed, b.level), (0, 0, 0), "victim B lossless");
    assert!(n.thinned > 0, "noisy tenant was thinned: {n:?}");
    assert!(n.shed > 0, "noisy tenant was shed: {n:?}");
    assert_eq!(
        stats.thinned + stats.shed,
        stats
            .tenants
            .iter()
            .map(|t| t.thinned + t.shed)
            .sum::<u64>(),
        "per-tenant losses sum to the fleet totals"
    );
    assert_eq!(
        stats.offered,
        stats.tenants.iter().map(|t| t.offered).sum::<u64>()
    );
    assert_eq!(
        stats.service.enqueued, stats.accepted,
        "everything admitted reached a shard ring"
    );
    assert_eq!(stats.service.dropped, 0, "rings never overflowed");
    if chaos {
        assert!(stats.service.worker_panics > 0, "the fault plan fired");
        assert_eq!(
            stats.service.workers_recovered, stats.service.worker_panics,
            "every panic was recovered"
        );
        assert_eq!(stats.service.lost_to_panics, 0, "recovery was lossless");
    }

    // The fairness tentpole: victims' views are byte-identical to
    // direct aggregation of their own streams, overload or not.
    assert_eq!(
        encoded(merged.tenant(TenantId(0)).expect("victim A present")),
        encoded(&direct(victim_a)),
        "victim A's view diverged from direct aggregation"
    );
    assert_eq!(
        encoded(merged.tenant(TenantId(1)).expect("victim B present")),
        encoded(&direct(victim_b)),
        "victim B's view diverged from direct aggregation"
    );
    // The noisy tenant's view holds exactly what was admitted.
    let noisy_view = merged.tenant(TenantId(2)).expect("noisy present");
    assert_eq!(noisy_view.total_samples, n.accepted);
}

#[test]
fn noisy_tenant_degrades_alone_with_exact_accounting() {
    let svc = FleetService::start(
        proto(),
        ServeConfig::builder().shards(2).build().unwrap(),
        fleet_config(40),
    )
    .expect("fleet starts");
    assert_fair(svc, false);
}

#[cfg(feature = "fault-injection")]
#[test]
fn fairness_survives_worker_panics_and_delays() {
    use profileme_serve::FaultPlan;
    // One transient panic plus a delayed message: supervision recovers
    // the worker from checkpoint + journal, so the fairness and
    // byte-identity assertions must hold unchanged.
    let plan = FaultPlan::parse("panic:nth=3; delay:nth=5:ms=10").expect("plan parses");
    let svc = FleetService::start_with_faults(
        proto(),
        ServeConfig::builder().shards(2).build().unwrap(),
        fleet_config(40),
        plan,
    )
    .expect("fleet starts");
    assert_fair(svc, true);
}

#[test]
fn unregistered_tenants_and_bad_configs_are_rejected() {
    let svc = FleetService::start(
        proto(),
        ServeConfig::builder().shards(1).build().unwrap(),
        FleetConfig::uniform(1, TenantQuota::default()),
    )
    .expect("fleet starts");
    assert!(svc.ingest_batch(TenantId(9), Vec::new()).is_err());
    drop(svc.shutdown());

    let empty = FleetConfig::default();
    assert!(empty.validate().is_err(), "no tenants is rejected");
    let dup = FleetConfig {
        tenants: vec![
            (TenantId(1), TenantQuota::default()),
            (TenantId(1), TenantQuota::default()),
        ],
        epoch_retain: 2,
        ..FleetConfig::default()
    };
    assert!(dup.validate().is_err(), "duplicate ids are rejected");
    let zero = FleetConfig {
        tenants: vec![(
            TenantId(0),
            TenantQuota {
                rate_per_sec: 0,
                ..TenantQuota::default()
            },
        )],
        epoch_retain: 2,
        ..FleetConfig::default()
    };
    assert!(zero.validate().is_err(), "a zero rate is rejected");
}

#[test]
fn tenanted_checkpoint_roundtrips_with_pending_touched_set() {
    let s = stream();
    let mut agg = Tenanted::new(proto());
    for (i, sample) in s.samples.iter().take(90).enumerate() {
        let item = (TenantId((i % 3) as u32), sample.clone());
        ShardAggregate::absorb(&mut agg, &item);
    }

    let bytes = agg.checkpoint_bytes().expect("checkpoint serializes");
    let mut restored =
        Tenanted::<ProfileDatabase>::from_checkpoint_bytes(&bytes).expect("checkpoint decodes");
    assert_eq!(restored.len(), agg.len());
    for (id, view) in agg.tenants() {
        let twin = restored.tenant(id).expect("tenant survives the roundtrip");
        assert_eq!(encoded(view), encoded(twin), "{id} view diverged");
    }

    // The touched set is part of the checkpoint: a delta extracted
    // after restore must match one extracted from the original, so a
    // worker rebuilt between absorb and extraction publishes the same
    // delta it would have published without the crash.
    let mut agg2 = agg.clone();
    let mut base_a = Tenanted::new(proto());
    let mut base_b = Tenanted::new(proto());
    let from_original = agg2.extract_delta_bytes(&mut base_a).expect("delta");
    let from_restored = restored.extract_delta_bytes(&mut base_b).expect("delta");
    assert_eq!(
        from_original, from_restored,
        "restored touched set lost a pending delta span"
    );

    // Applying that delta onto an empty aggregate reproduces every view.
    let mut applied = Tenanted::new(proto());
    applied
        .apply_delta_bytes(&from_original)
        .expect("delta applies");
    for (id, view) in agg.tenants() {
        assert_eq!(
            encoded(view),
            encoded(applied.tenant(id).expect("tenant materialized")),
            "{id} view diverged after delta apply"
        );
    }
}

/// A small checkpoint (two tenants, tenant 1 still pending in the
/// touched set) plus the byte offsets of its view count, each view id,
/// and the touched count.
fn small_checkpoint() -> (Vec<u8>, usize, Vec<usize>, usize) {
    let s = stream();
    let mut agg = Tenanted::new(proto());
    for (i, sample) in s.samples.iter().take(6).enumerate() {
        ShardAggregate::absorb(&mut agg, &(TenantId((i % 2) as u32), sample.clone()));
    }
    let mut base = Tenanted::new(proto());
    agg.extract_delta_bytes(&mut base).expect("delta");
    ShardAggregate::absorb(&mut agg, &(TenantId(1), s.samples[6].clone()));
    let bytes = agg.checkpoint_bytes().expect("checkpoint serializes");

    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let views_at = 8 + u32_at(4);
    let mut at = views_at + 4;
    let mut ids = Vec::new();
    for _ in 0..u32_at(views_at) {
        ids.push(at);
        at += 8 + u32_at(at + 4);
    }
    (bytes, views_at, ids, at)
}

#[test]
fn tenanted_checkpoint_refuses_hostile_images() {
    let (bytes, views_at, ids, touched_at) = small_checkpoint();
    let decode = |b: &[u8]| Tenanted::<ProfileDatabase>::from_checkpoint_bytes(b);
    let restored = decode(&bytes).expect("the pristine image decodes");
    assert_eq!(restored.len(), 2);
    assert_eq!(ids.len(), 2);
    assert_eq!(touched_at + 8, bytes.len(), "one pending touched id");
    let patched = |at: usize, v: u32| {
        let mut b = bytes.clone();
        b[at..at + 4].copy_from_slice(&v.to_le_bytes());
        b
    };

    // Inflated counts must fail on the missing bytes, not allocate.
    assert!(decode(&patched(views_at, u32::MAX)).is_err());
    assert!(decode(&patched(touched_at, u32::MAX)).is_err());
    // Every truncation, and a trailing byte.
    for len in 0..bytes.len() {
        assert!(decode(&bytes[..len]).is_err(), "truncated to {len} bytes");
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(decode(&trailing).is_err(), "trailing byte accepted");
    // View ids must be strictly increasing: views are binary-searched.
    assert!(decode(&patched(ids[1], 0)).is_err(), "duplicate view id");
    assert!(decode(&patched(ids[0], 5)).is_err(), "unsorted view ids");
    // A touched id must name a view (delta extraction looks it up).
    assert!(
        decode(&patched(touched_at + 4, 9)).is_err(),
        "unknown touched id"
    );
    let mut twice = bytes.clone();
    twice.truncate(touched_at);
    twice.extend_from_slice(&2u32.to_le_bytes());
    twice.extend_from_slice(&1u32.to_le_bytes());
    twice.extend_from_slice(&1u32.to_le_bytes());
    assert!(decode(&twice).is_err(), "duplicate touched id");
    let mut unsorted = bytes.clone();
    unsorted.truncate(touched_at);
    unsorted.extend_from_slice(&2u32.to_le_bytes());
    unsorted.extend_from_slice(&1u32.to_le_bytes());
    unsorted.extend_from_slice(&0u32.to_le_bytes());
    assert!(decode(&unsorted).is_err(), "unsorted touched ids");
}

#[test]
fn epoch_ring_answers_tenant_windows_and_evicts_oldest() {
    let s = stream();
    let first = &s.samples[..100];
    let second = &s.samples[100..200];
    let svc = FleetService::start(
        proto(),
        ServeConfig::builder().shards(2).build().unwrap(),
        FleetConfig {
            tenants: vec![(TenantId(0), unmetered()), (TenantId(1), unmetered())],
            epoch_retain: 2,
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts");

    svc.ingest_batch(TenantId(0), first.to_vec()).unwrap();
    let s1 = svc.snapshot().expect("snapshot").seq;
    svc.ingest_batch(TenantId(0), second.to_vec()).unwrap();
    svc.ingest_batch(TenantId(1), first.to_vec()).unwrap();
    let s2 = svc.snapshot().expect("snapshot").seq;
    assert_eq!(svc.epoch_seqs(), vec![s1, s2]);

    // earlier ⊕ window == later, byte for byte.
    let window = svc
        .tenant_window(TenantId(0), s1, s2)
        .expect("epochs consistent")
        .expect("both epochs retained");
    assert_eq!(window.total_samples, second.len() as u64);
    let earlier = svc.epoch(s1).expect("retained");
    let later = svc.epoch(s2).expect("retained");
    let mut reconstructed = earlier.tenant(TenantId(0)).expect("present").clone();
    reconstructed.merge(&window).expect("delta merges");
    assert_eq!(
        encoded(&reconstructed),
        encoded(later.tenant(TenantId(0)).expect("present")),
        "window delta does not reconstruct the later epoch"
    );

    // A tenant absent at the earlier epoch yields its whole profile.
    let fresh = svc
        .tenant_window(TenantId(1), s1, s2)
        .expect("epochs consistent")
        .expect("retained");
    assert_eq!(
        encoded(&fresh),
        encoded(later.tenant(TenantId(1)).expect("present"))
    );

    // A third snapshot evicts the oldest epoch (retain = 2).
    let s3 = svc.snapshot().expect("snapshot").seq;
    assert_eq!(svc.epoch_seqs(), vec![s2, s3]);
    assert!(svc.epoch(s1).is_none(), "s1 evicted");
    assert!(
        svc.tenant_window(TenantId(0), s1, s3)
            .expect("consistent")
            .is_none(),
        "a window over an evicted epoch is None, not wrong"
    );
    drop(svc.shutdown());
}

/// Starts a fleet service + TCP server over `dir`, returning the stop
/// handle and the join handle of the accept loop.
fn spawn_server(
    addr: &str,
    dir: &std::path::Path,
) -> (
    Arc<FleetService<ProfileDatabase>>,
    Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
    std::net::SocketAddr,
) {
    let svc = Arc::new(
        FleetService::start(
            proto(),
            ServeConfig::builder()
                .shards(2)
                .data_dir(dir)
                .build()
                .unwrap(),
            FleetConfig::uniform(2, unmetered()),
        )
        .expect("fleet starts"),
    );
    // A just-stopped listener can linger; retry the bind briefly.
    let mut server = None;
    for _ in 0..200 {
        match FleetServer::bind(addr, Arc::clone(&svc)) {
            Ok(s) => {
                server = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let server = server.expect("bind succeeds within the retry budget");
    let local = server.local_addr();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run().expect("accept loop runs"));
    (svc, stop, handle, local)
}

fn stop_server(
    svc: Arc<FleetService<ProfileDatabase>>,
    stop: &std::sync::atomic::AtomicBool,
    handle: std::thread::JoinHandle<()>,
) {
    stop.store(true, Ordering::Release);
    handle.join().expect("accept loop exits cleanly");
    let svc = Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("service still shared after the server stopped"));
    drop(svc.shutdown().expect("fleet drains"));
}

#[test]
fn tcp_client_survives_server_restart_without_losing_acked_samples() {
    let dir = std::env::temp_dir().join(format!(
        "pm-fleet-net-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    drop(std::fs::remove_dir_all(&dir));
    let s = stream();
    let batches: Vec<&[Sample]> = s.samples.chunks(40).take(10).collect();
    assert_eq!(batches.len(), 10, "need ten batches for the restart plot");

    let (svc, stop, handle, local) = spawn_server("127.0.0.1:0", &dir);
    let addr = local.to_string();

    // A patient client: the backoff window must comfortably cover the
    // deliberate outage below.
    let cfg = ClientConfig {
        retry: RetryPolicy {
            max_retries: 400,
            ..RetryPolicy::default()
        },
        ..ClientConfig::default()
    };
    let mut client = FleetClient::new(addr.clone(), TenantId(0), cfg);
    let mut acked_samples = 0u64;
    for batch in &batches[..5] {
        let ack = client.send(batch).expect("batch acknowledged");
        assert_eq!(ack.level, DegradeLevel::Full);
        assert!(!ack.duplicate);
        acked_samples += ack.admitted;
    }

    // Kill the server gracefully (flushes the durable store), keep the
    // client sending into the outage, restart on the same port.
    stop_server(svc, &stop, handle);
    let sender = {
        let batch: Vec<Sample> = batches[5].to_vec();
        std::thread::spawn(move || {
            let ack = client.send(&batch).expect("retries bridge the outage");
            (client, ack)
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let (svc, stop, handle, _) = spawn_server(&addr, &dir);
    let (mut client, ack) = sender.join().expect("sender thread");
    assert!(!ack.duplicate, "a fresh server run must re-ingest seq 6");
    acked_samples += ack.admitted;
    for batch in &batches[6..] {
        acked_samples += client.send(batch).expect("batch acknowledged").admitted;
    }
    let stats = client.stats();
    assert_eq!(stats.batches_acked, 10);
    assert!(stats.retries > 0, "the outage forced retries: {stats:?}");
    assert!(stats.reconnects > 0, "the outage forced a reconnect");
    client.close();
    stop_server(svc, &stop, handle);

    // No acknowledged sample was lost: the recovered store holds every
    // acked batch exactly once.
    let (recovered, _) =
        ProfileStore::<Tenanted<ProfileDatabase>>::recover(&dir).expect("store recovers");
    let tenant0 = recovered.tenant(TenantId(0)).expect("tenant present");
    let expected: u64 = batches.iter().map(|b| b.len() as u64).sum();
    assert_eq!(acked_samples, expected, "every batch was admitted in full");
    assert_eq!(
        tenant0.total_samples, expected,
        "acknowledged samples lost (or duplicated) across the restart"
    );
    assert_eq!(
        encoded(tenant0),
        encoded(&direct(&s.samples[..400])),
        "recovered view diverged from direct aggregation"
    );
    drop(std::fs::remove_dir_all(&dir));
}

#[test]
fn tcp_rejects_unregistered_tenants_loudly() {
    let dir = std::env::temp_dir().join(format!(
        "pm-fleet-net-badtenant-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    drop(std::fs::remove_dir_all(&dir));
    let (svc, stop, handle, local) = spawn_server("127.0.0.1:0", &dir);
    let mut client = FleetClient::new(local.to_string(), TenantId(77), ClientConfig::default());
    let err = client
        .send(&stream().samples[..10])
        .expect_err("tenant 77 is not registered");
    assert!(
        err.to_string().contains("tenant-77"),
        "error names the tenant: {err}"
    );
    client.close();
    stop_server(svc, &stop, handle);
    drop(std::fs::remove_dir_all(&dir));
}

/// A batch pushed onto a crashed shard's closed ring reaches no
/// aggregator, so its ack must admit nothing and the tenant's
/// `accepted` must not move.
#[cfg(feature = "fault-injection")]
#[test]
fn tcp_ack_admits_nothing_after_a_shard_crash() {
    use profileme_core::ProfileError;
    use profileme_serve::{FaultPlan, SuperviseConfig};
    let svc = Arc::new(
        FleetService::start_with_faults(
            proto(),
            ServeConfig::builder()
                .shards(1)
                .supervise(SuperviseConfig {
                    enabled: false,
                    ..SuperviseConfig::default()
                })
                .build()
                .unwrap(),
            FleetConfig::uniform(1, unmetered()),
            FaultPlan::parse("panic:shard=0:nth=1").expect("plan parses"),
        )
        .expect("fleet starts"),
    );
    let server = FleetServer::bind("127.0.0.1:0", Arc::clone(&svc)).expect("bind");
    let local = server.local_addr();
    let stop = server.stop_handle();
    let handle = std::thread::spawn(move || server.run().expect("accept loop runs"));
    let s = stream();
    let mut client = FleetClient::new(local.to_string(), TenantId(0), ClientConfig::default());

    // The first batch reaches the ring; the worker dies absorbing it.
    let first = client.send(&s.samples[..10]).expect("batch acknowledged");
    assert_eq!(first.admitted, 10);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match svc.snapshot() {
            Err(ProfileError::WorkerCrashed { shard: 0 }) => break,
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => {
                assert!(std::time::Instant::now() < deadline, "worker never crashed");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    // The guard flags the crash just before it closes the ring, so a
    // send in between still lands (and is later drained as dropped).
    // Every ack must admit exactly what the tenant's `accepted` gained,
    // and once the ring is closed that is nothing.
    loop {
        let accepted = svc.stats().tenants[0].accepted;
        let ack = client.send(&s.samples[10..20]).expect("batch acknowledged");
        assert_eq!(ack.level, DegradeLevel::Full);
        let gained = svc.stats().tenants[0].accepted - accepted;
        assert_eq!(ack.admitted, gained, "the ack disagrees with `accepted`");
        if ack.admitted == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "ring never closed");
    }
    assert!(
        svc.stats().service.dropped >= 10,
        "the refused batch is counted"
    );

    client.close();
    stop.store(true, Ordering::Release);
    handle.join().expect("accept loop exits cleanly");
    let svc = Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("service still shared after the server stopped"));
    assert!(matches!(
        svc.shutdown(),
        Err(ProfileError::WorkerCrashed { shard: 0 })
    ));
}
