//! Multi-tenant fairness tracker for the fleet aggregation service:
//! two well-behaved tenants and one noisy tenant driving ≥4× its quota
//! share one `FleetService`, and the report records what each tenant
//! actually experienced — per-tenant enqueue latency (p50/p95/p99, µs)
//! and per-tenant admission accounting — plus a machine-checkable
//! fairness verdict. Writes `BENCH_fleet.json` so isolation can be
//! compared across revisions.
//!
//! The verdict asserted on every run (not just in the unit suite):
//!
//! * both victim tenants finish at full fidelity with **zero** thinned
//!   or shed samples, and their merged views are **byte-identical** to
//!   direct single-threaded aggregation of their own streams;
//! * the noisy tenant is thinned and shed with exact accounting
//!   (`offered == accepted + thinned + shed`, per tenant and in sum);
//! * per-tenant losses sum to the fleet totals and everything admitted
//!   reached a shard ring.
//!
//! Knobs, following `bench_ingest`:
//!
//! * `PROFILEME_SCALE` sets stream length, `PROFILEME_BENCH_REPS` the
//!   repetitions (latency pools are merged across reps).
//! * `PROFILEME_REQUIRE_FLEET_FAIRNESS=1` exits nonzero if any clause
//!   of the fairness verdict fails — the CI isolation gate.

use profileme_bench::engine::{env, percentile, Emitter};
use profileme_bench::scaled;
use profileme_core::{ProfileDatabase, ProfileMeConfig, Sample, Session, WireFormat};
use profileme_serve::{FleetConfig, FleetService, ServeConfig, TenantId, TenantQuota};
use profileme_workloads::{self as workloads, Workload};
use serde::Serialize;
use std::time::Instant;

/// Samples per `ingest_batch` call.
const BATCH: usize = 512;
/// Shards under the fleet layer.
const SHARDS: usize = 4;
/// The noisy tenant offers this multiple of its burst.
const OVERDRIVE: u64 = 8;

#[derive(Debug, Serialize)]
struct TenantCell {
    tenant: u32,
    role: &'static str,
    offered: u64,
    accepted: u64,
    thinned: u64,
    shed: u64,
    /// Final ladder position (0 = full fidelity).
    level: u8,
    downshifts: u64,
    upshifts: u64,
    /// Producer-visible latency of one `ingest_batch` call, µs.
    enqueue_p50_us: f64,
    enqueue_p95_us: f64,
    enqueue_p99_us: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    scale: f64,
    reps: u32,
    batch: usize,
    shards: usize,
    workload: &'static str,
    /// Tokens in the noisy tenant's bucket; it offers `OVERDRIVE`×.
    noisy_burst: u64,
    samples_per_second: f64,
    tenants: Vec<TenantCell>,
    /// The fairness clauses, individually, plus their conjunction.
    victims_full_fidelity: bool,
    victims_byte_identical: bool,
    noisy_degraded: bool,
    accounting_exact: bool,
    fairness_ok: bool,
}

fn require_fairness() -> bool {
    std::env::var("PROFILEME_REQUIRE_FLEET_FAIRNESS").is_ok_and(|v| v == "1")
}

/// Profiles `w` once and cycles the samples up to `target` items.
fn sample_stream(w: &Workload, target: usize) -> (Vec<Sample>, u64) {
    let run = Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(ProfileMeConfig {
            mean_interval: 32,
            buffer_depth: 8,
            ..ProfileMeConfig::default()
        })
        .build()
        .expect("config is valid")
        .profile_single()
        .expect("workload completes");
    assert!(!run.samples.is_empty(), "{} produced no samples", w.name);
    let mut stream = Vec::with_capacity(target + run.samples.len());
    while stream.len() < target {
        stream.extend(run.samples.iter().cloned());
    }
    (stream, run.db.interval())
}

fn unmetered() -> TenantQuota {
    TenantQuota {
        rate_per_sec: u64::MAX / 4,
        burst: u64::MAX / 4,
        queue_share: u64::MAX / 4,
    }
}

fn main() {
    let dump_dir = env::dump_dir().unwrap_or_else(|| std::path::PathBuf::from("."));
    let out = Emitter::with_dump_dir(Some(dump_dir));
    out.banner(
        "Fleet fairness — per-tenant quotas and degradation under a noisy neighbor",
        "repo infrastructure (not a paper figure)",
    );
    let reps = env::reps();
    let w = workloads::compress(scaled(40_000));
    let target = scaled(120_000) as usize;
    let (stream, interval) = sample_stream(&w, target);

    // Tenants 0 and 1 behave; tenant 2 drives `OVERDRIVE`× its burst.
    // The victims split one third of the stream, the noisy tenant
    // takes the rest, and its burst is sized so the surplus is
    // unmistakable.
    let third = stream.len() / 3;
    let victim_a = &stream[..third / 2];
    let victim_b = &stream[third / 2..third];
    let noisy = &stream[third..];
    let noisy_burst = (noisy.len() as u64 / OVERDRIVE).max(1);
    let quota_noisy = TenantQuota {
        rate_per_sec: 1,
        burst: noisy_burst,
        queue_share: u64::MAX / 4,
    };
    out.say(format!(
        "{}: {} samples — victims {} + {}, noisy {} against a burst of {} ({}x)",
        w.name,
        stream.len(),
        victim_a.len(),
        victim_b.len(),
        noisy.len(),
        noisy_burst,
        OVERDRIVE,
    ));

    // Byte-identity references for the victims.
    let reference = |samples: &[Sample]| {
        let mut db = ProfileDatabase::new(&w.program, interval);
        for s in samples {
            db.add(s);
        }
        db.encode(WireFormat::Sparse).expect("snapshot serializes")
    };
    let reference_a = reference(victim_a);
    let reference_b = reference(victim_b);

    let mut best_secs = f64::INFINITY;
    let mut pools: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut last = None;
    for _ in 0..reps {
        let svc = FleetService::start(
            ProfileDatabase::new(&w.program, interval),
            ServeConfig::builder()
                .shards(SHARDS)
                .queue_depth(512)
                .build()
                .expect("config is valid"),
            FleetConfig {
                tenants: vec![
                    (TenantId(0), unmetered()),
                    (TenantId(1), unmetered()),
                    (TenantId(2), quota_noisy),
                ],
                epoch_retain: 4,
                ..FleetConfig::default()
            },
        )
        .expect("fleet starts");
        let feeds = [
            victim_a.chunks(BATCH).collect::<Vec<_>>(),
            victim_b.chunks(BATCH).collect::<Vec<_>>(),
            noisy.chunks(BATCH).collect::<Vec<_>>(),
        ];
        let rounds = feeds.iter().map(Vec::len).max().unwrap_or(0);
        let start = Instant::now();
        for round in 0..rounds {
            for (tenant, chunks) in feeds.iter().enumerate() {
                if let Some(chunk) = chunks.get(round) {
                    let t = Instant::now();
                    svc.ingest_batch(TenantId(tenant as u32), chunk.to_vec())
                        .expect("tenant is registered");
                    pools[tenant].push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        let (merged, stats) = svc.shutdown().expect("fleet drains");
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
        last = Some((merged, stats));
    }
    let (merged, stats) = last.expect("at least one repetition ran");

    // The fairness verdict, clause by clause.
    let (a, b, n) = (&stats.tenants[0], &stats.tenants[1], &stats.tenants[2]);
    let victims_full_fidelity =
        a.level == 0 && b.level == 0 && a.thinned + a.shed + b.thinned + b.shed == 0;
    let encoded = |db: &ProfileDatabase| db.encode(WireFormat::Sparse).expect("serializes");
    let victims_byte_identical = merged
        .tenant(TenantId(0))
        .is_some_and(|view| encoded(view) == reference_a)
        && merged
            .tenant(TenantId(1))
            .is_some_and(|view| encoded(view) == reference_b);
    let noisy_degraded = n.level > 0 && n.thinned > 0 && n.shed > 0;
    let accounting_exact = stats
        .tenants
        .iter()
        .all(|t| t.offered == t.accepted + t.thinned + t.shed && t.inflight == 0)
        && stats.thinned + stats.shed
            == stats
                .tenants
                .iter()
                .map(|t| t.thinned + t.shed)
                .sum::<u64>()
        && stats.service.enqueued == stats.accepted
        && stats.service.dropped == 0;
    let fairness_ok =
        victims_full_fidelity && victims_byte_identical && noisy_degraded && accounting_exact;

    let roles = ["victim", "victim", "noisy"];
    let tenants: Vec<TenantCell> = stats
        .tenants
        .iter()
        .zip(roles)
        .zip(&pools)
        .map(|((t, role), pool)| TenantCell {
            tenant: t.tenant,
            role,
            offered: t.offered,
            accepted: t.accepted,
            thinned: t.thinned,
            shed: t.shed,
            level: t.level,
            downshifts: t.downshifts,
            upshifts: t.upshifts,
            enqueue_p50_us: percentile(pool, 0.50),
            enqueue_p95_us: percentile(pool, 0.95),
            enqueue_p99_us: percentile(pool, 0.99),
        })
        .collect();
    for t in &tenants {
        out.say(format!(
            "tenant-{} ({:>6}): level {}, {:>7} offered, {:>7} accepted, {:>6} thinned, {:>6} shed  \
             enqueue p50={:.1} p95={:.1} p99={:.1}us",
            t.tenant,
            t.role,
            t.level,
            t.offered,
            t.accepted,
            t.thinned,
            t.shed,
            t.enqueue_p50_us,
            t.enqueue_p95_us,
            t.enqueue_p99_us,
        ));
    }
    out.say(format!(
        "fairness: victims full fidelity {victims_full_fidelity}, byte-identical \
         {victims_byte_identical}; noisy degraded {noisy_degraded}; accounting exact \
         {accounting_exact} -> {}",
        if fairness_ok { "OK" } else { "VIOLATED" }
    ));

    out.dump(
        "BENCH_fleet",
        &Report {
            scale: env::scale(),
            reps,
            batch: BATCH,
            shards: SHARDS,
            workload: w.name,
            noisy_burst,
            samples_per_second: stream.len() as f64 / best_secs,
            tenants,
            victims_full_fidelity,
            victims_byte_identical,
            noisy_degraded,
            accounting_exact,
            fairness_ok,
        },
    );
    if require_fairness() && !fairness_ok {
        eprintln!("FAIL: the fleet fairness verdict is violated (see BENCH_fleet.json)");
        std::process::exit(1);
    }
}
