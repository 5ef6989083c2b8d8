//! Durable-store tracker: what the delta WAL costs the live service,
//! how recovery time scales with log length, and what compaction buys
//! back. Writes `BENCH_store.json` so durability overhead can be
//! compared across revisions.
//!
//! Three families of numbers:
//!
//! * **WAL-on vs WAL-off overhead**: the same sample stream aggregated
//!   through the sharded service with and without a `data_dir`,
//!   ingest + snapshot cycles + shutdown timed end to end (best of
//!   `PROFILEME_BENCH_REPS`). The snapshot caller only queues each
//!   published delta; the store's writer thread does the CRC, the
//!   buffered `write` and the fsyncs, so what remains is the writer's
//!   CPU, the store's open and the final sync.
//! * **Recovery time vs log length**: uncompacted logs of growing
//!   record counts, replayed with the read-only recovery walk. Replay
//!   applies O(touched)-sparse deltas, so time grows with the log, not
//!   with the image.
//! * **Compaction amortization**: the same record stream under
//!   different `compact_every` cadences — what stays on disk and what
//!   recovery costs after the log has been folded into the image.
//!
//! Knobs, following `bench_ingest`:
//!
//! * `PROFILEME_SCALE` sets stream length,
//!   `PROFILEME_BENCH_REPS` the repetitions per cell (best-of-N).
//! * `PROFILEME_REQUIRE_STORE_OK=1` exits nonzero if the WAL-on
//!   service overhead exceeds 15% — durability must stay close to
//!   free, or it will be turned off.

use profileme_bench::engine::{env, Emitter};
use profileme_core::{ProfileDatabase, ProfileMeConfig, Sample, Session};
use profileme_serve::{ProfileStore, ServeConfig, ShardAggregate, ShardedService, StoreConfig};
use profileme_workloads::{self as workloads, Workload};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Samples per `ingest_batch` call.
const BATCH: usize = 256;
/// Snapshot (and therefore WAL-publication) cadence in batches.
const SNAPSHOT_EVERY: usize = 4;
/// The overhead gate: WAL-on may cost at most this much.
const MAX_OVERHEAD_PCT: f64 = 15.0;

fn require_store_ok() -> bool {
    std::env::var("PROFILEME_REQUIRE_STORE_OK").is_ok_and(|v| v == "1")
}

/// A scratch store directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("pm-bench-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path, suffix: &str) -> u64 {
    std::fs::read_dir(dir)
        .expect("store dir lists")
        .map(|e| e.expect("entry"))
        .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(suffix)))
        .map(|e| e.metadata().expect("entry stats").len())
        .sum()
}

fn sample_batches(w: &Workload, target: usize) -> (Vec<Vec<Sample>>, u64) {
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
    let batches = stream.chunks(BATCH).map(<[Sample]>::to_vec).collect();
    (batches, run.db.interval())
}

#[derive(Debug, Serialize)]
struct OverheadCell {
    workload: &'static str,
    shards: usize,
    samples: u64,
    /// Best repetition, WAL off / on, milliseconds end to end.
    wal_off_ms: f64,
    wal_on_ms: f64,
    overhead_pct: f64,
    /// What the WAL-on run actually wrote.
    appended_records: u64,
    appended_bytes: u64,
    compactions: u64,
}

#[derive(Debug, Serialize)]
struct RecoveryCell {
    records: u64,
    log_bytes: u64,
    recovery_ms: f64,
    records_per_second: f64,
}

#[derive(Debug, Serialize)]
struct CompactionCell {
    compact_every: u64,
    records: u64,
    compactions: u64,
    /// Loose WAL bytes left after the run (what replay must walk).
    final_log_bytes: u64,
    final_image_bytes: u64,
    recovery_ms: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    scale: f64,
    reps: u32,
    batch: usize,
    snapshot_every: usize,
    cores: usize,
    overhead: Vec<OverheadCell>,
    recovery: Vec<RecoveryCell>,
    compaction: Vec<CompactionCell>,
    max_overhead_pct: f64,
    /// Worst overhead over the cells the gate binds on: single-shard
    /// always, multi-shard only when the host has ≥2 cores.
    gated_overhead_pct: f64,
    store_ok: bool,
}

/// One end-to-end service run: ingest every batch, snapshot every
/// `SNAPSHOT_EVERY` batches, shut down. Returns the wall time and, for
/// WAL-on runs, the store counters.
fn service_run(
    w: &Workload,
    batches: &[Vec<Sample>],
    interval: u64,
    shards: usize,
    data_dir: Option<&Path>,
) -> (f64, Option<profileme_serve::StoreStats>) {
    let mut builder = ServeConfig::builder().shards(shards);
    if let Some(dir) = data_dir {
        builder = builder.data_dir(dir);
    }
    let config = builder.build().expect("config is valid");
    // The producer's copies are made before the clock starts, and one
    // more copy allocated after them stays alive until it stops. Made
    // inside the timed loop, each copy either reused freed heap or
    // faulted in fresh pages, depending on whether glibc had just
    // trimmed the heap top after the workers freed earlier batches,
    // and which of the two a mode got flipped with its heap layout:
    // ~2.9k minor faults per run in one mode against a few dozen in
    // the other. With the top pinned, the workers' frees never trim
    // inside the timed region, in either mode.
    let run_batches = batches.to_vec();
    let heap_top = batches.last().cloned();
    let t = Instant::now();
    let svc = ShardedService::start(ProfileDatabase::new(&w.program, interval), config)
        .expect("service starts");
    for (i, batch) in run_batches.into_iter().enumerate() {
        svc.ingest_batch(batch);
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            svc.snapshot().expect("snapshot cycles");
        }
    }
    let store = svc.store_stats();
    let (merged, stats) = svc.shutdown().expect("service drains");
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    drop(heap_top);
    assert_eq!(stats.lost(), 0, "lossless run");
    assert_eq!(
        merged.total_samples,
        batches.iter().map(|b| b.len() as u64).sum::<u64>()
    );
    (elapsed, store)
}

fn overhead_cell(
    out: &Emitter,
    w: &Workload,
    batches: &[Vec<Sample>],
    interval: u64,
    shards: usize,
    reps: u32,
) -> OverheadCell {
    let mut wal_off = f64::MAX;
    let mut wal_on = f64::MAX;
    let mut store = None;
    for _ in 0..reps {
        let (off_ms, _) = service_run(w, batches, interval, shards, None);
        wal_off = wal_off.min(off_ms);
        let dir = TempDir::new("overhead");
        let (on_ms, stats) = service_run(w, batches, interval, shards, Some(&dir.0));
        wal_on = wal_on.min(on_ms);
        store = stats;
    }
    let store = store.expect("WAL-on runs carry store stats");
    let cell = OverheadCell {
        workload: w.name,
        shards,
        samples: batches.iter().map(|b| b.len() as u64).sum(),
        wal_off_ms: wal_off,
        wal_on_ms: wal_on,
        overhead_pct: (wal_on / wal_off - 1.0) * 100.0,
        appended_records: store.appended_records,
        appended_bytes: store.appended_bytes,
        compactions: store.compactions,
    };
    out.say(format!(
        "{:>9} {:>7}: WAL off {:>7.1}ms on {:>7.1}ms ({:+.1}%)  \
         {} record(s) / {} B appended, {} compaction(s)",
        cell.workload,
        format!("{shards}-shard"),
        cell.wal_off_ms,
        cell.wal_on_ms,
        cell.overhead_pct,
        cell.appended_records,
        cell.appended_bytes,
        cell.compactions,
    ));
    cell
}

/// Writes `records` delta records of the stream into a fresh store,
/// compacting at `compact_every`, and returns the store plus counters.
fn write_store(
    dir: &Path,
    w: &Workload,
    batches: &[Vec<Sample>],
    interval: u64,
    records: u64,
    compact_every: u64,
) -> u64 {
    let empty = ProfileDatabase::new(&w.program, interval);
    let cfg = StoreConfig {
        data_dir: dir.to_path_buf(),
        segment_bytes: 256 * 1024,
        compact_every,
    };
    let (mut store, _) = ProfileStore::open(cfg, empty.clone()).expect("store opens");
    let mut running = empty.clone();
    let mut base = empty;
    let mut appended = 0u64;
    'outer: loop {
        for batch in batches {
            if appended >= records {
                break 'outer;
            }
            for sample in batch {
                running.absorb(sample);
            }
            let delta = running
                .extract_delta_bytes(&mut base)
                .expect("delta extracts");
            store.append(&delta).expect("append succeeds");
            appended += 1;
            store.maybe_compact(&running).expect("compaction succeeds");
        }
    }
    store.sync().expect("sync succeeds");
    store.stats().compactions
}

fn recovery_cell(dir: &Path, records: u64) -> (f64, u64) {
    let t = Instant::now();
    let (_db, stats) = ProfileStore::<ProfileDatabase>::recover(dir).expect("recovery succeeds");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(stats.recovered_records, records);
    (ms, stats.recovered_bytes)
}

fn main() {
    let dump_dir = env::dump_dir().unwrap_or_else(|| std::path::PathBuf::from("."));
    let out = Emitter::with_dump_dir(Some(dump_dir));
    out.banner(
        "Durable-store cost — WAL overhead, recovery scaling, compaction",
        "repo infrastructure (not a paper figure)",
    );
    let reps = env::reps();
    let cores = env::cores();
    out.say(format!(
        "machine: {cores} core(s); best of {reps} rep(s) per cell"
    ));
    let w = workloads::ijpeg(env::scaled(400));
    let (batches, interval) = sample_batches(&w, env::scaled(400_000) as usize);
    out.say(format!(
        "{:>9}: {} batches of {} samples, snapshot every {} batches",
        w.name,
        batches.len(),
        BATCH,
        SNAPSHOT_EVERY
    ));
    out.blank();

    // 1. What the WAL costs the live service.
    let mut overhead = Vec::new();
    for shards in [1usize, 4] {
        overhead.push(overhead_cell(&out, &w, &batches, interval, shards, reps));
    }
    out.blank();

    // 2. Recovery time vs log length (no compaction: the log holds
    //    every record).
    let mut recovery = Vec::new();
    for records in [64u64, 256, 1024] {
        let dir = TempDir::new("recovery");
        write_store(&dir.0, &w, &batches, interval, records, 0);
        let mut best = f64::MAX;
        for _ in 0..reps {
            let (ms, _) = recovery_cell(&dir.0, records);
            best = best.min(ms);
        }
        let log_bytes = dir_bytes(&dir.0, ".seg");
        let cell = RecoveryCell {
            records,
            log_bytes,
            recovery_ms: best,
            records_per_second: records as f64 / (best / 1e3),
        };
        out.say(format!(
            "recovery: {:>5} record(s) / {:>8} B log in {:>7.2}ms ({:>8.0} records/s)",
            cell.records, cell.log_bytes, cell.recovery_ms, cell.records_per_second,
        ));
        recovery.push(cell);
    }
    out.blank();

    // 3. Compaction amortization: same records, different cadences.
    let mut compaction = Vec::new();
    for compact_every in [0u64, 64, 256] {
        let dir = TempDir::new("compaction");
        let records = 1024;
        let compactions = write_store(&dir.0, &w, &batches, interval, records, compact_every);
        let mut best = f64::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            ProfileStore::<ProfileDatabase>::recover(&dir.0).expect("recovery succeeds");
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        let cell = CompactionCell {
            compact_every,
            records,
            compactions,
            final_log_bytes: dir_bytes(&dir.0, ".seg"),
            final_image_bytes: dir_bytes(&dir.0, ".img"),
            recovery_ms: best,
        };
        out.say(format!(
            "compaction every {:>4}: {:>2} run(s), log {:>8} B, image {:>6} B, recovery {:>6.2}ms",
            if cell.compact_every == 0 {
                "∞".to_string()
            } else {
                cell.compact_every.to_string()
            },
            cell.compactions,
            cell.final_log_bytes,
            cell.final_image_bytes,
            cell.recovery_ms,
        ));
        compaction.push(cell);
    }
    out.blank();

    let max_overhead_pct = overhead
        .iter()
        .map(|c| c.overhead_pct)
        .fold(f64::MIN, f64::max);
    // Multi-shard cells only bind the gate on hosts with ≥2 cores: on
    // a single core the shard threads serialize and the measured delta
    // is scheduler contention, not WAL cost (same convention as
    // bench_ingest's sharding gate). Every cell is still reported.
    let gated_overhead_pct = overhead
        .iter()
        .filter(|c| c.shards == 1 || cores >= 2)
        .map(|c| c.overhead_pct)
        .fold(f64::MIN, f64::max);
    let store_ok = gated_overhead_pct <= MAX_OVERHEAD_PCT;
    out.say(format!(
        "WAL-on overhead worst case {max_overhead_pct:+.1}%, gated cells \
         {gated_overhead_pct:+.1}% (budget {MAX_OVERHEAD_PCT}%): {}",
        if store_ok { "ok" } else { "OVER BUDGET" }
    ));
    out.dump(
        "BENCH_store",
        &Report {
            scale: env::scale(),
            reps,
            batch: BATCH,
            snapshot_every: SNAPSHOT_EVERY,
            cores,
            overhead,
            recovery,
            compaction,
            max_overhead_pct,
            gated_overhead_pct,
            store_ok,
        },
    );
    if require_store_ok() && !store_ok {
        eprintln!(
            "PROFILEME_REQUIRE_STORE_OK=1: WAL-on overhead {gated_overhead_pct:+.1}% exceeds \
             the {MAX_OVERHEAD_PCT}% budget"
        );
        std::process::exit(1);
    }
}
