//! Ingest-throughput tracker for the sharded aggregation service:
//! samples per wall-clock second pushed through `ShardedService` at
//! 1/2/4/8 shards, against the direct single-threaded
//! `ProfileDatabase::add` baseline. Writes `BENCH_ingest.json` so
//! ingest throughput can be compared across revisions.
//!
//! Every serviced cell is checked byte-for-byte against the direct
//! aggregation — the determinism invariant (shard count never changes
//! the merged profile) is asserted here on every run, not just in the
//! unit suite.
//!
//! Beyond aggregate throughput, every cell reports what ProfileMe
//! actually cares about — the cost visible *on the producer's critical
//! path*:
//!
//! * **Enqueue latency** (p50/p95/p99, µs): the wall time of each
//!   `ingest_batch` call. For the lock-free rings this is one push;
//!   aggregation happens on the worker's time, not the producer's.
//! * **Cold vs hot throughput**: the first repetition (cold caches,
//!   freshly spawned workers) against the best of all repetitions.
//! * **Baseline deltas**: when a previous `BENCH_ingest.json` exists
//!   in the dump directory it is parsed and per-cell throughput /
//!   latency deltas are printed before the file is overwritten.
//!
//! Knobs, following `bench_throughput`:
//!
//! * `PROFILEME_SCALE` sets workload length, `PROFILEME_BENCH_REPS`
//!   the repetitions per cell (best-of-N wall-clock is reported).
//! * `PROFILEME_REQUIRE_INGEST_OK=1` exits nonzero if the single-shard
//!   service overhead vs the direct baseline exceeds 15% — the CI
//!   regression gate for the ingest fast path. Supervision
//!   (checkpoint plus journal) is on at its defaults, so the gate
//!   prices the fault-tolerant path, with no faults firing.
//! * `PROFILEME_REQUIRE_SHARDING_WINS=1` exits nonzero if no
//!   multi-shard configuration beats the direct baseline in aggregate
//!   samples/s. The gate only binds when the host exposes ≥2 cores —
//!   on a single core the shards serialize and the comparison is
//!   meaningless — but the `sharding_wins` verdict and core count are
//!   recorded in the report either way.
//! * `PROFILEME_FAIL_SPEC` (builds with `--features fault-injection`)
//!   additionally runs a chaos smoke: the same stream through a
//!   service with that fault plan injected, asserting exact loss
//!   accounting — and byte-identity whenever the plan loses nothing.

use profileme_bench::engine::{env, percentile, Emitter};
use profileme_bench::scaled;
use profileme_core::{ProfileDatabase, ProfileMeConfig, Sample, Session, WireFormat};
use profileme_serve::{ServeConfig, ShardedService};
use profileme_workloads::{self as workloads, Workload};
use serde::Serialize;
use std::time::Instant;

/// Shard counts the tracker sweeps.
const SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Samples per `ingest_batch` call — one ring slot per batch, the
/// §4.3 buffered-delivery analogue.
const BATCH: usize = 4096;
/// Queue depth for the benchmark services: deep enough that the
/// producer never parks on backpressure, so the cell measures
/// aggregation throughput rather than wake latency.
const QUEUE_DEPTH: usize = 512;
/// Ceiling on single-shard overhead vs the direct baseline.
const MAX_OVERHEAD: f64 = 0.15;

#[derive(Debug, Serialize)]
struct Cell {
    workload: &'static str,
    /// 0 encodes the direct (unserviced) baseline.
    shards: usize,
    samples: u64,
    best_seconds: f64,
    /// Hot throughput: best of all repetitions.
    samples_per_second: f64,
    /// Cold throughput: the first repetition, cold caches and all.
    cold_samples_per_second: f64,
    /// Producer-visible latency of one `ingest_batch` call (one
    /// batch absorb for the direct baseline), in microseconds.
    enqueue_p50_us: f64,
    enqueue_p95_us: f64,
    enqueue_p99_us: f64,
}

/// Per-cell comparison against the previous `BENCH_ingest.json`.
#[derive(Debug, Serialize)]
struct Delta {
    workload: String,
    shards: usize,
    previous_samples_per_second: f64,
    /// Positive means this run is faster.
    samples_per_second_delta: f64,
    /// Positive means this run's p95 enqueue is slower. Absent when
    /// the previous report predates latency tracking.
    enqueue_p95_us_delta: Option<f64>,
}

#[derive(Debug, Serialize)]
struct Report {
    scale: f64,
    reps: u32,
    batch: usize,
    /// `available_parallelism` on the machine that produced the run —
    /// the context for the `sharding_wins` verdict.
    cores: usize,
    cells: Vec<Cell>,
    /// Single-shard service throughput over the direct baseline, per
    /// workload: 0.10 means the service path is 10% slower.
    single_shard_overhead: Vec<(String, f64)>,
    /// Best multi-shard hot throughput over direct, per workload:
    /// 1.3 means the best sharded configuration is 30% faster.
    best_multi_shard_speedup: Vec<(String, f64)>,
    /// Some multi-shard configuration beat direct aggregation.
    sharding_wins: bool,
    /// Deltas vs the previous report, empty on a first run.
    baseline_deltas: Vec<Delta>,
}

/// One cell's timing: per-repetition wall clocks plus the
/// producer-visible per-call latencies pooled across repetitions.
struct Timing {
    best_seconds: f64,
    cold_seconds: f64,
    call_us: Vec<f64>,
}

impl Timing {
    fn collect(reps: u32, mut one_rep: impl FnMut(&mut Vec<f64>) -> f64) -> Timing {
        let mut best = f64::INFINITY;
        let mut cold = f64::NAN;
        let mut call_us = Vec::new();
        for rep in 0..reps {
            let secs = one_rep(&mut call_us);
            if rep == 0 {
                cold = secs;
            }
            best = best.min(secs);
        }
        Timing {
            best_seconds: best,
            cold_seconds: cold,
            call_us,
        }
    }

    fn cell(&self, workload: &'static str, shards: usize, samples: usize) -> Cell {
        Cell {
            workload,
            shards,
            samples: samples as u64,
            best_seconds: self.best_seconds,
            samples_per_second: samples as f64 / self.best_seconds,
            cold_samples_per_second: samples as f64 / self.cold_seconds,
            enqueue_p50_us: percentile(&self.call_us, 0.50),
            enqueue_p95_us: percentile(&self.call_us, 0.95),
            enqueue_p99_us: percentile(&self.call_us, 0.99),
        }
    }
}

fn require_ingest_ok() -> bool {
    std::env::var("PROFILEME_REQUIRE_INGEST_OK").is_ok_and(|v| v == "1")
}

fn require_sharding_wins() -> bool {
    std::env::var("PROFILEME_REQUIRE_SHARDING_WINS").is_ok_and(|v| v == "1")
}

/// Profiles `w` once, then cycles the run's samples up to `target`
/// items so the timed replay is long enough to amortize thread start,
/// queue handoff, and the final drain. Returns the stream and the
/// sampling interval the databases must be built with.
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

/// Times the unserviced baseline and returns its aggregation — the
/// byte-identity reference every serviced cell is checked against.
///
/// The baseline consumes the stream exactly as the service does —
/// freshly materialized owned batches, dropped as they are absorbed —
/// so the serviced cells' delta is queue handoff and thread transfer,
/// not an artifact of cache warmth or allocator traffic.
fn time_direct(
    w: &Workload,
    stream: &[Sample],
    interval: u64,
    reps: u32,
) -> (Cell, ProfileDatabase) {
    let mut reference = ProfileDatabase::new(&w.program, interval);
    let timing = Timing::collect(reps, |call_us| {
        let batches: Vec<Vec<Sample>> = stream.chunks(BATCH).map(<[Sample]>::to_vec).collect();
        let mut db = ProfileDatabase::new(&w.program, interval);
        let start = Instant::now();
        for batch in batches {
            let t = Instant::now();
            for s in &batch {
                db.add(s);
            }
            call_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let secs = start.elapsed().as_secs_f64();
        reference = db;
        secs
    });
    (timing.cell(w.name, 0, stream.len()), reference)
}

fn time_serviced(
    w: &Workload,
    stream: &[Sample],
    reference: &ProfileDatabase,
    shards: usize,
    reps: u32,
) -> Cell {
    let reference_bytes = reference
        .encode(WireFormat::Sparse)
        .expect("snapshot serializes");
    let timing = Timing::collect(reps, |call_us| {
        // Batches are materialized untimed: the cell measures ingest +
        // aggregation + drain, not the cost of copying the test stream.
        let batches: Vec<Vec<Sample>> = stream.chunks(BATCH).map(<[Sample]>::to_vec).collect();
        let empty = ProfileDatabase::new(&w.program, reference.interval());
        let service = ShardedService::start(
            empty,
            ServeConfig::builder()
                .shards(shards)
                .queue_depth(QUEUE_DEPTH)
                .build()
                .expect("config is valid"),
        )
        .expect("service starts");
        let start = Instant::now();
        for batch in batches {
            let t = Instant::now();
            service.ingest_batch(batch);
            call_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let (merged, _stats) = service.shutdown().expect("service drains");
        let secs = start.elapsed().as_secs_f64();
        // The hard gate: shard count must never change the profile.
        assert_eq!(
            merged
                .encode(WireFormat::Sparse)
                .expect("snapshot serializes"),
            reference_bytes,
            "{} at {shards} shard(s) diverged from direct aggregation",
            w.name
        );
        secs
    });
    timing.cell(w.name, shards, stream.len())
}

/// Loads the previous report's per-cell numbers for delta lines:
/// `(workload, shards) → (samples_per_second, enqueue_p95_us)`.
/// Parsed loosely so reports from before a schema change still
/// compare on the fields they have.
fn previous_cells(path: &std::path::Path) -> Vec<(String, usize, f64, Option<f64>)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(root) = serde_json::parse(&text) else {
        return Vec::new();
    };
    let Some(cells) = root.get("cells").and_then(|c| c.as_array()) else {
        return Vec::new();
    };
    cells
        .iter()
        .filter_map(|cell| {
            let workload = cell.get("workload")?.as_str()?.to_string();
            let shards = cell.get("shards")?.as_u64()? as usize;
            let rate = cell.get("samples_per_second")?.as_f64()?;
            let p95 = cell.get("enqueue_p95_us").and_then(|v| v.as_f64());
            Some((workload, shards, rate, p95))
        })
        .collect()
}

fn baseline_deltas(out: &Emitter, cells: &[Cell], path: &std::path::Path) -> Vec<Delta> {
    let previous = previous_cells(path);
    if previous.is_empty() {
        out.say(format!(
            "no previous {} — baseline comparison skipped",
            path.display()
        ));
        return Vec::new();
    }
    out.say(format!("baseline comparison ({}):", path.display()));
    let mut deltas = Vec::new();
    for cell in cells {
        let Some((_, _, prev_rate, prev_p95)) = previous
            .iter()
            .find(|(w, s, _, _)| w == cell.workload && *s == cell.shards)
        else {
            continue;
        };
        let rate_delta = cell.samples_per_second - prev_rate;
        let p95_delta = prev_p95.map(|p| cell.enqueue_p95_us - p);
        let p95_note = match p95_delta {
            Some(d) => format!(", p95 {d:+.2}us"),
            None => String::new(),
        };
        out.say(format!(
            "{:>9} {:>7}: hot throughput delta {:+.0}k samples/s{p95_note}",
            cell.workload,
            if cell.shards == 0 {
                "direct".to_string()
            } else {
                format!("{}-shard", cell.shards)
            },
            rate_delta / 1e3,
        ));
        deltas.push(Delta {
            workload: cell.workload.to_string(),
            shards: cell.shards,
            previous_samples_per_second: *prev_rate,
            samples_per_second_delta: rate_delta,
            enqueue_p95_us_delta: p95_delta,
        });
    }
    deltas
}

/// Chaos smoke for CI: replay the stream through a service with a
/// deterministic fault plan injected and hold the supervision layer to
/// its accounting contract — `total_samples == enqueued −
/// lost_to_panics` always, and byte-identity with direct aggregation
/// whenever nothing was lost.
#[cfg(feature = "fault-injection")]
fn chaos_smoke(
    out: &Emitter,
    w: &Workload,
    stream: &[Sample],
    reference: &ProfileDatabase,
    spec: &str,
) {
    let plan = profileme_serve::FaultPlan::parse(spec).expect("PROFILEME_FAIL_SPEC parses");
    for shards in [1usize, 4] {
        let service = ShardedService::start_with_faults(
            ProfileDatabase::new(&w.program, reference.interval()),
            ServeConfig::builder()
                .shards(shards)
                .queue_depth(QUEUE_DEPTH)
                .build()
                .expect("config is valid"),
            plan.clone(),
        )
        .expect("service starts");
        for batch in stream.chunks(BATCH) {
            service.ingest_batch(batch.to_vec());
        }
        let (merged, stats) = service.shutdown().expect("chaos run drains");
        assert_eq!(
            merged.total_samples,
            stats.enqueued - stats.lost_to_panics,
            "{} at {shards} shard(s): loss accounting is inexact under `{spec}`",
            w.name
        );
        if stats.lost() == 0 {
            assert_eq!(
                merged
                    .encode(WireFormat::Sparse)
                    .expect("snapshot serializes"),
                reference
                    .encode(WireFormat::Sparse)
                    .expect("snapshot serializes"),
                "{} at {shards} shard(s): lossless chaos run diverged under `{spec}`",
                w.name
            );
        }
        out.say(format!(
            "{:>9} {:>7}: chaos `{spec}` — {} panic(s), {} recovered, {} lost, all accounted",
            w.name,
            format!("{shards}-shard"),
            stats.worker_panics,
            stats.workers_recovered,
            stats.lost(),
        ));
    }
}

fn main() {
    let dump_dir = env::dump_dir().unwrap_or_else(|| std::path::PathBuf::from("."));
    let baseline_path = dump_dir.join("BENCH_ingest.json");
    let out = Emitter::with_dump_dir(Some(dump_dir));
    out.banner(
        "Sharded ingest throughput — ShardedService vs direct aggregation",
        "repo infrastructure (not a paper figure)",
    );
    let reps = env::reps();
    let cores = env::cores();
    out.say(format!("machine: {cores} core(s) available"));
    let workloads = [
        workloads::compress(scaled(40_000)),
        workloads::vortex(scaled(30_000)),
    ];
    let mut cells = Vec::new();
    let mut overheads = Vec::new();
    let mut speedups = Vec::new();
    let target = scaled(400_000) as usize;
    for w in &workloads {
        let (stream, interval) = sample_stream(w, target);
        out.say(format!(
            "{:>9}: replaying {} samples (one profiling run, cycled)",
            w.name,
            stream.len()
        ));
        let (direct, reference) = time_direct(w, &stream, interval, reps);
        out.say(format!(
            "{:>9} {:>7}: hot {:>8.0}k/s cold {:>8.0}k/s  batch absorb p95={:.1}us",
            w.name,
            "direct",
            direct.samples_per_second / 1e3,
            direct.cold_samples_per_second / 1e3,
            direct.enqueue_p95_us,
        ));
        let direct_rate = direct.samples_per_second;
        let mut best_multi = 0.0f64;
        cells.push(direct);
        for shards in SHARDS {
            let cell = time_serviced(w, &stream, &reference, shards, reps);
            let note = if shards == 1 {
                let overhead = direct_rate / cell.samples_per_second - 1.0;
                overheads.push((w.name.to_string(), overhead));
                format!("  ({:+.1}% vs direct)", overhead * 100.0)
            } else {
                best_multi = best_multi.max(cell.samples_per_second / direct_rate);
                format!("  ({:.2}x direct)", cell.samples_per_second / direct_rate)
            };
            out.say(format!(
                "{:>9} {:>7}: hot {:>8.0}k/s cold {:>8.0}k/s  enqueue p50={:.1} p95={:.1} p99={:.1}us{note}",
                w.name,
                format!("{shards}-shard"),
                cell.samples_per_second / 1e3,
                cell.cold_samples_per_second / 1e3,
                cell.enqueue_p50_us,
                cell.enqueue_p95_us,
                cell.enqueue_p99_us,
            ));
            cells.push(cell);
        }
        speedups.push((w.name.to_string(), best_multi));
        if let Ok(spec) = std::env::var("PROFILEME_FAIL_SPEC") {
            #[cfg(feature = "fault-injection")]
            chaos_smoke(&out, w, &stream, &reference, &spec);
            #[cfg(not(feature = "fault-injection"))]
            out.say(format!(
                "PROFILEME_FAIL_SPEC=`{spec}` ignored: build with --features fault-injection"
            ));
        }
        out.blank();
    }
    out.say("every serviced cell matched the direct aggregation byte-for-byte".to_string());
    let worst = overheads
        .iter()
        .cloned()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one workload ran");
    out.say(format!(
        "worst single-shard overhead: {:+.1}% on {} (gate: {:.0}%)",
        worst.1 * 100.0,
        worst.0,
        MAX_OVERHEAD * 100.0
    ));
    let sharding_wins = speedups.iter().any(|(_, s)| *s > 1.0);
    let best = speedups
        .iter()
        .cloned()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one workload ran");
    out.say(format!(
        "best multi-shard speedup: {:.2}x direct on {} ({})",
        best.1,
        best.0,
        if sharding_wins {
            "sharding wins"
        } else if cores < 2 {
            "single core — shards serialize"
        } else {
            "sharding LOSES"
        },
    ));
    let deltas = baseline_deltas(&out, &cells, &baseline_path);
    out.dump(
        "BENCH_ingest",
        &Report {
            scale: env::scale(),
            reps,
            batch: BATCH,
            cores,
            cells,
            single_shard_overhead: overheads,
            best_multi_shard_speedup: speedups,
            sharding_wins,
            baseline_deltas: deltas,
        },
    );
    let mut failed = false;
    if require_ingest_ok() && worst.1 > MAX_OVERHEAD {
        eprintln!(
            "FAIL: single-shard ingest overhead {:+.1}% on {} exceeds the {:.0}% gate",
            worst.1 * 100.0,
            worst.0,
            MAX_OVERHEAD * 100.0
        );
        failed = true;
    }
    if require_sharding_wins() {
        if cores < 2 {
            out.say(format!(
                "PROFILEME_REQUIRE_SHARDING_WINS skipped: {cores} core(s); the gate needs >=2"
            ));
        } else if !sharding_wins {
            eprintln!(
                "FAIL: no multi-shard configuration beat direct aggregation on {cores} cores \
                 (best {:.2}x on {})",
                best.1, best.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
