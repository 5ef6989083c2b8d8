//! Simulator-throughput tracker: simulated cycles per wall-clock second
//! for the event-driven scheduler and the polling reference, over the
//! spec-like suite. Writes `BENCH_pipeline.json` so throughput can be
//! compared across revisions.
//!
//! Timing runs serially on the main thread (parallel cells would contend
//! for cores and distort each other); `PROFILEME_SCALE` sets run length
//! and `PROFILEME_BENCH_REPS` the repetitions per cell (best-of-N is
//! reported, the usual noise-robust choice for wall-clock medians of a
//! deterministic routine).
//!
//! Two more knobs for CI and profiling workflows:
//!
//! * `PROFILEME_BENCH_ONLY=gcc,li` restricts the run to the named
//!   workloads (the JSON is then written as `BENCH_pipeline_partial` so
//!   a focused run never masquerades as the full suite).
//! * `PROFILEME_REQUIRE_EVENT_WINS=1` exits nonzero if the event-driven
//!   scheduler's aggregate throughput falls below the polling
//!   reference's — the CI regression gate for the O(work) scheduler.

use profileme_bench::engine::{env, Emitter};
use profileme_bench::{run_plain, scaled};
use profileme_uarch::{PipelineConfig, SchedulerKind};
use profileme_workloads::{suite, Workload};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Cell {
    workload: &'static str,
    scheduler: &'static str,
    simulated_cycles: u64,
    retired: u64,
    best_seconds: f64,
    cycles_per_second: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    scale: f64,
    reps: u32,
    cells: Vec<Cell>,
    /// Suite-aggregate simulated cycles/sec (total cycles / total time).
    event_cycles_per_second: f64,
    polling_cycles_per_second: f64,
    /// Aggregate event-driven over polling speedup.
    speedup: f64,
}

/// The `PROFILEME_BENCH_ONLY` workload filter, if set.
fn only() -> Option<Vec<String>> {
    let raw = std::env::var("PROFILEME_BENCH_ONLY").ok()?;
    let names: Vec<String> = raw
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    (!names.is_empty()).then_some(names)
}

fn require_event_wins() -> bool {
    std::env::var("PROFILEME_REQUIRE_EVENT_WINS").is_ok_and(|v| v == "1")
}

fn time_cell(w: &Workload, kind: SchedulerKind, label: &'static str, reps: u32) -> Cell {
    let config = PipelineConfig {
        scheduler: kind,
        ..PipelineConfig::default()
    };
    // Untimed warm-up (also yields the cycle count for the throughput
    // denominator — the simulation is deterministic).
    let stats = run_plain(w, config.clone());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let s = run_plain(w, config.clone());
        let dt = start.elapsed().as_secs_f64();
        assert_eq!(s.cycles, stats.cycles, "simulation must be deterministic");
        best = best.min(dt);
    }
    Cell {
        workload: w.name,
        scheduler: label,
        simulated_cycles: stats.cycles,
        retired: stats.retired,
        best_seconds: best,
        cycles_per_second: stats.cycles as f64 / best,
    }
}

fn main() {
    let out = Emitter::with_dump_dir(Some(
        env::dump_dir().unwrap_or_else(|| std::path::PathBuf::from(".")),
    ));
    out.banner(
        "Simulator throughput — event-driven vs polling scheduler",
        "repo infrastructure (not a paper figure)",
    );
    let reps = env::reps();
    let mut workloads = suite(scaled(60_000));
    let filter = only();
    if let Some(names) = &filter {
        workloads.retain(|w| names.iter().any(|n| n == w.name));
        assert!(!workloads.is_empty(), "no workload matches {names:?}");
    }
    let mut cells = Vec::new();
    for w in &workloads {
        for (label, kind) in [
            ("event", SchedulerKind::EventDriven),
            ("polling", SchedulerKind::PollingReference),
        ] {
            let cell = time_cell(w, kind, label, reps);
            out.say(format!(
                "{:>9} {:>8}: {:>7.0}k simulated cycles/s  ({} cycles, best of {reps}: {:.3}s)",
                cell.workload,
                cell.scheduler,
                cell.cycles_per_second / 1e3,
                cell.simulated_cycles,
                cell.best_seconds,
            ));
            cells.push(cell);
        }
    }
    let agg = |which: &str| {
        let (cycles, secs) = cells
            .iter()
            .filter(|c| c.scheduler == which)
            .fold((0u64, 0.0), |(c, s), cell| {
                (c + cell.simulated_cycles, s + cell.best_seconds)
            });
        cycles as f64 / secs
    };
    let event = agg("event");
    let polling = agg("polling");
    out.blank();
    out.say(format!(
        "suite aggregate: event {:.0}k cycles/s, polling {:.0}k cycles/s, speedup {:.2}x",
        event / 1e3,
        polling / 1e3,
        event / polling
    ));
    out.dump(
        // A filtered run is not the suite: keep it out of the tracked file.
        if filter.is_some() {
            "BENCH_pipeline_partial"
        } else {
            "BENCH_pipeline"
        },
        &Report {
            scale: env::scale(),
            reps,
            cells,
            event_cycles_per_second: event,
            polling_cycles_per_second: polling,
            speedup: event / polling,
        },
    );
    if require_event_wins() && event < polling {
        eprintln!(
            "FAIL: event-driven aggregate ({event:.0} cycles/s) fell below \
             the polling reference ({polling:.0} cycles/s)"
        );
        std::process::exit(1);
    }
}
