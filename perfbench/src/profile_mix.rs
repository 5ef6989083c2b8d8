//! `profile_mix`: the simulator with ProfileMe sampling, alternating a
//! `compress` run and a `gcc` run at fixed instruction budgets. The
//! service is bypassed, so only `uarch`, `core::hw` and `core::sw` work.
//!
//! One operation is one `Session::profile_single` run of each program;
//! a set-up follows each operation, untimed for it. Before each run the benchmark returns the heap's free memory to the
//! kernel (untimed), so every run allocates as a freshly started
//! profiler does: under glibc's default policy, whether a run reuses
//! the previous run's memory or faults ~7 MB in afresh otherwise
//! depends on what happens to sit at the top of the heap, which varied
//! from process to process and made the same run 11 or 15 ms.
//!
//! The traced run makes the same runs through `Session::run` with a
//! timed handler closure, followed by the same database aggregation
//! `profile_single` does, with tracing on for every other operation and
//! a `Session::ground_truth` run of each program after every eighth.

use crate::stats::Dist;
use crate::trace::{Trace, Tracer};
use crate::{host, mix, sampling, secs, session, set_up, Outcome, Params};
use profileme_core::{ProfileDatabase, ProfileError, ProfileMeHardware, Session, SingleRun};
use std::hint::black_box;
use std::time::Instant;

/// `compress` main-loop iterations per run: about 19k instructions.
const COMPRESS_ITERS: u64 = 1_000;
/// `gcc` main-loop iterations per run: about 26k instructions, enough
/// to cycle its 73 KiB of code through the 64 KiB I-cache twice.
const GCC_ITERS: u64 = 2;
/// The traced run adds a `Session::ground_truth` run of each program
/// after every this many operations, so sampling overhead compares runs
/// made under the same load on the host.
const GROUND_TRUTH_EVERY: usize = 8;

/// The counts a run must repeat exactly for its seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    cycles: u64,
    retired: u64,
    samples: u64,
    interrupts: u64,
}

impl Counts {
    fn of(run: &SingleRun) -> Counts {
        Counts {
            cycles: run.cycles,
            retired: run.stats.retired,
            samples: run.samples.len() as u64,
            interrupts: run.stats.interrupts,
        }
    }
}

/// One program ready to profile, with its reference counts.
struct Program {
    name: &'static str,
    session: Session,
    interval: u64,
    reference: Counts,
}

fn setup(params: &Params) -> Result<Vec<Program>, ProfileError> {
    let (c, g) = if params.tiny {
        (100, 1)
    } else {
        (COMPRESS_ITERS, GCC_ITERS)
    };
    [
        profileme_workloads::compress(c),
        profileme_workloads::gcc(g),
    ]
    .iter()
    .map(|w| {
        let session = session(w, params.seed)?;
        let reference = session.profile_single()?;
        Ok(Program {
            name: w.name,
            interval: reference.db.interval(),
            reference: Counts::of(&reference),
            session,
        })
    })
    .collect()
}

/// The reference counts of every program, folded together.
fn fingerprint(programs: &[Program]) -> u64 {
    programs.iter().fold(0, |h, p| {
        let r = &p.reference;
        [r.cycles, r.retired, r.samples, r.interrupts]
            .into_iter()
            .fold(h, mix)
    })
}

/// Runs `profile_mix`.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let Some((mut programs, setups)) =
        set_up(&mut out, || setup(params), |p| fingerprint(p), |_, _| ())
    else {
        return out;
    };
    let inputs = fingerprint(&programs);
    let mut setups = setups.values().to_vec();
    if params.corrupt_reference {
        programs[0].reference.cycles += 1;
    }

    // Untraced: the end-to-end numbers.
    let mut ops = Vec::new();
    let mut differ = vec![0usize; programs.len()];
    let mut errors = 0u64;
    let (mut retired, mut samples, mut setup_faults) = (0u64, 0u64, 0u64);
    warm_up(&programs);
    let faults = host::minor_faults();
    let started = Instant::now();
    while !params.phase_done(started, ops.len()) {
        let mut op_us = 0.0;
        for (i, p) in programs.iter().enumerate() {
            // Untimed: every run starts from the heap a fresh process
            // has, whatever the previous run left.
            host::trim_heap();
            let t = Instant::now();
            let run = p.session.profile_single();
            let counts = run.as_ref().map(Counts::of).map_err(|_| ());
            drop(black_box(run));
            op_us += t.elapsed().as_secs_f64() * 1e6;
            match counts {
                Ok(counts) => {
                    samples += counts.samples;
                    retired += counts.retired;
                    differ[i] += usize::from(counts != p.reference);
                }
                Err(_) => errors += 1,
            }
        }
        ops.push(op_us);
        // Untimed for the operations: one more set-up after each, so
        // that `setup_s` samples the host across the whole phase. Load
        // from other tenants of the host comes in bursts of seconds
        // that slow everything by up to half; set-ups made in one
        // stretch before the phase all fell into the same burst in some
        // runs and none in others.
        let before = host::minor_faults();
        host::trim_heap();
        let t = Instant::now();
        match setup(params) {
            Ok(fresh) => {
                setups.push(secs(t));
                out.check(fingerprint(&fresh) == inputs, || {
                    "a set-up of the same seed generated other inputs".to_string()
                });
            }
            Err(e) => out.check(false, || format!("set-up failed: {e}")),
        }
        setup_faults += host::minor_faults() - before;
    }
    // Seconds spent in the runs themselves, without the trims and the
    // set-ups.
    let elapsed = ops.iter().sum::<f64>() / 1e6;
    let faults = host::minor_faults() - faults - setup_faults;
    out.ops(
        (ops.len() * programs.len()) as u64,
        errors,
        "profile_single runs",
    );
    check_counts(&mut out, &programs, &differ);
    out.end_to_end(&ops, samples, elapsed, faults, &Dist::new(setups));
    if params.trace {
        out.layer("e2e.sim_minst_per_s", retired as f64 / elapsed / 1e6);
        traced(params, &programs, &mut out);
    }
    out
}

/// Two untimed operations, so lazy allocations and caches settle.
fn warm_up(programs: &[Program]) {
    for _ in 0..2 {
        for p in programs {
            host::trim_heap();
            drop(black_box(p.session.profile_single()));
        }
    }
}

/// Every run must repeat its program's reference counts exactly;
/// `differ[i]` runs of program `i` did not.
fn check_counts(out: &mut Outcome, programs: &[Program], differ: &[usize]) {
    for (p, &bad) in programs.iter().zip(differ) {
        out.check(bad == 0, || {
            format!(
                "{}: {bad} runs differ from the reference {:?}",
                p.name, p.reference
            )
        });
    }
}

/// The traced run and the per-layer metrics.
fn traced(params: &Params, programs: &[Program], out: &mut Outcome) {
    let epoch = Instant::now();
    let mut t = Tracer::new(true, 0, epoch);
    let mut differ = vec![0usize; programs.len()];
    let (mut traced_runs, mut errors) = (0u64, 0u64);
    let mut ops = 0usize;
    let (mut on_us, mut off_us) = (Vec::new(), Vec::new());
    let (mut gt_rounds, mut gt_cycles) = (0usize, 0u64);
    let phase = params.traced();
    let started = Instant::now();
    while !phase.phase_done(started, ops) {
        let op = ops as u64;
        let spanned = ops.is_multiple_of(2);
        t.set_enabled(spanned);
        let begun = Instant::now();
        t.span("profile_mix.op", op, |t| {
            for (i, p) in programs.iter().enumerate() {
                match traced_run(t, p, params.seed, op) {
                    Ok(counts) => {
                        traced_runs += 1;
                        differ[i] += usize::from(counts != p.reference);
                    }
                    Err(_) => errors += 1,
                }
            }
        });
        let us = begun.elapsed().as_secs_f64() * 1e6;
        if spanned {
            on_us.push(us);
        } else {
            off_us.push(us);
        }
        ops += 1;
        if ops.is_multiple_of(GROUND_TRUTH_EVERY) {
            t.set_enabled(true);
            gt_rounds += 1;
            for p in programs {
                host::trim_heap();
                let truth = t.span("uarch.ground_truth", op, |_| p.session.ground_truth());
                match truth {
                    Ok(truth) => {
                        gt_cycles += truth.cycles;
                        out.check(truth.stats.retired == p.reference.retired, || {
                            format!("{}: ground truth retired a different count", p.name)
                        });
                    }
                    Err(e) => out.check(false, || format!("{}: ground truth: {e}", p.name)),
                }
            }
        }
    }
    out.ops(traced_runs + errors, errors, "traced Session::run runs");
    check_counts(out, programs, &differ);

    let trace = Trace::merge([t]);
    let spanned_ops = on_us.len();
    let per_op = |ns: u64| ns as f64 / spanned_ops.max(1) as f64;
    let run_ns = per_op(trace.total_ns("core.session.run"));
    let handler_ns = per_op(trace.total_ns("core.sw.handler"));
    let handler_self = per_op(trace.self_ns("core.sw.handler"));
    let op_ns = per_op(trace.total_ns("profile_mix.op"));
    let gt_total = trace.total_ns("uarch.ground_truth") as f64;
    let gt_ns = gt_total / gt_rounds.max(1) as f64;
    out.layer(
        "uarch.host_ns_per_cycle",
        gt_total / gt_cycles.max(1) as f64,
    );
    out.layer(
        "core.hw.sampling_overhead_pct",
        (run_ns - handler_ns - gt_ns) / gt_ns * 100.0,
    );
    out.layer("core.sw.handler_self_ms", handler_self / 1e6);
    out.layer("core.sw.handler_share_pct", handler_self / op_ns * 100.0);
    let sum = |f: fn(&Counts) -> u64| programs.iter().map(|p| f(&p.reference)).sum::<u64>() as f64;
    out.layer("uarch.cycles", sum(|c| c.cycles));
    out.layer("uarch.retired", sum(|c| c.retired));
    out.layer("core.hw.samples", sum(|c| c.samples));
    out.layer("core.hw.interrupts", sum(|c| c.interrupts));
    out.trace_overhead(on_us, off_us);
    out.keep_trace(params, &trace);
}

/// `profile_single`'s work through `Session::run`, with the handler and
/// the aggregation in their own spans.
fn traced_run(t: &mut Tracer, p: &Program, seed: u64, op: u64) -> Result<Counts, ProfileError> {
    let mut samples = Vec::new();
    host::trim_heap();
    let mut run = t.span("core.session.run", op, |t| {
        p.session
            .run(ProfileMeHardware::new(sampling(seed)), |_, hw| {
                t.span("core.sw.handler", op, |_| {
                    samples.extend(hw.drain_samples())
                });
            })
    })?;
    samples.extend(run.hardware.drain_samples());
    let db = t.span("core.sw.aggregate", op, |_| {
        let mut db = ProfileDatabase::new(p.session.program(), p.interval);
        for s in &samples {
            db.add(s);
        }
        db
    });
    black_box(&db);
    Ok(Counts {
        cycles: run.cycles,
        retired: run.stats.retired,
        samples: samples.len() as u64,
        interrupts: run.stats.interrupts,
    })
}
