//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints two lines on standard output: a run
//! record (seed, cores, the core a pinned run ran on, commit, sample
//! counts, failures, span summary) and, last, the result object with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Exits 1 if any operation or correctness check failed,
//! 2 on bad arguments.

use profileme_perfbench::{host, run, Params, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <profile_mix|fleet_ingest|fleet_query> --seed <n> \
         --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse() -> Params {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes a whole number")),
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                        .unwrap_or_else(|| usage("--seconds takes a number from 0 to 3600")),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Params {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
        tiny: false,
        corrupt_reference: false,
    }
}

fn main() {
    let params = parse();
    // Before any thread starts, so every thread the run starts is pinned.
    if params.workload.one_core() {
        host::pin_to_one_core();
    }
    let outcome = run(&params);
    println!("{}", outcome.record_line(&params));
    println!("{}", outcome.result_line(params.trace));
    if !outcome.correct() {
        for f in &outcome.failures {
            eprintln!("perfbench: FAILED: {f}");
        }
        std::process::exit(1);
    }
}
