//! The benchmark's own test: every workload runs at tiny scale, prints
//! every metric `BENCHMARK.json` names with its unit, and fails its
//! correctness check when the reference is corrupted.

use profileme_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use profileme_perfbench::{run, Params, Workload};
use serde::Value;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn tiny(workload: Workload, trace: bool, corrupt_reference: bool) -> Params {
    Params {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        tiny: true,
        corrupt_reference,
    }
}

/// Every entry of `list` must appear in `metrics` with its unit and a
/// finite number.
fn assert_printed(line: &str, list: &Value) {
    let result = serde_json::parse(line).expect("the result line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let metrics = result.get("metrics").expect("metrics");
    let entries = list.as_array().expect("a metric list");
    assert_eq!(metrics.as_object().unwrap().len(), entries.len(), "{line}");
    for entry in entries {
        let name = entry.get("name").and_then(Value::as_str).unwrap();
        let unit = entry.get("unit").and_then(Value::as_str).unwrap();
        let printed = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        assert_eq!(
            printed.get("unit").and_then(Value::as_str),
            Some(unit),
            "{name}"
        );
        let value = printed.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    for workload in Workload::ALL {
        let out = run(&tiny(workload, true, false));
        assert!(out.correct(), "{}: {:?}", workload.name(), out.failures);
        assert_printed(&out.result_line(false), spec.get("end_to_end").unwrap());
        assert_printed(&out.result_line(true), spec.get("per_layer").unwrap());
        // A tail percentile short of ten measurements beyond it is left
        // out, but its count is still recorded.
        for d in PER_LAYER.iter().filter(|d| d.workloads.contains(&workload)) {
            assert!(
                out.layers.contains_key(d.name) || out.counts.contains_key(d.name),
                "{} does not report {}",
                workload.name(),
                d.name
            );
        }
        let record = serde_json::parse(&out.record_line(&tiny(workload, true, false)))
            .expect("the run record is JSON");
        let record = record.get("record").unwrap();
        for key in ["seed", "cores", "commit", "failed_ratio"] {
            assert!(record.get(key).is_some(), "run record lacks {key}");
        }
    }
}

#[test]
fn a_corrupted_reference_fails_the_check() {
    for workload in Workload::ALL {
        let out = run(&tiny(workload, false, true));
        assert!(
            !out.correct(),
            "{} passed a corrupted reference",
            workload.name()
        );
        assert!(out.failed >= 1 && out.result_line(false).contains("\"correct\": false"));
    }
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let spec = spec();
    let check = |list: &Value, table: &[MetricDef]| {
        let entries = list.as_array().unwrap();
        assert_eq!(entries.len(), table.len());
        for (entry, d) in entries.iter().zip(table) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
        }
    };
    check(spec.get("end_to_end").unwrap(), END_TO_END);
    check(spec.get("per_layer").unwrap(), PER_LAYER);
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn the_command_prints_the_result_last_and_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let run = |args: &[&str]| {
        std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("the benchmark binary runs")
    };
    let bad = run(&["--workload", "nope", "--seed", "1", "--seconds", "0"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty(), "no result on bad flags");

    let ok = run(&[
        "--workload",
        "fleet_query",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8(ok.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert_printed(last, spec().get("end_to_end").unwrap());
    assert!(last.starts_with("{\"correct\": true"), "{last}");
}
