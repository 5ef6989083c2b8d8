//! The engine's environment-variable surface — the *only* place in the
//! workspace that reads experiment configuration from the environment.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `PROFILEME_SCALE` | run-length multiplier | `1.0` |
//! | `PROFILEME_JOBS` | worker threads for the cell grid | available parallelism |
//! | `PROFILEME_DUMP_DIR` | directory for JSON data series | unset (no dumps) |
//! | `PROFILEME_BENCH_REPS` | repetitions per `bench_*` cell | `3` |
//!
//! Each variable has a pure `parse_*` function over `Option<&str>` so
//! edge cases are unit-testable without mutating process state.

use std::path::PathBuf;

/// Name of the run-length multiplier variable.
pub const SCALE_VAR: &str = "PROFILEME_SCALE";
/// Name of the worker-thread-count variable.
pub const JOBS_VAR: &str = "PROFILEME_JOBS";
/// Name of the JSON dump directory variable.
pub const DUMP_DIR_VAR: &str = "PROFILEME_DUMP_DIR";
/// Name of the `bench_*` repetition-count variable.
pub const REPS_VAR: &str = "PROFILEME_BENCH_REPS";

/// Parses a `PROFILEME_SCALE` value: a positive finite float, defaulting
/// to 1.0 when unset, non-numeric, zero, or negative.
pub fn parse_scale(raw: Option<&str>) -> f64 {
    raw.and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
        .unwrap_or(1.0)
}

/// Parses a `PROFILEME_JOBS` value: a positive integer, falling back to
/// `default` when unset, non-numeric, or zero.
pub fn parse_jobs(raw: Option<&str>, default: usize) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default.max(1))
}

/// Parses a `PROFILEME_BENCH_REPS` value: a non-negative integer
/// floored at 1, defaulting to 3 when unset or non-numeric.
pub fn parse_reps(raw: Option<&str>) -> u32 {
    raw.and_then(|s| s.parse().ok()).unwrap_or(3).max(1)
}

/// The run-length multiplier from `PROFILEME_SCALE` (default 1.0).
pub fn scale() -> f64 {
    parse_scale(std::env::var(SCALE_VAR).ok().as_deref())
}

/// `base` iterations scaled by [`scale`], with a floor of 1.
pub fn scaled(base: u64) -> u64 {
    ((base as f64 * scale()) as u64).max(1)
}

/// The worker-thread count from `PROFILEME_JOBS`, defaulting to the
/// machine's available parallelism. Results never depend on this value
/// — only wall-clock time does.
pub fn jobs() -> usize {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    parse_jobs(std::env::var(JOBS_VAR).ok().as_deref(), default)
}

/// Repetitions per `bench_*` cell from `PROFILEME_BENCH_REPS`
/// (default 3, at least 1).
pub fn reps() -> u32 {
    parse_reps(std::env::var(REPS_VAR).ok().as_deref())
}

/// The machine's available parallelism (1 when unknown): the core
/// count every `bench_*` record and gate is tagged with.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The JSON dump directory from `PROFILEME_DUMP_DIR`, if set.
pub fn dump_dir() -> Option<PathBuf> {
    std::env::var(DUMP_DIR_VAR).ok().map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_positive_floats() {
        assert_eq!(parse_scale(Some("2.5")), 2.5);
        assert_eq!(parse_scale(Some("0.01")), 0.01);
        assert_eq!(parse_scale(Some(" 3 ")), 3.0);
    }

    #[test]
    fn scale_rejects_zero_negative_and_garbage() {
        assert_eq!(parse_scale(None), 1.0);
        assert_eq!(parse_scale(Some("0")), 1.0);
        assert_eq!(parse_scale(Some("-2")), 1.0);
        assert_eq!(parse_scale(Some("nan")), 1.0);
        assert_eq!(parse_scale(Some("inf")), 1.0);
        assert_eq!(parse_scale(Some("fast")), 1.0);
        assert_eq!(parse_scale(Some("")), 1.0);
    }

    #[test]
    fn jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs(Some("1"), 8), 1);
        assert_eq!(parse_jobs(Some("16"), 8), 16);
        assert_eq!(parse_jobs(Some(" 4 "), 8), 4);
    }

    #[test]
    fn jobs_falls_back_on_bad_input() {
        assert_eq!(parse_jobs(None, 8), 8);
        assert_eq!(parse_jobs(Some("0"), 8), 8);
        assert_eq!(parse_jobs(Some("-1"), 8), 8);
        assert_eq!(parse_jobs(Some("many"), 8), 8);
        assert_eq!(parse_jobs(None, 0), 1, "a zero default is clamped");
    }

    #[test]
    fn reps_default_to_three_and_floor_at_one() {
        assert_eq!(parse_reps(None), 3);
        assert_eq!(parse_reps(Some("7")), 7);
        assert_eq!(parse_reps(Some("0")), 1);
        assert_eq!(parse_reps(Some("many")), 3);
        assert_eq!(parse_reps(Some(" 4 ")), 3, "no trimming, as before");
    }

    #[test]
    fn scaled_floors_at_one() {
        // With no env override the scale is 1.0 under `cargo test`.
        if std::env::var(SCALE_VAR).is_err() {
            assert_eq!(scaled(100), 100);
            assert_eq!(scaled(0), 1);
        }
    }
}
