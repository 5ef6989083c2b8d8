//! End-to-end and per-layer benchmark of the ProfileMe reproduction.
//!
//! Three workloads follow a profile sample through the system, each
//! timing calls into the layers' public APIs from outside:
//!
//! * `profile_mix` — the simulator with ProfileMe sampling
//!   (`uarch`, `core::hw`, `core::sw`); the service is bypassed.
//! * `fleet_ingest` — two TCP producers into a durable two-shard
//!   `FleetService` (`serve::net`, `serve::tenant`, `serve::service`,
//!   `serve::store`); writes dominate.
//! * `fleet_query` — one thread of ingest, snapshot and queries over
//!   16 tenants on one shard; reads dominate.
//!
//! A run sets up several times (the fastest reported as `setup_s`), measures
//! with tracing off, and checks its outputs outside the timed region.
//! With tracing on it then repeats the measurement with spans around
//! every call and derives the per-layer metrics from those spans.

pub mod fleet_ingest;
pub mod fleet_query;
pub mod host;
pub mod metrics;
pub mod profile_mix;
pub mod stats;
pub mod trace;

use metrics::{END_TO_END, PER_LAYER};
use stats::Dist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fewest operations a measured phase completes, so that ten lie below
/// the fast end (`Dist::fast_end`) even in a very short run. A phase runs
/// until both this count and its `--seconds` are reached.
pub const MIN_OPS: usize = 100;

/// Most operations one phase of a fleet workload records. Its logs are
/// allocated at this size before the phase starts: a log that grew
/// mid-phase would reallocate at times that differ from run to run and
/// change what sits at the top of the heap, which decides whether glibc
/// keeps freed memory or faults it in again (see `host::trim_heap`).
pub const OP_CAPACITY: usize = 1 << 18;

/// Fewest set-ups per run; `setup_s` is the fastest of them. Other load
/// on the shared host comes in bursts of seconds to minutes that slow
/// everything by up to half; the median set-up of a run moved with
/// them by a third between sets of runs, the fastest by a tenth.
pub const SETUP_REPS: usize = 11;

/// Set-up repeats until it has also taken this long in total, so that
/// a short set-up is tried over a second of the host's time.
pub const SETUP_SECONDS: f64 = 1.0;

/// An empty log of [`OP_CAPACITY`] entries, for a phase to fill without
/// allocating.
pub fn op_log<T>() -> Vec<T> {
    Vec::with_capacity(OP_CAPACITY)
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simulator with single-instruction sampling over `compress` and `gcc`.
    ProfileMix,
    /// Two closed-loop TCP producers into a durable fleet service.
    FleetIngest,
    /// Ingest, snapshot and query rounds over 16 tenants on one shard.
    FleetQuery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ProfileMix,
        Workload::FleetIngest,
        Workload::FleetQuery,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileMix => "profile_mix",
            Workload::FleetIngest => "fleet_ingest",
            Workload::FleetQuery => "fleet_query",
        }
    }

    /// Whether the workload runs pinned to one core
    /// ([`host::pin_to_one_core`]). `fleet_query`'s operation is one chain
    /// of handoffs between its thread and the shard's, which a second
    /// core does not shorten but whose wake-ups on an idle core the
    /// host's other load delays: under such load its pinned rounds read
    /// a quarter faster at the p10 than unpinned ones. `fleet_ingest`
    /// runs two producers and two shards in parallel and would take
    /// twice as long on one core; `profile_mix` runs on one thread.
    pub fn one_core(self) -> bool {
        self == Workload::FleetQuery
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seeds the sampling hardware and the batch order.
    pub seed: u64,
    /// Shortest time each measured phase runs.
    pub seconds: f64,
    /// Whether to make the traced run and report per-layer metrics.
    pub trace: bool,
    /// Shrinks simulated inputs to a few thousand instructions, for the
    /// self-test.
    pub tiny: bool,
    /// Perturbs the reference the outputs are checked against, so the
    /// check must fail; for the self-test.
    pub corrupt_reference: bool,
}

impl Params {
    /// The phase loop's stop rule: `seconds` elapsed and [`MIN_OPS`]
    /// done (ten at tiny scale), or [`OP_CAPACITY`] operations, or a
    /// hard cap well past `seconds` so a stalled system still ends.
    pub fn phase_done(&self, started: Instant, ops: usize) -> bool {
        let elapsed = started.elapsed();
        let cap = Duration::from_secs_f64(self.seconds * 2.0 + 30.0);
        let min_ops = if self.tiny { 10 } else { MIN_OPS };
        (elapsed.as_secs_f64() >= self.seconds && ops >= min_ops)
            || ops >= OP_CAPACITY
            || elapsed >= cap
    }

    /// The parameters of the traced phase: half as long as the untraced
    /// one, which is enough for its per-layer figures and keeps a traced
    /// run within a small multiple of `--seconds`.
    pub fn traced(&self) -> Params {
        Params {
            seconds: self.seconds / 2.0,
            ..self.clone()
        }
    }
}

/// Sets up [`SETUP_REPS`] times, and more until the set-ups have taken
/// [`SETUP_SECONDS`], and keeps the last set-up with the time of each.
/// Each set-up but the last is handed to `retire` before the next one is
/// built, so only one is alive at a time and the peak memory is that of
/// one set-up. Every set-up's `fingerprint` must equal the first's: the
/// same seed gives the same inputs. `None` if a set-up failed; the
/// failure is counted in `out`.
pub fn set_up<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, profileme_core::ProfileError>,
    fingerprint: impl Fn(&T) -> u64,
    mut retire: impl FnMut(&mut Outcome, T),
) -> Option<(T, Dist)> {
    let mut times: Vec<f64> = Vec::new();
    let mut first = None;
    let mut kept = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_SECONDS {
        if let Some(old) = kept.take() {
            retire(out, old);
        }
        // Untimed: each set-up starts from the heap a freshly started
        // process has, whatever the previous one left (see
        // `host::trim_heap`).
        host::trim_heap();
        let t = Instant::now();
        match setup() {
            Ok(fresh) => {
                times.push(secs(t));
                let print = fingerprint(&fresh);
                let first = *first.get_or_insert(print);
                out.check(print == first, || {
                    format!("set-ups of one seed generated other inputs: {print:#x} vs {first:#x}")
                });
                kept = Some(fresh);
            }
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                return None;
            }
        }
    }
    kept.map(|k| (k, Dist::new(times)))
}

/// A fingerprint of generated samples: their count and where each was
/// selected, so two set-ups that drew different samples differ.
pub fn fingerprint<'a>(samples: impl IntoIterator<Item = &'a profileme_core::Sample>) -> u64 {
    samples.into_iter().fold(0, |h, s| mix(h, s.selected_cycle))
}

/// Folds `v` into the running fingerprint `h` (FNV-1a style).
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that returned an error or a degraded result, plus
    /// failed checks.
    pub failed: u64,
    /// One line per failure (first few only).
    pub failures: Vec<String>,
    /// End-to-end metric values, by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Measurements behind each percentile metric.
    pub counts: BTreeMap<&'static str, usize>,
    /// Every set-up's time (s), sorted.
    pub setup_times: Vec<f64>,
    /// Per-span-name count, total and self nanoseconds of the traced run.
    pub spans: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Where the traced run's spans were written.
    pub trace_file: Option<String>,
}

impl Outcome {
    /// Counts one operation or check; a failure is recorded with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Counts `n` operations, of which `failed` failed for `what`.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(format!("{failed} of {n} {what} failed"));
        }
    }

    /// Records the end-to-end metrics every workload shares, from the
    /// operation latencies (µs) of one untraced phase of `elapsed`
    /// seconds that carried `samples` profile samples and took `faults`
    /// minor page faults, and the set-up times (s), of which the fastest
    /// is reported.
    ///
    /// The host is shared, and its other load comes in stretches of a
    /// second to minutes that slow the operations inside them by up to
    /// half, so run to run the median, the mean and the p99 spread
    /// several times wider than the fast end. The p10 still moved with
    /// the share of a run those stretches covered, by 40% across ten
    /// runs; the p1 needs only one operation in a hundred to fall
    /// outside them. The gated figure is therefore the fast end, the p1
    /// or, in a run of fewer than 1100 operations, the operation with
    /// ten faster ones ([`Dist::fast_end`]); the median, the p99 and the
    /// whole-run throughput are reported ungated.
    pub fn end_to_end(
        &mut self,
        ops_us: &[f64],
        samples: u64,
        elapsed: f64,
        faults: u64,
        setups: &Dist,
    ) {
        let latencies = Dist::new(ops_us.to_vec());
        self.end_to_end.insert("op_fast_us", latencies.fast_end());
        self.counts.insert("op_fast_us", latencies.len());
        self.end_to_end.insert("setup_s", setups.min());
        self.counts.insert("setup_s", setups.len());
        self.setup_times = setups.values().to_vec();
        match host::peak_rss_mb() {
            Some(mb) => {
                self.end_to_end.insert("peak_rss_mb", mb);
            }
            None => self.check(false, || "peak RSS is unreadable".to_string()),
        }
        self.layer("e2e.samples_per_s", samples as f64 / elapsed);
        self.layer_percentile("e2e.op_p50_us", &latencies, 0.5);
        self.layer_percentile("e2e.op_p99_us", &latencies, 0.99);
        self.layer(
            "host.minor_faults_per_op",
            faults as f64 / ops_us.len().max(1) as f64,
        );
    }

    /// Records `trace.overhead_pct` from a traced phase whose operations
    /// alternated between tracing on and off: the median latency with
    /// tracing on over the median with it off, minus one.
    pub fn trace_overhead(&mut self, on_us: Vec<f64>, off_us: Vec<f64>) {
        let (on, off) = (Dist::new(on_us), Dist::new(off_us));
        self.layer(
            "trace.overhead_pct",
            (on.median() / off.median() - 1.0) * 100.0,
        );
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::find(name).is_some(), "unknown metric {name}");
        self.layers.insert(name, value);
    }

    /// Records a per-layer percentile with its count; a tail without ten
    /// measurements beyond it is left unreported.
    pub fn layer_percentile(&mut self, name: &'static str, dist: &Dist, p: f64) {
        self.counts.insert(name, dist.len());
        let value = if p > 0.5 {
            dist.tail(p)
        } else {
            (!dist.is_empty()).then(|| dist.percentile(p))
        };
        if let Some(v) = value {
            self.layer(name, v);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every end-to-end (or, traced, every per-layer)
    /// metric with its unit. A per-layer metric this workload does not
    /// exercise prints 0; the run record says which.
    pub fn result_line(&self, trace: bool) -> String {
        let (defs, values) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = values.get(d.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run record printed before the result: seed, cores, the core
    /// the run was pinned to, commit, failure ratio, sample counts,
    /// failures, unreported metrics and the traced run's span summary.
    pub fn record_line(&self, params: &Params) -> String {
        let mut out = String::new();
        let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        write!(
            out,
            "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"cores\": {}, \"pinned_core\": {}, \"commit\": \"{}\", \"failed_ratio\": {}",
            params.workload.name(),
            params.seed,
            json_number(params.seconds),
            params.trace,
            host::cores(),
            host::pinned_core().map_or("null".to_string(), |c| c.to_string()),
            host::commit(),
            json_number(self.failed as f64 / self.attempted.max(1) as f64),
        )
        .expect("writing to a String cannot fail");
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{}: {v}", quoted(k)))
            .collect();
        write!(out, ", \"counts\": {{{}}}", counts.join(", ")).expect("String write");
        let setups: Vec<String> = self.setup_times.iter().map(|&t| json_number(t)).collect();
        write!(out, ", \"setup_times_s\": [{}]", setups.join(", ")).expect("String write");
        let failures: Vec<String> = self.failures.iter().map(|f| quoted(f)).collect();
        write!(out, ", \"failures\": [{}]", failures.join(", ")).expect("String write");
        if params.trace {
            let unreported: Vec<String> = PER_LAYER
                .iter()
                .filter(|d| !self.layers.contains_key(d.name))
                .map(|d| quoted(d.name))
                .collect();
            write!(out, ", \"unreported\": [{}]", unreported.join(", ")).expect("String write");
            let spans: Vec<String> = self
                .spans
                .iter()
                .map(|(name, (n, total, own))| {
                    format!(
                        "{}: {{\"count\": {n}, \"total_ms\": {}, \"self_ms\": {}}}",
                        quoted(name),
                        json_number(*total as f64 / 1e6),
                        json_number(*own as f64 / 1e6)
                    )
                })
                .collect();
            write!(out, ", \"spans\": {{{}}}", spans.join(", ")).expect("String write");
            if let Some(file) = &self.trace_file {
                write!(out, ", \"trace_file\": {}", quoted(file)).expect("String write");
            }
        }
        out.push_str("}}");
        out
    }

    /// Keeps a traced run's summary and writes its spans to
    /// `out/trace-<workload>.json`, replacing the previous run's.
    pub fn keep_trace(&mut self, params: &Params, trace: &trace::Trace) {
        self.spans = trace.summary();
        self.layer("trace.spans", trace.len() as f64);
        let dir = host::out_dir();
        let path = dir.join(format!("trace-{}.json", params.workload.name()));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            trace.write_json(&mut f)?;
            std::io::Write::flush(&mut f)
        });
        match written {
            Ok(()) => self.trace_file = Some(path.display().to_string()),
            Err(e) => self.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
}

/// A JSON number with all its digits. No measurement is infinite or NaN;
/// if one were, it prints as 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Seconds since `t` as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs one workload.
pub fn run(params: &Params) -> Outcome {
    match params.workload {
        Workload::ProfileMix => profile_mix::run(params),
        Workload::FleetIngest => fleet_ingest::run(params),
        Workload::FleetQuery => fleet_query::run(params),
    }
}

/// The sampling hardware every workload runs: single-instruction
/// ProfileMe with a mean interval of 64 fetched instructions and eight
/// buffered profile-register sets, seeded by `--seed`.
pub fn sampling(seed: u64) -> profileme_core::ProfileMeConfig {
    profileme_core::ProfileMeConfig {
        mean_interval: 64,
        buffer_depth: 8,
        seed,
        ..profileme_core::ProfileMeConfig::default()
    }
}

/// A built session for `w` under [`sampling`].
pub fn session(
    w: &profileme_workloads::Workload,
    seed: u64,
) -> Result<profileme_core::Session, profileme_core::ProfileError> {
    profileme_core::Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(sampling(seed))
        .build()
}

/// A quota no benchmark tenant can exceed: admission stays at full
/// fidelity, so every sample sent must be aggregated.
pub fn unmetered() -> profileme_serve::TenantQuota {
    profileme_serve::TenantQuota {
        rate_per_sec: u64::MAX / 4,
        burst: u64::MAX / 4,
        queue_share: u64::MAX / 4,
    }
}

/// The sparse encoding of `db`, the form byte-identity is checked in.
pub fn encoded(db: &profileme_core::ProfileDatabase) -> Vec<u8> {
    db.encode(profileme_core::WireFormat::Sparse)
        .expect("a profile database always encodes")
}
