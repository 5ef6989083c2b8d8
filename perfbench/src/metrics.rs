//! Every metric the benchmark prints: name, unit, which direction is
//! better, the workloads that exercise it, and — for a per-layer metric
//! — the end-to-end metric it should move. `BENCHMARK.json` lists the
//! same names, units and directions; the self-test holds the two equal.

use crate::Workload::{self, FleetIngest, FleetQuery, ProfileMix};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Workloads whose runs measure it. Elsewhere a per-layer metric
    /// prints 0 and the run record lists it as not exercised.
    pub workloads: &'static [Workload],
    /// For a per-layer metric: the end-to-end figure it should move —
    /// a gated end-to-end metric or an ungated `e2e.*` one.
    pub moves: &'static str,
}

const ALL: &[Workload] = &[ProfileMix, FleetIngest, FleetQuery];
const FLEET: &[Workload] = &[FleetIngest, FleetQuery];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [Workload],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        workloads,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload with `--trace 0`. An
/// operation is one `compress` plus one `gcc` profiling run
/// (`profile_mix`); one cycle of producer 0, 16 batches each from send
/// to ack followed by a snapshot and a top-10 query per tenant, while
/// producer 1 streams alongside (`fleet_ingest`); or one round of
/// ingest, snapshot and queries (`fleet_query`).
pub const END_TO_END: &[MetricDef] = &[
    // Fast-end operation latency (`Dist::fast_end`: the p1, or the operation with ten faster ones
    // in a run of fewer than 1100): the cost of an operation that other load on the shared host
    // left alone.
    m("op_fast_us", "us", Lower, ALL, ""),
    // Fastest of repeated set-ups of building programs, simulating the input samples, and
    // starting the service.
    m("setup_s", "s", Lower, ALL, ""),
    // Peak resident memory of the benchmark process.
    m("peak_rss_mb", "MB", Lower, ALL, ""),
];

/// Per-layer metrics, printed by every workload with `--trace 1`, from
/// the traced run (the `e2e.*` ones from the untraced run before it).
pub const PER_LAYER: &[MetricDef] = &[
    // The end-to-end figures the shared host makes too noisy to gate.
    // Profile samples carried per second over the whole untraced run: delivered by the sampling
    // hardware (profile_mix), acked over TCP (fleet_ingest), ingested and published (fleet_query).
    m("e2e.samples_per_s", "1/s", Higher, ALL, "op_fast_us"),
    // Median operation latency of the untraced run.
    m("e2e.op_p50_us", "us", Lower, ALL, "op_fast_us"),
    // P99 operation latency of the untraced run, reported with ten operations beyond it.
    m("e2e.op_p99_us", "us", Lower, ALL, ""),
    // FleetClient::send latency, send to ack, over both producers' batches of the untraced run.
    m("e2e.ack_p50_us", "us", Lower, &[FleetIngest], "op_fast_us"),
    m(
        "e2e.ack_p99_us",
        "us",
        Lower,
        &[FleetIngest],
        "e2e.op_p99_us",
    ),
    // Minor page faults per operation over the untraced run, every thread of the process: memory
    // the program maps afresh for each operation (glibc's default allocator policy).
    m(
        "host.minor_faults_per_op",
        "count",
        Lower,
        ALL,
        "op_fast_us",
    ),
    // Retired simulated instructions per host second.
    m(
        "e2e.sim_minst_per_s",
        "Minst/s",
        Higher,
        &[ProfileMix],
        "op_fast_us",
    ),
    // Rounds of ingest, snapshot and query per second.
    m(
        "e2e.rounds_per_s",
        "1/s",
        Higher,
        &[FleetQuery],
        "op_fast_us",
    ),
    // FleetService::snapshot latency.
    m(
        "e2e.snapshot_p50_us",
        "us",
        Lower,
        &[FleetQuery],
        "e2e.op_p50_us",
    ),
    // FleetService::snapshot latency.
    m(
        "e2e.snapshot_p99_us",
        "us",
        Lower,
        &[FleetQuery],
        "e2e.op_p99_us",
    ),
    // Top-10 per tenant plus one 4-epoch tenant_window.
    m(
        "e2e.query_p50_us",
        "us",
        Lower,
        &[FleetQuery],
        "e2e.op_p50_us",
    ),
    // Top-10 per tenant plus one 4-epoch tenant_window.
    m(
        "e2e.query_p99_us",
        "us",
        Lower,
        &[FleetQuery],
        "e2e.op_p99_us",
    ),
    // uarch: the pipeline simulator.
    // Host time per simulated cycle of a Session::ground_truth run.
    m(
        "uarch.host_ns_per_cycle",
        "ns",
        Lower,
        &[ProfileMix],
        "op_fast_us",
    ),
    // Simulated cycles per operation (exact for a seed).
    m("uarch.cycles", "count", Lower, &[ProfileMix], "op_fast_us"),
    // Retired instructions per operation (exact for a seed).
    m(
        "uarch.retired",
        "count",
        Higher,
        &[ProfileMix],
        "op_fast_us",
    ),
    // core::hw: the ProfileMe sampling hardware.
    // (profiled run - handler time - ground truth) / ground truth.
    m(
        "core.hw.sampling_overhead_pct",
        "%",
        Lower,
        &[ProfileMix],
        "op_fast_us",
    ),
    // Samples delivered per operation (exact for a seed).
    m(
        "core.hw.samples",
        "count",
        Higher,
        &[ProfileMix],
        "op_fast_us",
    ),
    // Profiling interrupts per operation (exact for a seed).
    m(
        "core.hw.interrupts",
        "count",
        Lower,
        &[ProfileMix],
        "op_fast_us",
    ),
    // core::sw: the interrupt handler and the profile database.
    // Self time of the handler closure passed to Session::run, per operation.
    m(
        "core.sw.handler_self_ms",
        "ms",
        Lower,
        &[ProfileMix],
        "op_fast_us",
    ),
    // Handler self time as a share of the operation.
    m(
        "core.sw.handler_share_pct",
        "%",
        Lower,
        &[ProfileMix],
        "op_fast_us",
    ),
    // ProfileDatabase::top_n(10) on one tenant's snapshot view.
    m(
        "core.sw.top_n_p50_us",
        "us",
        Lower,
        &[FleetQuery],
        "e2e.query_p50_us",
    ),
    // serve::net: the TCP front-end and client.
    // FleetClient::send, send to ack.
    m(
        "serve.net.send_p50_us",
        "us",
        Lower,
        &[FleetIngest],
        "op_fast_us",
    ),
    // FleetClient::send, send to ack.
    m(
        "serve.net.send_p99_us",
        "us",
        Lower,
        &[FleetIngest],
        "e2e.op_p99_us",
    ),
    // Part of send not spent in the same batches' in-process FleetService::ingest_batch.
    m(
        "serve.net.share_pct",
        "%",
        Lower,
        &[FleetIngest],
        "op_fast_us",
    ),
    // Client send attempts retried.
    m(
        "serve.net.retries",
        "count",
        Lower,
        &[FleetIngest],
        "e2e.op_p99_us",
    ),
    // Client reconnections.
    m(
        "serve.net.reconnects",
        "count",
        Lower,
        &[FleetIngest],
        "e2e.op_p99_us",
    ),
    // serve::tenant: fleet admission, snapshots, epoch ring.
    // In-process FleetService::ingest_batch of the same 512-sample batches.
    m(
        "serve.tenant.admit_p50_us",
        "us",
        Lower,
        &[FleetIngest],
        "op_fast_us",
    ),
    // In-process FleetService::ingest_batch of the same 512-sample batches.
    m(
        "serve.tenant.admit_p99_us",
        "us",
        Lower,
        &[FleetIngest],
        "e2e.op_p99_us",
    ),
    // Median FleetService::epoch, a clone of one retained fleet snapshot.
    m(
        "serve.tenant.epoch_clone_us",
        "us",
        Lower,
        &[FleetQuery],
        "e2e.snapshot_p50_us",
    ),
    // FleetService::tenant_window over 4 epochs.
    m(
        "serve.tenant.window_p50_us",
        "us",
        Lower,
        &[FleetQuery],
        "e2e.query_p50_us",
    ),
    // Samples thinned by admission (must be 0).
    m(
        "serve.tenant.thinned",
        "count",
        Lower,
        FLEET,
        "e2e.samples_per_s",
    ),
    // Samples shed by admission (must be 0).
    m(
        "serve.tenant.shed",
        "count",
        Lower,
        FLEET,
        "e2e.samples_per_s",
    ),
    // serve::service: shard rings, absorb, the delta snapshot plane.
    // The same batches through an untenanted ShardedService::ingest_batch.
    m(
        "serve.service.enqueue_p50_us",
        "us",
        Lower,
        &[FleetIngest],
        "op_fast_us",
    ),
    // Deepest shard ring, in messages.
    m(
        "serve.service.high_water",
        "count",
        Lower,
        &[FleetIngest],
        "e2e.op_p99_us",
    ),
    // Delta bytes published per snapshot cycle.
    m(
        "serve.service.delta_bytes_per_snapshot",
        "bytes",
        Lower,
        &[FleetQuery],
        "e2e.snapshot_p50_us",
    ),
    // Items dropped by the service (must be 0).
    m(
        "serve.service.dropped",
        "count",
        Lower,
        FLEET,
        "e2e.samples_per_s",
    ),
    // serve::store: the delta WAL.
    // In-process ingest-and-snapshot loop with the store on versus off.
    m(
        "serve.store.wal_overhead_pct",
        "%",
        Lower,
        &[FleetIngest],
        "e2e.samples_per_s",
    ),
    // Framed WAL bytes appended.
    m(
        "serve.store.appended_bytes",
        "bytes",
        Lower,
        &[FleetIngest],
        "e2e.samples_per_s",
    ),
    // Framed WAL bytes appended per snapshot cycle.
    m(
        "serve.store.appended_bytes_per_snapshot",
        "bytes",
        Lower,
        &[FleetQuery],
        "e2e.snapshot_p50_us",
    ),
    // The tracer itself.
    // Median latency of the traced run's operations with tracing on over those with it off, minus
    // one; the two alternate, so both see the same load on the host.
    m("trace.overhead_pct", "%", Lower, ALL, ""),
    // Spans recorded by the traced run.
    m("trace.spans", "count", Lower, ALL, ""),
];

/// Looks a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_mappings_resolve() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        for d in PER_LAYER {
            let target = find(d.moves);
            assert!(
                d.moves.is_empty()
                    || target.is_some_and(|e| {
                        END_TO_END.iter().any(|g| g.name == e.name) || e.name.starts_with("e2e.")
                    }),
                "{} moves unknown metric {}",
                d.name,
                d.moves
            );
        }
    }
}
