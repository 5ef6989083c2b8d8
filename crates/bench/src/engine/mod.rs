//! The shared experiment engine.
//!
//! Every figure/table/ablation binary is the same machine with different
//! data: expand a grid of independent cells ([`grid`]), run them across
//! worker threads ([`runner`]), then render text and JSON series from
//! the merged results through one funnel ([`emit`]). Environment
//! handling lives in [`env`].
//!
//! The design invariant, stated once and enforced everywhere: **cells
//! compute, the emitter renders.** A cell returns plain data and never
//! touches stdout, the dump directory, or shared state; all output
//! happens on the main thread, in grid order, after the cells return.
//! That is why `PROFILEME_JOBS=8` produces byte-identical stdout and
//! dumps to `PROFILEME_JOBS=1`.

pub mod emit;
pub mod env;
pub mod grid;
pub mod runner;

pub use emit::Emitter;
pub use env::{scale, scaled};
pub use grid::{cell_seed, product};
pub use runner::run_cells;

use profileme_uarch::{PipelineConfig, SimStats};
use profileme_workloads::Workload;

/// One experiment: a banner, a parallel cell grid, and an emitter.
#[derive(Debug)]
pub struct Experiment {
    emitter: Emitter,
    jobs: usize,
}

impl Experiment {
    /// Starts an experiment: prints the banner and reads the engine's
    /// environment (`PROFILEME_JOBS`, `PROFILEME_DUMP_DIR`).
    pub fn new(what: &str, paper_ref: &str) -> Experiment {
        let emitter = Emitter::from_env();
        emitter.banner(what, paper_ref);
        Experiment {
            emitter,
            jobs: env::jobs(),
        }
    }

    /// The experiment's output funnel.
    pub fn emitter(&self) -> &Emitter {
        &self.emitter
    }

    /// The worker-thread count cells will fan out across.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs one closure per cell in parallel; results in grid order.
    ///
    /// The closure must be a pure function of its cell (plus immutable
    /// captures): no printing, no dumping, no shared mutable state.
    pub fn run<P, R, F>(&self, cells: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        runner::run_cells(self.jobs, cells, f)
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) over an unsorted pool of
/// latencies; 0 for an empty pool.
pub fn percentile(pool: &[f64], p: f64) -> f64 {
    if pool.is_empty() {
        return 0.0;
    }
    let mut sorted = pool.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs a workload with no profiling hardware and returns exact stats —
/// the ground-truth baseline cells compare estimates against.
///
/// # Panics
///
/// Panics if the workload does not run to completion.
pub fn run_plain(w: &Workload, config: PipelineConfig) -> SimStats {
    profileme_core::run_ground_truth(w.program.clone(), Some(w.memory.clone()), config, u64::MAX)
        .unwrap_or_else(|e| panic!("{} failed: {e}", w.name))
        .stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_cells_merge_in_grid_order() {
        let exp = Experiment {
            emitter: Emitter::with_dump_dir(None),
            jobs: 4,
        };
        let cells = product(&[10u64, 20], &[1u64, 2, 3]);
        let results = exp.run(&cells, |&(a, b)| a + b);
        assert_eq!(results, vec![11, 12, 13, 21, 22, 23]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let pool = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&pool, 0.50), 3.0);
        assert_eq!(percentile(&pool, 0.99), 5.0);
        assert_eq!(percentile(&pool, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
