//! Experiment harnesses reproducing every figure of the paper's
//! evaluation (§4), plus ablations. Each `fig*` binary in `src/bin`
//! is a thin wrapper over the functions here; `all_figures` runs the
//! whole evaluation and writes one CSV per figure under `results/`.
//!
//! Absolute throughput numbers come from the simulated cluster (see
//! DESIGN.md §2 for the substitution); the reproduction target is the
//! *shape* of every figure — which strategy wins, the scaling trends,
//! and where the crossovers fall. EXPERIMENTS.md records the
//! paper-vs-measured comparison produced by these harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod csv;
pub mod figures;
pub mod flickr_runs;
pub mod hotpath;
pub mod latency;
pub mod replay;
pub mod synthetic_runs;

pub use csv::CsvWriter;
pub use flickr_runs::{run_flickr, FlickrRun};
pub use replay::{replay_locality, tables_from_batch, weekly_imbalance, ReplayTables};
pub use synthetic_runs::{run_synthetic, RoutingStrategy, SyntheticRun};

/// `true` when the `STREAMLOC_QUICK` environment variable asks for
/// shortened sweeps (used by smoke tests).
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var_os("STREAMLOC_QUICK").is_some()
}
