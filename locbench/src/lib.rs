//! End-to-end benchmark for streamloc.
//!
//! Three workloads, each driven through the library's public API from
//! one process (see `README.md` in this directory for why each exists
//! and how its numbers relate):
//!
//! * [`drain`] — `live-drain`: a closed-loop batch job on the live
//!   runtime with offline locality tables and pair trackers;
//! * [`online`] — `live-online`: an open-loop paced stream on the live
//!   runtime with one live reconfiguration wave at a fixed stream
//!   position;
//! * [`simdrift`] — `sim-drift`: the deterministic cluster simulator
//!   with the manager reconfiguring a drifting stream every period.
//!
//! Every run checks the final operator state against per-key counts
//! computed single-threaded from the generated input.

pub mod check;
pub mod drain;
pub mod host;
pub mod input;
pub mod live;
pub mod online;
pub mod report;
pub mod shims;
pub mod simdrift;
pub mod spans;
pub mod stats;
pub mod tables;

pub use report::{Metrics, Outcome};

/// A seed kept out of tuning: the output check must pass on it too
/// (`tests/harness.rs` runs every workload with it).
pub const HELD_OUT_SEED: u64 = 20_161_212;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["live-drain", "live-online", "sim-drift"];

/// What one benchmark invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: u64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// Runs the workload called `name`; `None` for an unknown name.
#[must_use]
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "live-drain" => drain::run(cfg),
        "live-online" => online::run(cfg),
        "sim-drift" => simdrift::run(cfg),
        _ => return None,
    })
}
