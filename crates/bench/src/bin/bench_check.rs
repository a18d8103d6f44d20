//! Compares the latest hot-path bench artifacts against the committed
//! `BENCH_baseline.json`: exits non-zero on a throughput regression
//! beyond tolerance, warns (only) on rebuild-latency drift.
//!
//! Run `hotpath` first to produce `BENCH_throughput.json` and
//! `BENCH_rebuild.json`, then this binary.

use std::fs;
use std::process::ExitCode;

use streamloc_bench::check::check;
use streamloc_bench::hotpath::workspace_root;

fn main() -> ExitCode {
    let root = workspace_root();
    let read = |name: &str| {
        fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("read {name}: {e} (run the hotpath bench first)"))
    };
    let baseline = read("BENCH_baseline.json");
    let throughput = read("BENCH_throughput.json");
    let rebuild = read("BENCH_rebuild.json");

    let report = check(&baseline, &throughput, &rebuild);
    println!("Bench baseline check");
    for line in &report.lines {
        println!("{line}");
    }
    for warning in &report.warnings {
        println!("WARN: {warning}");
    }
    for failure in &report.failures {
        println!("FAIL: {failure}");
    }
    if !report.ok() {
        return ExitCode::FAILURE;
    }
    println!("bench check passed");
    ExitCode::SUCCESS
}
