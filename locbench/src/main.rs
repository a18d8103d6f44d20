//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path locbench/Cargo.toml -- \
//!     --workload <live-drain|live-online|sim-drift> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, a `record` line (seed, held-out
//! seed, host noise, workload-specific figures), and as its last line
//! the result object `{"correct", "attempted", "failed", "metrics"}`:
//! end-to-end metrics untraced, per-layer metrics with `--trace 1`.
//! The record is also appended to `.bench_out/runs.jsonl`, and a traced
//! run writes its spans to `.bench_out/spans-<workload>-<seed>.jsonl`.
//! Exits 1 when any output differs from its reference, 2 on bad usage.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use locbench::report::json_num;
use locbench::{Outcome, RunConfig, HELD_OUT_SEED, WORKLOADS};

const USAGE: &str =
    "usage: locbench --workload <live-drain|live-online|sim-drift> --seed <n> [--seconds <1-600>] [--trace <0|1>]";

/// Where run records and span files go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = num()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        },
    })
}

/// The record line: what was run, host noise, and the workload's own
/// figures.
fn record(workload: &str, cfg: &RunConfig, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"record\": {{\"workload\": \"{workload}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}",
        cfg.seed, cfg.seconds, cfg.trace
    );
    for name in ["host.steal_share", "host.max_rss_mb"] {
        let _ = write!(s, ", \"{name}\": {}", json_num(out.per_layer.get(name)));
    }
    for (name, value, unit) in &out.extras {
        let _ = write!(
            s,
            ", \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    let _ = write!(
        s,
        ", \"correct\": {}, \"failed\": {}}}}}",
        out.correct(),
        out.failed
    );
    s
}

fn write_outputs(
    workload: &str,
    cfg: &RunConfig,
    out: &Outcome,
    record: &str,
) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    fs::create_dir_all(dir)?;
    let mut runs = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?;
    writeln!(runs, "{record}")?;
    if cfg.trace {
        fs::write(
            dir.join(format!("spans-{workload}-{}.jsonl", cfg.seed)),
            &out.spans_jsonl,
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, cfg } = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = locbench::run(&workload, &cfg).expect("workload name was validated");

    println!(
        "{workload} seed {} ({} s{})",
        cfg.seed,
        cfg.seconds,
        if cfg.trace { ", traced" } else { "" }
    );
    println!("end-to-end (untraced):");
    for (name, value, unit) in out.end_to_end.iter() {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    for (name, value, unit) in &out.extras {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    if cfg.trace {
        println!("per-layer (traced):");
        for (name, value, unit) in out.per_layer.iter() {
            println!("  {name:<40} {value:>16.4} {unit}");
        }
        println!("span self time (traced):");
        for (name, count, total, own) in &out.span_totals {
            println!(
                "  {name:<40} n={count:<6} total {:>10.3} ms  self {:>10.3} ms",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
    }
    println!(
        "operations: {} attempted, {} failed{}",
        out.attempted,
        out.failed,
        if out.correct() {
            ""
        } else {
            " — OUTPUT DIFFERS FROM THE REFERENCE"
        }
    );
    let rec = record(&workload, &cfg, &out);
    println!("{rec}");
    if let Err(e) = write_outputs(&workload, &cfg, &out, &rec) {
        eprintln!("locbench: could not write {OUT_DIR}: {e}");
    }
    println!("{}", out.result_json(cfg.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
