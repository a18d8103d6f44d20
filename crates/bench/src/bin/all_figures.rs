//! Runs the complete evaluation: every figure of the paper plus the
//! ablations, writing one CSV per experiment under `results/`.
//!
//! ```bash
//! cargo run -p streamloc-bench --bin all_figures --release
//! ```
//!
//! Set `STREAMLOC_QUICK=1` for a fast smoke pass with smaller sweeps.

use streamloc_bench::figures::EXPERIMENTS;

fn main() {
    let quick = streamloc_bench::quick_mode();
    let total = EXPERIMENTS.len();
    for (i, (name, _, run)) in EXPERIMENTS.iter().enumerate() {
        println!("\n=== [{}/{total}] {name} ===\n", i + 1);
        let start = std::time::Instant::now();
        let path = run(quick);
        println!(
            "\n{name} done in {:.1}s → {}",
            start.elapsed().as_secs_f64(),
            path.display()
        );
    }
}
