//! The `streamloc` CLI lists the one experiment table that
//! `all_figures` also runs, and every experiment in it has a committed
//! CSV. Runs no experiment, so it writes nothing under `results/`.

use std::path::Path;
use std::process::Command;

use streamloc_bench::figures::EXPERIMENTS;

#[test]
fn list_prints_every_experiment_once_and_each_has_a_committed_csv() {
    let out = Command::new(env!("CARGO_BIN_EXE_streamloc"))
        .arg("list")
        .output()
        .expect("run `streamloc list`");
    assert!(out.status.success(), "`streamloc list` failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let listed: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("  "))
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(listed.len(), EXPERIMENTS.len(), "listed: {listed:?}");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for (name, _, _) in EXPERIMENTS {
        let times = listed.iter().filter(|&&n| n == *name).count();
        assert_eq!(times, 1, "{name} listed {times} times");
        let csv = results.join(format!("{name}.csv"));
        assert!(csv.is_file(), "no committed {}", csv.display());
    }
}
