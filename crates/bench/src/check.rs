//! Bench regression checker: compares the latest hot-path smoke run
//! (`BENCH_throughput.json`, `BENCH_rebuild.json`) against the
//! committed `BENCH_baseline.json`.
//!
//! Throughput regressions beyond the tolerance **fail** the check (CI
//! gates on them); rebuild-latency drift only **warns**, because the
//! partitioner's wall time is far noisier across machines than the
//! data plane's tuples/second. The JSON involved is the fixed format
//! written by [`crate::hotpath`], so the parsing here is a small
//! hand-rolled scan — no serialization dependency.

use std::fmt::Write as _;

/// Fraction of the baseline throughput a run may lose before the
/// check fails (>20% regression fails, per EXPERIMENTS.md).
pub const THROUGHPUT_TOLERANCE: f64 = 0.20;

/// Fractional rebuild-latency growth over baseline that triggers a
/// warning.
pub const REBUILD_TOLERANCE: f64 = 0.20;

/// Extracts the number following `"key":` in `json`, if present.
///
/// Only suitable for the flat, machine-written bench JSON — it scans
/// for the quoted key and parses the first numeric token after the
/// colon.
#[must_use]
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Outcome of one baseline comparison.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Human-readable lines for every comparison made.
    pub lines: Vec<String>,
    /// Hard failures (throughput regressions, missing data).
    pub failures: Vec<String>,
    /// Soft warnings (rebuild latency drift).
    pub warnings: Vec<String>,
}

impl CheckReport {
    /// Whether the check passed (warnings do not fail it).
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The baseline key of the throughput floor. The `columnar` label
/// predates the one batch shape and is kept so the floor's history
/// stays comparable.
const THROUGHPUT_KEY: &str = "throughput_columnar_tuples_per_s";

fn check_throughput(report: &mut CheckReport, throughput: &str, baseline: &str) {
    let Some(base) = extract_number(baseline, THROUGHPUT_KEY) else {
        report
            .failures
            .push(format!("baseline is missing \"{THROUGHPUT_KEY}\""));
        return;
    };
    let Some(now) = extract_number(throughput, "tuples_per_s") else {
        report
            .failures
            .push("BENCH_throughput.json has no \"tuples_per_s\"".to_string());
        return;
    };
    let ratio = now / base.max(f64::MIN_POSITIVE);
    let mut line = String::new();
    let _ = write!(
        line,
        "  throughput  baseline {base:>12.0} t/s   now {now:>12.0} t/s   ({ratio:>5.2}x)"
    );
    report.lines.push(line);
    if ratio < 1.0 - THROUGHPUT_TOLERANCE {
        report.failures.push(format!(
            "throughput regressed {:.0}% vs baseline (tolerance {:.0}%)",
            (1.0 - ratio) * 100.0,
            THROUGHPUT_TOLERANCE * 100.0
        ));
    }
}

fn check_rebuild(report: &mut CheckReport, rebuild: &str, baseline: &str, key: &str) {
    let base_key = format!("rebuild_{key}");
    let (Some(base), Some(now)) = (
        extract_number(baseline, &base_key),
        extract_number(rebuild, key),
    ) else {
        report
            .warnings
            .push(format!("rebuild \"{key}\" missing from baseline or run"));
        return;
    };
    let ratio = now / base.max(f64::MIN_POSITIVE);
    report.lines.push(format!(
        "  {key:<14}  baseline {base:>8.2} ms    now {now:>8.2} ms    ({ratio:>5.2}x)"
    ));
    if ratio > 1.0 + REBUILD_TOLERANCE {
        report.warnings.push(format!(
            "{key} grew {:.0}% vs baseline (warn-only, tolerance {:.0}%)",
            (ratio - 1.0) * 100.0,
            REBUILD_TOLERANCE * 100.0
        ));
    }
}

/// Compares one throughput + rebuild run against the baseline.
///
/// Fails when the best throughput run regresses more than
/// [`THROUGHPUT_TOLERANCE`] against the baseline, or either number is
/// missing. Rebuild latency drift only warns.
#[must_use]
pub fn check(baseline: &str, throughput: &str, rebuild: &str) -> CheckReport {
    let mut report = CheckReport::default();
    check_throughput(&mut report, throughput, baseline);
    check_rebuild(&mut report, rebuild, baseline, "warm_ms");
    check_rebuild(&mut report, rebuild, baseline, "cold_steady_ms");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "bench": "hotpath_baseline",
  "throughput_columnar_tuples_per_s": 4000.0,
  "rebuild_warm_ms": 10.0,
  "rebuild_cold_steady_ms": 8.0
}"#;

    fn throughput(tuples_per_s: f64) -> String {
        format!(r#"{{"batch_size": 64, "reps": 5, "tuples_per_s": {tuples_per_s}}}"#)
    }

    const REBUILD: &str = r#"{"warm_ms": 11.0, "cold_steady_ms": 7.5}"#;

    #[test]
    fn extracts_numbers() {
        assert_eq!(extract_number(BASELINE, "rebuild_warm_ms"), Some(10.0));
        assert_eq!(extract_number(BASELINE, "absent"), None);
        let t = throughput(4000.0);
        assert_eq!(extract_number(&t, "tuples_per_s"), Some(4000.0));
    }

    #[test]
    fn passes_within_tolerance() {
        let report = check(BASELINE, &throughput(4100.0), REBUILD);
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn fails_on_throughput_regression() {
        let report = check(BASELINE, &throughput(3000.0), REBUILD);
        assert!(!report.ok());
        assert!(report.failures.iter().any(|f| f.contains("regressed")));
    }

    #[test]
    fn rebuild_drift_only_warns() {
        let slow = r#"{"warm_ms": 30.0, "cold_steady_ms": 8.0}"#;
        let report = check(BASELINE, &throughput(4000.0), slow);
        assert!(report.ok());
        assert!(report.warnings.iter().any(|w| w.contains("warm_ms")));
    }

    #[test]
    fn missing_throughput_fails() {
        let report = check("{}", &throughput(3.0), REBUILD);
        assert!(!report.ok());
        assert_eq!(report.failures.len(), 1);
        let report = check(BASELINE, "{}", REBUILD);
        assert!(!report.ok());
        assert_eq!(report.failures.len(), 1);
    }
}
