//! Host noise and process resources, read from `/proc`.
//!
//! Every reader returns 0 when the file is missing or unparsable, so a
//! run on a host without `/proc` still completes (with zero readings).

use std::fs;

/// Nanoseconds per `/proc` clock tick (`USER_HZ` is 100 on Linux).
const NS_PER_TICK: f64 = 1e7;

/// User plus system CPU time of the whole process (all threads), in
/// nanoseconds, from `/proc/self/stat`.
#[must_use]
pub fn process_cpu_ns() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 * NS_PER_TICK
}

/// Aggregate CPU counters from the first line of `/proc/stat`:
/// `(steal, total)` ticks, where total sums user through steal.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the current counters.
    #[must_use]
    pub fn now() -> Self {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().next() else {
            return Self::default();
        };
        // cpu user nice system idle iowait irq softirq steal ...
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        if v.len() < 8 {
            return Self::default();
        }
        Self {
            steal: v[7],
            total: v.iter().sum(),
        }
    }

    /// Share of all CPU time stolen by the hypervisor between `self`
    /// and `later`.
    #[must_use]
    pub fn steal_share_until(&self, later: &Self) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn max_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        assert!(max_rss_mb() >= 0.0);
        assert!(process_cpu_ns() >= 0.0);
        let a = CpuTicks::now();
        let share = a.steal_share_until(&CpuTicks::now());
        assert!((0.0..=1.0).contains(&share));
    }
}
