//! Order statistics over measured samples.

/// Median of `values` (mean of the two middle values for an even
/// count); 0.0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Largest value; 0.0 for an empty slice.
#[must_use]
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The `q`-quantile (`0.0..=1.0`, nearest rank) of integer samples,
/// reordering `values` in place; 0 for an empty slice.
pub fn quantile_u64(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    *values.select_nth_unstable(rank).1
}

/// The `q`-quantile of a bucketed histogram (`counts.len() ==
/// bounds.len() + 1`, the last bucket open-ended), interpolating
/// linearly inside the bucket that holds the rank. 0.0 when empty.
#[must_use]
pub fn histogram_quantile(bounds: &[u64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (seen + c) as f64 >= rank {
            let lo = if i == 0 { 0 } else { bounds[i - 1] } as f64;
            let hi = bounds.get(i).map_or(lo * 2.0, |&b| b as f64);
            let within = (rank - seen as f64) / c as f64;
            return lo + (hi - lo) * within.clamp(0.0, 1.0);
        }
        seen += c;
    }
    bounds.last().map_or(0.0, |&b| b as f64)
}

/// Max over mean of per-instance loads; 1.0 when nothing was loaded.
#[must_use]
pub fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    loads.iter().copied().max().unwrap_or(0) as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_of_integers() {
        let mut v: Vec<u64> = (1..=101).collect();
        assert_eq!(quantile_u64(&mut v, 0.5), 51);
        assert_eq!(quantile_u64(&mut v, 0.99), 100);
        assert_eq!(quantile_u64(&mut v, 1.0), 101);
    }

    #[test]
    fn histogram_quantile_interpolates() {
        // Buckets (0,10], (10,20], (20,∞): 10 samples each in the first two.
        let q = histogram_quantile(&[10, 20], &[10, 10, 0], 0.5);
        assert!((q - 10.0).abs() < 1e-9);
        let q = histogram_quantile(&[10, 20], &[10, 10, 0], 0.75);
        assert!((q - 15.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert!((imbalance(&[3, 1]) - 1.5).abs() < 1e-12);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }
}
