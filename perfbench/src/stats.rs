//! Summary statistics of the benchmark: medians, the tail-percentile
//! rule, and the paper's ratio-of-totals overhead.

pub use empi_bench::stats::overhead_percent_of_totals;

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank_index(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of `xs`; NaN for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_index(v.len(), p)]
}

/// The highest percentile (of 99, 95, 90, 75, 50) that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it; `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank_index(n, p) >= TAIL_MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples is the 990th; 10 lie beyond it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        // p95 of 200 is the 190th: 10 beyond.
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // Whatever percentile is chosen, the rule holds exactly.
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - 1 - rank_index(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn overhead_is_ratio_of_totals() {
        // Two phases: 1 → 2 (+100 %) and 100 → 110 (+10 %). The ratio of
        // totals is 112/101 − 1, not the mean of the ratios (55 %).
        let oh = overhead_percent_of_totals(&[1.0, 100.0], &[2.0, 110.0]);
        assert!((oh - (112.0 / 101.0 - 1.0) * 100.0).abs() < 1e-12);
        assert!((overhead_percent_of_totals(&[2.0], &[3.0]) - 50.0).abs() < 1e-12);
    }
}
