//! Order statistics for latency samples.
//!
//! A percentile is only reported when at least [`MIN_TAIL_SAMPLES`] samples
//! lie beyond it, so a p99 needs at least 1,000 samples; with fewer it is
//! refused rather than reported from a handful of points.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `samples`: the sample at rank
/// `ceil(q·n)` in sorted order. Refused when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} refused: {beyond} of {n} samples beyond it, need {MIN_TAIL_SAMPLES}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (mean of the two middle samples for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the percentile must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert!(percentile(&ramp(10), 0.99).is_err());
        assert!(percentile(&[], 0.99).is_err());
        // 1,000 samples: rank 990, so samples 991..=1000 lie beyond it.
        assert_eq!(percentile(&ramp(1000), 0.99).unwrap(), 990.0);
        assert_eq!(percentile(&ramp(2000), 0.99).unwrap(), 1980.0);
    }

    #[test]
    fn p50_is_nearest_rank() {
        assert_eq!(percentile(&ramp(100), 0.5).unwrap(), 50.0);
        assert_eq!(percentile(&ramp(101), 0.5).unwrap(), 51.0);
        assert!(percentile(&ramp(20), 0.5).is_ok());
        assert!(percentile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
