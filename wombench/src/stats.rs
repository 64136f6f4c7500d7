//! Order statistics for timings: nearest-rank percentiles and the
//! reporting rule that picks the highest percentile a sample set can
//! support.

/// Samples that must lie beyond a reported percentile for it to mean
/// something: with fewer, the "tail" is one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the benchmark may report, highest first.
const CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it out of `n`, or `None` when even the median has too
/// few.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    CANDIDATES.into_iter().find(|&p| {
        // Samples strictly above the nearest-rank position of `p`.
        let beyond = n - rank(n, p).min(n);
        n > 0 && beyond >= MIN_BEYOND
    })
}

/// Nearest-rank position (1-based) of percentile `p` in `n` samples,
/// computed in basis points so that e.g. p99.99 of 100 000 samples is
/// exactly rank 99 990.
fn rank(n: usize, p: f64) -> usize {
    let bp = (p * 100.0).round() as usize;
    (bp * n).div_ceil(10_000).max(1)
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be in
/// ascending order. `None` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), p).min(sorted.len());
    sorted.get(r - 1).copied()
}

/// Sorts `values` ascending (NaN-free input; infinities sort last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of `values` (any order); `0.0` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: rank 990, only nine beyond, so fall back to p90.
        assert_eq!(tail_percentile(999), Some(90.0));
    }

    #[test]
    fn larger_runs_earn_higher_percentiles() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
    }

    #[test]
    fn too_few_samples_report_no_percentile() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        sort(&mut v);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn missing_samples_sort_into_the_tail() {
        let mut v = vec![1.0, f64::INFINITY, 2.0];
        sort(&mut v);
        assert_eq!(percentile(&v, 100.0), Some(f64::INFINITY));
        assert_eq!(percentile(&v, 50.0), Some(2.0));
    }
}
