//! Order statistics used by every workload: the median of segment rates,
//! the percentile rule and the midmean.

/// Median of a slice (mean of the two central values for even lengths).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Throughput of a run: the median of its per-segment rates, so one
/// disturbed segment does not move the reported number.
pub fn median_rate(segments: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = segments
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(ops, secs)| *ops as f64 / secs)
        .collect();
    median(&rates)
}

/// The highest percentile the sample supports: the largest of
/// 50, 90, 99, 99.9, 99.99 that leaves at least ten samples beyond it.
/// Returns `(percentile, value)`; `None` when even p50 is unsupported.
pub fn highest_percentile(sorted: &[u32]) -> Option<(f64, f64)> {
    const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];
    let n = sorted.len();
    for p in LADDER {
        let idx = percentile_index(n, p);
        if n > idx && n - 1 - idx >= 10 {
            return Some((p, f64::from(sorted[idx])));
        }
    }
    None
}

/// Index of percentile `p` (0–100) in a sorted sample of `n` values,
/// nearest-rank.
pub fn percentile_index(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile of a sorted sample; 0.0 when empty.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    f64::from(sorted[percentile_index(sorted.len(), p)])
}

/// Midmean (interquartile mean) of a sorted sample: the mean of the values
/// between the first and the third quartile. It sits on the median of a
/// single-peaked sample and ignores both tails as the median does, but a
/// sample with two peaks and the gap between them near the 50th percentile
/// (`wire_tput`: answered before or after a reactor sleep) makes the plain
/// median jump from peak to peak when a few per cent of the samples change
/// sides; the midmean moves by those few per cent.
pub fn midmean(sorted: &[u32]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let (lo, hi) = (n / 4, (n - n / 4).max(n / 4 + 1));
    let sum: f64 = sorted[lo..hi].iter().map(|&v| f64::from(v)).sum();
    sum / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_segments_ignores_one_outlier() {
        let segs = [(100, 1.0), (102, 1.0), (10, 1.0), (101, 1.0), (99, 1.0)];
        assert_eq!(median_rate(&segs), 100.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond (indices 990..=999).
        let s: Vec<u32> = (0..1000).collect();
        assert_eq!(highest_percentile(&s), Some((99.0, 989.0)));
        // 999 samples: only 9 beyond p99 -> falls back to p90.
        let s: Vec<u32> = (0..999).collect();
        assert_eq!(highest_percentile(&s).unwrap().0, 90.0);
        // 100_000 samples support p99.99.
        let s: Vec<u32> = (0..100_000).collect();
        assert_eq!(highest_percentile(&s).unwrap().0, 99.99);
        // 20 samples support nothing above the median.
        let s: Vec<u32> = (0..21).collect();
        assert_eq!(highest_percentile(&s), Some((50.0, 10.0)));
        let s: Vec<u32> = (0..15).collect();
        assert_eq!(highest_percentile(&s), None);
    }

    #[test]
    fn midmean_sits_on_the_median_and_does_not_jump_between_peaks() {
        let s: Vec<u32> = (0..10_000).collect();
        assert!((midmean(&s) - 4999.5).abs() < 1.0, "{}", midmean(&s));
        assert_eq!(midmean(&[7]), 7.0);
        assert_eq!(midmean(&[1, 2]), 1.5);
        // Two peaks, 400 and 600; 48 % then 52 % of the samples in the
        // lower one. The median jumps by 200, the midmean moves by 16.
        let peaks = |low: usize| -> Vec<u32> {
            (0..1000).map(|i| if i < low { 400 } else { 600 }).collect()
        };
        let (a, b) = (peaks(480), peaks(520));
        assert_eq!(percentile(&b, 50.0) - percentile(&a, 50.0), -200.0);
        assert!((midmean(&a) - midmean(&b) - 16.0).abs() < 1e-9);
    }
}
