//! Order statistics for the benchmark's reported timings.
//!
//! A timing is reported as its median plus a tail: the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples beyond it, so the tail
//! is never a single outlier. With fewer than `2 × TAIL_BEYOND` samples no
//! percentile above the median qualifies and the tail is the median itself.

use dvelm_metrics::percentile;

/// Samples a reported tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Median and tail of one sample set, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of samples.
    pub n: usize,
    /// The 50th percentile.
    pub p50: f64,
    /// The percentile the tail is taken at (50 when `n < 2 × TAIL_BEYOND`).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// The highest percentile with at least [`TAIL_BEYOND`] of `n` samples
/// beyond it, clamped to the median from below.
pub fn tail_pct(n: usize) -> f64 {
    if n < 2 * TAIL_BEYOND {
        return 50.0;
    }
    100.0 * (1.0 - TAIL_BEYOND as f64 / n as f64)
}

/// Median and tail of `samples`; `None` when there are none.
pub fn spread(samples: &[f64]) -> Option<Spread> {
    if samples.is_empty() {
        return None;
    }
    let pct = tail_pct(samples.len());
    Some(Spread {
        n: samples.len(),
        p50: percentile(samples, 50.0),
        tail_pct: pct,
        tail: percentile(samples, pct),
    })
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sets_report_the_median_as_tail() {
        let s = spread(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (3, 2.0, 50.0, 2.0));
        assert_eq!(tail_pct(19), 50.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 100 samples 1..=100: p90 leaves exactly ten above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = spread(&xs).unwrap();
        assert_eq!(s.tail_pct, 90.0);
        let beyond = xs.iter().filter(|&&x| x > s.tail).count();
        assert_eq!(beyond, 10);
        assert_eq!(s.p50, 50.5);
        // Twenty samples: the tail percentile is exactly the median.
        assert_eq!(tail_pct(20), 50.0);
        // Larger sets push the tail percentile up, never past 100.
        assert!(tail_pct(1_000) > 98.9 && tail_pct(1_000) < 100.0);
    }

    #[test]
    fn empty_has_no_spread() {
        assert!(spread(&[]).is_none());
        assert!(median(&[]).is_nan());
    }
}
