//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Geometric mean of strictly positive values; 0 if any value is not
/// positive or the slice is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `n / d`, or 0 when there is nothing to divide by.
pub fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Nearest-rank index of percentile `p` (1..=100) among `n` sorted samples.
fn rank_index(p: u32, n: usize) -> usize {
    let r = (p as usize * n).div_ceil(100);
    r.max(1) - 1
}

/// The highest whole percentile in 50..=99 whose nearest-rank sample has at
/// least `beyond` samples above it, or `None` if even the median has fewer.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n > 0 && n - 1 - rank_index(p, n) >= beyond)
}

/// Value at whole percentile `p` (nearest rank); 0 for an empty slice.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sorted(xs)[rank_index(p, xs.len())]
}

/// A latency tail: the percentile with at least ten samples beyond it
/// (falling back to the maximum, reported as p100, when there are too few
/// samples for that), its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

pub fn tail(xs: &[f64]) -> Tail {
    let (percentile, value) = match tail_percentile(xs.len(), TAIL_BEYOND) {
        Some(p) => (p, percentile(xs, p)),
        None => (100, xs.iter().cloned().fold(0.0, f64::max)),
    };
    Tail {
        percentile,
        value,
        samples: xs.len(),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_beyond() {
        // Fewer than 20 samples: not even the median has ten above it.
        assert_eq!(tail_percentile(0, 10), None);
        assert_eq!(tail_percentile(19, 10), None);
        // 20 samples: the median (rank 10) has exactly ten above it.
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(28, 10), Some(64));
        assert_eq!(tail_percentile(99, 10), Some(89));
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(999, 10), Some(98));
        assert_eq!(tail_percentile(1000, 10), Some(99));
        // The chosen percentile really leaves `beyond` samples above it,
        // and the next percentile up would not.
        for n in 20..500 {
            let p = tail_percentile(n, 10).unwrap();
            assert!(n - 1 - rank_index(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - 1 - rank_index(p + 1, n) < 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_falls_back_to_max() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.samples), (100, 5.0, 5));
        let xs: Vec<f64> = (1..=28).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.samples), (64, 18.0, 28));
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 50), 3.0);
    }
}
