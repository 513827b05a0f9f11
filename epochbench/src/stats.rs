//! Order statistics over per-epoch samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The tail of a latency sample: the highest nearest-rank percentile
/// that still leaves at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Applies the tail rule: with `n` samples the nearest-rank percentile
/// `p = 100·(n − 10)/n` sits at rank `n − 10` (1-based) and has exactly
/// ten samples ranked above it. `None` below `TAIL_BEYOND + 1` samples,
/// where no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted(xs)[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
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
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples qualify");
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [11usize, 12, 25, 37, 100, 1000] {
            // Shuffled distinct values: the rule must sort.
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&xs).expect("enough samples");
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            // One rank higher would leave only nine beyond.
            assert!(100.0 * (n - TAIL_BEYOND + 1) as f64 / n as f64 > t.percentile);
        }
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).expect("enough samples");
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
    }
}
