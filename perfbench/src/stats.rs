//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark prints is computed here, by nearest rank
//! over the full sample list — never from a bucketed histogram, whose
//! factor-2 edges can report a p99 above the largest sample seen.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`
/// samples: the smallest sample with at least `q·n` samples at or below
/// it. `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // The epsilon keeps `0.99 * 100` from rounding up to rank 100.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median of unsorted samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples), 0.5)
}

/// A copy of `samples` in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// A tail latency: the highest percentile of a fixed ladder that still
/// has at least [`TAIL_BEYOND`] samples strictly beyond its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile's nearest rank.
    pub value: f64,
    /// How many samples lie beyond that rank.
    pub beyond: usize,
    /// The sample count.
    pub samples: usize,
}

/// Minimum number of samples beyond a tail percentile's rank.
pub const TAIL_BEYOND: usize = 10;

/// The percentile ladder a tail is chosen from. A coarse, fixed ladder
/// keeps the reported percentile the same across runs whose sample counts
/// differ, and keeps it off the cliff where a share of about 1 % of
/// deadline-bound draws would make p99 jump between runs. Entries are
/// per-mille so ranks are exact integers.
const LADDER_PER_MILLE: [usize; 5] = [999, 950, 900, 750, 500];

/// The tail of ascending `sorted` samples: the highest ladder percentile
/// with at least [`TAIL_BEYOND`] samples beyond it, or the median when
/// there are too few samples for any of them. `None` when empty.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    let at = |per_mille: usize| {
        let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
        Tail {
            percentile: per_mille as f64 / 10.0,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        }
    };
    if n == 0 {
        return None;
    }
    Some(
        LADDER_PER_MILLE
            .iter()
            .map(|&p| at(p))
            .find(|t| t.beyond >= TAIL_BEYOND)
            .unwrap_or_else(|| at(500)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.001), Some(1.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // an odd count: the median is the middle sample, not an average
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn quantiles_never_exceed_the_largest_sample() {
        // The bucketed histogram reported a p99 of 1048.58 ms for a pass
        // whose maximum was 596.22 ms; exact ranks cannot.
        let mut s: Vec<f64> = (0..500).map(|i| 0.2 + f64::from(i) * 0.001).collect();
        s.push(596.22);
        let s = sorted(&s);
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = quantile(&s, q).unwrap();
            assert!(v <= 596.22, "q={q} gave {v}");
            assert!(s.contains(&v), "a quantile is always an observed sample");
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=327).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 311.0);
        assert_eq!(t.beyond, 16);
        let s: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 250));
        let s: Vec<f64> = (1..=20000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 20));
        let t = tail(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 2.0));
        assert_eq!(tail(&[]), None);
    }
}
