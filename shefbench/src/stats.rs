//! Order statistics over latency samples.

/// Minimum samples a reported tail percentile must leave above itself.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of whole percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100)
}

/// Nearest-rank value of whole percentile `p` (1..=100) of sorted `xs`.
pub fn nearest_rank(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Median of unsorted `xs`.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50)
}

/// The tail of a latency distribution: the highest whole percentile
/// (50..=99) whose nearest-rank value still has at least
/// [`TAIL_BEYOND`] samples strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 96 for p96.
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Computes the [`Tail`] of `xs`. Returns `None` when there are too few
/// samples for even the median to have [`TAIL_BEYOND`] beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (50..=99u32).rev().find_map(|p| {
        let r = rank(p, n);
        (r >= 1 && n - r >= TAIL_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[r - 1],
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 20..2000 {
            let t = tail(&ramp(n)).expect("enough samples");
            let beyond = ramp(n).iter().filter(|&&x| x > t.value).count();
            assert!(
                beyond >= TAIL_BEYOND,
                "n={n}: p{} leaves {beyond}",
                t.percentile
            );
            // ... and it is the highest whole percentile that does.
            if t.percentile < 99 {
                let next = nearest_rank(&ramp(n), t.percentile + 1);
                let beyond_next = ramp(n).iter().filter(|&&x| x > next).count();
                assert!(
                    beyond_next < TAIL_BEYOND,
                    "n={n}: p{} was allowed",
                    t.percentile + 1
                );
            }
        }
    }

    #[test]
    fn tail_known_points() {
        assert_eq!(tail(&ramp(300)).map(|t| t.percentile), Some(96));
        assert_eq!(tail(&ramp(1000)).map(|t| t.percentile), Some(99));
        assert_eq!(tail(&ramp(200)).map(|t| t.percentile), Some(95));
        assert_eq!(tail(&ramp(20)).map(|t| t.percentile), Some(50));
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs = ramp(500);
        xs.reverse();
        assert_eq!(tail(&xs), tail(&ramp(500)));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
