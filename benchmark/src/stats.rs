//! Order statistics the benchmark reports: medians, the tail percentile and
//! the share of failed steps.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest whole percentile of a sample that still has at least
/// [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, 1..=99.
    pub pct: u32,
    /// Its value (nearest-rank definition).
    pub value: f64,
    /// Samples strictly after it in sorted order (at least [`MIN_BEYOND`]).
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Finds the highest percentile `p` whose nearest-rank value
/// `x[ceil(p·n/100) − 1]` leaves at least [`MIN_BEYOND`] samples after it;
/// `None` when the sample is too small for even the 1st percentile to.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let s = sorted(v);
    let n = s.len();
    (1..=99u32).rev().find_map(|pct| {
        let rank = (pct as usize * n).div_ceil(100);
        let beyond = n.checked_sub(rank.max(1))?;
        (rank >= 1 && beyond >= MIN_BEYOND).then(|| Tail {
            pct,
            value: s[rank - 1],
            beyond,
            n,
        })
    })
}

/// Share of attempted steps that failed, in `[0, 1]`.
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "no steps attempted");
    assert!(failed <= attempted, "{failed} failures out of {attempted}");
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 100 samples 1..=100: p90 is the 90th value with exactly 10 after.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (90, 90.0, 10, 100));

        // 25 samples: p60 is rank 15 (10 beyond); p61 would be rank 16.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (60, 15.0, 10));

        // Every percentile reported over many sizes leaves >= 10 beyond,
        // and the next percentile up would not.
        for n in 11..400usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&v).unwrap();
            assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
            if t.pct < 99 {
                let next = ((t.pct as usize + 1) * n).div_ceil(100);
                assert!(
                    n - next < MIN_BEYOND,
                    "n={n}: p{} also qualifies",
                    t.pct + 1
                );
            }
        }
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail(&[]), None);
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().beyond, 10);
    }

    #[test]
    fn tail_is_insensitive_to_input_order_and_ties() {
        let mut v = vec![5.0; 30];
        v.extend([9.0, 1.0, 9.0]);
        let a = tail(&v).unwrap();
        v.reverse();
        assert_eq!(tail(&v).unwrap(), a);
        assert_eq!(a.value, 5.0);
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(40, 0), 0.0);
        assert_eq!(failed_share(40, 10), 0.25);
        assert_eq!(failed_share(3, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "no steps attempted")]
    fn failed_share_rejects_zero_attempts() {
        failed_share(0, 0);
    }
}
