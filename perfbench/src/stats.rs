//! Order statistics for latency samples and run-to-run spreads.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count). `values` need not be sorted; an empty slice gives `NaN`.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the `(n - 10)`-th smallest sample, reported with its percentile
/// `100 (n - 10) / n`. That is p90 at 100 samples, p99 at 1 000 and
/// p99.9 at 10 000. Below 20 samples that percentile would lie under the
/// median, so the maximum is reported instead, as p100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile it stands for.
    pub percentile: f64,
    /// How many samples the rank was taken over.
    pub samples: usize,
}

/// See [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            samples: 0,
        };
    }
    if n < 2 * TAIL_BEYOND {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - TAIL_BEYOND; // 1-based
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so the spreads printed here are the
/// ones an outside check computes from the same values. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as f64;
    let mut out = [0.0; 3];
    for (j, q) in out.iter_mut().enumerate() {
        let pos = (j + 1) as f64 * m / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - i as f64;
        *q = sorted[i - 1] + (sorted[i] - sorted[i - 1]) * delta;
    }
    Some(out)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_picks_p90_p99_p999() {
        for (n, pct) in [(100, 90.0), (1_000, 99.0), (10_000, 99.9)] {
            let t = tail(&ramp(n));
            assert_eq!(t.samples, n);
            assert!((t.percentile - pct).abs() < 1e-9, "n={n}: {t:?}");
            assert_eq!(t.value, (n - 10) as f64, "n={n}");
            let beyond = ramp(n).iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND);
        }
    }

    #[test]
    fn tail_of_small_samples_is_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
        let t = tail(&ramp(19));
        assert_eq!((t.value, t.percentile, t.samples), (19.0, 100.0, 19));
        // From 20 samples on, the rule applies: p50 at 20, p66.7 at 30.
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
        assert_eq!(tail(&ramp(30)).value, 20.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
