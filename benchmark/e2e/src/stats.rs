//! Medians, nearest-rank percentiles and quartiles.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median; the mean of the two middle samples when the count is even.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A nearest-rank percentile together with what it actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// The quantile reported — below the one asked for when the sample
    /// could not support it.
    pub quantile: f64,
}

/// How many samples must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Nearest-rank percentile `q` of `xs`, lowered to the highest rank that
/// still has [`BEYOND`] samples above it. `None` below `BEYOND + 1`
/// samples, where no rank qualifies.
pub fn percentile(xs: &[f64], q: f64) -> Option<Percentile> {
    let n = xs.len();
    if n <= BEYOND {
        return None;
    }
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n - BEYOND);
    Some(Percentile {
        value: sorted(xs)[rank - 1],
        quantile: if rank == wanted {
            q
        } else {
            rank as f64 / n as f64
        },
    })
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p95_is_nearest_rank_when_ten_samples_lie_beyond() {
        // 200 samples: rank ceil(0.95·200) = 190 leaves exactly ten beyond.
        let p = percentile(&ramp(200), 0.95).unwrap();
        assert_eq!((p.value, p.quantile), (190.0, 0.95));
        let p = percentile(&ramp(1000), 0.95).unwrap();
        assert_eq!(p.value, 950.0);
        // The median of 21 samples is rank 11, ten beyond.
        assert_eq!(percentile(&ramp(21), 0.5).unwrap().value, 11.0);
    }

    #[test]
    fn p95_falls_back_to_the_highest_supported_rank() {
        // 199 samples: rank 190 would leave nine beyond, so rank 189.
        let p = percentile(&ramp(199), 0.95).unwrap();
        assert_eq!(p.value, 189.0);
        assert!((p.quantile - 189.0 / 199.0).abs() < 1e-12);
        let p = percentile(&ramp(50), 0.95).unwrap();
        assert_eq!((p.value, p.quantile), (40.0, 0.8));
        assert_eq!(percentile(&ramp(11), 0.95).unwrap().value, 1.0);
        assert_eq!(percentile(&ramp(10), 0.95), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10));
        assert_eq!((q1, q3), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
