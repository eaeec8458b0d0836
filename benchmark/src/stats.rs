//! The few sample statistics the benchmark reports.

/// Smallest of a non-empty sample: the time of the least disturbed
/// repetition.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Gap between the two fastest repetitions as a share of the fastest: how
/// firmly the floor [`best`] reports is established (0 for one sample).
pub fn floor_gap(samples: &[f64]) -> f64 {
    match sorted(samples)[..] {
        [fastest, second, ..] => (second - fastest) / fastest,
        _ => 0.0,
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(x, n=4)` gives
/// them; 0 for fewer than two samples.
pub fn spread(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let x = sorted(samples);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&x).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert!((spread(&[1.0, 2.0, 4.0, 7.0, 11.0]) - 7.5 / 4.0).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((spread(&[10.0, 12.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn best_median_and_floor_gap() {
        let reps = [0.6, 0.5, 0.9, 0.55];
        assert_eq!(best(&reps), 0.5);
        assert_eq!(median(&reps), 0.575);
        assert!((floor_gap(&reps) - 0.1).abs() < 1e-12);
        assert_eq!(floor_gap(&[0.5]), 0.0);
    }
}
