//! Order statistics over timing samples.

/// Sorted copy of `values` (NaN-free input assumed; timings are finite).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in `(0, 100]`; empty input gives 0.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the midpoint convention for even counts.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same cut
/// points Python's `statistics.quantiles(values, n=4)` returns, so the
/// spread `compare` prints is the one the acceptance check computes.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped into the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        // 95th of 200 samples leaves exactly ten beyond it.
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 60.0), 3.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 3.0).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
