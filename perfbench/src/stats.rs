//! Order statistics over timing samples.

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, with its percentile rank. `None` below eleven
/// samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return None;
    }
    let k = n - 11;
    Some((v[k], 100.0 * (k + 1) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert!(tail(&[1.0; 10]).is_none());
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&values).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
    }
}
