//! Order statistics over measured samples.

/// Sort a copy of `values` ascending (NaN last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of the middle half of `values` (the quartiles inclusive); 0 when
/// empty. Unlike the median it moves smoothly when the samples fall into
/// two modes, as short timings do on a host that changes pace from one
/// second to the next.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Largest value; 0 when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// How many samples lie strictly above the `q`-th percentile — the tail a
/// reported percentile rests on.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let p = percentile(values, q);
    values.iter().filter(|&&v| v > p).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(beyond(&v, 95.0), 5);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 100.0]), 14.0 / 3.0);
        assert_eq!(
            interquartile_mean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            4.5
        );
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
