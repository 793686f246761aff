//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank rule, or `None` for
/// no samples. Nearest rank returns a measured value, never a blend of two.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_measured_values() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 6.0, 7.0, 8.0, 9.0];
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
