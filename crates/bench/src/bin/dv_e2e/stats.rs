//! Order statistics and the sliced completion rate.

/// Median of `values` (mean of the middle two for even counts).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile, `p` in `[0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Completions per second as the median over `slices` equal cuts of
/// `window`, so one host-noise burst moves one slice and not the
/// value. An operation spanning a cut counts in each slice by the
/// share of its duration that lies there, which keeps the rate
/// continuous when a slice holds only a handful of slow operations.
/// `ops` are `(start, end)` seconds on the same clock as `window`.
pub fn sliced_rate(ops: &[(f64, f64)], window: (f64, f64), slices: usize) -> f64 {
    let width = (window.1 - window.0) / slices as f64;
    if width <= 0.0 {
        return 0.0;
    }
    let mut done = vec![0.0f64; slices];
    for &(start, end) in ops {
        let dur = end - start;
        for (i, slot) in done.iter_mut().enumerate() {
            let lo = window.0 + width * i as f64;
            let overlap = end.min(lo + width) - start.max(lo);
            if overlap > 0.0 && dur > 0.0 {
                *slot += overlap / dur;
            }
        }
    }
    let rates: Vec<f64> = done.iter().map(|d| d / width).collect();
    median(&rates)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the rule the acceptance driver applies). `None` below two
/// samples, where no spread exists.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    if mid == 0.0 {
        return None;
    }
    Some((quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn sliced_rate_is_continuous_and_ignores_one_burst() {
        // Back-to-back 0.4 s operations over 4 s: 2.5/s in every slice
        // although no slice boundary coincides with a completion.
        let ops: Vec<(f64, f64)> =
            (0..10).map(|i| (0.4 * i as f64, 0.4 * (i + 1) as f64)).collect();
        let r = sliced_rate(&ops, (0.0, 4.0), 4);
        assert!((r - 2.5).abs() < 1e-9, "{r}");
        // One slice holds a single stalled operation: the overall rate
        // drops to 1.75/s, the median slice still reads 2/s.
        let mut stalled: Vec<(f64, f64)> =
            (0..6).map(|i| (0.5 * i as f64, 0.5 * (i + 1) as f64)).collect();
        stalled.push((3.0, 4.0));
        let r = sliced_rate(&stalled, (0.0, 4.0), 4);
        assert!((r - 2.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = iqr_share(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert!(iqr_share(&[1.0]).is_none());
    }
}
