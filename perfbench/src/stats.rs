//! Order statistics over raw samples.

/// The `q`-quantile (0..=1) of `samples` by nearest rank; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples per window of [`windowed_p99`]: enough that each window's p99
/// has ten samples beyond it.
pub const P99_WINDOW: usize = 1000;

/// The p99 of time-ordered samples, as the median of the p99s of
/// consecutive windows of at least [`P99_WINDOW`] samples (one window when
/// there are fewer). A single stall of the machine moves one window's p99,
/// not the run's.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    let windows = (samples.len() / P99_WINDOW).max(1);
    let size = samples.len().div_ceil(windows).max(1);
    let p99s: Vec<f64> = samples.chunks(size).map(|w| quantile(w, 0.99)).collect();
    median(&p99s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        let mut s = vec![100.0; 5000];
        for x in &mut s[..100] {
            *x = 1e6;
        }
        assert_eq!(quantile(&s, 0.99), 1e6);
        assert_eq!(windowed_p99(&s), 100.0);
        assert_eq!(windowed_p99(&s[..900]), 1e6);
    }
}
