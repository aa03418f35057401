//! Order statistics and process measurements.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the `p`-th percentile (the tail that
/// percentile rests on).
pub fn above(sorted: &[u64], p: f64) -> usize {
    let v = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&x| x <= v)
}

/// Median of unsorted values (nearest rank), 0 when empty.
pub fn median(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    percentile(values, 50.0)
}

/// Median of floating-point values (the mean of the middle pair for an
/// even count).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Completions per second: the median over the `windows` whole windows
/// of `window_ns` from the start, so a short stall of the host moves
/// one window, not the result. The completion count is interpolated
/// linearly between completions, so a window's rate is not rounded to
/// whole requests. `done_ns` are completion times since the start.
pub fn windowed_rate(done_ns: &[u64], window_ns: u64, windows: usize) -> f64 {
    let mut t = done_ns.to_vec();
    t.sort_unstable();
    let completed_by = |at: u64| -> f64 {
        let k = t.partition_point(|&x| x <= at);
        match t.get(k) {
            None => k as f64,
            Some(&next) => {
                let prev = if k == 0 { 0 } else { t[k - 1] };
                k as f64 + (at - prev) as f64 / (next - prev).max(1) as f64
            }
        }
    };
    let rates: Vec<f64> = (0..windows as u64)
        .map(|w| {
            (completed_by((w + 1) * window_ns) - completed_by(w * window_ns)) * 1e9
                / window_ns as f64
        })
        .collect();
    median_f64(&rates)
}

/// Samples each latency window should hold, so that its p99 leaves at
/// least ten above it.
pub const WINDOW_SAMPLES: usize = 1000;

/// Latency percentiles of a run cut into equal windows of completion
/// time, as many as `max_windows` allows with about
/// [`WINDOW_SAMPLES`] each (one window for a short or slow run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub windows: usize,
    /// Median over the windows of each window's p50 and p99, in ns.
    pub p50: f64,
    pub p99: f64,
    /// Fewest samples above its p99 in any window.
    pub min_above_p99: usize,
}

/// `samples` are `(completion ns since start, latency ns)`; `span_ns`
/// is the measured time.
pub fn windowed_latency(samples: &[(u64, u64)], span_ns: u64, max_windows: usize) -> Windowed {
    let windows = (samples.len() / WINDOW_SAMPLES).clamp(1, max_windows.max(1));
    let width = span_ns.div_ceil(windows as u64).max(1);
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(end, lat) in samples {
        per[((end / width) as usize).min(windows - 1)].push(lat);
    }
    let (mut p50, mut p99, mut min_above) = (Vec::new(), Vec::new(), usize::MAX);
    for w in per.iter_mut().filter(|w| !w.is_empty()) {
        w.sort_unstable();
        p50.push(percentile(w, 50.0) as f64);
        p99.push(percentile(w, 99.0) as f64);
        min_above = min_above.min(above(w, 99.0));
    }
    Windowed {
        windows,
        p50: median_f64(&p50),
        p99: median_f64(&p99),
        min_above_p99: if p50.is_empty() { 0 } else { min_above },
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_textbook_samples() {
        // The classic nearest-rank worked example.
        let s = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&s, 5.0), 15);
        assert_eq!(percentile(&s, 30.0), 20);
        assert_eq!(percentile(&s, 40.0), 20);
        assert_eq!(percentile(&s, 50.0), 35);
        assert_eq!(percentile(&s, 100.0), 50);
        let t = [3, 6, 7, 8, 8, 10, 13, 15, 16, 20];
        assert_eq!(percentile(&t, 25.0), 7);
        assert_eq!(percentile(&t, 50.0), 8);
        assert_eq!(percentile(&t, 75.0), 15);
        assert_eq!(percentile(&t, 100.0), 20);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_above() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 50.0), 500);
        assert_eq!(percentile(&s, 99.0), 990);
        assert_eq!(above(&s, 99.0), 10);
        // Ties at the percentile are not "above" it.
        assert_eq!(above(&[1, 2, 2, 2], 50.0), 0);
    }

    #[test]
    fn windowed_rate_interpolates_and_ignores_one_stalled_window() {
        // One completion every 100 ns, at 50, 150, ...: ten per window.
        let steady: Vec<u64> = (0..40).map(|k| 50 + 100 * k).collect();
        assert_eq!(windowed_rate(&steady, 1000, 4), 1e7);
        // Window 2 (2000..3000) stalls; the median ignores it.
        let stalled: Vec<u64> = steady
            .iter()
            .copied()
            .filter(|t| !(2000..3000).contains(t))
            .collect();
        let r = windowed_rate(&stalled, 1000, 4);
        assert!((9.0e6..=1.05e7).contains(&r), "{r}");
        // A window with no completion after it counts only what it saw.
        assert_eq!(windowed_rate(&[500], 1000, 1), 1e9 / 1000.0);
    }

    #[test]
    fn windowed_latency_takes_the_median_window() {
        // Three windows of 1000 samples; the middle one is slow.
        let samples: Vec<(u64, u64)> = (0..3000u64)
            .map(|i| {
                (
                    i,
                    if (1000..2000).contains(&i) {
                        50
                    } else {
                        1 + i % 10
                    },
                )
            })
            .collect();
        let w = windowed_latency(&samples, 3000, 20);
        assert_eq!(w.windows, 3);
        assert_eq!((w.p50, w.p99), (5.0, 10.0));
        assert_eq!(w.min_above_p99, 0);
        // Too few samples for two windows: one window over the run.
        let w = windowed_latency(&samples[..1500], 3000, 20);
        assert_eq!(w.windows, 1);
        assert_eq!(w.p99, 50.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [5, 1, 3]), 3);
        assert_eq!(median(&mut []), 0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
