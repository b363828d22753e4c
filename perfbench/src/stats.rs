//! The benchmark's own arithmetic: medians, quartiles and the percentile
//! rule, plus the request timing and failure accounting every workload shares.

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the steadiness report agrees with anyone checking it in Python.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let at = |i: f64| {
        // Position m = i·(n+1)/4 in 1-based order statistics, interpolated.
        let m = i * (n + 1.0) / 4.0;
        let j = (m.floor() as usize).clamp(1, v.len() - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1.0), at(3.0))
}

/// `(q3 − q1) / median`, the spread the bounds in `BENCHMARK.json` are
/// checked against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Nearest-rank percentile `p` (in per cent) of `values`.
fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples a percentile needs: at least ten samples must lie beyond it, so
/// `p90` needs 100 samples and `p99` needs 1000.
pub fn samples_needed(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// Percentile `p` of `values`, or an error when fewer than ten samples lie
/// beyond it — a p99 over 48 samples is just the maximum.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let need = samples_needed(p);
    if values.len() < need {
        return Err(format!("p{p} needs at least {need} samples, got {}", values.len()));
    }
    Ok(nearest_rank(values, p))
}

/// Most windows [`windowed_percentile`] splits a run into.
pub const MAX_WINDOWS: usize = 10;

/// Percentile `p` of `values`, taken in arrival order, as the median over
/// consecutive windows of the percentile within each window. A run is cut
/// into as many windows of at least 100 samples as it has, up to
/// [`MAX_WINDOWS`], so each window supports a p90 by the rule above. A burst
/// of host noise that slows a few seconds of a run then moves one or two
/// windows, not the reported value; a slowdown that lasts through most of
/// the run moves it fully. With fewer than 200 samples this is the plain
/// percentile.
pub fn windowed_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let windows = (n / 100).clamp(1, MAX_WINDOWS);
    let per_window = (0..windows)
        .map(|w| percentile(&values[w * n / windows..(w + 1) * n / windows], p))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&per_window))
}

/// Completions per second, as the median over consecutive windows of the
/// rate within each window. `completions` holds each request's completion
/// time (seconds from the start) and weight (1 for a counted request, its
/// cells for a cell rate, 0 for one that does not count), sorted by time.
/// Windows are cut as [`windowed_percentile`] cuts samples; a window's rate
/// is its weight over the time from the previous window's last completion
/// (the start, for the first window) to its own last completion.
pub fn windowed_rate(completions: &[(f64, f64)]) -> f64 {
    let n = completions.len();
    assert!(n > 0, "rate of no completions");
    let windows = (n / 100).clamp(1, MAX_WINDOWS);
    let rates: Vec<f64> = (0..windows)
        .map(|w| {
            let (a, b) = (w * n / windows, (w + 1) * n / windows);
            let start = if a == 0 { 0.0 } else { completions[a - 1].0 };
            let weight: f64 = completions[a..b].iter().map(|c| c.1).sum();
            weight / (completions[b - 1].0 - start)
        })
        .collect();
    median(&rates)
}

/// The highest of the usual reporting percentiles that the sample supports
/// (at least ten samples beyond it), with its value.
pub fn highest_supported(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| percentile(values, p).ok().map(|v| (p, v)))
}

/// How one request ended, as the load generator saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// A `done` line with no failed or cancelled cell.
    Done,
    /// A `done` line counting failed or cancelled cells.
    PartlyFailed,
    /// An `error` line: the request was refused as invalid.
    Error,
    /// A `reject` line: the daemon shed the request under backpressure.
    Reject,
}

/// One request's timing, in seconds from the start of the measurement.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the client sent it.
    pub sent: f64,
    /// When its first `cell` line arrived, if any.
    pub first_cell: Option<f64>,
    /// When its last line (`done`, `error` or `reject`) arrived.
    pub end: f64,
    /// How it ended.
    pub ending: Ending,
}

impl Timing {
    /// Seconds from sending the request until its last line.
    pub fn latency(&self) -> f64 {
        self.end - self.sent
    }

    /// Seconds from sending the request until its first `cell` line.
    pub fn first_cell_latency(&self) -> Option<f64> {
        self.first_cell.map(|f| f - self.sent)
    }

    /// A request counts as good only when it completed without a failed
    /// cell *and* within the latency limit; a refused request always misses.
    pub fn is_good(&self, limit_s: f64) -> bool {
        self.ending == Ending::Done && self.latency() <= limit_s
    }

    /// Whether the request counts against the error rate.
    pub fn is_failure(&self) -> bool {
        self.ending != Ending::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
        let v48: Vec<f64> = (1..=48).map(f64::from).collect();
        assert!(percentile(&v48, 99.0).is_err(), "p99 over 48 samples is refused");
        assert!(percentile(&v48, 90.0).is_err(), "p90 over 48 samples is refused");
        assert_eq!(percentile(&v48, 50.0).unwrap(), 24.0);
        assert_eq!(highest_supported(&v48), Some((50.0, 24.0)));
        let v100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v100, 90.0).unwrap(), 90.0);
        assert_eq!(highest_supported(&v100), Some((90.0, 90.0)));
        assert_eq!(highest_supported(&v48[..10]), None);
    }

    #[test]
    fn windowed_percentile_takes_the_median_over_windows() {
        // 1000 samples, ten windows of 100; one window is ten times slower.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100 + 1)).collect();
        for x in &mut v[300..400] {
            *x *= 10.0;
        }
        assert_eq!(windowed_percentile(&v, 90.0).unwrap(), 90.0);
        assert_eq!(windowed_percentile(&v, 50.0).unwrap(), 50.0);
        assert!(percentile(&v, 90.0).unwrap() > 90.0, "the plain p90 sees the slow window");
        // A slowdown through most of the run moves it.
        for x in &mut v[..700] {
            *x *= 10.0;
        }
        assert_eq!(windowed_percentile(&v, 90.0).unwrap(), 900.0);
        // Under 200 samples it is the plain percentile, with the same rule.
        let v150: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(windowed_percentile(&v150, 90.0), percentile(&v150, 90.0));
        assert!(windowed_percentile(&v150[..99], 90.0).is_err());
        // Windows stop at ten, however long the run.
        let v5000: Vec<f64> = (0..5000).map(|i| f64::from(i % 500 + 1)).collect();
        assert_eq!(windowed_percentile(&v5000, 90.0).unwrap(), 450.0);
    }

    #[test]
    fn windowed_rate_is_the_median_window_rate() {
        // 1000 completions every 10 ms: 100 per second in every window.
        let even: Vec<(f64, f64)> = (1..=1000).map(|i| (f64::from(i) * 0.01, 1.0)).collect();
        assert!((windowed_rate(&even) - 100.0).abs() < 1e-9);
        // A stall in one window halves that window's rate, not the median.
        let stalled: Vec<(f64, f64)> =
            even.iter().map(|&(t, w)| (if t > 1.0 { t + 1.0 } else { t * 2.0 }, w)).collect();
        assert!((windowed_rate(&stalled) - 100.0).abs() < 1e-9);
        // Weights count: half the requests not counted halves the rate.
        let half: Vec<(f64, f64)> =
            even.iter().enumerate().map(|(i, &(t, _))| (t, (i % 2) as f64)).collect();
        assert!((windowed_rate(&half) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn latency_counts_from_the_send() {
        let t = Timing { sent: 1.25, first_cell: Some(1.3), end: 1.5, ending: Ending::Done };
        assert!((t.latency() - 0.25).abs() < 1e-12);
        assert!((t.first_cell_latency().unwrap() - 0.05).abs() < 1e-12);
        assert!(t.is_good(0.25) && !t.is_good(0.2));
    }

    #[test]
    fn a_reject_is_an_error_and_misses_the_limit() {
        let fast_reject =
            Timing { sent: 0.0, first_cell: None, end: 0.001, ending: Ending::Reject };
        assert!(fast_reject.is_failure());
        assert!(!fast_reject.is_good(10.0), "a refused request never meets the limit");
        let partial = Timing { ending: Ending::PartlyFailed, ..fast_reject };
        assert!(partial.is_failure() && !partial.is_good(10.0));
        let error = Timing { ending: Ending::Error, ..fast_reject };
        assert!(error.is_failure() && !error.is_good(10.0));
    }
}
