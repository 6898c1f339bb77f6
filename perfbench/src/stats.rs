//! Summary statistics, failure tallies and the result line.

use std::fmt::Write as _;

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it. With too few samples for any of them it falls
/// back to the median, so a tail is never empty.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// How many of `n` samples rank above the nearest rank of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile `p` of `samples`, which need not be sorted: a weighted mean
/// of the order statistics around rank `p·n`, weighted by a normal
/// approximation to the distribution of that order statistic (a smoothed
/// Harrell–Davis estimate). Per-loop compile times have a lumpy tail, where
/// the nearest-rank 99th percentile can jump between neighbouring samples
/// that differ by a fifth; the weighted mean moves smoothly instead.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let q = p / 100.0;
    let sd = (q * (1.0 - q) / (n + 2.0)).sqrt().max(0.5 / n);
    let (mut sum, mut weights) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let z = ((i as f64 + 0.5) / n - q) / sd;
        if z.abs() < 6.0 {
            let w = (-0.5 * z * z).exp();
            sum += w * x;
            weights += w;
        }
    }
    sum / weights
}

/// The median, by [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Scheduler runs attempted and failed, where a run is one (loop,
/// backend) pair. A run fails when the pipeline returns an error, the
/// backend returns no schedule, or verification finds a mismatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunTally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
}

impl RunTally {
    /// Counts one run.
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed runs over attempted runs.
    pub fn fail_ratio(self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Completed runs over attempted runs: `1 − fail_ratio`, which unlike
    /// the failure ratio is never zero.
    pub fn ok_ratio(self) -> f64 {
        1.0 - self.fail_ratio()
    }
}

/// True when `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, a repeated name, or a value that is not
    /// finite: all are bugs in the benchmark.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric `{name}` reported twice"
        );
        self.0.push(Metric { name, value, unit });
    }

    /// A count, reported as a number.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.push(name, value as f64, "count");
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that reads back as
        // the same f64, so no digits are lost.
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(5000), 99.0);
        // 999 samples: p99 is rank 990, leaving only 9 beyond.
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        for n in 1..2000 {
            let p = tail_percentile(n);
            assert!(
                samples_beyond(n, p) >= MIN_BEYOND || p == 50.0,
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn too_few_samples_fall_back_to_a_non_empty_median() {
        for n in 1..20 {
            assert_eq!(tail_percentile(n), 50.0);
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&samples, tail_percentile(n));
            assert!(v.is_finite() && v >= 0.0 && v <= (n - 1) as f64);
        }
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn percentile_tracks_the_rank_and_ignores_order() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert!((percentile(&samples, 99.0) - 990.0).abs() < 1.0);
        assert!((median(&samples) - 500.5).abs() < 1.0);
        assert!((median(&[2.0, 1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(percentile(&[7.0; 5], 99.0), 7.0);
    }

    #[test]
    fn percentile_moves_smoothly_across_a_gap_in_the_tail() {
        // 24 slow samples at 100 and 26 at 200 among 2500: the nearest-rank
        // p99 sits right at the jump.
        let mut samples = vec![1.0; 2450];
        samples.extend([100.0; 24]);
        samples.extend([200.0; 26]);
        let p99 = percentile(&samples, 99.0);
        assert!(p99 > 100.0 && p99 < 200.0, "{p99}");
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for ok in [
            "loop_ms_p99",
            "sched-cache.hit_ratio",
            "engine.slack.self_s",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "a/b",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn pushing_an_invalid_name_panics() {
        Metrics::default().push("bad name", 1.0, "s");
    }

    #[test]
    fn verification_mismatch_counts_as_a_failed_run() {
        let mut tally = RunTally::default();
        tally.add(true);
        tally.add(true);
        tally.add(true);
        // A run whose generated code disagreed with the reference.
        tally.add(false);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.fail_ratio(), 0.25);
        assert_eq!(tally.ok_ratio(), 0.75);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.count("hits", 3);
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"hits\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
