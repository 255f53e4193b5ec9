//! Zero-dependency micro-benchmark timing.
//!
//! A small in-tree replacement for the slice of Criterion these benches
//! used: named benchmark groups, adaptive batching so sub-microsecond
//! kernels are measured over batches long enough for the OS clock, and
//! min/median/mean reporting. Statistical rigor is deliberately modest —
//! the minimum over many samples is the standard low-noise estimator for
//! short compute-bound kernels, and the median is robust to scheduler
//! preemption in the tail.
//!
//! Environment knobs:
//!
//! - `KVEC_BENCH_SAMPLES`: override the per-target sample count.
//! - `KVEC_FAST=1`: shrink samples and warmup for smoke runs (CI).

use std::hint::black_box;
use std::time::{Duration, Instant};

fn fast_mode() -> bool {
    std::env::var("KVEC_FAST").is_ok_and(|v| v == "1")
}

fn env_samples() -> Option<usize> {
    std::env::var("KVEC_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Per-iteration timing statistics of one benchmark target.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Minimum per-iteration time in nanoseconds.
    pub min_ns: f64,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Sample standard deviation (n-1 denominator; 0 for a single sample).
    pub stddev_ns: f64,
    /// 95th-percentile per-iteration time (nearest-rank).
    pub p95_ns: f64,
    /// Iterations per measured sample (adaptive batch size).
    pub batch: usize,
    /// Number of samples collected.
    pub samples: usize,
}

/// Summary statistics of raw per-iteration samples (ns).
fn summarize(mut per_iter: Vec<f64>, batch: usize) -> Stats {
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let n = per_iter.len();
    let min_ns = per_iter[0];
    let median_ns = per_iter[n / 2];
    let mean_ns = per_iter.iter().sum::<f64>() / n as f64;
    let stddev_ns = if n > 1 {
        let var = per_iter
            .iter()
            .map(|&x| (x - mean_ns) * (x - mean_ns))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    } else {
        0.0
    };
    let p95_ns = per_iter[((0.95 * (n - 1) as f64).round() as usize).min(n - 1)];
    Stats {
        min_ns,
        median_ns,
        mean_ns,
        stddev_ns,
        p95_ns,
        batch,
        samples: n,
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// A named group of benchmark targets, printed as aligned rows.
pub struct Group {
    name: String,
    sample_size: usize,
    header_printed: bool,
}

/// Opens a benchmark group. Groups print a header once, then one row per
/// [`Group::bench`] call.
pub fn group(name: impl Into<String>) -> Group {
    Group {
        name: name.into(),
        sample_size: if fast_mode() { 5 } else { 30 },
        header_printed: false,
    }
}

impl Group {
    /// Overrides the number of samples per target (env vars still win).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = if fast_mode() { n.min(5) } else { n };
        self
    }

    /// Measures `f`, printing one result row; returns the statistics so
    /// callers can post-process (speedups, GFLOP/s).
    pub fn bench(&mut self, id: impl std::fmt::Display, f: impl FnMut()) -> Stats {
        let samples = env_samples().unwrap_or(self.sample_size).max(3);
        let stats = measure(samples, f);
        if !self.header_printed {
            println!(
                "\n{:<44} {:>12} {:>12} {:>12}  {:>9}",
                self.name, "min", "median", "mean", "iters"
            );
            self.header_printed = true;
        }
        println!(
            "  {:<42} {:>12} {:>12} {:>12}  {:>4}x{:<4}",
            id.to_string(),
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.mean_ns),
            stats.samples,
            stats.batch,
        );
        stats
    }

    /// Ends the group (parity with the old Criterion API; groups also
    /// close on drop).
    pub fn finish(self) {}
}

/// Measures per-iteration time of `f` with adaptive batching: the batch
/// size is calibrated so one sample spans >= ~1 ms, making the clock's
/// granularity and `Instant` overhead negligible even for nanosecond-scale
/// bodies.
pub fn measure(samples: usize, mut f: impl FnMut()) -> Stats {
    // Warmup: run until ~50 ms (5 ms in fast mode) or 3 iterations,
    // whichever is longer, to settle caches and frequency scaling.
    let warmup_budget = Duration::from_millis(if fast_mode() { 5 } else { 50 });
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    let mut one_iter_ns = loop {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64() * 1e9;
        warm_iters += 1;
        if warm_iters >= 3 && warm_start.elapsed() >= warmup_budget {
            break dt;
        }
    };
    if one_iter_ns <= 0.0 {
        one_iter_ns = 1.0;
    }

    // Batch so each sample runs >= ~1 ms.
    let target_sample_ns = 1e6;
    let batch = ((target_sample_ns / one_iter_ns).ceil() as usize).clamp(1, 1 << 20);

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(&mut f)();
        }
        per_iter.push(t0.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    summarize(per_iter, batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_orders_stats_and_batches() {
        let s = measure(5, || {
            black_box((0..100).sum::<u64>());
        });
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.batch >= 1);
        assert_eq!(s.samples, 5);
        assert!(s.stddev_ns >= 0.0 && s.stddev_ns.is_finite());
        assert!(s.min_ns <= s.p95_ns && s.p95_ns <= s.min_ns + 1e12);
        assert!(s.median_ns <= s.p95_ns);
    }

    #[test]
    fn summary_statistics_match_a_known_sample() {
        // 20 samples 1..=20 ns: median (index 10 of sorted) = 11, mean =
        // 10.5, sample stddev = sqrt(35) ~ 5.916, p95 (nearest rank at
        // round(0.95*19) = 18) = 19.
        let s = summarize((1..=20).map(f64::from).collect(), 1);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 11.0);
        assert_eq!(s.mean_ns, 10.5);
        assert!((s.stddev_ns - 35f64.sqrt()).abs() < 1e-9);
        assert_eq!(s.p95_ns, 19.0);
        assert_eq!(s.samples, 20);
    }

    #[test]
    fn slow_bodies_get_batch_of_one() {
        let s = measure(3, || std::thread::sleep(Duration::from_millis(2)));
        assert_eq!(s.batch, 1);
        assert!(s.min_ns >= 2e6);
    }
}
