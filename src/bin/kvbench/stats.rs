//! Lap-time estimators.
//!
//! A rate over identical-work laps is computed from the fastest time each
//! segment of the lap was ever seen to take: on a shared host interference
//! only ever adds time, and on the reference host it adds ~30 % for seconds
//! at a stretch (README, "Noise on the reference host"), so any quantile
//! inside the lap distribution tracks the neighbours, not the code. The
//! median and the 90th percentile are printed beside it as the spread.

/// Linear-interpolation percentile (`q` in `[0, 1]`) of unsorted samples:
/// the value at rank `q · (n − 1)` of the sorted samples, interpolated
/// between the two neighbouring ranks.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "percentile rank out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Times of a workload's laps, split into the segments every lap passes
/// through (a flow group, a chunk of scenarios, ...). Segment `j` is
/// identical work on every lap, so its fastest time over the laps is what
/// it costs undisturbed; a lap's cost is the sum over its segments.
/// Composing the estimate per segment lets quiet moments shorter than a lap
/// count, and lets a lap be long enough that its content averages out over
/// seeds.
#[derive(Default)]
pub struct Timing {
    /// `[segment][lap] = (items, seconds)`.
    segments: Vec<Vec<(f64, f64)>>,
}

impl Timing {
    /// Records that `segment` of the current lap took `seconds` for `items`.
    pub fn record(&mut self, segment: usize, items: f64, seconds: f64) {
        if self.segments.len() <= segment {
            self.segments.resize_with(segment + 1, Vec::new);
        }
        self.segments[segment].push((items, seconds));
    }

    /// Completed laps.
    pub fn laps(&self) -> usize {
        self.segments.last().map_or(0, Vec::len)
    }

    /// Whole-lap times in seconds, for drift.
    pub fn lap_seconds(&self) -> Vec<f64> {
        (0..self.laps())
            .map(|lap| self.segments.iter().map(|seg| seg[lap].1).sum())
            .collect()
    }

    /// Seconds per item of a whole lap at quantile `q` of every segment:
    /// the segments' per-item times weighted by their median item counts.
    fn per_item(&self, q: f64) -> f64 {
        let (mut seconds, mut items) = (0.0, 0.0);
        for seg in &self.segments {
            // A lap that got no item through (an open-loop lap of the smoke
            // test can) counts as one item, so every number stays finite.
            let per_item: Vec<f64> = seg.iter().map(|&(n, s)| s / n.max(1.0)).collect();
            let weight = median(&seg.iter().map(|&(n, _)| n).collect::<Vec<_>>()).max(1.0);
            seconds += percentile(&per_item, q) * weight;
            items += weight;
        }
        seconds / items
    }

    pub fn stats(&self) -> LapStats {
        LapStats {
            laps: self.laps(),
            segments: self.segments.len(),
            fastest: self.per_item(0.0),
            p10: self.per_item(0.10),
            p50: self.per_item(0.50),
            p90: self.per_item(0.90),
        }
    }
}

/// Which lap time a rate is computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// Identical-work laps: the fastest time of every segment.
    Fastest,
    /// Laps whose work depends on timing (the open loop's processed
    /// count): no lap is "the same work, undisturbed", so the median.
    Median,
}

/// Seconds per item of a workload's laps: fastest, and three percentiles.
#[derive(Debug, Clone, Copy)]
pub struct LapStats {
    pub laps: usize,
    pub segments: usize,
    pub fastest: f64,
    pub p10: f64,
    pub p50: f64,
    pub p90: f64,
}

impl LapStats {
    /// Items per second.
    pub fn rate(&self, by: Estimator) -> f64 {
        match by {
            Estimator::Fastest => 1.0 / self.fastest,
            Estimator::Median => 1.0 / self.p50,
        }
    }

    /// How far the run's own laps leave the rate open, as a share of it;
    /// `compare` holds this against a metric's bound before it calls a
    /// difference resolved. For `Fastest`, `(p10 − fastest) ÷ fastest`:
    /// small when a tenth of the laps ran undisturbed, about the size of
    /// the disturbance when the fastest time was a lucky moment. For
    /// `Median`, `(p90 − p10) ÷ p50`.
    pub fn spread(&self, by: Estimator) -> f64 {
        match by {
            Estimator::Fastest => (self.p10 - self.fastest) / self.fastest,
            Estimator::Median => (self.p90 - self.p10) / self.p50,
        }
    }
}

/// Fastest lap of the last quartile over the fastest of the first: above 1
/// when per-lap cost grows with state that is never freed.
pub fn drift(laps: &[f64]) -> f64 {
    let q = (laps.len() / 4).max(1);
    let fastest = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    fastest(&laps[laps.len() - q..]) / fastest(&laps[..q])
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_tensor::KvecRng;

    /// The oracle: sort, then read the rank directly.
    fn sorted_vec_oracle(samples: &[f64], q: f64) -> (f64, f64) {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let rank = q * (s.len() - 1) as f64;
        (s[rank.floor() as usize], s[rank.ceil() as usize])
    }

    #[test]
    fn percentile_sits_between_the_oracle_neighbours() {
        let mut rng = KvecRng::seed_from_u64(9);
        for n in [1usize, 2, 7, 10, 11, 100] {
            let samples: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 5.0) as f64).collect();
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
                let (lo, hi) = sorted_vec_oracle(&samples, q);
                let p = percentile(&samples, q);
                assert!(lo <= p && p <= hi, "n={n} q={q}: {p} not in [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn percentile_is_exact_on_integer_ranks() {
        // 11 samples: rank q·10 is an integer for every decile.
        let samples: Vec<f64> = (0..11).rev().map(|i| i as f64 * 2.0).collect();
        for d in 0..=10 {
            assert_eq!(percentile(&samples, d as f64 / 10.0), d as f64 * 2.0);
        }
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn rate_composes_the_fastest_time_of_every_segment() {
        // Two segments of 10 and 30 items; every lap is disturbed ninefold
        // in at least one of them: no whole lap is quiet, yet the composed
        // estimate is the undisturbed cost.
        let mut t = Timing::default();
        for lap in 0..21 {
            t.record(0, 10.0, if lap % 3 == 0 { 0.1 } else { 0.9 });
            t.record(1, 30.0, if lap % 3 == 1 { 0.3 } else { 2.7 });
        }
        let s = t.stats();
        assert_eq!((s.laps, s.segments), (21, 2));
        let rate = s.rate(Estimator::Fastest);
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
        assert!(s.rate(Estimator::Median) < 20.0);
        // A third of each segment's laps ran undisturbed, so p10 is the
        // fastest; the median lap is a disturbed one.
        assert!(s.spread(Estimator::Fastest).abs() < 1e-9);
        assert!(s.spread(Estimator::Median) > 0.8);
        assert_eq!(t.lap_seconds().len(), 21);
        assert_eq!(drift(&[1.0, 9.0, 1.0, 1.0, 2.0, 2.0, 9.0, 2.0]), 2.0);
    }
}
