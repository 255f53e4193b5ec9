//! Seeded random number generation.
//!
//! Every stochastic component of the reproduction (parameter init, dataset
//! synthesis, dropout, action sampling) draws from a [`KvecRng`] constructed
//! from an explicit seed, so every experiment is replayable.
//!
//! The generator is an in-tree **xoshiro256++** (Blackman & Vigna) seeded
//! through **splitmix64**, replacing the external `rand::StdRng` the repo
//! used before. Owning the algorithm keeps the workspace buildable with no
//! registry access and — more importantly for the paper's REINFORCE-based
//! halting policy, which is notoriously seed-sensitive — pins the exact
//! stream to this source file instead of to whatever cipher a `rand`
//! release happens to ship.
//!
//! **Stream-compatibility contract:** the sequence of draws for a given
//! seed is part of the repo's reproducibility surface. It changed once,
//! when `StdRng` (ChaCha12) was replaced by this generator; any golden
//! value pinned to the old stream was regenerated at that point (see
//! DESIGN.md "Dependencies"). Changing the algorithm, the seeding
//! expansion, or the float/bounded-int derivations below is a breaking
//! change to every checked-in experiment artifact and must be treated
//! like an on-disk format break.

/// splitmix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion (any 64-bit seed, including 0, produces a
/// well-mixed 256-bit xoshiro state) and nowhere else.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct KvecRng {
    s: [u64; 4],
}

impl KvecRng {
    /// Creates a generator from a 64-bit seed, expanding it to the full
    /// 256-bit state with splitmix64 (the seeding scheme the xoshiro
    /// authors recommend; it cannot produce the all-zero state).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        debug_assert!(s.iter().any(|&w| w != 0), "splitmix64 yielded zero state");
        Self { s }
    }

    /// Exports the full 256-bit generator state for checkpointing. A
    /// generator rebuilt with [`KvecRng::from_state`] continues the exact
    /// stream from the next draw — the property crash-safe training resume
    /// relies on (see `kvec`'s trainer checkpoints).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Restores a generator from a state captured by [`KvecRng::state`].
    ///
    /// Returns `None` for the all-zero state, which is a fixed point of
    /// xoshiro256++ (the generator would emit zeros forever); it can never
    /// be produced by [`KvecRng::seed_from_u64`] or by advancing a valid
    /// state, so encountering it means the checkpoint bytes are corrupt.
    pub fn from_state(s: [u64; 4]) -> Option<Self> {
        if s.iter().all(|&w| w == 0) {
            return None;
        }
        Some(Self { s })
    }

    /// Raw `u64` draw: the xoshiro256++ next() function.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)` from the 24 high bits of one draw (the
    /// high bits are the best-mixed bits of xoshiro256++ output, and 24
    /// bits is exactly an `f32` mantissa, so every value is representable
    /// and 1.0 is unreachable).
    fn next_f32(&mut self) -> f32 {
        const SCALE: f32 = 1.0 / (1u64 << 24) as f32;
        (self.next_u64() >> 40) as f32 * SCALE
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Standard normal draw via Box-Muller.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        // Box-Muller transform; u1 is kept away from zero for a finite log
        // (u1 = 1e-12 caps |z| at ~7.4 sigma; next_f32 can return exactly
        // 0.0, which would otherwise give ln(0) = -inf and a NaN draw).
        let u1: f32 = self.next_f32().max(1e-12);
        let u2: f32 = self.next_f32();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Unbiased via Lemire's widening-multiply rejection method.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is invalid");
        let bound = bound as u64;
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            // Rejection zone: 2^64 mod bound low products are biased.
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw with success probability `p`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }

    /// Samples an index from an unnormalized non-negative weight vector.
    /// Falls back to the last index on numerical underflow; panics if the
    /// weights are empty or all zero.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        assert!(!weights.is_empty(), "weighted_index on empty weights");
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index requires positive total weight");
        let mut target = self.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_xoshiro256pp_reference_vectors() {
        // State {1, 2, 3, 4} — first outputs of the reference C
        // implementation (Blackman & Vigna, xoshiro256plusplus.c).
        let mut r = KvecRng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_seeding_matches_reference() {
        // splitmix64(0) reference outputs: the state expansion for seed 0.
        let mut sm = 0u64;
        assert_eq!(splitmix64(&mut sm), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(&mut sm), 0x6E789E6AA1B965F4);
        let r = KvecRng::seed_from_u64(0);
        assert_eq!(r.s[0], 0xE220A8397B1DCDAF);
        assert_eq!(r.s[1], 0x6E789E6AA1B965F4);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = KvecRng::seed_from_u64(7);
        let mut b = KvecRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = KvecRng::seed_from_u64(1);
        let mut b = KvecRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = KvecRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn unit_uniform_moments_at_100k() {
        // Mean 1/2, variance 1/12; tolerances are ~6 standard errors.
        let mut r = KvecRng::seed_from_u64(11);
        let n = 100_000;
        let draws: Vec<f32> = (0..n).map(|_| r.uniform(0.0, 1.0)).collect();
        let mean = draws.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let var = draws
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.006, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.003, "var {var}");
    }

    #[test]
    fn normal_moments_at_100k() {
        // mean=1, std=2: standard error of the mean is 2/sqrt(n) ~ 0.0063,
        // of the variance ~ sqrt(2/n)*4 ~ 0.018; tolerances are ~6 SE.
        let mut r = KvecRng::seed_from_u64(4);
        let n = 100_000;
        let draws: Vec<f32> = (0..n).map(|_| r.normal(1.0, 2.0)).collect();
        let mean = draws.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let var = draws
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.04, "mean {mean}");
        assert!((var - 4.0).abs() < 0.12, "var {var}");
    }

    #[test]
    fn normal_is_always_finite() {
        // Box-Muller NaN edge: u1 == 0 must be impossible after clamping.
        // 300k draws across seeds, plus the adversarial clamp value itself.
        for seed in 0..3u64 {
            let mut r = KvecRng::seed_from_u64(seed);
            for _ in 0..100_000 {
                let z = r.normal(0.0, 1.0);
                assert!(z.is_finite(), "non-finite normal draw {z} (seed {seed})");
                assert!(z.abs() < 8.0, "implausible tail draw {z}");
            }
        }
        let z_max = (-2.0f32 * 1e-12f32.ln()).sqrt();
        assert!(z_max.is_finite() && z_max < 7.5);
    }

    #[test]
    fn below_and_range_bounds() {
        let mut r = KvecRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let v = r.range(3, 9);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        // Lemire rejection sanity: each of 10 buckets within 5% of n/10
        // at n=100k (expected fluctuation ~0.3%).
        let mut r = KvecRng::seed_from_u64(12);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - n as f64 / 10.0).abs() / (n as f64 / 10.0);
            assert!(dev < 0.05, "bucket {i} count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = KvecRng::seed_from_u64(6);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = KvecRng::seed_from_u64(8);
        let mut counts = [0usize; 3];
        for _ in 0..6000 {
            counts[r.weighted_index(&[1.0, 2.0, 3.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        // Zero-weight entries are never chosen.
        for _ in 0..100 {
            assert_eq!(r.weighted_index(&[0.0, 1.0, 0.0]), 1);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = KvecRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let mut r = KvecRng::seed_from_u64(21);
        for _ in 0..17 {
            r.next_u64();
        }
        let snap = r.state();
        let tail: Vec<u64> = (0..64).map(|_| r.next_u64()).collect();
        let mut resumed = KvecRng::from_state(snap).unwrap();
        let resumed_tail: Vec<u64> = (0..64).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn from_state_rejects_the_all_zero_fixed_point() {
        assert!(KvecRng::from_state([0; 4]).is_none());
        assert!(KvecRng::from_state([0, 0, 0, 1]).is_some());
    }
}
