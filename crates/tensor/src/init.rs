//! Random parameter initialization schemes.

use crate::{KvecRng, Tensor};

impl Tensor {
    /// Uniform draws in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut KvecRng) -> Self {
        let mut t = Tensor::zeros(rows, cols);
        for v in t.data_mut() {
            *v = rng.uniform(lo, hi);
        }
        t
    }

    /// Normal draws with the given mean and standard deviation.
    pub fn rand_normal(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut KvecRng) -> Self {
        let mut t = Tensor::zeros(rows, cols);
        for v in t.data_mut() {
            *v = rng.normal(mean, std);
        }
        t
    }

    /// Xavier/Glorot uniform init for a `fan_in x fan_out` weight matrix:
    /// `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
    pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut KvecRng) -> Self {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Self::rand_uniform(fan_in, fan_out, -bound, bound, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bounds_hold() {
        let mut rng = KvecRng::seed_from_u64(1);
        let t = Tensor::rand_uniform(20, 20, -0.5, 0.5, &mut rng);
        assert!(t.max() < 0.5 && t.min() >= -0.5);
    }

    #[test]
    fn xavier_bound_scales_with_fans() {
        let mut rng = KvecRng::seed_from_u64(2);
        let small = Tensor::xavier_uniform(1000, 1000, &mut rng);
        let big = Tensor::xavier_uniform(4, 4, &mut rng);
        assert!(small.max().abs() < big.max().abs());
        let bound = (6.0f32 / 2000.0).sqrt();
        assert!(small.max() <= bound && small.min() >= -bound);
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let mut a = KvecRng::seed_from_u64(4);
        let mut b = KvecRng::seed_from_u64(4);
        assert_eq!(
            Tensor::rand_normal(3, 3, 0.0, 1.0, &mut a),
            Tensor::rand_normal(3, 3, 0.0, 1.0, &mut b)
        );
    }
}
