//! Seeded random tensor initializers.
//!
//! Every stochastic component in the workspace takes an explicit seed so the
//! experiment harness is fully reproducible (see the determinism convention
//! in `DESIGN.md`).

use crate::{Shape, Tensor};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform values in `[lo, hi)`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(data, shape).expect("length matches by construction")
}

/// Standard normal values scaled by `std` around `mean`, via Box-Muller.
pub fn normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let n = shape.len();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        // Box-Muller transform: two uniforms -> two independent normals.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(mean + std * r * theta.cos());
        if data.len() < n {
            data.push(mean + std * r * theta.sin());
        }
    }
    Tensor::from_vec(data, shape).expect("length matches by construction")
}

/// He (Kaiming) normal initialization for ReLU layers: `N(0, sqrt(2/fan_in))`.
pub fn he(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Tensor {
    normal([fan_in, fan_out], 0.0, (2.0 / fan_in as f32).sqrt(), rng)
}

/// A seeded RNG for use with the initializers in this module.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples `k` distinct indices from `0..n` without replacement
/// (partial Fisher-Yates).
///
/// # Panics
/// Panics when `k > n`.
pub fn sample_indices(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct indices from {n}");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// A random permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    sample_indices(n, n, rng)
}

/// Draws one index from a discrete distribution given by non-negative
/// `weights` (not necessarily normalized).
///
/// # Panics
/// Panics when the weights are empty or sum to zero.
pub fn weighted_choice(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && !weights.is_empty(),
        "weighted_choice requires positive total weight"
    );
    let mut target = rand::distributions::Uniform::new(0.0, total).sample(rng);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1 // floating point slack: fall back to the last bucket
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bounds() {
        let mut r = rng(1);
        let t = uniform([1000], -0.5, 0.5, &mut r);
        assert!(t.min() >= -0.5 && t.max() < 0.5);
    }

    #[test]
    fn uniform_is_seed_deterministic() {
        let a = uniform([64], 0.0, 1.0, &mut rng(42));
        let b = uniform([64], 0.0, 1.0, &mut rng(42));
        assert_eq!(a, b);
        let c = uniform([64], 0.0, 1.0, &mut rng(43));
        assert_ne!(a, c);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(7);
        let t = normal([20_000], 1.0, 2.0, &mut r);
        assert!((t.mean() - 1.0).abs() < 0.05, "mean was {}", t.mean());
        let var = t.map(|x| (x - t.mean()).powi(2)).mean();
        assert!((var - 4.0).abs() < 0.2, "variance was {var}");
    }

    #[test]
    fn he_scale_shrinks_with_fan_in() {
        let wide = he(1000, 10, &mut rng(5));
        let narrow = he(10, 10, &mut rng(5));
        let std_wide = wide.map(|x| x * x).mean().sqrt();
        let std_narrow = narrow.map(|x| x * x).mean().sqrt();
        assert!(std_wide < std_narrow);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = rng(9);
        let s = sample_indices(50, 20, &mut r);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = rng(11);
        let mut p = permutation(100, &mut r);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversample() {
        sample_indices(3, 4, &mut rng(0));
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut r = rng(13);
        let weights = [0.0, 0.0, 1.0];
        for _ in 0..100 {
            assert_eq!(weighted_choice(&weights, &mut r), 2);
        }
        // roughly proportional sampling
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..4000 {
            counts[weighted_choice(&weights, &mut r)] += 1;
        }
        let frac = counts[1] as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "frac was {frac}");
    }
}
