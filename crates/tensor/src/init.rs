//! Seeded random tensor initializers.
//!
//! All randomness in the workspace flows through explicit [`rand::rngs::StdRng`]
//! seeds so experiments are bit-for-bit reproducible.

use crate::{Shape, Tensor};
use rand::distributions::Distribution;
use rand::Rng;

/// Samples a tensor with i.i.d. uniform entries in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    assert!(
        lo < hi,
        "uniform range must satisfy lo < hi, got [{lo}, {hi})"
    );
    let shape = shape.into();
    let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(shape, data).expect("size computed from shape")
}

/// Samples a tensor with i.i.d. normal entries `N(mean, std²)`.
///
/// # Panics
///
/// Panics if `std` is negative or non-finite.
pub fn normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
    assert!(
        std >= 0.0 && std.is_finite(),
        "std must be non-negative and finite"
    );
    let shape = shape.into();
    let dist = StandardNormal;
    let data = (0..shape.numel())
        .map(|_| mean + std * dist.sample(rng))
        .collect();
    Tensor::from_vec(shape, data).expect("size computed from shape")
}

/// Kaiming (He) normal initialization for layers followed by ReLU-like
/// activations: `std = sqrt(2 / fan_in)`.
///
/// # Panics
///
/// Panics if `fan_in` is zero.
pub fn kaiming_normal(shape: impl Into<Shape>, fan_in: usize, rng: &mut impl Rng) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    normal(shape, 0.0, (2.0 / fan_in as f32).sqrt(), rng)
}

/// A standard-normal distribution implemented with the Box–Muller transform,
/// avoiding a dependency on `rand_distr`.
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        // Box–Muller: two uniforms → one normal (the second is discarded for
        // simplicity; initializer throughput is irrelevant here).
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds_and_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = uniform([100], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
        let mut rng2 = StdRng::seed_from_u64(7);
        let t2 = uniform([100], -0.5, 0.5, &mut rng2);
        assert_eq!(t.data(), t2.data());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = normal([10_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| ((x as f64) - mean).powi(2))
            .sum::<f64>()
            / t.numel() as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn kaiming_scale_tracks_fan_in() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = kaiming_normal([10_000], 50, &mut rng);
        let std = (t.norm_sq() / t.numel() as f64).sqrt();
        let expected = (2.0f64 / 50.0).sqrt();
        assert!((std - expected).abs() / expected < 0.1);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_bad_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        uniform([2], 1.0, 1.0, &mut rng);
    }
}
