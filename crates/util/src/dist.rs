//! Random distributions used by the algorithms and the fleet simulator.
//!
//! Implemented in-crate (rather than pulling a distributions crate) so the
//! sampled streams are stable across dependency upgrades — the experiment
//! tables in `EXPERIMENTS.md` are regenerated from fixed seeds.

use crate::rng::Xoshiro256pp;

/// Sample from `Poisson(lambda)`.
///
/// This is the heart of online bagging (Oza & Russell 2001): the number of
/// times a tree replays an arriving sample is `Poisson(λ)`, with the paper's
/// imbalance correction using `λp = 1` for positives and `λn ≪ 1` for
/// negatives (Eq. 3 of the paper).
///
/// Uses Knuth's product method for `λ ≤ 30` and the PTRS transformed
/// rejection method is avoided in favour of a normal approximation for
/// larger `λ` (the code never needs λ beyond ~10, but stay safe).
pub fn poisson(rng: &mut Xoshiro256pp, lambda: f64) -> u32 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "invalid lambda {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda <= 30.0 {
        return poisson_knuth(rng, (-lambda).exp());
    }
    // Normal approximation with continuity correction, adequate for λ > 30.
    let x = normal(rng, lambda, lambda.sqrt());
    if x < 0.0 {
        0
    } else {
        (x + 0.5) as u32
    }
}

/// Knuth's product method for `Poisson(λ)`, given `exp_neg_lambda = e^-λ`
/// precomputed by the caller.
///
/// Multiplies uniforms until the product drops to `e^-λ` or below. For
/// `0 < λ ≤ 30` this is exactly the branch [`poisson`] takes, so
/// `poisson_knuth(rng, (-λ).exp())` returns the same count and leaves the
/// generator in the same state. Hot loops that draw many times at one `λ`
/// (online bagging draws once per tree per sample) hoist the `exp` out.
/// Unlike [`poisson`], `λ = 0` (`e^-λ = 1`) still consumes one draw.
#[inline]
pub fn poisson_knuth(rng: &mut Xoshiro256pp, exp_neg_lambda: f64) -> u32 {
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= exp_neg_lambda {
            return k;
        }
        k += 1;
        // Numerical guard: p can underflow to 0 only if k is huge.
        if k > 10_000 {
            return k;
        }
    }
}

/// Standard normal via the Box–Muller transform (one value per call; the
/// second variate is discarded to keep the generator state a pure function
/// of the number of calls).
pub fn standard_normal(rng: &mut Xoshiro256pp) -> f64 {
    // Avoid ln(0).
    let u1 = loop {
        let u = rng.next_f64();
        if u > 0.0 {
            break u;
        }
    };
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal with the given mean and standard deviation.
#[inline]
pub fn normal(rng: &mut Xoshiro256pp, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Log-normal parameterised by the mean/sd of the underlying normal.
#[inline]
pub fn log_normal(rng: &mut Xoshiro256pp, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Geometric distribution on `{1, 2, ...}`: number of Bernoulli(p) trials up
/// to and including the first success. Used for symptom-ramp lengths.
pub fn geometric(rng: &mut Xoshiro256pp, p: f64) -> u32 {
    assert!(p > 0.0 && p <= 1.0, "geometric p must be in (0,1], got {p}");
    if p >= 1.0 {
        return 1;
    }
    // Inversion: ceil(ln(U) / ln(1-p)).
    let u = loop {
        let u = rng.next_f64();
        if u > 0.0 {
            break u;
        }
    };
    let k = (u.ln() / (1.0 - p).ln()).ceil();
    k.max(1.0).min(u32::MAX as f64) as u32
}

/// Exponential with the given rate (mean `1/rate`).
pub fn exponential(rng: &mut Xoshiro256pp, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u = loop {
        let u = rng.next_f64();
        if u > 0.0 {
            break u;
        }
    };
    -u.ln() / rate
}

/// Sample an index from unnormalised non-negative weights.
///
/// Used by the fleet simulator to pick failure modes and disk batches.
pub fn weighted_index(rng: &mut Xoshiro256pp, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "weights must have a positive finite sum"
    );
    let mut target = rng.next_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        debug_assert!(w >= 0.0, "negative weight at {i}");
        target -= w;
        if target < 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(0xDEAD_BEEF)
    }

    #[test]
    fn poisson_zero_lambda_is_always_zero() {
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(poisson(&mut r, 0.0), 0);
        }
    }

    #[test]
    fn poisson_mean_and_variance_match_lambda() {
        let mut r = rng();
        for &lambda in &[0.02, 0.5, 1.0, 4.0, 50.0] {
            let n = 200_000;
            let samples: Vec<f64> = (0..n).map(|_| poisson(&mut r, lambda) as f64).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            let tol = 4.0 * (lambda / n as f64).sqrt() + 0.01;
            assert!((mean - lambda).abs() < tol, "λ={lambda} mean={mean}");
            assert!(
                (var - lambda).abs() < 0.1 * lambda.max(0.1),
                "λ={lambda} var={var}"
            );
        }
    }

    #[test]
    fn poisson_small_lambda_is_mostly_zero() {
        // λn = 0.02 should leave ~98% of negative samples unused — that is
        // the paper's imbalance mechanism, so check the zero mass directly.
        let mut r = rng();
        let n = 100_000;
        let zeros = (0..n).filter(|_| poisson(&mut r, 0.02) == 0).count();
        let frac = zeros as f64 / n as f64;
        let expect = (-0.02f64).exp(); // ≈ 0.9802
        assert!((frac - expect).abs() < 0.005, "zero mass {frac}");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn geometric_mean_is_reciprocal_p() {
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| geometric(&mut r, 0.25) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert_eq!(geometric(&mut r, 1.0), 1);
    }

    #[test]
    fn exponential_mean_is_reciprocal_rate() {
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| exponential(&mut r, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng();
        let w = [1.0, 0.0, 3.0];
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[weighted_index(&mut r, &w)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight bucket must never be chosen");
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.25).abs() < 0.01, "f0 {f0}");
    }

    #[test]
    #[should_panic(expected = "positive finite sum")]
    fn weighted_index_rejects_all_zero() {
        let mut r = rng();
        weighted_index(&mut r, &[0.0, 0.0]);
    }
}
