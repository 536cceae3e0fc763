//! The Laplace distribution, the workhorse of ε-differential privacy.
//!
//! The paper's Theorem 3.2 (Laplace Mechanism) releases `Q(D) + Lap(GS_Q/ε)`;
//! the Predicate Mechanism (Algorithm 2) adds `Lap(dom(a_i)/ε)` to predicate
//! constants. Both are instances of [`Laplace`].

use crate::error::NoiseError;
use crate::rng::StarRng;

/// Zero-mean Laplace distribution with scale `b > 0`.
///
/// Density `f(x) = exp(-|x|/b) / (2b)`, variance `2b²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with the given scale.
    pub fn new(scale: f64) -> Result<Self, NoiseError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(NoiseError::InvalidScale(scale));
        }
        Ok(Laplace { scale })
    }

    /// Calibrates the scale for the Laplace mechanism: `b = sensitivity / ε`.
    pub fn from_sensitivity(sensitivity: f64, epsilon: f64) -> Result<Self, NoiseError> {
        if !(sensitivity.is_finite() && sensitivity >= 0.0) {
            return Err(NoiseError::InvalidSensitivity(sensitivity));
        }
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(NoiseError::InvalidEpsilon(epsilon));
        }
        // A zero-sensitivity query needs no noise; represent it with the
        // smallest positive scale so sampling still works uniformly.
        let scale = if sensitivity == 0.0 { f64::MIN_POSITIVE } else { sensitivity / epsilon };
        Ok(Laplace { scale })
    }

    /// The scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The distribution variance, `2b²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Draws one sample: [`Laplace::inverse_cdf`] of one
    /// [`StarRng::open01`] draw.
    pub fn sample(&self, rng: &mut StarRng) -> f64 {
        self.inverse_cdf(rng.open01())
    }

    /// The sample a uniform draw `u ∈ (0, 1)` maps to:
    /// `x = -b · sgn(v) · ln(1 - 2|v|)` with `v = u - 1/2`. For an
    /// [`StarRng::open01`] draw, `v` and `1 - 2|v|` are exact, so a caller
    /// that computes `1 - 2|v|` itself sees the very argument of the
    /// logarithm.
    #[inline]
    pub fn inverse_cdf(&self, u: f64) -> f64 {
        let v = u - 0.5;
        -self.scale * v.signum() * (1.0 - 2.0 * v.abs()).max(f64::MIN_POSITIVE).ln()
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-x.abs() / self.scale).exp() / (2.0 * self.scale)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.scale).exp()
        } else {
            1.0 - 0.5 * (-x / self.scale).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Laplace::new(0.0).is_err());
        assert!(Laplace::new(-1.0).is_err());
        assert!(Laplace::new(f64::NAN).is_err());
        assert!(Laplace::from_sensitivity(1.0, 0.0).is_err());
        assert!(Laplace::from_sensitivity(-1.0, 1.0).is_err());
        assert!(Laplace::from_sensitivity(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn calibration_matches_mechanism_definition() {
        let l = Laplace::from_sensitivity(7.0, 0.5).unwrap();
        assert!((l.scale() - 14.0).abs() < 1e-12);
        assert!((l.variance() - 2.0 * 14.0 * 14.0).abs() < 1e-9);
    }

    #[test]
    fn zero_sensitivity_means_negligible_noise() {
        let l = Laplace::from_sensitivity(0.0, 1.0).unwrap();
        let mut rng = StarRng::from_seed(1);
        for _ in 0..100 {
            assert!(l.sample(&mut rng).abs() < 1e-290);
        }
    }

    #[test]
    fn sample_moments_match_theory() {
        let l = Laplace::new(3.0).unwrap();
        let mut rng = StarRng::from_seed(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| l.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} should be near 0");
        let expected = l.variance();
        assert!(
            (var - expected).abs() / expected < 0.05,
            "variance {var} should be near {expected}"
        );
    }

    #[test]
    fn cdf_pdf_consistency() {
        let l = Laplace::new(2.0).unwrap();
        assert!((l.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(l.cdf(-1e9) < 1e-12);
        assert!((l.cdf(1e9) - 1.0).abs() < 1e-12);
        // Numeric derivative of the CDF approximates the PDF.
        for &x in &[-3.0, -0.5, 0.25, 1.0, 4.0] {
            let h = 1e-6;
            let d = (l.cdf(x + h) - l.cdf(x - h)) / (2.0 * h);
            assert!((d - l.pdf(x)).abs() < 1e-5, "pdf/cdf mismatch at {x}");
        }
    }

    #[test]
    fn inverse_cdf_inverts_cdf() {
        let l = Laplace::new(2.5).unwrap();
        for &u in &[1e-12, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-12] {
            let x = l.inverse_cdf(u);
            assert!((l.cdf(x) - u).abs() < 1e-9 * u.max(1.0 - u), "cdf(F⁻¹({u})) = {}", l.cdf(x));
        }
    }

    #[test]
    fn empirical_cdf_matches_analytic() {
        let l = Laplace::new(1.0).unwrap();
        let mut rng = StarRng::from_seed(21);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| l.sample(&mut rng)).collect();
        for &q in &[-2.0, -1.0, 0.0, 1.0, 2.0] {
            let emp = samples.iter().filter(|&&x| x <= q).count() as f64 / n as f64;
            assert!((emp - l.cdf(q)).abs() < 0.01, "empirical CDF at {q}: {emp} vs {}", l.cdf(q));
        }
    }
}
