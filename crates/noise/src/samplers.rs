//! Hand-rolled statistical samplers.
//!
//! `rand_distr` is not on the offline dependency allowlist, so the
//! distributions needed to reproduce the paper's skewed-data experiments
//! (Figures 7 & 11: exponential, gamma, Gaussian-mixture fact data; graph
//! generation needs Zipf/power-law degrees) are implemented and tested here.

use crate::error::NoiseError;
use crate::rng::StarRng;

/// Exponential distribution with rate `λ > 0` (mean `1/λ`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `λ`.
    pub fn new(rate: f64) -> Result<Self, NoiseError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(NoiseError::InvalidParam { name: "rate", value: rate });
        }
        Ok(Exponential { rate })
    }

    /// Inverse-CDF sample: `-ln(u)/λ`.
    pub fn sample(&self, rng: &mut StarRng) -> f64 {
        -rng.open01().ln() / self.rate
    }

    /// Distribution mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

/// Normal distribution sampled with the Marsaglia polar method.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution `N(mean, std²)`.
    pub fn new(mean: f64, std: f64) -> Result<Self, NoiseError> {
        if !mean.is_finite() {
            return Err(NoiseError::InvalidParam { name: "mean", value: mean });
        }
        if !(std.is_finite() && std > 0.0) {
            return Err(NoiseError::InvalidParam { name: "std", value: std });
        }
        Ok(Normal { mean, std })
    }

    /// One standard-normal draw, shifted and scaled.
    pub fn sample(&self, rng: &mut StarRng) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }
}

/// One `N(0,1)` draw via the Marsaglia polar method.
pub fn standard_normal(rng: &mut StarRng) -> f64 {
    loop {
        let u = 2.0 * rng.unit() - 1.0;
        let v = 2.0 * rng.unit() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Gamma distribution with shape `k > 0` and scale `θ > 0`
/// (mean `kθ`, variance `kθ²`), sampled with Marsaglia–Tsang.
#[derive(Debug, Clone, Copy)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and scale.
    pub fn new(shape: f64, scale: f64) -> Result<Self, NoiseError> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(NoiseError::InvalidParam { name: "shape", value: shape });
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(NoiseError::InvalidParam { name: "scale", value: scale });
        }
        Ok(Gamma { shape, scale })
    }

    /// Distribution mean `kθ`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// One sample. For `k < 1` uses the boost `Gamma(k) = Gamma(k+1)·U^{1/k}`.
    pub fn sample(&self, rng: &mut StarRng) -> f64 {
        if self.shape < 1.0 {
            let boosted = Gamma { shape: self.shape + 1.0, scale: self.scale };
            let u = rng.open01();
            return boosted.sample(rng) * u.powf(1.0 / self.shape);
        }
        // Marsaglia–Tsang (2000): d = k - 1/3, c = 1/sqrt(9d).
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.open01();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3 * self.scale;
            }
        }
    }
}

/// A weighted mixture of normal components — the paper's Figure 11 varies the
/// skew of the fact data with two-component Gaussian mixtures `GM_{a,b}(μ,σ)`.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    components: Vec<(f64, Normal)>,
    /// Cumulative weights for selection.
    cum: Vec<f64>,
}

impl GaussianMixture {
    /// Creates a mixture from `(weight, mean, std)` triples. Weights are
    /// normalized; each must be non-negative and at least one positive.
    pub fn new(components: &[(f64, f64, f64)]) -> Result<Self, NoiseError> {
        if components.is_empty() {
            return Err(NoiseError::InvalidWeights);
        }
        let total: f64 = components.iter().map(|c| c.0).sum();
        if !(total.is_finite() && total > 0.0)
            || components.iter().any(|c| !c.0.is_finite() || c.0 < 0.0)
        {
            return Err(NoiseError::InvalidWeights);
        }
        let mut comps = Vec::with_capacity(components.len());
        let mut cum = Vec::with_capacity(components.len());
        let mut acc = 0.0;
        for &(w, mu, sigma) in components {
            comps.push((w / total, Normal::new(mu, sigma)?));
            acc += w / total;
            cum.push(acc);
        }
        // Guard against floating-point shortfall at the end.
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Ok(GaussianMixture { components: comps, cum })
    }

    /// Mixture mean `Σ wᵢ μᵢ`.
    pub fn mean(&self) -> f64 {
        self.components.iter().map(|(w, n)| w * n.mean).sum()
    }

    /// One sample: pick a component by weight, then draw from it.
    pub fn sample(&self, rng: &mut StarRng) -> f64 {
        let u = rng.unit();
        let idx = self.cum.partition_point(|&c| c < u).min(self.components.len() - 1);
        self.components[idx].1.sample(rng)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = i) ∝ 1/(i+1)^s`. Backed by a precomputed CDF table with
/// binary-search sampling — `n` up to a few hundred thousand is cheap and is
/// exactly the regime of the paper's graph datasets.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Result<Self, NoiseError> {
        if n == 0 {
            return Err(NoiseError::InvalidParam { name: "n", value: 0.0 });
        }
        if !(s.is_finite() && s > 0.0) {
            return Err(NoiseError::InvalidParam { name: "s", value: s });
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Zipf { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True iff the distribution has no ranks (never constructible).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `[0, n)`.
    pub fn sample_index(&self, rng: &mut StarRng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::new(0.5).unwrap();
        let mut rng = StarRng::from_seed(1);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
        assert!(samples.iter().all(|&x| x > 0.0));
        assert!(Exponential::new(0.0).is_err());
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(5.0, 2.0).unwrap();
        let mut rng = StarRng::from_seed(2);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let d = Gamma::new(3.0, 2.0).unwrap();
        let mut rng = StarRng::from_seed(3);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 6.0).abs() < 0.1, "mean {mean}");
        assert!((var - 12.0).abs() < 0.8, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let d = Gamma::new(0.5, 1.0).unwrap();
        let mut rng = StarRng::from_seed(4);
        let samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((var - 0.5).abs() < 0.05, "var {var}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, -1.0).is_err());
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let gm = GaussianMixture::new(&[(1.0, 0.0, 1.0), (3.0, 8.0, 1.0)]).unwrap();
        assert!((gm.mean() - 6.0).abs() < 1e-12);
        let mut rng = StarRng::from_seed(5);
        let samples: Vec<f64> = (0..100_000).map(|_| gm.sample(&mut rng)).collect();
        let (mean, _) = mean_var(&samples);
        assert!((mean - 6.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn mixture_is_bimodal() {
        let gm = GaussianMixture::new(&[(1.0, -10.0, 0.5), (1.0, 10.0, 0.5)]).unwrap();
        let mut rng = StarRng::from_seed(6);
        let near_zero = (0..50_000).map(|_| gm.sample(&mut rng)).filter(|x| x.abs() < 5.0).count();
        assert_eq!(near_zero, 0, "no mass should fall between the two modes");
    }

    #[test]
    fn mixture_rejects_bad_weights() {
        assert!(GaussianMixture::new(&[]).is_err());
        assert!(GaussianMixture::new(&[(-1.0, 0.0, 1.0)]).is_err());
        assert!(GaussianMixture::new(&[(0.0, 0.0, 1.0)]).is_err());
    }

    #[test]
    fn zipf_frequencies_decay() {
        let z = Zipf::new(100, 1.2).unwrap();
        let mut rng = StarRng::from_seed(7);
        let mut counts = vec![0u32; 100];
        for _ in 0..200_000 {
            counts[z.sample_index(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9], "rank 0 should beat rank 9");
        assert!(counts[9] > counts[99], "rank 9 should beat rank 99");
        // Ratio of first to second rank should be near 2^1.2 ≈ 2.3.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0_f64.powf(1.2)).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, 0.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(7, 2.0).unwrap();
        assert_eq!(z.len(), 7);
        let mut rng = StarRng::from_seed(8);
        for _ in 0..10_000 {
            assert!(z.sample_index(&mut rng) < 7);
        }
    }
}
