//! Truncation mechanisms (paper §4 "TM" and Table 2's
//! "naive truncation with smooth sensitivity").
//!
//! * [`star_truncation`] — the basic star-join TM: delete every private
//!   entity whose contribution exceeds τ, then add `Lap(τ/ε)`. Exhibits the
//!   bias–variance trade-off the paper §4 describes: small τ biases the
//!   answer down by the deleted mass, large τ inflates the noise.
//! * [`kstar_tm`] — for k-star counting: project the graph to maximum degree
//!   θ (naive degree truncation), count k-stars on the projection, and add
//!   general-Cauchy noise calibrated to a β-smooth bound on the truncated
//!   count's local sensitivity. On the θ-bounded graph one node change
//!   affects at most `D(θ,k) = C(θ,k) + θ·C(θ−1,k−1)` stars; local
//!   sensitivity at distance t is bounded by `(t+1)·D(θ,k)` (README,
//!   "Interpretations and substitutions", #10).

use crate::error::BaselineError;
use starj_engine::{contributions, StarQuery, StarSchema};
use starj_graph::{binomial, kstar_count, Graph, KStarQuery};
use starj_noise::smooth::{beta_cauchy, smooth_bound_linear};
use starj_noise::{GeneralCauchy, Laplace, StarRng};

/// Basic star-join truncation: drop entities with contribution > τ, release
/// the filtered total plus `Lap(τ/ε)`.
pub fn star_truncation(
    schema: &StarSchema,
    query: &StarQuery,
    tau: f64,
    epsilon: f64,
    private_dims: &[String],
    rng: &mut StarRng,
) -> Result<f64, BaselineError> {
    if !(tau.is_finite() && tau > 0.0) {
        return Err(BaselineError::InvalidConfig(format!("tau must be positive, got {tau}")));
    }
    if query.is_grouped() {
        return Err(BaselineError::NotSupported {
            mechanism: "TM",
            what: format!("GROUP BY query `{}`", query.name),
        });
    }
    let contrib = contributions(schema, query, private_dims)?;
    let lap = Laplace::new((tau / epsilon).max(f64::MIN_POSITIVE))?;
    Ok(contrib.filtered_total(tau) + lap.sample(rng))
}

/// Configuration for the k-star truncation mechanism.
#[derive(Debug, Clone)]
pub struct KstarTmConfig {
    /// Degree truncation threshold θ; `None` picks `4 × ⌈avg degree⌉ + 1`,
    /// a standard heuristic keeping most nodes untouched.
    pub theta: Option<u32>,
    /// Cauchy tail exponent γ (paper: 4).
    pub gamma: f64,
    /// Declared cap on the smooth bound's distance extrapolation.
    pub gs_cap: f64,
}

impl Default for KstarTmConfig {
    fn default() -> Self {
        KstarTmConfig { theta: None, gamma: 4.0, gs_cap: 1e12 }
    }
}

/// Naive truncation + smooth sensitivity for k-star counting.
///
/// Returns `(noisy_answer, theta_used, smooth_bound)` — the harness reports
/// the diagnostics alongside the error.
pub fn kstar_tm(
    graph: &Graph,
    query: &KStarQuery,
    epsilon: f64,
    cfg: &KstarTmConfig,
    rng: &mut StarRng,
) -> Result<(f64, u32, f64), BaselineError> {
    let theta = match cfg.theta {
        Some(0) => return Err(BaselineError::InvalidConfig("theta must be positive".into())),
        Some(t) => t,
        None => 4 * (graph.avg_degree().ceil() as u32).max(1) + 1,
    };
    // Projection + truncated count (this pass is what makes TM slow compared
    // with PM, as the paper's Table 2 timing columns show).
    let projected = graph.truncate_degrees(theta);
    let truncated = kstar_count(&projected, query) as f64;

    // Per-change effect bound on the θ-bounded graph.
    let d_theta = binomial(u64::from(theta), query.k) as f64
        + theta as f64
            * binomial(u64::from(theta.saturating_sub(1)), query.k.saturating_sub(1)) as f64;
    let beta = beta_cauchy(epsilon, cfg.gamma)?;
    let smooth = smooth_bound_linear(d_theta, d_theta, cfg.gs_cap.max(d_theta), beta)?;
    let dist = GeneralCauchy::for_smooth_sensitivity(smooth, epsilon, cfg.gamma)?;
    Ok((truncated + dist.sample(rng), theta, smooth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::execute;
    use starj_ssb::{generate, qc1, qg2, SsbConfig};

    fn setup() -> StarSchema {
        generate(&SsbConfig { scale: 0.002, seed: 31, ..Default::default() }).unwrap()
    }

    #[test]
    fn star_truncation_bias_variance_tradeoff() {
        let s = setup();
        let truth = execute(&s, &qc1()).unwrap().scalar().unwrap();
        let dims = vec!["Customer".to_string()];
        let mean_answer = |tau: f64| {
            let mut acc = 0.0;
            for t in 0..200 {
                let mut r = StarRng::from_seed(1).derive_index(t);
                acc += star_truncation(&s, &qc1(), tau, 1.0, &dims, &mut r).unwrap();
            }
            acc / 200.0
        };
        // Tiny τ: heavy downward bias (most entities dropped).
        assert!(mean_answer(0.5) < truth * 0.2);
        // Generous τ above every fanout: nearly unbiased, modest noise.
        let fanout = starj_engine::max_contribution(&s, &qc1(), &["Customer".to_string()]).unwrap();
        assert!((mean_answer(fanout * 2.0) - truth).abs() < truth * 0.2);
    }

    #[test]
    fn star_truncation_validates() {
        let s = setup();
        let dims = vec!["Customer".to_string()];
        let mut rng = StarRng::from_seed(2);
        assert!(star_truncation(&s, &qc1(), 0.0, 1.0, &dims, &mut rng).is_err());
        assert!(matches!(
            star_truncation(&s, &qg2(), 1.0, 1.0, &dims, &mut rng),
            Err(BaselineError::NotSupported { .. })
        ));
    }

    #[test]
    fn kstar_tm_runs_and_reports_theta() {
        let g = starj_graph::deezer_like(0.01, 5).unwrap();
        let q = KStarQuery::full(2, g.num_nodes());
        let mut rng = StarRng::from_seed(3);
        let (ans, theta, smooth) =
            kstar_tm(&g, &q, 1.0, &KstarTmConfig::default(), &mut rng).unwrap();
        assert!(ans.is_finite());
        assert!(theta > 0);
        assert!(smooth > 0.0);
    }

    #[test]
    fn kstar_tm_truncation_biases_down() {
        // With a very small θ the truncated count must undershoot badly —
        // the paper's explanation for TM's enormous errors at small ε.
        let g = starj_graph::deezer_like(0.01, 7).unwrap();
        let q = KStarQuery::full(2, g.num_nodes());
        let truth = kstar_count(&g, &q) as f64;
        let cfg = KstarTmConfig { theta: Some(2), ..Default::default() };
        // Average away the (symmetric) noise.
        let mut acc = 0.0;
        for t in 0..100 {
            let mut r = StarRng::from_seed(4).derive_index(t);
            acc += kstar_tm(&g, &q, 5.0, &cfg, &mut r).unwrap().0;
        }
        let mean = acc / 100.0;
        assert!(mean < truth * 0.5, "θ=2 must lose most stars: mean {mean} vs truth {truth}");
    }

    #[test]
    fn kstar_tm_rejects_zero_theta() {
        let g = starj_graph::deezer_like(0.005, 8).unwrap();
        let q = KStarQuery::full(2, g.num_nodes());
        let cfg = KstarTmConfig { theta: Some(0), ..Default::default() };
        let mut rng = StarRng::from_seed(5);
        assert!(kstar_tm(&g, &q, 1.0, &cfg, &mut rng).is_err());
    }

    #[test]
    fn kstar_tm_noise_shrinks_with_epsilon() {
        let g = starj_graph::deezer_like(0.01, 9).unwrap();
        let q = KStarQuery::full(2, g.num_nodes());
        let cfg = KstarTmConfig::default();
        let theta = 4 * (g.avg_degree().ceil() as u32) + 1;
        let truncated = kstar_count(&g.truncate_degrees(theta), &q) as f64;
        let mad = |eps: f64| {
            let mut devs: Vec<f64> = (0..60)
                .map(|t| {
                    let mut r = StarRng::from_seed(6).derive_index(t);
                    (kstar_tm(&g, &q, eps, &cfg, &mut r).unwrap().0 - truncated).abs()
                })
                .collect();
            devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            devs[30]
        };
        assert!(mad(0.1) > 3.0 * mad(1.0), "noise must shrink as ε grows");
    }
}
