//! Race-to-the-Top (R2T, Dong et al., paper §4 Eq. 9).
//!
//! For geometrically increasing truncation thresholds `τ(j) = base^j`,
//! `j = 1..log(GS)`, release
//!
//! ```text
//! Q̂(D, τ(j)) = Q(D, τ(j)) + Lap(log(GS)·τ(j)/ε) − log(GS)·ln(log(GS)/α)·τ(j)/ε
//! ```
//!
//! and output `max{ max_j Q̂(D, τ(j)), Q(D, 0) }` (`Q(D,0) = 0`). The
//! truncated query `Q(D, τ)` caps every private entity's contribution at τ:
//! SSB star-joins have no self-join, so per-entity capping suffices and no
//! LP is needed (the paper notes LP-based truncation is only required with
//! self-joins); the k-star variant caps each *center's* star count — the
//! non-LP surrogate listed in the README, "Interpretations and
//! substitutions", #6.

use crate::error::BaselineError;
use starj_engine::{contributions, StarQuery, StarSchema};
use starj_graph::{binomial, Graph, KStarQuery};
use starj_noise::{Laplace, StarRng};

/// R2T configuration.
#[derive(Debug, Clone)]
pub struct R2tConfig {
    /// Declared global sensitivity bound `GS_Q` (sets the τ grid and the
    /// log(GS) noise factor — the paper's Figure 6 knob).
    pub gs: f64,
    /// Failure probability α of the utility guarantee.
    pub alpha: f64,
    /// Geometric base of the τ grid (the paper uses 2; the ablation bench
    /// sweeps this).
    pub base: f64,
    /// Private dimension tables (star-join variant only).
    pub private_dims: Vec<String>,
}

impl R2tConfig {
    /// The paper's default: base-2 grid, α = 0.1.
    pub fn new(gs: f64, private_dims: Vec<String>) -> Self {
        R2tConfig { gs, alpha: 0.1, base: 2.0, private_dims }
    }

    fn validate(&self) -> Result<(), BaselineError> {
        if !(self.gs.is_finite() && self.gs >= 2.0) {
            return Err(BaselineError::InvalidConfig(format!("gs must be ≥ 2, got {}", self.gs)));
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(BaselineError::InvalidConfig(format!(
                "alpha must be in (0,1), got {}",
                self.alpha
            )));
        }
        if !(self.base > 1.0 && self.base.is_finite()) {
            return Err(BaselineError::InvalidConfig(format!(
                "base must be > 1, got {}",
                self.base
            )));
        }
        Ok(())
    }
}

/// A released R2T answer with the winning threshold.
#[derive(Debug, Clone, Copy)]
pub struct R2tAnswer {
    /// The released (max-of-candidates) value.
    pub value: f64,
    /// The τ whose candidate won (0 when `Q(D,0)` won).
    pub chosen_tau: f64,
    /// Number of thresholds tried.
    pub num_thresholds: usize,
}

/// Core R2T race over a per-entity contribution profile.
fn race(
    mut truncated_q: impl FnMut(f64) -> f64,
    epsilon: f64,
    cfg: &R2tConfig,
    rng: &mut StarRng,
) -> Result<R2tAnswer, BaselineError> {
    cfg.validate()?;
    let log_gs = cfg.gs.log2().max(1.0);
    let num_j = cfg.gs.log(cfg.base).ceil() as usize;
    let penalty_factor = log_gs * (log_gs / cfg.alpha).ln().max(0.0) / epsilon;

    let mut best = 0.0_f64; // Q(D, 0) = 0.
    let mut best_tau = 0.0_f64;
    for j in 1..=num_j {
        let tau = cfg.base.powi(j as i32).min(cfg.gs);
        let q_tau = truncated_q(tau);
        let lap = Laplace::new((log_gs * tau / epsilon).max(f64::MIN_POSITIVE))?;
        let candidate = q_tau + lap.sample(rng) - penalty_factor * tau;
        if candidate > best {
            best = candidate;
            best_tau = tau;
        }
        if tau >= cfg.gs {
            break;
        }
    }
    Ok(R2tAnswer { value: best, chosen_tau: best_tau, num_thresholds: num_j })
}

/// R2T for star-join COUNT/SUM queries. GROUP BY is rejected — the paper
/// marks it "a future work" of R2T's authors.
pub fn r2t_answer(
    schema: &StarSchema,
    query: &StarQuery,
    epsilon: f64,
    cfg: &R2tConfig,
    rng: &mut StarRng,
) -> Result<R2tAnswer, BaselineError> {
    if query.is_grouped() {
        return Err(BaselineError::NotSupported {
            mechanism: "R2T",
            what: format!("GROUP BY query `{}`", query.name),
        });
    }
    let contrib = contributions(schema, query, &cfg.private_dims)?;
    // Sort once, answer every τ by prefix sums over the sorted profile.
    let mut values: Vec<f64> = contrib.per_entity.values().copied().collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("contributions are finite"));
    let prefix: Vec<f64> = values
        .iter()
        .scan(0.0, |acc, v| {
            *acc += v;
            Some(*acc)
        })
        .collect();
    let truncated = |tau: f64| -> f64 {
        // Entities with contribution ≤ τ keep their value; larger ones give τ.
        let idx = values.partition_point(|v| *v <= tau);
        let small = if idx > 0 { prefix[idx - 1] } else { 0.0 };
        small + (values.len() - idx) as f64 * tau
    };
    race(truncated, epsilon, cfg, rng)
}

/// R2T for k-star counting: per-center star counts are the contributions.
pub fn kstar_r2t(
    graph: &Graph,
    query: &KStarQuery,
    epsilon: f64,
    cfg: &R2tConfig,
    rng: &mut StarRng,
) -> Result<R2tAnswer, BaselineError> {
    let hi = query.hi.min(graph.num_nodes().saturating_sub(1));
    let mut values: Vec<f64> = (query.lo..=hi)
        .map(|v| binomial(u64::from(graph.degree(v)), query.k) as f64)
        .filter(|c| *c > 0.0)
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let prefix: Vec<f64> = values
        .iter()
        .scan(0.0, |acc, v| {
            *acc += v;
            Some(*acc)
        })
        .collect();
    let truncated = |tau: f64| -> f64 {
        let idx = values.partition_point(|v| *v <= tau);
        let small = if idx > 0 { prefix[idx - 1] } else { 0.0 };
        small + (values.len() - idx) as f64 * tau
    };
    race(truncated, epsilon, cfg, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::execute;
    use starj_ssb::{generate, qc1, qc3, qg2, SsbConfig};

    /// R2T's penalty term scales with log(GS)·τ*, so a meaningfully sized
    /// instance is needed for the mechanism to release anything above 0.
    fn setup() -> StarSchema {
        generate(&SsbConfig { scale: 0.01, seed: 21, ..Default::default() }).unwrap()
    }

    fn cfg() -> R2tConfig {
        R2tConfig::new(1e5, vec!["Customer".into()])
    }

    #[test]
    fn config_validation() {
        let mut c = cfg();
        c.gs = 1.0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.alpha = 0.0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.base = 1.0;
        assert!(c.validate().is_err());
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn groupby_not_supported() {
        let s = setup();
        let mut rng = StarRng::from_seed(1);
        assert!(matches!(
            r2t_answer(&s, &qg2(), 1.0, &cfg(), &mut rng),
            Err(BaselineError::NotSupported { .. })
        ));
    }

    #[test]
    fn answer_is_nonnegative_and_in_ballpark() {
        let s = setup();
        let truth = execute(&s, &qc1()).unwrap().scalar().unwrap();
        let rng = StarRng::from_seed(2);
        let mut errs = Vec::new();
        for t in 0..30 {
            let mut r = rng.derive_index(t);
            let a = r2t_answer(&s, &qc1(), 1.0, &cfg(), &mut r).unwrap();
            assert!(a.value >= 0.0, "release is max with Q(D,0)=0");
            errs.push((a.value - truth).abs() / truth);
        }
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // R2T at ε=1 on a well-behaved count should usually land within ~80 %.
        assert!(errs[15] < 0.8, "median relative error too large: {}", errs[15]);
    }

    #[test]
    fn truncated_query_matches_manual_capping() {
        // Verify the prefix-sum truncation against the direct formula exposed
        // by Contributions::truncated_total.
        let s = setup();
        let contrib = starj_engine::contributions(&s, &qc3(), &["Customer".to_string()]).unwrap();
        let mut values: Vec<f64> = contrib.per_entity.values().copied().collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for tau in [0.5, 1.0, 3.0, 100.0] {
            let direct = contrib.truncated_total(tau);
            let via_sorted: f64 = values.iter().map(|v| v.min(tau)).sum();
            assert!((direct - via_sorted).abs() < 1e-9);
        }
    }

    #[test]
    fn larger_gs_means_worse_utility() {
        let s = setup();
        let truth = execute(&s, &qc1()).unwrap().scalar().unwrap();
        let mad = |gs: f64| {
            let c = R2tConfig::new(gs, vec!["Customer".into()]);
            let mut devs: Vec<f64> = (0..60)
                .map(|t| {
                    let mut r = StarRng::from_seed(7).derive_index(t);
                    (r2t_answer(&s, &qc1(), 1.0, &c, &mut r).unwrap().value - truth).abs()
                })
                .collect();
            devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            devs[30]
        };
        assert!(mad(1e8) > mad(1e3), "log(GS) factors must hurt utility");
    }

    #[test]
    fn kstar_variant_runs_and_is_sane() {
        let g = starj_graph::deezer_like(0.01, 3).unwrap();
        let q = KStarQuery::full(2, g.num_nodes());
        let truth = starj_graph::kstar_count(&g, &q) as f64;
        let c = R2tConfig::new(1e9, vec![]);
        let mut errs = Vec::new();
        for t in 0..20 {
            let mut r = StarRng::from_seed(11).derive_index(t);
            let a = kstar_r2t(&g, &q, 1.0, &c, &mut r).unwrap();
            assert!(a.value >= 0.0);
            errs.push((a.value - truth).abs() / truth);
        }
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(errs[10] < 1.0, "median error {} too large", errs[10]);
    }
}
