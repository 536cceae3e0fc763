//! The local-sensitivity output mechanism ("LS", paper §4).
//!
//! Two-phase strategy: (1) compute an upper bound on the local sensitivity
//! of the star-join counting query on the given instance — under
//! tuple-neighboring with FK cascade, that is the maximum number of
//! qualifying fact rows referencing any single private entity; (2) release
//! the true answer plus noise calibrated to a β-smooth upper bound
//! (Definition 3.5) so the release is differentially private:
//!
//! * **Cauchy variant** (pure ε-DP): `β = ε/(2(γ+1))`, noise
//!   `Cauchy_γ(2(γ+1)·SS/ε)`; the paper instantiates `γ = 4`, noise level
//!   `(10·SS/ε)²`.
//! * **Laplace variant** ((ε, δ)-DP): `β = ε/(2 ln(2/δ))`, noise
//!   `Lap(2·SS/ε)`.
//!
//! Local sensitivity at distance t grows by at most 1 per added fact tuple
//! and is capped by the declared global bound: `LS^(t) = min(LS + t, GS)`
//! (README, "Interpretations and substitutions", #9). SUM and GROUP BY
//! queries are rejected, matching Table 1's "Not supported" rows.

use crate::error::BaselineError;
use starj_engine::{contributions, Agg, StarQuery, StarSchema};
use starj_noise::smooth::{beta_cauchy, beta_laplace, smooth_bound_linear};
use starj_noise::{GeneralCauchy, Laplace, StarRng};

/// Which noise family calibrates the smooth bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LsVariant {
    /// General Cauchy with tail exponent γ (pure ε-DP). Paper uses γ = 4.
    Cauchy {
        /// Tail exponent γ ≥ 2.
        gamma: f64,
    },
    /// Laplace, yielding (ε, δ)-DP.
    Laplace {
        /// The δ of the (ε, δ) guarantee.
        delta: f64,
    },
}

/// How local sensitivity extrapolates with distance — the crux of the
/// paper's argument that smooth sensitivity "cannot support foreign key
/// constraints" (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsNeighboring {
    /// Tuple-level neighboring (Tao et al.'s setting): one step adds or
    /// removes a single fact tuple, so `LS^{(t)} = min(LS + t, cap)`.
    TupleLevel,
    /// FK-cascade neighboring (Definition 3.7): one step may introduce a
    /// dimension tuple together with *all* its referencing fact rows, so
    /// `LS^{(t ≥ 1)}` jumps to the declared bound and
    /// `SS = max(LS, e^{-β}·cap)`. This is what makes LS blow up with the
    /// declared `GS_Q` in Figure 6.
    FkCascade,
}

/// The LS mechanism configured for a set of private dimensions.
#[derive(Debug, Clone)]
pub struct LsMechanism {
    /// Noise variant.
    pub variant: LsVariant,
    /// Distance extrapolation model for `LS^{(t)}`.
    pub neighboring: LsNeighboring,
    /// Private dimension tables (entity identity = their fk combination).
    pub private_dims: Vec<String>,
    /// Declared global-sensitivity cap for `LS^{(t)}` (the Figure 6 knob).
    pub gs_cap: f64,
}

/// A released answer with its calibration diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct LsAnswer {
    /// The noisy query answer.
    pub value: f64,
    /// Local sensitivity on this instance (max entity contribution).
    pub local_sensitivity: f64,
    /// The β-smooth upper bound actually used for calibration.
    pub smooth_bound: f64,
}

impl LsMechanism {
    /// The paper's default configuration: Cauchy with γ = 4, tuple-level
    /// neighboring (Tao et al.'s own setting).
    pub fn cauchy(private_dims: Vec<String>, gs_cap: f64) -> Self {
        LsMechanism {
            variant: LsVariant::Cauchy { gamma: 4.0 },
            neighboring: LsNeighboring::TupleLevel,
            private_dims,
            gs_cap,
        }
    }

    /// Cauchy variant under FK-cascade neighboring — the configuration the
    /// Figure 6 experiment sweeps.
    pub fn cauchy_fk(private_dims: Vec<String>, gs_cap: f64) -> Self {
        LsMechanism { neighboring: LsNeighboring::FkCascade, ..Self::cauchy(private_dims, gs_cap) }
    }

    /// Answers a COUNT star-join query with smooth-sensitivity noise.
    pub fn answer(
        &self,
        schema: &StarSchema,
        query: &StarQuery,
        epsilon: f64,
        rng: &mut StarRng,
    ) -> Result<LsAnswer, BaselineError> {
        if !matches!(query.agg, Agg::Count) {
            return Err(BaselineError::NotSupported {
                mechanism: "LS",
                what: format!("non-COUNT query `{}`", query.name),
            });
        }
        if query.is_grouped() {
            return Err(BaselineError::NotSupported {
                mechanism: "LS",
                what: format!("GROUP BY query `{}`", query.name),
            });
        }
        if !(self.gs_cap.is_finite() && self.gs_cap > 0.0) {
            return Err(BaselineError::InvalidConfig(format!(
                "gs_cap must be positive, got {}",
                self.gs_cap
            )));
        }

        let contrib = contributions(schema, query, &self.private_dims)?;
        let ls = contrib.max();
        let cap = self.gs_cap.max(ls);
        let bound = |beta: f64| -> Result<f64, BaselineError> {
            Ok(match self.neighboring {
                LsNeighboring::TupleLevel => smooth_bound_linear(ls, 1.0, cap, beta)?,
                // One neighboring step reaches the declared worst case.
                LsNeighboring::FkCascade => ls.max((-beta).exp() * cap),
            })
        };

        let (smooth, noise) = match self.variant {
            LsVariant::Cauchy { gamma } => {
                let smooth = bound(beta_cauchy(epsilon, gamma)?)?;
                let dist = GeneralCauchy::for_smooth_sensitivity(smooth, epsilon, gamma)?;
                (smooth, dist.sample(rng))
            }
            LsVariant::Laplace { delta } => {
                let smooth = bound(beta_laplace(epsilon, delta)?)?;
                let lap = Laplace::new((2.0 * smooth / epsilon).max(f64::MIN_POSITIVE))?;
                (smooth, lap.sample(rng))
            }
        };
        Ok(LsAnswer { value: contrib.total + noise, local_sensitivity: ls, smooth_bound: smooth })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_ssb::{generate, qc1, qc3, qg2, qs2, SsbConfig};

    fn setup() -> StarSchema {
        generate(&SsbConfig { scale: 0.002, seed: 13, ..Default::default() }).unwrap()
    }

    fn mech() -> LsMechanism {
        LsMechanism::cauchy(vec!["Customer".into()], 1e6)
    }

    #[test]
    fn rejects_sum_and_groupby() {
        let s = setup();
        let mut rng = StarRng::from_seed(1);
        assert!(matches!(
            mech().answer(&s, &qs2(), 1.0, &mut rng),
            Err(BaselineError::NotSupported { .. })
        ));
        assert!(matches!(
            mech().answer(&s, &qg2(), 1.0, &mut rng),
            Err(BaselineError::NotSupported { .. })
        ));
    }

    #[test]
    fn answer_reports_instance_sensitivity() {
        let s = setup();
        let mut rng = StarRng::from_seed(2);
        let a = mech().answer(&s, &qc3(), 1.0, &mut rng).unwrap();
        assert!(a.local_sensitivity >= 1.0, "some customer qualifies");
        assert!(a.smooth_bound >= a.local_sensitivity, "smooth bound dominates LS");
        assert!(a.value.is_finite());
    }

    #[test]
    fn fk_cascade_noise_grows_with_gs_cap() {
        // Under FK-cascade neighboring the declared GS drives the smooth
        // bound — the Figure 6 effect.
        let s = setup();
        let truth = starj_engine::execute(&s, &qc1()).unwrap().scalar().unwrap();
        let mad = |cap: f64| {
            let m = LsMechanism::cauchy_fk(vec!["Customer".into()], cap);
            let mut rng = StarRng::from_seed(3);
            let mut devs: Vec<f64> = (0..300)
                .map(|_| (m.answer(&s, &qc1(), 0.5, &mut rng).unwrap().value - truth).abs())
                .collect();
            devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            devs[150]
        };
        let small = mad(1e3);
        let large = mad(1e7);
        assert!(large > 5.0 * small, "larger declared GS must mean more noise: {small} vs {large}");
    }

    #[test]
    fn tuple_level_bound_is_cap_insensitive() {
        // Tao et al.'s tuple-level model barely feels the cap at moderate ε —
        // which is why Table 1's LS errors stay bounded.
        let s = setup();
        let mut r1 = StarRng::from_seed(4);
        let mut r2 = StarRng::from_seed(4);
        let a = LsMechanism::cauchy(vec!["Customer".into()], 1e4)
            .answer(&s, &qc1(), 0.5, &mut r1)
            .unwrap();
        let b = LsMechanism::cauchy(vec!["Customer".into()], 1e8)
            .answer(&s, &qc1(), 0.5, &mut r2)
            .unwrap();
        assert!((a.smooth_bound - b.smooth_bound).abs() < 1e-9);
    }

    #[test]
    fn laplace_variant_works() {
        let s = setup();
        let m = LsMechanism {
            variant: LsVariant::Laplace { delta: 1e-6 },
            neighboring: LsNeighboring::TupleLevel,
            private_dims: vec!["Customer".into()],
            gs_cap: 1e5,
        };
        let mut rng = StarRng::from_seed(4);
        let a = m.answer(&s, &qc1(), 1.0, &mut rng).unwrap();
        assert!(a.value.is_finite());
        assert!(a.smooth_bound > 0.0);
    }

    #[test]
    fn invalid_cap_rejected() {
        let s = setup();
        let m = LsMechanism::cauchy(vec!["Customer".into()], 0.0);
        let mut rng = StarRng::from_seed(5);
        assert!(matches!(
            m.answer(&s, &qc1(), 1.0, &mut rng),
            Err(BaselineError::InvalidConfig(_))
        ));
    }
}
