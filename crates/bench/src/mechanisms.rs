//! The star-join mechanisms the paper compares, behind one [`Mech::run`]
//! that returns the relative error against the exact answer plus the
//! wall-clock time, and holds the support matrix once.

use dp_starj::pm::{pm_answer, PmConfig};
use starj_baselines::{r2t_answer, LsMechanism, R2tConfig};
use starj_engine::{execute, Agg, QueryResult, StarQuery, StarSchema};
use starj_noise::StarRng;
use std::time::Instant;

/// One mechanism invocation: relative error + elapsed seconds, or the reason
/// the mechanism is inapplicable (the paper's "Not supported" cells).
#[derive(Debug, Clone)]
pub enum MechOutcome {
    /// Mechanism ran; relative error and wall-clock seconds.
    Ran {
        /// Relative error against the exact answer.
        rel_err: f64,
        /// Wall-clock seconds of the mechanism call.
        secs: f64,
    },
    /// Mechanism does not support this query shape (Table 2 also reports a
    /// cell over its time limit this way).
    NotSupported,
}

impl MechOutcome {
    /// Runs `f`, which returns a relative error, and times it.
    pub fn timed(f: impl FnOnce() -> f64) -> Self {
        let start = Instant::now();
        let rel_err = f();
        MechOutcome::Ran { rel_err, secs: start.elapsed().as_secs_f64() }
    }
}

/// Exact answer for error measurement.
pub fn truth(schema: &StarSchema, query: &StarQuery) -> QueryResult {
    execute(schema, query).expect("exact query must run")
}

/// A mechanism answering star-join queries.
#[derive(Debug, Clone, Copy)]
pub enum Mech {
    /// PM (DP-starJ): every star-join query.
    Pm,
    /// R2T with declared global sensitivity `gs`: COUNT and SUM.
    R2t {
        /// Declared global sensitivity bound.
        gs: f64,
    },
    /// Cauchy local sensitivity capped at `cap`: COUNT only.
    Ls {
        /// Global bound capping the local sensitivity at distance t.
        cap: f64,
        /// FK-cascade neighbouring: the cap is reachable in one step.
        fk_cascade: bool,
    },
}

/// Table 1's line-up: PM, R2T with declared `GS = 10⁵`, and LS capped at
/// 10⁶ (also Figures 4, 8 and 10).
pub const MECHS: [Mech; 3] =
    [Mech::Pm, Mech::R2t { gs: 1e5 }, Mech::Ls { cap: 1e6, fk_cascade: false }];

impl Mech {
    /// The mechanism's column label (also part of every RNG derive tag).
    pub fn name(&self) -> &'static str {
        match self {
            Mech::Pm => "PM",
            Mech::R2t { .. } => "R2T",
            Mech::Ls { .. } => "LS",
        }
    }

    /// Answers `query` once and scores it against `truth`; the baselines
    /// protect `private_dims`. `NotSupported` for R2T on GROUP BY and for LS
    /// on anything but a scalar COUNT.
    pub fn run(
        &self,
        schema: &StarSchema,
        query: &StarQuery,
        truth: &QueryResult,
        epsilon: f64,
        private_dims: &[String],
        rng: &mut StarRng,
    ) -> MechOutcome {
        let supported = match self {
            Mech::Pm => true,
            Mech::R2t { .. } => !query.is_grouped(),
            Mech::Ls { .. } => !query.is_grouped() && matches!(query.agg, Agg::Count),
        };
        if !supported {
            return MechOutcome::NotSupported;
        }
        MechOutcome::timed(|| {
            let answer = match *self {
                Mech::Pm => {
                    pm_answer(schema, query, epsilon, &PmConfig::default(), rng)
                        .expect("PM supports all star-join queries")
                        .result
                }
                Mech::R2t { gs } => {
                    let cfg = R2tConfig::new(gs, private_dims.to_vec());
                    let ans = r2t_answer(schema, query, epsilon, &cfg, rng);
                    QueryResult::Scalar(ans.expect("R2T supports scalar aggregates").value)
                }
                Mech::Ls { cap, fk_cascade } => {
                    let ls = if fk_cascade { LsMechanism::cauchy_fk } else { LsMechanism::cauchy };
                    let ans = ls(private_dims.to_vec(), cap).answer(schema, query, epsilon, rng);
                    QueryResult::Scalar(ans.expect("LS supports COUNT").value)
                }
            };
            // Positional group comparison: the paper's GROUP BY metric is
            // insensitive to key relabelling (README, "Interpretations and
            // substitutions", #8). Scalars score `|x̂ − x| / max(|x|, 1)`.
            answer.positional_relative_error(truth)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_ssb::{generate, qc3, qg2, qs3, SsbConfig};

    #[test]
    fn support_matrix_matches_table1() {
        let s = generate(&SsbConfig { scale: 0.002, seed: 77, ..Default::default() }).unwrap();
        let mut rng = StarRng::from_seed(1);
        let dims = ["Customer".to_string()];
        // PM runs on everything, R2T on COUNT + SUM, LS on COUNT only.
        for (q, supports) in
            [(qc3(), [true; 3]), (qs3(), [true, true, false]), (qg2(), [true, false, false])]
        {
            let t = truth(&s, &q);
            for (mech, supported) in MECHS.into_iter().zip(supports) {
                let ran =
                    matches!(mech.run(&s, &q, &t, 1.0, &dims, &mut rng), MechOutcome::Ran { .. });
                assert_eq!(ran, supported, "{} on {}", mech.name(), q.name);
            }
        }
    }
}
