//! The Predicate Mechanism (paper Algorithms 1 & 3).
//!
//! Given a star-join query `Q` with predicates on `n` dimension tables, PM:
//!
//! 1. extracts the per-dimension predicates (Phase 1, "Extract Predicates");
//! 2. perturbs each with PMA under budget `ε_i = ε/n` (Phase 2,
//!    "Perturbation Query") — multiple predicates on one table split that
//!    table's `ε_i` evenly (DESIGN.md interpretation #2);
//! 3. evaluates the noisy query exactly on the raw instance (Phase 3,
//!    "Answering Star-join Query").
//!
//! Because the noise enters through predicate constants whose global
//! sensitivity is the attribute domain size, the mechanism is ε-DP
//! (Theorems 5.2–5.4) regardless of foreign-key fanout, the property the
//! output-perturbation baselines lack. COUNT, SUM, SUM-diff, GROUP BY and
//! snowflake queries are all supported — GROUP BY perturbs only the
//! predicates, never the grouping attributes, per §5.3.

use crate::error::CoreError;
use crate::pma::{perturb_constraint, RangePolicy};
use starj_engine::{
    execute_with, Domain, Predicate, QueryResult, ScanOptions, StarQuery, StarSchema,
};
use starj_noise::StarRng;

/// How the query budget is split across predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSplit {
    /// `ε/n` per predicate-bearing table (the paper's Algorithm 1/3 rule);
    /// tables with several predicates split their share evenly.
    PerTable,
    /// `ε/p` per predicate, ignoring table grouping (ablation variant).
    PerPredicate,
}

/// PM configuration.
#[derive(Debug, Clone, Copy)]
pub struct PmConfig {
    /// Invalid-range handling in PMA.
    pub policy: RangePolicy,
    /// Budget split rule.
    pub split: BudgetSplit,
    /// Scan options for the answering pass (shard count, cost-model and
    /// probe knobs). Answers are bit-identical under any of them — DP
    /// semantics never depend on the kernel's plan shape.
    pub scan: ScanOptions,
}

impl Default for PmConfig {
    fn default() -> Self {
        PmConfig {
            policy: RangePolicy::default(),
            split: BudgetSplit::PerTable,
            scan: ScanOptions::default(),
        }
    }
}

/// A DP answer together with the noisy query that produced it.
#[derive(Debug, Clone)]
pub struct PmAnswer {
    /// The noisy result (scalar or groups).
    pub result: QueryResult,
    /// The perturbed query actually executed — exposing it makes the
    /// input-perturbation nature of PM auditable in experiments.
    pub noisy_query: StarQuery,
}

/// Resolves the domain of a predicate's attribute, looking through both
/// star dimensions and snowflake sub-dimensions.
pub(crate) fn resolve_domain<'a>(
    schema: &'a StarSchema,
    predicate: &Predicate,
) -> Result<&'a Domain, CoreError> {
    if let Ok(dim) = schema.dim(&predicate.table) {
        return dim.table.domain(&predicate.attr).map_err(Into::into);
    }
    if let Some((_, sub)) = schema.subdim(&predicate.table) {
        return sub.table.domain(&predicate.attr).map_err(Into::into);
    }
    Err(CoreError::Engine(starj_engine::EngineError::UnknownTable(predicate.table.clone())))
}

/// Produces the noisy query of Phase 2 without executing it.
pub fn perturb_query(
    schema: &StarSchema,
    query: &StarQuery,
    epsilon: f64,
    config: &PmConfig,
    rng: &mut StarRng,
) -> Result<StarQuery, CoreError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(CoreError::Invalid(format!("epsilon must be positive, got {epsilon}")));
    }
    if query.predicates.is_empty() {
        // No predicates means nothing private is touched by PM's noise model;
        // the query executes as-is (the paper's queries always filter).
        return Ok(query.clone());
    }

    let tables = query.predicate_tables();
    let per_pred_budget: Vec<f64> = match config.split {
        BudgetSplit::PerTable => {
            let eps_table = epsilon / tables.len() as f64;
            query
                .predicates
                .iter()
                .map(|p| {
                    let on_same_table =
                        query.predicates.iter().filter(|q| q.table == p.table).count();
                    eps_table / on_same_table as f64
                })
                .collect()
        }
        BudgetSplit::PerPredicate => {
            vec![epsilon / query.predicates.len() as f64; query.predicates.len()]
        }
    };

    let mut noisy = query.clone();
    for (pred, eps) in noisy.predicates.iter_mut().zip(per_pred_budget) {
        let domain = resolve_domain(schema, pred)?;
        pred.constraint = perturb_constraint(&pred.constraint, domain, eps, config.policy, rng)?;
    }
    Ok(noisy)
}

/// Algorithm 3 end-to-end: perturb the query, execute it, return the DP
/// answer (and the noisy query for inspection).
pub fn pm_answer(
    schema: &StarSchema,
    query: &StarQuery,
    epsilon: f64,
    config: &PmConfig,
    rng: &mut StarRng,
) -> Result<PmAnswer, CoreError> {
    let noisy_query = perturb_query(schema, query, epsilon, config, rng)?;
    let result = execute_with(schema, &noisy_query, config.scan)?;
    Ok(PmAnswer { result, noisy_query })
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::Constraint;
    use starj_ssb::{generate, generate_snowflake, qc1, qc3, qc4, qg2, qs3, qtc, SsbConfig};

    fn schema() -> StarSchema {
        generate(&SsbConfig { scale: 0.005, seed: 23, ..Default::default() }).unwrap()
    }

    #[test]
    fn rejects_nonpositive_epsilon() {
        let s = schema();
        let mut rng = StarRng::from_seed(1);
        assert!(pm_answer(&s, &qc1(), 0.0, &PmConfig::default(), &mut rng).is_err());
        assert!(pm_answer(&s, &qc1(), -1.0, &PmConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn noisy_query_keeps_structure() {
        let s = schema();
        let mut rng = StarRng::from_seed(2);
        let noisy = perturb_query(&s, &qc4(), 0.5, &PmConfig::default(), &mut rng).unwrap();
        assert_eq!(noisy.predicates.len(), qc4().predicates.len());
        assert_eq!(noisy.agg, qc4().agg);
        for (orig, pert) in qc4().predicates.iter().zip(&noisy.predicates) {
            assert_eq!(orig.table, pert.table);
            assert_eq!(orig.attr, pert.attr);
        }
    }

    #[test]
    fn per_table_split_matches_paper_counting() {
        // Qc3 touches 3 tables ⇒ ε_i = ε/3 each. We can't observe ε directly,
        // but with huge ε the perturbation must vanish, proving the plumbing
        // passes a positive budget everywhere.
        let s = schema();
        let mut rng = StarRng::from_seed(3);
        let noisy = perturb_query(&s, &qc3(), 1e9, &PmConfig::default(), &mut rng).unwrap();
        for (orig, pert) in qc3().predicates.iter().zip(&noisy.predicates) {
            match (&orig.constraint, &pert.constraint) {
                (Constraint::Point(a), Constraint::Point(b)) => {
                    assert!((i64::from(*a) - i64::from(*b)).abs() <= 1)
                }
                (Constraint::Range { lo: a, hi: b }, Constraint::Range { lo: c, hi: d }) => {
                    assert!((i64::from(*a) - i64::from(*c)).abs() <= 1);
                    assert!((i64::from(*b) - i64::from(*d)).abs() <= 1);
                }
                other => panic!("constraint shape changed: {other:?}"),
            }
        }
    }

    #[test]
    fn answer_error_shrinks_with_epsilon() {
        let s = schema();
        let truth = starj_engine::execute(&s, &qc1()).unwrap().scalar().unwrap();
        let mean_err = |eps: f64| {
            let mut acc = 0.0;
            let n = 60;
            for t in 0..n {
                let mut rng = StarRng::from_seed(100).derive_index(t);
                let a = pm_answer(&s, &qc1(), eps, &PmConfig::default(), &mut rng).unwrap();
                acc += (a.result.scalar().unwrap() - truth).abs() / truth;
            }
            acc / n as f64
        };
        let loose = mean_err(0.05);
        let tight = mean_err(5.0);
        assert!(
            tight < loose,
            "error must shrink as ε grows: ε=0.05 → {loose:.3}, ε=5 → {tight:.3}"
        );
        assert!(tight < 0.6, "PM at ε=5 should be accurate, got {tight:.3}");
    }

    #[test]
    fn group_by_perturbs_predicates_only() {
        let s = schema();
        let mut rng = StarRng::from_seed(4);
        let noisy = perturb_query(&s, &qg2(), 0.5, &PmConfig::default(), &mut rng).unwrap();
        assert_eq!(noisy.group_by, qg2().group_by, "grouping attributes untouched");
        let ans = pm_answer(&s, &qg2(), 1.0, &PmConfig::default(), &mut rng).unwrap();
        assert!(ans.result.groups().is_ok(), "grouped query yields groups");
    }

    #[test]
    fn sum_queries_supported() {
        let s = schema();
        let mut rng = StarRng::from_seed(5);
        let ans = pm_answer(&s, &qs3(), 1.0, &PmConfig::default(), &mut rng).unwrap();
        assert!(ans.result.scalar().unwrap() >= 0.0);
    }

    #[test]
    fn snowflake_queries_supported() {
        let snow = generate_snowflake(&SsbConfig { scale: 0.002, seed: 29, ..Default::default() })
            .unwrap();
        let mut rng = StarRng::from_seed(6);
        let ans = pm_answer(&snow, &qtc(), 1.0, &PmConfig::default(), &mut rng).unwrap();
        assert!(ans.result.scalar().unwrap() >= 0.0);
        // The Month predicate must have been perturbed within its 12-domain.
        let month_pred = ans
            .noisy_query
            .predicates
            .iter()
            .find(|p| p.table == "Month")
            .expect("Month predicate survives");
        if let Constraint::Range { lo, hi } = &month_pred.constraint {
            assert!(*lo <= *hi && *hi < 12);
        } else {
            panic!("month constraint should stay a range");
        }
    }

    #[test]
    fn per_predicate_split_also_works() {
        let s = schema();
        let cfg = PmConfig { split: BudgetSplit::PerPredicate, ..Default::default() };
        let mut rng = StarRng::from_seed(7);
        let ans = pm_answer(&s, &qc3(), 1.0, &cfg, &mut rng).unwrap();
        assert!(ans.result.scalar().unwrap() >= 0.0);
    }

    #[test]
    fn no_predicate_query_passes_through() {
        let s = schema();
        let q = StarQuery::count("all");
        let mut rng = StarRng::from_seed(8);
        let ans = pm_answer(&s, &q, 1.0, &PmConfig::default(), &mut rng).unwrap();
        assert_eq!(ans.result.scalar().unwrap(), s.fact().num_rows() as f64);
    }

    #[test]
    fn determinism_under_seed() {
        let s = schema();
        let run = || {
            let mut rng = StarRng::from_seed(99);
            pm_answer(&s, &qc3(), 0.3, &PmConfig::default(), &mut rng)
                .unwrap()
                .result
                .scalar()
                .unwrap()
        };
        assert_eq!(run(), run());
    }
}
