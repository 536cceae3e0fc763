//! Workload Decomposition (WD) — paper Algorithm 4 and Definition 5.1.
//!
//! A workload `L = {Q_1 … Q_l}` of star-join counting queries over shared
//! attribute blocks is one-hot encoded into per-block predicate matrices
//! `P_i` (`l × m_i`). For each block:
//!
//! 1. choose a strategy matrix `A_i` whose rows are *valid PM predicates*
//!    (points / contiguous ranges) spanning the block's workload rows;
//! 2. compute the decomposition `X_i = P_i · A_i⁺` (the consistent reading
//!    of Definition 5.1's `M = XA`; see DESIGN.md interpretation #3);
//! 3. perturb every strategy row with PMA under the block budget
//!    `ε_i = ε/n` split across the block's strategy rows;
//! 4. reconstruct the noisy predicate matrix `P̂_i = X_i · Â_i`.
//!
//! Reconstructed rows are real-valued, so queries are answered through the
//! engine's weighted execution (`Q = Φ̂·W`, paper Eq. 11). The PM-per-query
//! baseline answers each query independently under sequential composition
//! (`ε/l` per query), which is what WD's strategy reuse beats in Figure 9.

use crate::error::CoreError;
use crate::pm::{perturb_query, PmConfig};
use crate::pma::{perturb_constraint, RangePolicy};
use starj_engine::{
    execute_batch_with, execute_weighted_batch_with, Agg, Constraint, Predicate, ScanOptions,
    StarQuery, StarSchema, WeightHistogram, WeightedPredicate, WeightedQuery,
};
use starj_linalg::{build_strategy, pinv, Mat, StrategyKind};
use starj_noise::StarRng;

/// An attribute block shared by every query of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadBlock {
    /// Dimension table name.
    pub table: String,
    /// Attribute column name.
    pub attr: String,
    /// Attribute domain size `m_i`.
    pub domain: u32,
}

/// A workload of counting queries: one constraint per block per query.
#[derive(Debug, Clone)]
pub struct PredicateWorkload {
    /// The shared blocks, in column order.
    pub blocks: Vec<WorkloadBlock>,
    /// `rows[q][i]` = query `q`'s constraint on block `i`.
    pub rows: Vec<Vec<Constraint>>,
}

impl PredicateWorkload {
    /// Builds and validates a workload (every row must constrain every block
    /// within its domain).
    pub fn new(blocks: Vec<WorkloadBlock>, rows: Vec<Vec<Constraint>>) -> Result<Self, CoreError> {
        if blocks.is_empty() || rows.is_empty() {
            return Err(CoreError::Invalid("workload needs blocks and rows".into()));
        }
        for (q, row) in rows.iter().enumerate() {
            if row.len() != blocks.len() {
                return Err(CoreError::Invalid(format!(
                    "workload row {q} has {} constraints, expected {}",
                    row.len(),
                    blocks.len()
                )));
            }
        }
        Ok(PredicateWorkload { blocks, rows })
    }

    /// Number of queries `l`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no queries (not constructible).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `l × m_i` one-hot predicate matrix of block `i`.
    pub fn predicate_matrix(&self, block: usize) -> Result<Mat, CoreError> {
        let m = self.blocks[block].domain;
        let rows: Vec<Vec<f64>> = self.rows.iter().map(|r| r[block].to_indicator(m)).collect();
        Mat::from_rows(&rows).map_err(Into::into)
    }

    /// Executable COUNT star queries.
    pub fn to_star_queries(&self) -> Vec<StarQuery> {
        self.rows
            .iter()
            .enumerate()
            .map(|(qi, row)| {
                let mut q = StarQuery::count(format!("w{qi}"));
                for (b, c) in self.blocks.iter().zip(row) {
                    q = q.with(Predicate {
                        table: b.table.clone(),
                        attr: b.attr.clone(),
                        constraint: c.clone(),
                    });
                }
                q
            })
            .collect()
    }

    /// The distinct dimension tables the workload's blocks constrain, in
    /// first-appearance order — the ownership surface a multi-schema router
    /// inspects to decide which dataset shard a workload belongs to.
    pub fn tables(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for b in &self.blocks {
            if !seen.contains(&b.table.as_str()) {
                seen.push(b.table.as_str());
            }
        }
        seen
    }

    /// Exact (non-private) answers, for error measurement.
    pub fn true_answers(&self, schema: &StarSchema) -> Result<Vec<f64>, CoreError> {
        self.to_star_queries()
            .iter()
            .map(|q| Ok(starj_engine::execute(schema, q)?.scalar()?))
            .collect()
    }

    /// Picks a strategy per block:
    ///
    /// * all `[0, i]` prefixes → [`StrategyKind::Prefixes`] (one strategy row
    ///   answers each cumulative query, the paper's `W2` shape);
    /// * point-dominated blocks (mean constraint width ≤ 2) →
    ///   [`StrategyKind::Identity`] — fragmenting the budget over dyadic rows
    ///   would cost more than the range reuse saves (the paper's `W1` shape);
    /// * otherwise → [`StrategyKind::DyadicRanges`] for wide-range workloads.
    pub fn choose_strategies(&self) -> Vec<StrategyKind> {
        (0..self.blocks.len())
            .map(|b| {
                let all_prefixes = self.rows.iter().all(|r| match &r[b] {
                    Constraint::Point(v) => *v == 0,
                    Constraint::Range { lo, .. } => *lo == 0,
                    Constraint::Set(_) => false,
                });
                if all_prefixes && self.rows.iter().any(|r| !matches!(r[b], Constraint::Point(_))) {
                    return StrategyKind::Prefixes;
                }
                let mean_width: f64 = self
                    .rows
                    .iter()
                    .map(|r| match &r[b] {
                        Constraint::Point(_) => 1.0,
                        Constraint::Range { lo, hi } => f64::from(hi - lo + 1),
                        Constraint::Set(vs) => vs.len() as f64,
                    })
                    .sum::<f64>()
                    / self.rows.len() as f64;
                if mean_width <= 2.0 {
                    StrategyKind::Identity
                } else {
                    StrategyKind::DyadicRanges
                }
            })
            .collect()
    }
}

/// Budget accounting for strategy-row perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WdAccounting {
    /// Algorithm 4 verbatim: every strategy row of block `i` is perturbed
    /// with the full block budget `ε_i = ε/n` (line 6 passes `ε_i` to PMA
    /// unchanged). This is what reproduces Figure 9's clear WD-over-PM gap.
    PaperLiteral,
    /// Conservative sequential composition: block budget `ε_i` split evenly
    /// across the block's strategy rows.
    StrictComposition,
}

/// WD configuration.
#[derive(Debug, Clone)]
pub struct WdConfig {
    /// Per-block strategy override; `None` auto-selects via
    /// [`PredicateWorkload::choose_strategies`].
    pub strategies: Option<Vec<StrategyKind>>,
    /// Invalid-range policy for PMA on strategy rows.
    pub policy: RangePolicy,
    /// Budget accounting rule (default: the paper's).
    pub accounting: WdAccounting,
    /// Scan options for the fused answering pass (shard count, cost-model
    /// and probe knobs); answers are bit-identical under any of them.
    pub scan: ScanOptions,
}

impl Default for WdConfig {
    fn default() -> Self {
        WdConfig {
            strategies: None,
            policy: RangePolicy::default(),
            accounting: WdAccounting::PaperLiteral,
            scan: ScanOptions::default(),
        }
    }
}

/// The private half of Workload Decomposition (Algorithm 4 lines 1–7):
/// chooses strategies, perturbs every strategy row under the block budgets,
/// and reconstructs the noisy predicate matrices — returning one
/// real-valued [`WeightedQuery`] per workload row, ready to be *answered*
/// by any post-processing path (a fused scan, or a reusable
/// [`WeightHistogram`]). Consumes exactly the RNG draws [`wd_answer`]
/// consumes, in the same order.
pub fn wd_reconstruct(
    schema: &StarSchema,
    workload: &PredicateWorkload,
    epsilon: f64,
    config: &WdConfig,
    rng: &mut StarRng,
) -> Result<Vec<WeightedQuery>, CoreError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(CoreError::Invalid(format!("epsilon must be positive, got {epsilon}")));
    }
    // The blocks must resolve against the schema before any noise is drawn
    // (the answering pass is detachable now, so it can no longer be relied
    // on to surface unknown tables or domain mismatches).
    for block in &workload.blocks {
        let declared = schema.dim(&block.table)?.table.domain(&block.attr)?.size();
        if declared != block.domain {
            return Err(CoreError::Invalid(format!(
                "workload block `{}.{}` declares domain size {}, schema has {declared}",
                block.table, block.attr, block.domain
            )));
        }
    }
    let n_blocks = workload.blocks.len();
    let strategies = match &config.strategies {
        Some(s) if s.len() != n_blocks => {
            return Err(CoreError::Invalid(format!(
                "{} strategy overrides for {} blocks",
                s.len(),
                n_blocks
            )))
        }
        Some(s) => s.clone(),
        None => workload.choose_strategies(),
    };
    let eps_block = epsilon / n_blocks as f64;

    // Per block: noisy reconstructed predicate matrix P̂_i (l × m_i).
    let mut noisy_blocks: Vec<Mat> = Vec::with_capacity(n_blocks);
    for (bi, block) in workload.blocks.iter().enumerate() {
        let p_i = workload.predicate_matrix(bi)?;
        let strategy = build_strategy(strategies[bi], block.domain)?;
        let a_pinv = pinv(&strategy.matrix)?;
        let x_i = p_i.matmul(&a_pinv)?;

        // Perturb each strategy row (a contiguous range) with PMA under the
        // configured accounting rule.
        let eps_row = match config.accounting {
            WdAccounting::PaperLiteral => eps_block,
            WdAccounting::StrictComposition => eps_block / strategy.num_rows() as f64,
        };
        let domain = starj_engine::Domain::numeric(&block.attr, block.domain)?;
        let noisy_rows: Vec<Vec<f64>> = strategy
            .ranges
            .iter()
            .map(|&(lo, hi)| {
                let constraint =
                    if lo == hi { Constraint::Point(lo) } else { Constraint::Range { lo, hi } };
                let noisy = perturb_constraint(&constraint, &domain, eps_row, config.policy, rng)?;
                Ok(noisy.to_indicator(block.domain))
            })
            .collect::<Result<_, CoreError>>()?;
        let a_hat = Mat::from_rows(&noisy_rows)?;
        noisy_blocks.push(x_i.matmul(&a_hat)?);
    }

    Ok((0..workload.len())
        .map(|qi| {
            let predicates: Vec<WeightedPredicate> = workload
                .blocks
                .iter()
                .enumerate()
                .map(|(bi, b)| {
                    WeightedPredicate::new(
                        b.table.clone(),
                        b.attr.clone(),
                        noisy_blocks[bi].row(qi).to_vec(),
                    )
                })
                .collect();
            WeightedQuery { predicates, agg: Agg::Count }
        })
        .collect())
}

/// Answers the workload with Workload Decomposition (Algorithm 4): the
/// private reconstruction of [`wd_reconstruct`], then every query's noisy
/// weighted predicates answered through ONE fused fact scan instead of `l`
/// separate scans — the noisy blocks are already fixed, so answering is a
/// pure (non-private) batch evaluation.
pub fn wd_answer(
    schema: &StarSchema,
    workload: &PredicateWorkload,
    epsilon: f64,
    config: &WdConfig,
    rng: &mut StarRng,
) -> Result<Vec<f64>, CoreError> {
    let batch = wd_reconstruct(schema, workload, epsilon, config, rng)?;
    execute_weighted_batch_with(schema, &batch, config.scan).map_err(Into::into)
}

/// The workload's weighted axes — its blocks as `(table, attr)` pairs, the
/// key shape [`WeightHistogram`] caches are addressed by.
pub fn workload_axes(workload: &PredicateWorkload) -> Vec<(String, String)> {
    workload.blocks.iter().map(|b| (b.table.clone(), b.attr.clone())).collect()
}

/// Builds the reusable joint attribute-code histogram `W` covering the
/// workload's blocks (one fact scan). The histogram depends only on the
/// data, never on the queries or their noise, so it can be built once and
/// shared across any number of [`wd_answer_with_histogram`] calls — and
/// across *workloads*, as long as the block set matches.
pub fn workload_histogram(
    schema: &StarSchema,
    workload: &PredicateWorkload,
    scan: ScanOptions,
) -> Result<WeightHistogram, CoreError> {
    WeightHistogram::build(schema, &workload_axes(workload), &Agg::Count, scan).map_err(Into::into)
}

/// [`wd_answer`], but the answering pass reuses a prebuilt
/// [`WeightHistogram`] instead of scanning: each reconstructed row reduces
/// to the scan-free dot product `Φ̂·W`. The perturbation (the only private
/// step) is identical draw-for-draw, and the dot product reproduces the
/// fused scan's arithmetic exactly, so for a fixed seed the answers are
/// bit-identical to [`wd_answer`] whenever the workload's joint code space
/// fits the engine's dense cap.
pub fn wd_answer_with_histogram(
    schema: &StarSchema,
    workload: &PredicateWorkload,
    epsilon: f64,
    config: &WdConfig,
    rng: &mut StarRng,
    histogram: &WeightHistogram,
) -> Result<Vec<f64>, CoreError> {
    let batch = wd_reconstruct(schema, workload, epsilon, config, rng)?;
    batch.iter().map(|q| histogram.answer(&q.predicates, &q.agg).map_err(Into::into)).collect()
}

/// The PM-per-query workload baseline: each query is perturbed
/// independently by Algorithm 3 under sequential composition (`ε/l` per
/// query) — the DP semantics and per-query RNG draw order are exactly the
/// legacy per-query loop's — but all `l` noisy queries are then *answered*
/// in one fused fact scan (answering a fixed noisy query is post-processing
/// and spends no budget, so fusing it is privacy-free).
pub fn pm_workload_answer(
    schema: &StarSchema,
    workload: &PredicateWorkload,
    epsilon: f64,
    config: &PmConfig,
    rng: &mut StarRng,
) -> Result<Vec<f64>, CoreError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(CoreError::Invalid(format!("epsilon must be positive, got {epsilon}")));
    }
    let eps_query = epsilon / workload.len() as f64;
    // Phase 1: perturb every query, consuming RNG draws in workload order
    // (identical to the draw sequence of the per-query loop this replaces).
    let noisy: Vec<StarQuery> = workload
        .to_star_queries()
        .iter()
        .map(|q| perturb_query(schema, q, eps_query, config, rng))
        .collect::<Result<_, _>>()?;
    // Phase 2: one fused scan answers all noisy queries.
    execute_batch_with(schema, &noisy, config.scan)?
        .into_iter()
        .map(|r| r.scalar().map_err(Into::into))
        .collect()
}

/// Mean relative error of workload answers against the exact answers.
pub fn workload_relative_error(answers: &[f64], truth: &[f64]) -> f64 {
    debug_assert_eq!(answers.len(), truth.len());
    let errs: f64 = answers.iter().zip(truth).map(|(a, t)| (a - t).abs() / t.abs().max(1.0)).sum();
    errs / truth.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_ssb::{generate, SsbConfig, BLOCKS};

    fn schema() -> StarSchema {
        generate(&SsbConfig { scale: 0.005, seed: 41, ..Default::default() }).unwrap()
    }

    /// Adapts the paper's W1/W2 (defined in starj-ssb) to the core type.
    fn adapt(w: &starj_ssb::Workload) -> PredicateWorkload {
        let blocks = BLOCKS
            .iter()
            .map(|(t, a, d)| WorkloadBlock { table: (*t).into(), attr: (*a).into(), domain: *d })
            .collect();
        let rows = w
            .queries
            .iter()
            .map(|q| vec![q.year.clone(), q.cust_region.clone(), q.supp_region.clone()])
            .collect();
        PredicateWorkload::new(blocks, rows).unwrap()
    }

    #[test]
    fn validation_rejects_ragged_workloads() {
        let blocks = vec![WorkloadBlock { table: "Date".into(), attr: "year".into(), domain: 7 }];
        assert!(PredicateWorkload::new(blocks.clone(), vec![]).is_err());
        assert!(PredicateWorkload::new(
            blocks,
            vec![vec![Constraint::Point(0), Constraint::Point(1)]]
        )
        .is_err());
    }

    #[test]
    fn tables_deduplicate_in_first_appearance_order() {
        let blocks = vec![
            WorkloadBlock { table: "Date".into(), attr: "year".into(), domain: 7 },
            WorkloadBlock { table: "Customer".into(), attr: "region".into(), domain: 5 },
            WorkloadBlock { table: "Date".into(), attr: "month".into(), domain: 12 },
        ];
        let rows = vec![vec![Constraint::Point(0), Constraint::Point(1), Constraint::Point(2)]];
        let w = PredicateWorkload::new(blocks, rows).unwrap();
        assert_eq!(w.tables(), vec!["Date", "Customer"]);
    }

    #[test]
    fn strategy_auto_selection() {
        let w1 = adapt(&starj_ssb::w1());
        // W1 is point-dominated (mean width ≤ 2) → identity everywhere.
        assert_eq!(
            w1.choose_strategies(),
            vec![StrategyKind::Identity, StrategyKind::Identity, StrategyKind::Identity]
        );
        let w2 = adapt(&starj_ssb::w2());
        // W2's year block is all prefixes.
        assert_eq!(
            w2.choose_strategies(),
            vec![StrategyKind::Prefixes, StrategyKind::Identity, StrategyKind::Identity]
        );
    }

    #[test]
    fn wd_with_huge_epsilon_reconstructs_exactly() {
        // ε → ∞ ⇒ strategy rows barely move ⇒ P̂ ≈ P ⇒ answers ≈ truth.
        let s = schema();
        let w = adapt(&starj_ssb::w1());
        let truth = w.true_answers(&s).unwrap();
        let mut rng = StarRng::from_seed(1);
        let ans = wd_answer(&s, &w, 1e9, &WdConfig::default(), &mut rng).unwrap();
        for (a, t) in ans.iter().zip(&truth) {
            assert!(
                (a - t).abs() <= t.abs() * 1e-6 + 1e-6,
                "zero-noise WD must be exact: {a} vs {t}"
            );
        }
    }

    #[test]
    fn pm_workload_with_huge_epsilon_is_exact() {
        let s = schema();
        let w = adapt(&starj_ssb::w2());
        let truth = w.true_answers(&s).unwrap();
        let mut rng = StarRng::from_seed(2);
        let ans = pm_workload_answer(&s, &w, 1e12, &PmConfig::default(), &mut rng).unwrap();
        for (a, t) in ans.iter().zip(&truth) {
            assert!((a - t).abs() <= t.abs() * 1e-6 + 1e-6);
        }
    }

    #[test]
    fn wd_beats_pm_on_w1_on_average() {
        // The Figure 9 claim, tested statistically with generous margins.
        let s = schema();
        let w = adapt(&starj_ssb::w1());
        let truth = w.true_answers(&s).unwrap();
        let trials = 40;
        let (mut wd_err, mut pm_err) = (0.0, 0.0);
        for t in 0..trials {
            let mut r1 = StarRng::from_seed(50).derive_index(t);
            let mut r2 = StarRng::from_seed(51).derive_index(t);
            let wd = wd_answer(&s, &w, 1.0, &WdConfig::default(), &mut r1).unwrap();
            let pm = pm_workload_answer(&s, &w, 1.0, &PmConfig::default(), &mut r2).unwrap();
            wd_err += workload_relative_error(&wd, &truth);
            pm_err += workload_relative_error(&pm, &truth);
        }
        assert!(
            wd_err < pm_err,
            "WD should beat per-query PM on W1: wd {wd_err:.2} vs pm {pm_err:.2}"
        );
    }

    #[test]
    fn wd_error_shrinks_with_epsilon() {
        let s = schema();
        let w = adapt(&starj_ssb::w2());
        let truth = w.true_answers(&s).unwrap();
        let mean_err = |eps: f64| {
            let mut acc = 0.0;
            for t in 0..30 {
                let mut rng = StarRng::from_seed(60).derive_index(t);
                let ans = wd_answer(&s, &w, eps, &WdConfig::default(), &mut rng).unwrap();
                acc += workload_relative_error(&ans, &truth);
            }
            acc / 30.0
        };
        assert!(mean_err(5.0) < mean_err(0.1));
    }

    #[test]
    fn strategy_override_is_respected_and_validated() {
        let s = schema();
        let w = adapt(&starj_ssb::w1());
        let cfg = WdConfig {
            strategies: Some(vec![
                StrategyKind::DyadicRanges,
                StrategyKind::DyadicRanges,
                StrategyKind::DyadicRanges,
            ]),
            ..Default::default()
        };
        let mut rng = StarRng::from_seed(3);
        assert!(wd_answer(&s, &w, 1.0, &cfg, &mut rng).is_ok());
        let bad = WdConfig { strategies: Some(vec![StrategyKind::Identity]), ..Default::default() };
        assert!(wd_answer(&s, &w, 1.0, &bad, &mut rng).is_err());
    }

    #[test]
    fn histogram_path_is_bit_identical_to_wd_answer() {
        let s = schema();
        let hist = workload_histogram(&s, &adapt(&starj_ssb::w1()), ScanOptions::default())
            .expect("SSB blocks fit the dense cap");
        for (wi, w) in [adapt(&starj_ssb::w1()), adapt(&starj_ssb::w2())].iter().enumerate() {
            // One histogram serves both workloads: W1 and W2 share blocks.
            for trial in 0..8u64 {
                let seed = 100 + 10 * wi as u64 + trial;
                let mut r1 = StarRng::from_seed(seed);
                let mut r2 = StarRng::from_seed(seed);
                let scanned = wd_answer(&s, w, 1.0, &WdConfig::default(), &mut r1).unwrap();
                let dotted =
                    wd_answer_with_histogram(&s, w, 1.0, &WdConfig::default(), &mut r2, &hist)
                        .unwrap();
                for (a, b) in scanned.iter().zip(&dotted) {
                    assert_eq!(a.to_bits(), b.to_bits(), "W-reuse diverged from the fused scan");
                }
            }
        }
    }

    #[test]
    fn reconstruct_consumes_the_same_draws_as_wd_answer() {
        let s = schema();
        let w = adapt(&starj_ssb::w2());
        let mut r1 = StarRng::from_seed(7);
        let mut r2 = StarRng::from_seed(7);
        wd_answer(&s, &w, 0.5, &WdConfig::default(), &mut r1).unwrap();
        wd_reconstruct(&s, &w, 0.5, &WdConfig::default(), &mut r2).unwrap();
        // After both calls the streams must be aligned: the next draws agree.
        assert_eq!(r1.unit().to_bits(), r2.unit().to_bits());
        assert_eq!(workload_axes(&w).len(), 3);
    }

    #[test]
    fn relative_error_helper() {
        assert!((workload_relative_error(&[11.0, 9.0], &[10.0, 10.0]) - 0.1).abs() < 1e-12);
        assert_eq!(workload_relative_error(&[5.0], &[0.0]), 5.0, "zero truth guarded");
    }

    #[test]
    fn strict_accounting_is_noisier_than_paper_literal() {
        let s = schema();
        let w = adapt(&starj_ssb::w1());
        let truth = w.true_answers(&s).unwrap();
        let mean_err = |accounting: WdAccounting| {
            let cfg = WdConfig { accounting, ..Default::default() };
            let mut acc = 0.0;
            // ε large enough that paper-literal rows leave the noise-saturated
            // regime while strict composition stays inside it.
            for t in 0..30 {
                let mut rng = StarRng::from_seed(80).derive_index(t);
                let ans = wd_answer(&s, &w, 20.0, &cfg, &mut rng).unwrap();
                acc += workload_relative_error(&ans, &truth);
            }
            acc / 30.0
        };
        assert!(
            mean_err(WdAccounting::PaperLiteral)
                <= mean_err(WdAccounting::StrictComposition) + 1e-9,
            "paper-literal accounting spends more budget per row, so less error"
        );
    }
}
