//! Sampling-driven cost model for plan-shape decisions.
//!
//! The scan planner's heuristics used to be static: filter order paid an
//! exact full-column popcount per filter, mask sharing promoted any filter
//! recurring ≥ 2×, fk staging used a fixed ≥ 2-uses rule, and the service's
//! coalescer window was a constant. [`CostModel`] retires all four with one
//! cheap estimator, in the WanderJoin style (gcare): sample ~1k fact rows
//! per (schema, data version), walk each sampled row's foreign keys across
//! every dimension (a star schema makes each walk a single hop per
//! dimension), and keep the visited fk codes. From those walks the model
//! answers, without touching full columns again:
//!
//! * **Per-predicate pass fractions** ([`CostModel::pass_fraction`]) — the
//!   estimated fraction of *fact* rows admitted by a dimension pass mask,
//!   with a conservative binomial confidence interval. Plan-time filter
//!   ordering and mask-sharing promotion consume these instead of exact
//!   `count_ones` passes.
//! * **Per-dimension chunk residency** ([`CostModel::residency`]) — the
//!   estimated distinct fk codes per 4096-row scan chunk, probed directly
//!   on a few evenly spaced chunks at build time. The staging decision
//!   compares this footprint against the staging copy cost.
//!
//! Everything a `CostModel` influences is **plan-shape only**: filter
//! order (reordering a bitwise AND), mask sharing (the same conjunction
//! split differently), staging (exact copies vs direct reads), and the
//! coalescer window (batch composition). Answers, RNG draw order, and
//! privacy ledgers are bit-identical by construction under *any* estimate
//! — including adversarially wrong ones, which the force-hooks below let
//! the property tests inject.
//!
//! Each schema instance owns its model ([`cost_model_for`] builds it on
//! first use and keeps it in the schema), so a model lives and dies with
//! the data it sampled: `Service::refresh_schema` swaps in a new instance,
//! and that instance builds its own.

use crate::column::Keys;
use crate::error::EngineError;
use crate::schema::StarSchema;
use crate::stage::CHUNK_ROWS;
use crate::BitSet;
use starj_noise::rng::{fnv1a, splitmix64, FNV_OFFSET};
use starj_telemetry::{cost_counters, CostCounters};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Fact rows sampled per model build ([`CostConfig::default`]).
const DEFAULT_COST_SAMPLES: usize = 1024;

/// Chunks probed per dimension for the distinct-codes-per-chunk estimate.
const RESIDENCY_PROBES: usize = 8;

/// Distinct-codes-per-chunk at or below which repeated direct gathers are
/// served from a handful of hot cache lines, so staging the chunk's fk
/// codes is a pure copy tax even for multiple users.
const RESIDENT_DISTINCT_CAP: f64 = 64.0;

/// Per-model estimate memo capacity: recurring masks (the same filters
/// appear across every plan of a serving workload) re-walk nothing. The
/// memo is cleared, not evicted, at the cap — refills are cheap and the
/// cap is far above any live working set.
const MEMO_CAP: usize = 4096;

/// Build parameters of a cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostConfig {
    /// Fact rows to sample (walks to run). A sample covering the whole
    /// fact table degenerates to an exact single pass, so small fixtures
    /// get deterministic, zero-error estimates.
    pub sample_size: usize,
    /// Seed of the model's own splitmix64 row sampler. Deliberately
    /// decoupled from any mechanism RNG: the sampler draws nothing from
    /// the privacy noise streams, so answers cannot depend on it.
    pub seed: u64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig { sample_size: DEFAULT_COST_SAMPLES, seed: 0x5354_4152_4a43_4f53 }
    }
}

/// One predicate's estimated fact pass fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredicateEstimate {
    /// Estimated fraction of fact rows the predicate admits.
    pub fraction: f64,
    /// Conservative half-width of the estimate's confidence interval
    /// (exact estimates report 0).
    pub ci: f64,
    /// Sampled rows the estimate is based on.
    pub samples: usize,
    /// Sampled rows that passed (the deterministic dedup discriminant the
    /// planner stores as the filter's `pass`).
    pub hits: usize,
}

impl PredicateEstimate {
    /// True iff the measured truth lies within the reported interval —
    /// what `tests/prop_cost_model.rs` holds every estimate to.
    pub fn covers(&self, truth: f64) -> bool {
        (truth - self.fraction).abs() <= self.ci + 1e-12
    }
}

/// Per-dimension statistics from the build-time chunk probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimensionStats {
    /// Dimension row count.
    pub rows: usize,
    /// Mean distinct fk codes per probed 4096-row chunk.
    pub distinct_per_chunk: f64,
    /// Chunks actually probed.
    pub probed_chunks: usize,
}

/// The sampled cost model of one schema instance. Fully owned (no borrow
/// of the schema), so the schema can keep it across plans and the
/// service can hold it across requests.
#[derive(Debug, Clone)]
pub struct CostModel {
    fact_rows: usize,
    exact: bool,
    /// Per dimension: the fk codes visited by the row walks (ascending
    /// row order; duplicates kept — with-replacement sampling).
    sampled: Vec<Vec<u32>>,
    dims: Vec<DimensionStats>,
    /// Test hook: per-dimension forced pass fractions.
    forced_fractions: Vec<Option<f64>>,
    /// Test hook: per-dimension forced residency.
    forced_residency: Vec<Option<f64>>,
    /// Estimate memo keyed on `(dim, mask fingerprint)`: a serving
    /// workload re-plans the same masks constantly, and a memo hit skips
    /// the whole sample walk. Shared across clones (`Arc`) — a clone
    /// models the same instance. A fingerprint collision would only swap
    /// one estimate for another, which is plan-shape-safe like every
    /// other estimate error.
    memo: Arc<Mutex<HashMap<(usize, u64), PredicateEstimate>>>,
}

/// 64-bit FNV-1a over a mask's length and words — the memo key half.
fn mask_fingerprint(bits: &BitSet) -> u64 {
    fnv1a(FNV_OFFSET ^ bits.len() as u64, bits.words().iter().copied())
}

impl CostModel {
    /// Builds a model by sampling `config.sample_size` fact rows (one
    /// walk per row across every dimension fk) and probing a few chunks
    /// per dimension for distinct-code residency. Cost is
    /// `O(samples · dims + probes · CHUNK_ROWS · dims)` — independent of
    /// the fact row count once it exceeds the sample size.
    pub fn build(schema: &StarSchema, config: &CostConfig) -> Result<Self, EngineError> {
        let fks: Vec<Keys> =
            schema.dims().iter().map(|d| schema.fact().key(&d.fk)).collect::<Result<_, _>>()?;
        let fact_rows = schema.fact().num_rows();
        let target = config.sample_size.max(1);
        let exact = target >= fact_rows;
        let rows: Vec<usize> = if exact {
            (0..fact_rows).collect()
        } else {
            let mut state = config.seed;
            let mut rows: Vec<usize> =
                (0..target).map(|_| (splitmix64(&mut state) % fact_rows as u64) as usize).collect();
            rows.sort_unstable();
            rows
        };
        let sampled: Vec<Vec<u32>> =
            fks.iter().map(|fk| rows.iter().map(|&r| fk.get(r)).collect()).collect();

        let chunks = fact_rows.div_ceil(CHUNK_ROWS);
        let probes = chunks.min(RESIDENCY_PROBES);
        let mut scratch: Vec<u32> = Vec::with_capacity(CHUNK_ROWS);
        let dims = schema
            .dims()
            .iter()
            .zip(&fks)
            .map(|(d, fk)| {
                let mut total = 0usize;
                let mut counted = 0usize;
                for p in 0..probes {
                    let lo = (p * chunks / probes) * CHUNK_ROWS;
                    let hi = (lo + CHUNK_ROWS).min(fact_rows);
                    if lo >= hi {
                        continue;
                    }
                    scratch.clear();
                    scratch.extend(fk.slice(lo..hi).iter());
                    scratch.sort_unstable();
                    scratch.dedup();
                    total += scratch.len();
                    counted += 1;
                }
                DimensionStats {
                    rows: d.table.num_rows(),
                    distinct_per_chunk: if counted == 0 {
                        0.0
                    } else {
                        total as f64 / counted as f64
                    },
                    probed_chunks: counted,
                }
            })
            .collect();

        CostCounters::add(&cost_counters().walks, rows.len() as u64);
        let num_dims = schema.num_dims();
        Ok(CostModel {
            fact_rows,
            exact,
            sampled,
            dims,
            forced_fractions: vec![None; num_dims],
            forced_residency: vec![None; num_dims],
            memo: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// True iff the model covered every fact row (zero-error estimates).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Fact rows of the modeled instance.
    pub fn fact_rows(&self) -> usize {
        self.fact_rows
    }

    /// Fact rows the model actually sampled (= the walk count behind every
    /// estimate; equals [`CostModel::fact_rows`] for exact models).
    pub fn sampled_rows(&self) -> usize {
        self.sampled.first().map_or(0, Vec::len)
    }

    /// Estimated fraction of **fact** rows whose `dim` fk lands on a set
    /// bit of `bits` (a dimension pass mask). Fact-weighted — a better
    /// ordering signal than the retired dimension-weighted `count_ones`,
    /// since a rarely-referenced dimension row shouldn't count like a hot
    /// one. The CI is a conservative 3σ binomial half-width plus a `1/n`
    /// floor; exact models report 0.
    pub fn pass_fraction(&self, dim: usize, bits: &BitSet) -> PredicateEstimate {
        let lanes = &self.sampled[dim];
        let n = lanes.len();
        if let Some(f) = self.forced_fractions[dim] {
            return PredicateEstimate {
                fraction: f,
                ci: 1.0,
                samples: n,
                hits: (f * n as f64) as usize,
            };
        }
        if n == 0 {
            return PredicateEstimate { fraction: 0.0, ci: 0.0, samples: 0, hits: 0 };
        }
        let key = (dim, mask_fingerprint(bits));
        {
            let memo = self.memo.lock().expect("cost memo poisoned");
            if let Some(est) = memo.get(&key) {
                CostCounters::add(&cost_counters().cache_hits, 1);
                return *est;
            }
        }
        // Codes past the mask are misses, not panics: a model installed
        // through `ScanPlan::set_cost_model` may have sampled another
        // instance, and an estimate may only shift plan shape — never abort.
        let hits =
            lanes.iter().filter(|&&k| (k as usize) < bits.len() && bits.get(k as usize)).count();
        let p = hits as f64 / n as f64;
        let ci =
            if self.exact { 0.0 } else { 3.0 * (p * (1.0 - p) / n as f64).sqrt() + 1.0 / n as f64 };
        let est = PredicateEstimate { fraction: p, ci, samples: n, hits };
        let mut memo = self.memo.lock().expect("cost memo poisoned");
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, est);
        est
    }

    /// Estimated distinct fk codes per 4096-row chunk for `dim`.
    pub fn residency(&self, dim: usize) -> f64 {
        self.forced_residency[dim].unwrap_or(self.dims[dim].distinct_per_chunk)
    }

    /// The build-time statistics for `dim`.
    pub fn dim_stats(&self, dim: usize) -> DimensionStats {
        self.dims[dim]
    }

    /// Whether the staged kernel should copy `dim`'s chunk fk codes, given
    /// `uses` gathers read the dimension per chunk. A single gather never
    /// amortizes the copy; beyond that, staging pays off only when the
    /// chunk's probe working set (distinct codes × key width) is
    /// large enough that direct re-reads keep missing cache — a dimension
    /// whose chunk codes collapse to ≤ `RESIDENT_DISTINCT_CAP` distinct
    /// values stays hot without the copy.
    pub fn should_stage(&self, dim: usize, uses: usize) -> bool {
        uses >= 2 && self.residency(dim) > RESIDENT_DISTINCT_CAP
    }

    /// Test hook: forces `pass_fraction` for a dimension (any bitset),
    /// letting the property tests feed the planner adversarially wrong
    /// estimates and prove answers stay bit-identical.
    #[doc(hidden)]
    pub fn force_fraction(&mut self, dim: usize, fraction: f64) {
        self.forced_fractions[dim] = Some(fraction);
    }

    /// Test hook: forces the residency estimate for a dimension.
    #[doc(hidden)]
    pub fn force_residency(&mut self, dim: usize, distinct_per_chunk: f64) {
        self.forced_residency[dim] = Some(distinct_per_chunk);
    }
}

/// The cost model of `schema` under the default [`CostConfig`], built on
/// the instance's first use and kept in the schema after that. Hits and
/// builds are tallied in the `starj_cost_*` counters. Racing first uses
/// may each build; the first model stored wins and every later call
/// returns it.
pub fn cost_model_for(schema: &StarSchema) -> Result<Arc<CostModel>, EngineError> {
    let c = cost_counters();
    if let Some(model) = schema.cost.get() {
        CostCounters::add(&c.cache_hits, 1);
        return Ok(Arc::clone(model));
    }
    let model = Arc::new(CostModel::build(schema, &CostConfig::default())?);
    CostCounters::add(&c.cache_builds, 1);
    Ok(Arc::clone(schema.cost.get_or_init(|| model)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::domain::Domain;
    use crate::schema::Dimension;
    use crate::table::Table;

    /// `dim_rows`-row dimension, `fact_rows` fact rows with a skewed fk
    /// (row i references dimension row `i² mod dim_rows` — uneven fanout,
    /// so fact-weighted and dimension-weighted fractions genuinely differ).
    fn skewed_schema(dim_rows: usize, fact_rows: usize) -> StarSchema {
        let domain = Domain::numeric("attr", dim_rows as u32).unwrap();
        let dim = Table::new(
            "D",
            vec![
                Column::key("pk", (0..dim_rows as u32).collect()),
                Column::attr("attr", domain, (0..dim_rows as u32).collect()),
            ],
        )
        .unwrap();
        let fk: Vec<u32> = (0..fact_rows).map(|i| ((i * i) % dim_rows) as u32).collect();
        let fact = Table::new("F", vec![Column::key("fk", fk)]).unwrap();
        StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
    }

    fn true_fraction(schema: &StarSchema, bits: &BitSet) -> f64 {
        let fk = schema.fact().key("fk").unwrap();
        fk.iter().filter(|&k| bits.get(k as usize)).count() as f64 / fk.len() as f64
    }

    #[test]
    fn exact_model_reports_true_fractions_with_zero_ci() {
        let s = skewed_schema(7, 100);
        let m = CostModel::build(&s, &CostConfig::default()).unwrap();
        assert!(m.is_exact(), "sample ≥ fact rows degenerates to an exact pass");
        for keep in 0..7usize {
            let bits = BitSet::from_fn(7, |i| i <= keep);
            let est = m.pass_fraction(0, &bits);
            assert_eq!(est.ci, 0.0);
            assert_eq!(est.fraction, true_fraction(&s, &bits));
            assert!(est.covers(est.fraction));
        }
    }

    #[test]
    fn sampled_estimates_fall_within_reported_ci() {
        let s = skewed_schema(97, 40_000);
        let m = CostModel::build(&s, &CostConfig { sample_size: 800, seed: 11 }).unwrap();
        assert!(!m.is_exact());
        for keep in [1usize, 10, 48, 90] {
            let bits = BitSet::from_fn(97, |i| i < keep);
            let est = m.pass_fraction(0, &bits);
            assert!(est.ci > 0.0 && est.samples == 800);
            let truth = true_fraction(&s, &bits);
            assert!(
                est.covers(truth),
                "keep={keep}: est {} ± {} vs truth {truth}",
                est.fraction,
                est.ci
            );
        }
    }

    #[test]
    fn row_sampler_and_fingerprints_are_pinned() {
        // Identity fk: the sampled codes are the sampled row indices.
        let domain = Domain::numeric("attr", 1000).unwrap();
        let dim = Table::new(
            "D",
            vec![
                Column::key("pk", (0..1000).collect()),
                Column::attr("attr", domain, (0..1000).collect()),
            ],
        )
        .unwrap();
        let fact = Table::new("F", vec![Column::key("fk", (0..1000).collect())]).unwrap();
        let s = StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap();
        let m =
            CostModel::build(&s, &CostConfig { sample_size: 16, ..CostConfig::default() }).unwrap();
        assert_eq!(
            m.sampled[0],
            [41, 60, 84, 119, 194, 238, 440, 485, 526, 570, 604, 765, 784, 801, 951, 992]
        );
        assert_eq!(mask_fingerprint(&BitSet::from_fn(130, |i| i % 3 == 0)), 243670499723444504);
    }

    #[test]
    fn residency_probe_counts_distinct_codes_per_chunk() {
        // fk cycles through 16 codes → every chunk holds exactly 16
        // distinct values regardless of fact size.
        let s = skewed_schema(16, 3 * CHUNK_ROWS);
        let fk: Vec<u32> = (0..3 * CHUNK_ROWS).map(|i| (i % 16) as u32).collect();
        let fact = Table::new("F", vec![Column::key("fk", fk)]).unwrap();
        let dim = {
            let domain = Domain::numeric("attr", 16).unwrap();
            Table::new(
                "D",
                vec![
                    Column::key("pk", (0..16).collect()),
                    Column::attr("attr", domain, (0..16).collect()),
                ],
            )
            .unwrap()
        };
        let s2 = StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap();
        let m = CostModel::build(&s2, &CostConfig::default()).unwrap();
        assert_eq!(m.residency(0), 16.0);
        assert!(m.dim_stats(0).probed_chunks >= 1);
        assert!(!m.should_stage(0, 4), "16 distinct codes stay cache-hot unstaged");
        // A high-residency dimension stages at ≥ 2 uses, never at 1.
        let wide = skewed_schema(50_000, 2 * CHUNK_ROWS);
        let mw = CostModel::build(&wide, &CostConfig::default()).unwrap();
        assert!(mw.residency(0) > RESIDENT_DISTINCT_CAP);
        assert!(mw.should_stage(0, 2));
        assert!(!mw.should_stage(0, 1));
        let _ = s;
    }

    #[test]
    fn each_instance_builds_its_model_once() {
        let s = skewed_schema(7, 100);
        let c = cost_counters();
        let builds0 = c.snapshot();
        let a = cost_model_for(&s).unwrap();
        let b = cost_model_for(&s).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "the same instance reuses its model");
        let delta = c.snapshot().since(&builds0);
        assert_eq!(delta.cache_builds, 1);
        assert!(delta.cache_hits >= 1);
        let fresh = skewed_schema(7, 100);
        let own = cost_model_for(&fresh).unwrap();
        assert!(!Arc::ptr_eq(&a, &own), "a new instance builds its own model");
    }

    #[test]
    fn force_hooks_override_estimates() {
        let s = skewed_schema(7, 100);
        let mut m = CostModel::build(&s, &CostConfig::default()).unwrap();
        m.force_fraction(0, 0.99);
        assert_eq!(m.pass_fraction(0, &BitSet::zeros(7)).fraction, 0.99);
        m.force_residency(0, 5000.0);
        assert_eq!(m.residency(0), 5000.0);
        assert!(m.should_stage(0, 2));
    }
}
