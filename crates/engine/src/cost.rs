//! Exact fk-degree statistics for plan-shape decisions.
//!
//! The scan planner makes three plan-shape decisions: filter order,
//! cross-query mask sharing and fk staging. [`CostModel`] feeds them exact
//! inputs, built once per schema instance:
//!
//! * **Per-dimension fk degrees.** `degree[r]` is the number of fact rows
//!   whose foreign key is `r`, counted in one pass per fk column. A
//!   dimension pass mask admits exactly `Σ_{r ∈ mask} degree[r]` fact rows
//!   ([`CostModel::pass_count`]), which filter ordering and mask-sharing
//!   promotion read. The count is fact-weighted: a mask passing few
//!   dimension rows can still admit most fact rows under a skewed fk.
//! * **Per-dimension chunk residency** ([`CostModel::residency`]): the
//!   mean distinct fk codes per 4096-row scan chunk, counted on up to
//!   eight evenly spaced chunks at build time. The staging decision
//!   compares this footprint against the staging copy cost.
//!
//! Nothing here draws randomness, so a plan is a function of its queries
//! and its instance. Everything a `CostModel` influences is still
//! **plan-shape only**: filter order (reordering a bitwise AND), mask
//! sharing (the same conjunction split differently), and staging (exact
//! copies vs direct reads). Answers, RNG draw order and privacy ledgers
//! are bit-identical under *any* statistics, including adversarially
//! wrong ones, which the force-hooks below let the property tests inject.
//!
//! Each schema instance owns its model ([`cost_model_for`] builds it on
//! first use and keeps it in the schema), so a model lives and dies with
//! the data it counted: `Service::refresh_schema` swaps in a new instance,
//! and that instance builds its own.

use crate::column::Keys;
use crate::error::EngineError;
use crate::schema::StarSchema;
use crate::stage::CHUNK_ROWS;
use crate::BitSet;
use starj_telemetry::{cost_counters, CostCounters};
use std::sync::Arc;

/// Chunks probed per dimension for the distinct-codes-per-chunk figure.
const RESIDENCY_PROBES: usize = 8;

/// Distinct-codes-per-chunk at or below which repeated direct gathers are
/// served from a handful of hot cache lines, so staging the chunk's fk
/// codes is a pure copy tax even for multiple users.
const RESIDENT_DISTINCT_CAP: f64 = 64.0;

/// The exact plan statistics of one schema instance. Fully owned (no
/// borrow of the schema), so the schema can keep it across plans and the
/// service can hold it across requests.
#[derive(Debug, Clone)]
pub struct CostModel {
    fact_rows: usize,
    /// Per dimension: `degree[r]`, the fact rows whose fk is `r`. Each
    /// vector sums to `fact_rows`.
    degrees: Vec<Vec<u32>>,
    /// Per dimension: mean distinct fk codes per probed chunk.
    residency: Vec<f64>,
    /// Test hook: per-dimension forced pass fractions.
    forced_fractions: Vec<Option<f64>>,
    /// Test hook: per-dimension forced residency.
    forced_residency: Vec<Option<f64>>,
}

impl CostModel {
    /// Builds the model: one counting pass over each fk column for the
    /// degree vectors, and a few chunk probes per dimension for residency.
    /// Cost is `O(fact_rows · dims)`, paid once per schema instance.
    pub fn build(schema: &StarSchema) -> Result<Self, EngineError> {
        let fks: Vec<Keys> =
            schema.dims().iter().map(|d| schema.fact().key(&d.fk)).collect::<Result<_, _>>()?;
        let fact_rows = schema.fact().num_rows();
        // Referential integrity (checked by `StarSchema::new`) keeps every
        // fk inside its dimension's rows.
        let degrees = schema
            .dims()
            .iter()
            .zip(&fks)
            .map(|(d, fk)| {
                let mut degree = vec![0u32; d.table.num_rows()];
                fk.iter().for_each(|k| degree[k as usize] += 1);
                degree
            })
            .collect();

        let chunks = fact_rows.div_ceil(CHUNK_ROWS);
        let probes = chunks.min(RESIDENCY_PROBES);
        let mut scratch: Vec<u32> = Vec::with_capacity(CHUNK_ROWS);
        let residency = fks
            .iter()
            .map(|fk| {
                let mut total = 0usize;
                for p in 0..probes {
                    let lo = (p * chunks / probes) * CHUNK_ROWS;
                    let hi = (lo + CHUNK_ROWS).min(fact_rows);
                    scratch.clear();
                    scratch.extend(fk.slice(lo..hi).iter());
                    scratch.sort_unstable();
                    scratch.dedup();
                    total += scratch.len();
                }
                if probes == 0 {
                    0.0
                } else {
                    total as f64 / probes as f64
                }
            })
            .collect();

        let num_dims = schema.num_dims();
        Ok(CostModel {
            fact_rows,
            degrees,
            residency,
            forced_fractions: vec![None; num_dims],
            forced_residency: vec![None; num_dims],
        })
    }

    /// Fact rows of the modeled instance.
    pub fn fact_rows(&self) -> usize {
        self.fact_rows
    }

    /// The number of **fact** rows whose `dim` fk lands on a set bit of
    /// `bits` (a dimension pass mask): `Σ_{r ∈ bits} degree[r]`, exact.
    /// One add per set bit.
    pub fn pass_count(&self, dim: usize, bits: &BitSet) -> usize {
        if let Some(f) = self.forced_fractions[dim] {
            return (f * self.fact_rows as f64).round() as usize;
        }
        // Bits past the degree vector pass nothing: a model installed
        // through `ScanPlan::set_cost_model` may describe another instance,
        // and a count may only shift plan shape — never abort.
        let degree = &self.degrees[dim];
        bits.iter_ones().take_while(|&r| r < degree.len()).map(|r| degree[r] as usize).sum()
    }

    /// Distinct fk codes per 4096-row chunk for `dim`.
    pub fn residency(&self, dim: usize) -> f64 {
        self.forced_residency[dim].unwrap_or(self.residency[dim])
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

    /// Test hook: forces `pass_count` for a dimension (any bitset) to
    /// `fraction` of the fact rows, letting the property tests feed the
    /// planner adversarially wrong statistics and prove answers stay
    /// bit-identical.
    #[doc(hidden)]
    pub fn force_fraction(&mut self, dim: usize, fraction: f64) {
        self.forced_fractions[dim] = Some(fraction);
    }

    /// Test hook: forces the residency figure for a dimension.
    #[doc(hidden)]
    pub fn force_residency(&mut self, dim: usize, distinct_per_chunk: f64) {
        self.forced_residency[dim] = Some(distinct_per_chunk);
    }
}

/// The cost model of `schema`, built on the instance's first use and kept
/// in the schema after that. Reuses and builds are tallied in the
/// `starj_cost_*` counters. Racing first uses may each build; the first
/// model stored wins and every later call returns it.
pub fn cost_model_for(schema: &StarSchema) -> Result<Arc<CostModel>, EngineError> {
    let c = cost_counters();
    if let Some(model) = schema.cost.get() {
        CostCounters::add(&c.cache_hits, 1);
        return Ok(Arc::clone(model));
    }
    let model = Arc::new(CostModel::build(schema)?);
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

    /// A `dim_rows`-row dimension whose fact fk column is `fk`.
    fn schema_with_fk(dim_rows: usize, fk: Vec<u32>) -> StarSchema {
        let domain = Domain::numeric("attr", dim_rows as u32).unwrap();
        let dim = Table::new(
            "D",
            vec![
                Column::key("pk", (0..dim_rows as u32).collect()),
                Column::attr("attr", domain, (0..dim_rows as u32).collect()),
            ],
        )
        .unwrap();
        let fact = Table::new("F", vec![Column::key("fk", fk)]).unwrap();
        StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
    }

    /// `fact_rows` fact rows with a skewed fk (row i references dimension
    /// row `i² mod dim_rows` — uneven fanout, so fact-weighted and
    /// dimension-weighted fractions genuinely differ).
    fn skewed_schema(dim_rows: usize, fact_rows: usize) -> StarSchema {
        schema_with_fk(dim_rows, (0..fact_rows).map(|i| ((i * i) % dim_rows) as u32).collect())
    }

    fn true_count(schema: &StarSchema, bits: &BitSet) -> usize {
        schema.fact().key("fk").unwrap().iter().filter(|&k| bits.get(k as usize)).count()
    }

    #[test]
    fn each_degree_vector_sums_to_the_fact_rows() {
        for (dim_rows, fact_rows) in [(7, 100), (97, 40_000), (1, 0), (50_000, 3 * CHUNK_ROWS)] {
            let m = CostModel::build(&skewed_schema(dim_rows, fact_rows)).unwrap();
            assert_eq!(m.degrees[0].len(), dim_rows);
            let total: u64 = m.degrees[0].iter().map(|&d| u64::from(d)).sum();
            assert_eq!(total, fact_rows as u64, "{dim_rows} × {fact_rows}");
        }
    }

    #[test]
    fn pass_counts_are_exact_on_sparse_and_dense_masks() {
        let s = skewed_schema(97, 40_000);
        let m = CostModel::build(&s).unwrap();
        // Prefixes end on both sides of the word boundary.
        for keep in [0usize, 1, 10, 48, 63, 64, 65, 90, 97] {
            let bits = BitSet::from_fn(97, |i| i < keep);
            assert_eq!(m.pass_count(0, &bits), true_count(&s, &bits), "keep={keep}");
        }
        for stride in [2, 3, 5, 7, 11] {
            let strided = BitSet::from_fn(97, |i| i % stride == 1);
            assert_eq!(m.pass_count(0, &strided), true_count(&s, &strided), "stride {stride}");
        }
        // A mask from another instance: bits past the degree vector pass
        // nothing, and a short mask counts only its own rows.
        assert_eq!(m.pass_count(0, &BitSet::ones(200)), 40_000);
        let short = BitSet::ones(10);
        let below_ten: usize = m.degrees[0][..10].iter().map(|&d| d as usize).sum();
        assert_eq!(m.pass_count(0, &short), below_ten);
    }

    #[test]
    fn residency_probe_counts_distinct_codes_per_chunk() {
        // fk cycles through 16 codes → every chunk holds exactly 16
        // distinct values regardless of fact size.
        let s = schema_with_fk(16, (0..3 * CHUNK_ROWS).map(|i| (i % 16) as u32).collect());
        let m = CostModel::build(&s).unwrap();
        assert_eq!(m.residency(0), 16.0);
        assert!(!m.should_stage(0, 4), "16 distinct codes stay cache-hot unstaged");
        // A high-residency dimension stages at ≥ 2 uses, never at 1.
        let wide = skewed_schema(50_000, 2 * CHUNK_ROWS);
        let mw = CostModel::build(&wide).unwrap();
        assert!(mw.residency(0) > RESIDENT_DISTINCT_CAP);
        assert!(mw.should_stage(0, 2));
        assert!(!mw.should_stage(0, 1));
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
    fn force_hooks_override_statistics() {
        let s = skewed_schema(7, 100);
        let mut m = CostModel::build(&s).unwrap();
        m.force_fraction(0, 0.99);
        assert_eq!(m.pass_count(0, &BitSet::zeros(7)), 99);
        m.force_residency(0, 5000.0);
        assert_eq!(m.residency(0), 5000.0);
        assert!(m.should_stage(0, 2));
    }
}
