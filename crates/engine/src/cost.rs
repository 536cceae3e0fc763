//! Exact fk-degree statistics for plan-shape decisions.
//!
//! The scan planner makes two plan-shape decisions: filter order and
//! cross-query mask sharing. [`CostModel`] feeds both the same exact input,
//! built once per schema instance: **per-dimension fk degrees**.
//! `degree[r]` is the number of fact rows whose foreign key is `r`, counted
//! in one pass per fk column. A dimension pass mask admits exactly
//! `Σ_{r ∈ mask} degree[r]` fact rows ([`CostModel::pass_count`]). The count
//! is fact-weighted: a mask passing few dimension rows can still admit most
//! fact rows under a skewed fk.
//!
//! Nothing here draws randomness, so a plan is a function of its queries
//! and its instance. Everything a `CostModel` influences is still
//! **plan-shape only**: filter order (reordering a bitwise AND) and mask
//! sharing (the same conjunction split differently). Answers, RNG draw
//! order and privacy ledgers are bit-identical under *any* statistics,
//! including adversarially wrong ones, which `CostModel::force_fraction`
//! lets the property tests inject.
//!
//! Each schema instance owns its model ([`cost_model_for`] builds it on
//! first use and keeps it in the schema), so a model lives and dies with
//! the data it counted: `Service::refresh_schema` swaps in a new instance,
//! and that instance builds its own.

use crate::error::EngineError;
use crate::schema::StarSchema;
use crate::BitSet;
use starj_telemetry::{cost_counters, CostCounters};
use std::sync::Arc;

/// The exact plan statistics of one schema instance. Fully owned (no
/// borrow of the schema), so the schema can keep it across plans and the
/// service can hold it across requests.
#[derive(Debug, Clone)]
pub struct CostModel {
    fact_rows: usize,
    /// Per dimension: `degree[r]`, the fact rows whose fk is `r`. Each
    /// vector sums to `fact_rows`.
    degrees: Vec<Vec<u32>>,
    /// Test hook: per-dimension forced pass fractions.
    forced_fractions: Vec<Option<f64>>,
}

impl CostModel {
    /// Builds the model: one counting pass over each fk column. Cost is
    /// `O(fact_rows · dims)`, paid once per schema instance.
    pub fn build(schema: &StarSchema) -> Result<Self, EngineError> {
        // Referential integrity (checked by `StarSchema::new`) keeps every
        // fk inside its dimension's rows.
        let degrees = schema
            .dims()
            .iter()
            .map(|d| {
                let mut degree = vec![0u32; d.table.num_rows()];
                schema.fact().key(&d.fk)?.iter().for_each(|k| degree[k as usize] += 1);
                Ok(degree)
            })
            .collect::<Result<_, EngineError>>()?;
        Ok(CostModel {
            fact_rows: schema.fact().num_rows(),
            degrees,
            forced_fractions: vec![None; schema.num_dims()],
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

    /// Test hook: forces `pass_count` for a dimension (any bitset) to
    /// `fraction` of the fact rows, letting the property tests feed the
    /// planner adversarially wrong statistics and prove answers stay
    /// bit-identical.
    #[doc(hidden)]
    pub fn force_fraction(&mut self, dim: usize, fraction: f64) {
        self.forced_fractions[dim] = Some(fraction);
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
    use crate::stage::CHUNK_ROWS;
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
    }
}
