//! Per-entity contribution statistics.
//!
//! The data-dependent baselines need to know how much each *private entity*
//! (a tuple of one or more private dimension tables, identified by its key
//! combination) contributes to a query answer:
//!
//! * **LS** uses the maximum contribution as the local sensitivity of the
//!   counting query under tuple neighboring;
//! * **R2T** evaluates the query with per-entity contributions truncated at a
//!   threshold τ;
//! * **TM** deletes entities whose contribution exceeds τ before answering.
//!
//! A contribution is the total weight of *qualifying* fact rows (rows passing
//! every query predicate) that reference the entity — exactly the amount by
//! which deleting the entity (with its FK cascade, paper Definition 3.7)
//! changes the query answer.

use crate::column::Keys;
use crate::error::EngineError;
use crate::plan::{dimension_bitsets, RowWeight};
use crate::query::StarQuery;
use crate::schema::StarSchema;
use std::collections::HashMap;

/// Contribution profile of a query with respect to a set of private
/// dimensions: entity key combination → contribution to the true answer.
#[derive(Debug, Clone)]
pub struct Contributions {
    /// Per-entity contributions, keyed by the private dimensions' fk values
    /// in the order `private_dims` was supplied.
    pub per_entity: HashMap<Vec<u32>, f64>,
    /// The true (un-truncated) query answer — the sum of all contributions.
    pub total: f64,
}

impl Contributions {
    /// Maximum single-entity contribution (0 for an empty result).
    pub fn max(&self) -> f64 {
        self.per_entity.values().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// The query answer with each entity's contribution truncated at `tau` —
    /// R2T's `Q(D, τ)`.
    pub fn truncated_total(&self, tau: f64) -> f64 {
        self.per_entity.values().map(|v| v.min(tau)).sum()
    }

    /// The query answer keeping only entities whose contribution is at most
    /// `tau` — naive truncation (TM).
    pub fn filtered_total(&self, tau: f64) -> f64 {
        self.per_entity.values().filter(|v| **v <= tau).sum()
    }

    /// Number of distinct contributing entities.
    pub fn num_entities(&self) -> usize {
        self.per_entity.len()
    }
}

/// Computes the contribution profile of `query` with respect to
/// `private_dims` (dimension table names). Group-by clauses are ignored: the
/// baselines that consume contributions only support scalar aggregates, as in
/// the paper's Table 1 ("Not supported" rows).
pub fn contributions(
    schema: &StarSchema,
    query: &StarQuery,
    private_dims: &[String],
) -> Result<Contributions, EngineError> {
    if private_dims.is_empty() {
        return Err(EngineError::InvalidSchema(
            "contributions() needs at least one private dimension".into(),
        ));
    }
    let priv_idx: Vec<usize> =
        private_dims.iter().map(|d| schema.dim_index(d)).collect::<Result<_, _>>()?;

    // Sparse (dim index, packed pass mask) filters, as in the scan plans.
    let filters: Vec<(usize, crate::bitset::BitSet)> =
        dimension_bitsets(schema, &query.predicates)?
            .into_iter()
            .enumerate()
            .filter_map(|(di, b)| Some((di, b?)))
            .collect();
    let fks: Vec<Keys> =
        schema.dims().iter().map(|d| schema.fact().key(&d.fk)).collect::<Result<_, _>>()?;
    let weight = RowWeight::resolve(schema, &query.agg)?;

    let mut per_entity: HashMap<Vec<u32>, f64> = HashMap::new();
    let mut total = 0.0;
    let mut key = vec![0u32; priv_idx.len()];
    // (`row` indexes several parallel fk columns, not one iterable slice.)
    #[allow(clippy::needless_range_loop)]
    'rows: for row in 0..schema.fact().num_rows() {
        for (di, bits) in &filters {
            if !bits.get(fks[*di].get(row) as usize) {
                continue 'rows;
            }
        }
        let w = weight.at(row);
        for (slot, &di) in key.iter_mut().zip(&priv_idx) {
            *slot = fks[di].get(row);
        }
        *per_entity.entry(key.clone()).or_insert(0.0) += w;
        total += w;
    }
    Ok(Contributions { per_entity, total })
}

/// The maximum per-entity contribution — the local sensitivity of a counting
/// query under tuple neighboring with FK cascade on the private dimension.
pub fn max_contribution(
    schema: &StarSchema,
    query: &StarQuery,
    private_dims: &[String],
) -> Result<f64, EngineError> {
    Ok(contributions(schema, query, private_dims)?.max())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::domain::Domain;
    use crate::predicate::Predicate;
    use crate::schema::Dimension;
    use crate::table::Table;

    /// Customer-like dimension with 3 entities; entity 0 has fanout 3,
    /// entity 1 fanout 2, entity 2 fanout 1.
    fn schema() -> StarSchema {
        let d = Domain::numeric("region", 2).unwrap();
        let cust = Table::new(
            "C",
            vec![Column::key("pk", vec![0, 1, 2]), Column::attr("region", d, vec![0, 0, 1])],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![
                Column::key("ck", vec![0, 0, 0, 1, 1, 2]),
                Column::measure("rev", vec![10, 20, 30, 40, 50, 60]),
            ],
        )
        .unwrap();
        StarSchema::new(fact, vec![Dimension::new(cust, "pk", "ck")]).unwrap()
    }

    #[test]
    fn count_contributions_are_fanouts() {
        let s = schema();
        let q = StarQuery::count("q");
        let c = contributions(&s, &q, &["C".to_string()]).unwrap();
        assert_eq!(c.num_entities(), 3);
        assert_eq!(c.per_entity[&vec![0u32]], 3.0);
        assert_eq!(c.per_entity[&vec![1u32]], 2.0);
        assert_eq!(c.per_entity[&vec![2u32]], 1.0);
        assert_eq!(c.total, 6.0);
        assert_eq!(c.max(), 3.0);
    }

    #[test]
    fn predicates_filter_contributions() {
        let s = schema();
        let q = StarQuery::count("q").with(Predicate::point("C", "region", 0));
        let c = contributions(&s, &q, &["C".to_string()]).unwrap();
        // Entity 2 (region 1) no longer qualifies.
        assert_eq!(c.num_entities(), 2);
        assert_eq!(c.total, 5.0);
    }

    #[test]
    fn sum_contributions_weight_by_measure() {
        let s = schema();
        let q = StarQuery::sum("q", "rev");
        let c = contributions(&s, &q, &["C".to_string()]).unwrap();
        assert_eq!(c.per_entity[&vec![0u32]], 60.0);
        assert_eq!(c.per_entity[&vec![1u32]], 90.0);
        assert_eq!(c.per_entity[&vec![2u32]], 60.0);
        assert_eq!(c.total, 210.0);
    }

    #[test]
    fn truncated_total_caps_entities() {
        let s = schema();
        let q = StarQuery::count("q");
        let c = contributions(&s, &q, &["C".to_string()]).unwrap();
        assert_eq!(c.truncated_total(2.0), 2.0 + 2.0 + 1.0);
        assert_eq!(c.truncated_total(0.0), 0.0);
        assert_eq!(c.truncated_total(100.0), c.total);
    }

    #[test]
    fn filtered_total_drops_heavy_entities() {
        let s = schema();
        let q = StarQuery::count("q");
        let c = contributions(&s, &q, &["C".to_string()]).unwrap();
        assert_eq!(c.filtered_total(2.0), 3.0, "entity 0 (fanout 3) dropped");
        assert_eq!(c.filtered_total(10.0), 6.0);
    }

    #[test]
    fn max_contribution_shortcut() {
        let s = schema();
        let q = StarQuery::count("q");
        assert_eq!(max_contribution(&s, &q, &["C".to_string()]).unwrap(), 3.0);
    }

    #[test]
    fn empty_private_dims_rejected() {
        let s = schema();
        let q = StarQuery::count("q");
        assert!(contributions(&s, &q, &[]).is_err());
    }

    #[test]
    fn unknown_private_dim_rejected() {
        let s = schema();
        let q = StarQuery::count("q");
        assert!(contributions(&s, &q, &["Ghost".to_string()]).is_err());
    }
}
