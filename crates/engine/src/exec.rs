//! Star-join execution over compiled scan plans.
//!
//! Execution separates **planning** from **scanning** ([`crate::plan`]):
//!
//! 1. **Plan.** Foreign-key arrays, per-dimension packed pass bitsets
//!    (snowflake predicates folded into their parents), weight tables,
//!    group lookups and row-weight accessors are resolved once into a
//!    [`ScanPlan`].
//! 2. **Scan.** One chunked, columnar pass over the fact table answers
//!    *every* query in the plan — the fused multi-query kernel that lets a
//!    workload of `l` queries cost a single scan, optionally sharded
//!    across threads ([`ScanOptions::threads`]).
//!
//! [`execute`] and [`execute_weighted`] remain the single-query entry
//! points (now thin wrappers over one-query plans); [`execute_batch`] and
//! [`execute_weighted_batch`] are the fused forms. The legacy row-at-a-time
//! executor survives verbatim in [`reference`] as the semantic oracle for
//! equivalence tests.

use crate::error::EngineError;
use crate::plan::{ScanOptions, ScanPlan, WeightedQuery};
use crate::predicate::WeightedPredicate;
use crate::query::{Agg, QueryResult, StarQuery};
use crate::schema::StarSchema;

/// Executes a star-join query, returning a scalar or group map.
pub fn execute(schema: &StarSchema, query: &StarQuery) -> Result<QueryResult, EngineError> {
    execute_with(schema, query, ScanOptions::default())
}

/// [`execute`] with explicit scan options (threads, probe caps).
pub fn execute_with(
    schema: &StarSchema,
    query: &StarQuery,
    options: ScanOptions,
) -> Result<QueryResult, EngineError> {
    let mut plan = ScanPlan::with_options(schema, options)?;
    plan.add_query(query)?;
    Ok(plan.execute(options).pop().expect("one planned query yields one result"))
}

/// Answers a batch of star-join queries in **one** fused scan of the fact
/// table, returning results in input order. Equivalent to mapping
/// [`execute`] but pays the fact scan once instead of `queries.len()`
/// times.
pub fn execute_batch(
    schema: &StarSchema,
    queries: &[StarQuery],
) -> Result<Vec<QueryResult>, EngineError> {
    execute_batch_with(schema, queries, ScanOptions::default())
}

/// [`execute_batch`] with explicit scan options (threads, probe caps).
pub fn execute_batch_with(
    schema: &StarSchema,
    queries: &[StarQuery],
    options: ScanOptions,
) -> Result<Vec<QueryResult>, EngineError> {
    let mut plan = ScanPlan::with_options(schema, options)?;
    for q in queries {
        plan.add_query(q)?;
    }
    Ok(plan.execute(options))
}

/// Executes the weighted (real-valued predicate) form: the result is
/// `Σ_rows Π_dims w_dim(attr(fk)) · w(row)`. Dimensions without a weighted
/// predicate contribute factor 1.
pub fn execute_weighted(
    schema: &StarSchema,
    predicates: &[WeightedPredicate],
    agg: &Agg,
) -> Result<f64, EngineError> {
    let mut plan = ScanPlan::with_options(schema, ScanOptions::default())?;
    plan.add_weighted(predicates, agg)?;
    plan.execute(ScanOptions::default())
        .pop()
        .expect("one planned query yields one result")
        .scalar()
}

/// Answers a batch of weighted queries in **one** fused scan of the fact
/// table, returning scalars in input order — how Workload Decomposition
/// answers all `l` reconstructed workload rows with a single scan.
pub fn execute_weighted_batch(
    schema: &StarSchema,
    queries: &[WeightedQuery],
) -> Result<Vec<f64>, EngineError> {
    execute_weighted_batch_with(schema, queries, ScanOptions::default())
}

/// [`execute_weighted_batch`] with explicit scan options (threads, probe caps).
pub fn execute_weighted_batch_with(
    schema: &StarSchema,
    queries: &[WeightedQuery],
    options: ScanOptions,
) -> Result<Vec<f64>, EngineError> {
    let mut plan = ScanPlan::with_options(schema, options)?;
    for q in queries {
        plan.add_weighted(&q.predicates, &q.agg)?;
    }
    plan.execute(options).into_iter().map(|r| r.scalar()).collect()
}

pub mod reference {
    //! The original row-at-a-time executor over `Vec<bool>` bitmaps, kept
    //! verbatim as the semantic oracle: equivalence property tests pin the
    //! vectorized kernels to it, and `benchmark/` re-checks them against it
    //! on every run.

    use super::*;
    use crate::column::Keys;
    use crate::plan::RowWeight;
    use crate::predicate::Predicate;
    use std::collections::BTreeMap;

    /// Row-at-a-time [`super::execute`]: per-dimension `Vec<bool>` bitmaps,
    /// then one closure-dispatched scan of the fact table.
    pub fn execute(schema: &StarSchema, query: &StarQuery) -> Result<QueryResult, EngineError> {
        // Phase 1: per-dimension pass bitmaps.
        let bitmaps = dimension_bitmaps(schema, &query.predicates)?;

        // Group-by lookups: per group attribute, (dim index, codes by pk).
        let mut group_lookups: Vec<(usize, &[u32])> = Vec::with_capacity(query.group_by.len());
        for g in &query.group_by {
            let di = schema.dim_index(&g.table)?;
            let codes = schema.dims()[di].table.codes(&g.attr)?;
            group_lookups.push((di, codes));
        }

        // Per-dimension fk arrays, fetched once.
        let fks: Vec<Keys> =
            schema.dims().iter().map(|d| schema.fact().key(&d.fk)).collect::<Result<_, _>>()?;

        let weight = RowWeight::resolve(schema, &query.agg)?;
        let fact_rows = schema.fact().num_rows();

        if query.group_by.is_empty() {
            let mut total = 0.0;
            for row in 0..fact_rows {
                if row_passes(&bitmaps, &fks, row) {
                    total += weight.at(row);
                }
            }
            Ok(QueryResult::Scalar(total))
        } else {
            let mut groups: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
            let mut key = vec![0u32; group_lookups.len()];
            for row in 0..fact_rows {
                if row_passes(&bitmaps, &fks, row) {
                    for (slot, (di, codes)) in key.iter_mut().zip(&group_lookups) {
                        *slot = codes[fks[*di].get(row) as usize];
                    }
                    *groups.entry(key.clone()).or_insert(0.0) += weight.at(row);
                }
            }
            Ok(QueryResult::Groups(groups))
        }
    }

    /// Row-at-a-time [`super::execute_weighted`].
    pub fn execute_weighted(
        schema: &StarSchema,
        predicates: &[WeightedPredicate],
        agg: &Agg,
    ) -> Result<f64, EngineError> {
        // Per-dimension weight tables indexed by pk (product over multiple
        // weighted predicates on the same dimension).
        let mut tables: Vec<Option<Vec<f64>>> = vec![None; schema.num_dims()];
        for wp in predicates {
            let di = schema.dim_index(&wp.table)?;
            let dim = &schema.dims()[di];
            let codes = dim.table.codes(&wp.attr)?;
            let domain = dim.table.domain(&wp.attr)?;
            if wp.weights.len() != domain.size() as usize {
                return Err(EngineError::WeightLengthMismatch {
                    attr: wp.attr.clone(),
                    got: wp.weights.len(),
                    expected: domain.size(),
                });
            }
            let table = tables[di].get_or_insert_with(|| vec![1.0; dim.table.num_rows()]);
            for (slot, &code) in table.iter_mut().zip(codes) {
                *slot *= wp.weights[code as usize];
            }
        }

        let fks: Vec<Keys> =
            schema.dims().iter().map(|d| schema.fact().key(&d.fk)).collect::<Result<_, _>>()?;
        let weight = RowWeight::resolve(schema, agg)?;

        let mut total = 0.0;
        for row in 0..schema.fact().num_rows() {
            let mut w = weight.at(row);
            if w == 0.0 {
                continue;
            }
            for (di, table) in tables.iter().enumerate() {
                if let Some(t) = table {
                    w *= t[fks[di].get(row) as usize];
                    if w == 0.0 {
                        break;
                    }
                }
            }
            total += w;
        }
        Ok(total)
    }

    /// Builds per-dimension pass bitmaps for a predicate conjunction;
    /// `None` means "no predicate on this dimension" (all rows pass).
    pub(crate) fn dimension_bitmaps(
        schema: &StarSchema,
        predicates: &[Predicate],
    ) -> Result<Vec<Option<Vec<bool>>>, EngineError> {
        let mut bitmaps: Vec<Option<Vec<bool>>> = vec![None; schema.num_dims()];
        for pred in predicates {
            // Star predicate: directly on a dimension.
            if let Ok(di) = schema.dim_index(&pred.table) {
                let dim = &schema.dims()[di];
                let codes = dim.table.codes(&pred.attr)?;
                let domain = dim.table.domain(&pred.attr)?;
                pred.constraint.validate(domain)?;
                let bitmap = bitmaps[di].get_or_insert_with(|| vec![true; dim.table.num_rows()]);
                for (slot, &code) in bitmap.iter_mut().zip(codes) {
                    *slot = *slot && pred.constraint.matches(code);
                }
                continue;
            }
            // Snowflake predicate: on a sub-dimension, folded into the parent.
            if let Some((parent, sub)) = schema.subdim(&pred.table) {
                let sub_codes = sub.table.codes(&pred.attr)?;
                let domain = sub.table.domain(&pred.attr)?;
                pred.constraint.validate(domain)?;
                let sub_pass: Vec<bool> =
                    sub_codes.iter().map(|&c| pred.constraint.matches(c)).collect();
                let link = parent.table.key(&sub.fk_in_dim)?;
                let di = schema.dim_index(parent.table.name())?;
                let bitmap = bitmaps[di].get_or_insert_with(|| vec![true; parent.table.num_rows()]);
                for (slot, sk) in bitmap.iter_mut().zip(link.iter()) {
                    *slot = *slot && sub_pass[sk as usize];
                }
                continue;
            }
            return Err(EngineError::UnknownTable(pred.table.clone()));
        }
        Ok(bitmaps)
    }

    #[inline]
    fn row_passes(bitmaps: &[Option<Vec<bool>>], fks: &[Keys], row: usize) -> bool {
        bitmaps.iter().enumerate().all(|(di, b)| match b {
            Some(bits) => bits[fks[di].get(row) as usize],
            None => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::domain::Domain;
    use crate::predicate::Predicate;
    use crate::query::GroupAttr;
    use crate::schema::{Dimension, SubDimension};
    use crate::table::Table;

    /// Two dimensions (A: 3 rows, B: 2 rows), 6 fact rows.
    ///
    /// A.attr = [0, 1, 2]; B.attr = [0, 1]
    /// fact fk_a = [0, 0, 1, 1, 2, 2], fk_b = [0, 1, 0, 1, 0, 1]
    /// fact qty  = [1, 2, 3, 4, 5, 6], cost = [1, 1, 1, 1, 1, 1]
    fn schema() -> StarSchema {
        let da = Domain::numeric("attr", 3).unwrap();
        let db = Domain::numeric("attr", 2).unwrap();
        let a = Table::new(
            "A",
            vec![Column::key("pk", vec![0, 1, 2]), Column::attr("attr", da, vec![0, 1, 2])],
        )
        .unwrap();
        let b = Table::new(
            "B",
            vec![Column::key("pk", vec![0, 1]), Column::attr("attr", db, vec![0, 1])],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![
                Column::key("fk_a", vec![0, 0, 1, 1, 2, 2]),
                Column::key("fk_b", vec![0, 1, 0, 1, 0, 1]),
                Column::measure("qty", vec![1, 2, 3, 4, 5, 6]),
                Column::measure("cost", vec![1, 1, 1, 1, 1, 1]),
            ],
        )
        .unwrap();
        StarSchema::new(
            fact,
            vec![Dimension::new(a, "pk", "fk_a"), Dimension::new(b, "pk", "fk_b")],
        )
        .unwrap()
    }

    #[test]
    fn count_without_predicates_is_fact_size() {
        let s = schema();
        let q = StarQuery::count("all");
        assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 6.0);
    }

    #[test]
    fn count_with_point_predicate() {
        let s = schema();
        let q = StarQuery::count("q").with(Predicate::point("A", "attr", 1));
        // fk_a == 1 → rows 2, 3.
        assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 2.0);
    }

    #[test]
    fn conjunction_across_dimensions() {
        let s = schema();
        let q = StarQuery::count("q")
            .with(Predicate::range("A", "attr", 1, 2))
            .with(Predicate::point("B", "attr", 0));
        // fk_a ∈ {1,2} and fk_b == 0 → rows 2 and 4.
        assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 2.0);
    }

    #[test]
    fn sum_and_sumdiff() {
        let s = schema();
        let q = StarQuery::sum("q", "qty").with(Predicate::point("B", "attr", 1));
        // rows 1, 3, 5 → qty 2 + 4 + 6 = 12.
        assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 12.0);
        let q = StarQuery::sum_diff("q", "qty", "cost").with(Predicate::point("B", "attr", 1));
        assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 9.0);
    }

    #[test]
    fn group_by_partitions_count() {
        let s = schema();
        let q = StarQuery::count("q").group_by(GroupAttr::new("A", "attr"));
        let res = execute(&s, &q).unwrap();
        let groups = res.groups().unwrap();
        assert_eq!(groups.len(), 3);
        for v in groups.values() {
            assert_eq!(*v, 2.0);
        }
        // Group totals must equal the ungrouped count.
        assert_eq!(groups.values().sum::<f64>(), 6.0);
    }

    #[test]
    fn group_by_two_attrs() {
        let s = schema();
        let q = StarQuery::sum("q", "qty")
            .group_by(GroupAttr::new("A", "attr"))
            .group_by(GroupAttr::new("B", "attr"));
        let res = execute(&s, &q).unwrap();
        let groups = res.groups().unwrap();
        assert_eq!(groups.len(), 6, "each (a,b) pair is its own group");
        assert_eq!(groups[&vec![2u32, 1u32]], 6.0);
    }

    #[test]
    fn conjunction_on_same_dimension_intersects() {
        // Two predicates on the same dim attr: only codes satisfying both.
        let s = schema();
        let q = StarQuery::count("q")
            .with(Predicate::range("A", "attr", 0, 1))
            .with(Predicate::range("A", "attr", 1, 2));
        assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 2.0, "only attr==1 rows");
    }

    #[test]
    fn unknown_table_or_attr_errors() {
        let s = schema();
        let q = StarQuery::count("q").with(Predicate::point("Z", "attr", 0));
        assert!(matches!(execute(&s, &q), Err(EngineError::UnknownTable(_))));
        let q = StarQuery::count("q").with(Predicate::point("A", "ghost", 0));
        assert!(matches!(execute(&s, &q), Err(EngineError::UnknownColumn { .. })));
    }

    #[test]
    fn constraint_outside_domain_errors() {
        let s = schema();
        let q = StarQuery::count("q").with(Predicate::point("A", "attr", 17));
        assert!(matches!(execute(&s, &q), Err(EngineError::InvalidConstraint(_))));
    }

    #[test]
    fn weighted_execution_matches_binary_when_indicator() {
        let s = schema();
        // Weighted predicate == indicator of A.attr ∈ {1,2}.
        let wp = WeightedPredicate::new("A", "attr", vec![0.0, 1.0, 1.0]);
        let got = execute_weighted(&s, &[wp], &Agg::Count).unwrap();
        let q = StarQuery::count("q").with(Predicate::range("A", "attr", 1, 2));
        let want = execute(&s, &q).unwrap().scalar().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn weighted_execution_fractional_weights() {
        let s = schema();
        let wp = WeightedPredicate::new("A", "attr", vec![0.5, 0.0, 0.0]);
        // Rows with fk_a == 0 (rows 0, 1) each weigh 0.5 → 1.0.
        let got = execute_weighted(&s, &[wp], &Agg::Count).unwrap();
        assert!((got - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_multiplies_across_dimensions() {
        let s = schema();
        let wa = WeightedPredicate::new("A", "attr", vec![1.0, 0.5, 0.0]);
        let wb = WeightedPredicate::new("B", "attr", vec![0.0, 2.0]);
        // Row weights: fk_a factor × fk_b factor:
        // row0 (0,0): 1.0×0 = 0;  row1 (0,1): 1×2 = 2;
        // row2 (1,0): 0;          row3 (1,1): 0.5×2 = 1;
        // row4 (2,0): 0;          row5 (2,1): 0×2 = 0.  Total 3.
        let got = execute_weighted(&s, &[wa, wb], &Agg::Count).unwrap();
        assert!((got - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_wrong_length_errors() {
        let s = schema();
        let wp = WeightedPredicate::new("A", "attr", vec![1.0, 1.0]); // domain is 3
        assert!(matches!(
            execute_weighted(&s, &[wp], &Agg::Count),
            Err(EngineError::WeightLengthMismatch { .. })
        ));
    }

    #[test]
    fn snowflake_predicate_folds_into_parent() {
        // Sub-table S with attr [0, 1]; dim A rows link sk = [0, 1, 0].
        let ds = Domain::numeric("sattr", 2).unwrap();
        let sub = Table::new(
            "S",
            vec![Column::key("pk", vec![0, 1]), Column::attr("sattr", ds, vec![0, 1])],
        )
        .unwrap();
        let da = Domain::numeric("attr", 3).unwrap();
        let a = Table::new(
            "A",
            vec![
                Column::key("pk", vec![0, 1, 2]),
                Column::attr("attr", da, vec![0, 1, 2]),
                Column::key("sk", vec![0, 1, 0]),
            ],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![Column::key("fk_a", vec![0, 1, 2, 2]), Column::measure("qty", vec![1, 1, 1, 1])],
        )
        .unwrap();
        let dim = Dimension::new(a, "pk", "fk_a").with_subdim(SubDimension {
            table: sub,
            pk: "pk".into(),
            fk_in_dim: "sk".into(),
        });
        let schema = StarSchema::new(fact, vec![dim]).unwrap();
        // S.sattr == 0 admits dim rows {0, 2} → fact rows 0, 2, 3.
        let q = StarQuery::count("q").with(Predicate::point("S", "sattr", 0));
        assert_eq!(execute(&schema, &q).unwrap().scalar().unwrap(), 3.0);
        // Conjunction with a star predicate on the same dimension.
        let q = StarQuery::count("q")
            .with(Predicate::point("S", "sattr", 0))
            .with(Predicate::range("A", "attr", 2, 2));
        assert_eq!(execute(&schema, &q).unwrap().scalar().unwrap(), 2.0);
    }

    #[test]
    fn batch_matches_singles_and_reference() {
        let s = schema();
        let queries = vec![
            StarQuery::count("q0").with(Predicate::point("A", "attr", 1)),
            StarQuery::sum("q1", "qty").with(Predicate::point("B", "attr", 1)),
            StarQuery::count("q2")
                .with(Predicate::range("A", "attr", 0, 1))
                .group_by(GroupAttr::new("B", "attr")),
            StarQuery::count("q3"),
        ];
        let batch = execute_batch(&s, &queries).unwrap();
        let parallel = execute_batch_with(&s, &queries, ScanOptions::parallel(3)).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let oracle = reference::execute(&s, q).unwrap();
            assert_eq!(batch[i], oracle, "batch[{i}]");
            assert_eq!(parallel[i], oracle, "parallel[{i}]");
        }
    }

    #[test]
    fn weighted_batch_matches_reference() {
        let s = schema();
        let items = vec![
            WeightedQuery::count(vec![WeightedPredicate::new("A", "attr", vec![1.0, 0.5, 0.0])]),
            WeightedQuery {
                predicates: vec![WeightedPredicate::new("B", "attr", vec![0.25, 2.0])],
                agg: Agg::Sum("qty".into()),
            },
        ];
        let batch = execute_weighted_batch(&s, &items).unwrap();
        for (i, item) in items.iter().enumerate() {
            let oracle = reference::execute_weighted(&s, &item.predicates, &item.agg).unwrap();
            assert_eq!(batch[i], oracle, "weighted batch[{i}] must be bit-identical");
        }
    }

    #[test]
    fn batch_error_reports_offending_query() {
        let s = schema();
        let queries = vec![
            StarQuery::count("ok"),
            StarQuery::count("bad").with(Predicate::point("Z", "a", 0)),
        ];
        assert!(matches!(execute_batch(&s, &queries), Err(EngineError::UnknownTable(_))));
    }
}
