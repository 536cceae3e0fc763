//! Admission control: reject malformed requests **before** any budget is
//! reserved.
//!
//! A query that names an unknown table, an attribute outside its domain, or
//! a non-measure aggregate target would fail inside the mechanism anyway —
//! but by then the accountant would have had to reserve and refund. Checking
//! everything against the schema up front keeps the reserve path on the
//! happy side: after admission, the only legitimate failure left is the
//! mechanism itself, and that path refunds via the reservation's RAII.

use crate::error::ServiceError;
use dp_starj::PredicateWorkload;
use starj_engine::{cost_model_for, BitSet, EngineError, Predicate, StarQuery, StarSchema};

/// Validates a star-join query against the schema: aggregate measures exist
/// on the fact table, every predicate resolves to a dimension (or snowflake
/// sub-dimension) attribute and lies inside its domain, and every GROUP BY
/// attribute is a dimension attribute the engine can group on.
pub fn validate_query(schema: &StarSchema, query: &StarQuery) -> Result<(), ServiceError> {
    match &query.agg {
        starj_engine::Agg::Count => {}
        starj_engine::Agg::Sum(m) => {
            schema.fact().measure(m)?;
        }
        starj_engine::Agg::SumDiff(a, b) => {
            schema.fact().measure(a)?;
            schema.fact().measure(b)?;
        }
    }

    for pred in &query.predicates {
        let domain = if let Ok(dim) = schema.dim(&pred.table) {
            dim.table.domain(&pred.attr)?
        } else if let Some((_, sub)) = schema.subdim(&pred.table) {
            sub.table.domain(&pred.attr)?
        } else {
            return Err(EngineError::UnknownTable(pred.table.clone()).into());
        };
        pred.constraint.validate(domain)?;
    }

    for group in &query.group_by {
        // The executor resolves GROUP BY against dimensions only (snowflake
        // sub-dimension grouping is not supported), so admission mirrors it.
        let dim = schema.dim(&group.table)?;
        dim.table.codes(&group.attr)?;
    }
    Ok(())
}

/// The DPSQL+ minimum-frequency rule: refuse any predicate whose
/// cost-model estimated pass count (estimated passing fraction × fact
/// rows) falls below `floor`. Releasing a DP answer about a handful of
/// rows is formally fine, but deployments following DPSQL+ refuse such
/// queries outright as a cheap second line of defense — and the refusal is
/// an *admission* decision, so it happens before any budget is reserved.
///
/// `floor == 0` disables the guard. Estimates come from the shared sampled
/// cost model ([`starj_engine::cost`]): exact on small instances, a
/// WanderJoin-style sample elsewhere — the guard is a policy heuristic,
/// not a privacy mechanism, so a sampling error only moves the refusal
/// boundary, never a ledger bit.
pub fn min_frequency_check(
    schema: &StarSchema,
    predicates: &[Predicate],
    floor: u64,
) -> Result<(), ServiceError> {
    if floor == 0 || predicates.is_empty() {
        return Ok(());
    }
    let model = cost_model_for(schema).map_err(ServiceError::InvalidQuery)?;
    let fact_rows = model.fact_rows() as f64;
    for pred in predicates {
        // Build the dimension pass mask the estimator scores: one bit per
        // dimension row, set iff the row satisfies the predicate. Snowflake
        // predicates fold onto the parent dimension through the link key,
        // exactly as the scan planner does.
        let (dim_index, mask) = if let Ok(dim) = schema.dim(&pred.table) {
            let codes = dim.table.codes(&pred.attr)?;
            let mut mask = BitSet::zeros(codes.len());
            for (row, &code) in codes.iter().enumerate() {
                mask.set(row, pred.constraint.matches(code));
            }
            (schema.dim_index(&pred.table)?, mask)
        } else if let Some((parent, sub)) = schema.subdim(&pred.table) {
            let sub_attr = sub.table.codes(&pred.attr)?;
            let sub_pk = sub.table.key(&sub.pk)?;
            let links = parent.table.key(&sub.fk_in_dim)?;
            let mut mask = BitSet::zeros(links.len());
            for (row, link) in links.iter().enumerate() {
                let passes = sub_pk
                    .iter()
                    .position(|pk| pk == link)
                    .is_some_and(|s| pred.constraint.matches(sub_attr[s]));
                mask.set(row, passes);
            }
            (schema.dim_index(parent.table.name())?, mask)
        } else {
            return Err(EngineError::UnknownTable(pred.table.clone()).into());
        };
        let estimated_rows = model.pass_fraction(dim_index, &mask).fraction * fact_rows;
        if estimated_rows < floor as f64 {
            return Err(ServiceError::BelowMinFrequency {
                table: pred.table.clone(),
                attr: pred.attr.clone(),
                estimated_rows,
                floor,
            });
        }
    }
    Ok(())
}

/// Validates a WD workload against the schema: every block must name a
/// dimension attribute whose declared domain size matches the block's, and
/// every constraint must lie inside that domain.
pub fn validate_workload(
    schema: &StarSchema,
    workload: &PredicateWorkload,
) -> Result<(), ServiceError> {
    for (bi, block) in workload.blocks.iter().enumerate() {
        let dim = schema.dim(&block.table)?;
        let domain = dim.table.domain(&block.attr)?;
        if domain.size() != block.domain {
            return Err(EngineError::InvalidConstraint(format!(
                "workload block `{}.{}` declares domain size {}, schema has {}",
                block.table,
                block.attr,
                block.domain,
                domain.size()
            ))
            .into());
        }
        for row in &workload.rows {
            row[bi].validate(domain)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_starj::workload::WorkloadBlock;
    use starj_engine::{Column, Constraint, Dimension, Domain, GroupAttr, Predicate, Table};

    fn toy_schema() -> StarSchema {
        let color = Domain::numeric("color", 4).unwrap();
        let dim = Table::new(
            "D",
            vec![
                Column::key("pk", vec![0, 1, 2, 3]),
                Column::attr("color", color, vec![0, 1, 2, 3]),
            ],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![
                Column::key("fk", vec![0, 1, 2, 3, 3]),
                Column::measure("qty", vec![1, 2, 3, 4, 5]),
            ],
        )
        .unwrap();
        StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
    }

    #[test]
    fn valid_query_admits() {
        let schema = toy_schema();
        let q = StarQuery::sum("q", "qty")
            .with(Predicate::range("D", "color", 1, 2))
            .group_by(GroupAttr::new("D", "color"));
        assert!(validate_query(&schema, &q).is_ok());
    }

    #[test]
    fn unknown_table_attribute_and_measure_reject() {
        let schema = toy_schema();
        let bad_table = StarQuery::count("q").with(Predicate::point("Nope", "color", 0));
        assert!(matches!(
            validate_query(&schema, &bad_table),
            Err(ServiceError::InvalidQuery(EngineError::UnknownTable(_)))
        ));
        let bad_attr = StarQuery::count("q").with(Predicate::point("D", "shade", 0));
        assert!(validate_query(&schema, &bad_attr).is_err());
        let bad_measure = StarQuery::sum("q", "revenue");
        assert!(validate_query(&schema, &bad_measure).is_err());
        let bad_group = StarQuery::count("q").group_by(GroupAttr::new("D", "shade"));
        assert!(validate_query(&schema, &bad_group).is_err());
    }

    #[test]
    fn out_of_domain_constraint_rejects() {
        let schema = toy_schema();
        let q = StarQuery::count("q").with(Predicate::point("D", "color", 9));
        assert!(matches!(
            validate_query(&schema, &q),
            Err(ServiceError::InvalidQuery(EngineError::InvalidConstraint(_)))
        ));
    }

    #[test]
    fn min_frequency_guard_is_off_at_floor_zero() {
        let schema = toy_schema();
        // color = 0 admits exactly 1 of 5 fact rows; with the guard off even
        // the rarest predicate passes.
        let q = StarQuery::count("q").with(Predicate::point("D", "color", 0));
        assert!(min_frequency_check(&schema, &q.predicates, 0).is_ok());
        // A predicate-free query trivially passes at any floor.
        assert!(min_frequency_check(&schema, &[], u64::MAX).is_ok());
    }

    #[test]
    fn min_frequency_guard_refuses_below_floor_and_admits_at_floor() {
        let schema = toy_schema();
        // Fact fks are [0, 1, 2, 3, 3]: color = 3 admits 2 rows, color = 0
        // admits 1. The toy instance is small enough that the cost model is
        // exact, so the boundary is sharp.
        let rare = StarQuery::count("q").with(Predicate::point("D", "color", 0));
        match min_frequency_check(&schema, &rare.predicates, 2) {
            Err(ServiceError::BelowMinFrequency { table, attr, estimated_rows, floor }) => {
                assert_eq!(table, "D");
                assert_eq!(attr, "color");
                assert!((estimated_rows - 1.0).abs() < 1e-9, "got {estimated_rows}");
                assert_eq!(floor, 2);
            }
            other => panic!("expected BelowMinFrequency, got {other:?}"),
        }
        let common = StarQuery::count("q").with(Predicate::point("D", "color", 3));
        assert!(min_frequency_check(&schema, &common.predicates, 2).is_ok());
        assert!(min_frequency_check(&schema, &common.predicates, 3).is_err());
    }

    #[test]
    fn min_frequency_guard_resolves_snowflake_predicates() {
        // D(pk, sk) → S(sk, tier): S rows 0/1 carry tier 0/1, dimension rows
        // [0, 1] link to S rows [0, 1], fact fks [0, 0, 1] → tier = 1 admits
        // 1 of 3 fact rows.
        let tier = Domain::numeric("tier", 2).unwrap();
        let sub = Table::new(
            "S",
            vec![Column::key("sk", vec![0, 1]), Column::attr("tier", tier, vec![0, 1])],
        )
        .unwrap();
        let dim =
            Table::new("D", vec![Column::key("pk", vec![0, 1]), Column::key("sk", vec![0, 1])])
                .unwrap();
        let fact = Table::new("F", vec![Column::key("fk", vec![0, 0, 1])]).unwrap();
        let dim = Dimension::new(dim, "pk", "fk").with_subdim(starj_engine::SubDimension {
            table: sub,
            pk: "sk".into(),
            fk_in_dim: "sk".into(),
        });
        let schema = StarSchema::new(fact, vec![dim]).unwrap();

        let q = StarQuery::count("q").with(Predicate::point("S", "tier", 1));
        assert!(min_frequency_check(&schema, &q.predicates, 1).is_ok());
        assert!(matches!(
            min_frequency_check(&schema, &q.predicates, 2),
            Err(ServiceError::BelowMinFrequency { estimated_rows, .. })
                if (estimated_rows - 1.0).abs() < 1e-9
        ));
    }

    #[test]
    fn workload_block_domain_must_match_schema() {
        let schema = toy_schema();
        let good = PredicateWorkload::new(
            vec![WorkloadBlock { table: "D".into(), attr: "color".into(), domain: 4 }],
            vec![vec![Constraint::Point(1)], vec![Constraint::Range { lo: 0, hi: 2 }]],
        )
        .unwrap();
        assert!(validate_workload(&schema, &good).is_ok());

        let wrong_size = PredicateWorkload::new(
            vec![WorkloadBlock { table: "D".into(), attr: "color".into(), domain: 7 }],
            vec![vec![Constraint::Point(1)]],
        )
        .unwrap();
        assert!(validate_workload(&schema, &wrong_size).is_err());

        let out_of_domain = PredicateWorkload::new(
            vec![WorkloadBlock { table: "D".into(), attr: "color".into(), domain: 4 }],
            vec![vec![Constraint::Point(9)]],
        )
        .unwrap();
        assert!(validate_workload(&schema, &out_of_domain).is_err());
    }
}
