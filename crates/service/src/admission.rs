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
use starj_engine::{EngineError, StarQuery, StarSchema};

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
