//! Snowflake-schema variant (paper §5.3 and Figure 10).
//!
//! The paper extends star queries to the snowflake model by normalizing the
//! `Date` dimension: `Date.month < 7` becomes
//! `Date.MK = Month.MK AND Month.month < 7`. This module builds the SSB
//! schema with a `Month` sub-dimension hanging off `Date`, plus the two
//! TPC-H-style evaluation queries `Qtc` (COUNT) and `Qts` (SUM).

use crate::gen::{self, SsbConfig};
use crate::labels;
use starj_engine::{
    Column, Dimension, Domain, EngineError, Predicate, StarQuery, StarSchema, SubDimension, Table,
};

/// Builds the snowflake instance: the regular SSB schema whose `Date`
/// dimension references a 12-row `Month` sub-table through an `mk` key.
pub fn generate_snowflake(config: &SsbConfig) -> Result<StarSchema, EngineError> {
    let star = gen::generate(config)?;
    let (fact, mut dims) = star.into_parts();

    // Month sub-table: pk 0..12, attribute `monthnum` (domain 12).
    let month_domain = Domain::numeric("monthnum", 12)?;
    let month = Table::new(
        "Month",
        vec![
            Column::key("mk", (0..12).collect()),
            Column::attr("monthnum", month_domain, (0..12).collect()),
        ],
    )?;

    // Rebuild Date with an `mk` key column mirroring its month attribute.
    let date_idx = dims
        .iter()
        .position(|d| d.table.name() == "Date")
        .ok_or_else(|| EngineError::UnknownTable("Date".into()))?;
    let old_date = &dims[date_idx].table;
    let months = old_date.codes("month")?.to_vec();
    let mut columns: Vec<Column> = old_date.columns().to_vec();
    columns.push(Column::key("mk", months));
    let new_date = Table::new("Date", columns)?;

    dims[date_idx] = Dimension::new(new_date, "dk", "orderdate").with_subdim(SubDimension {
        table: month,
        pk: "mk".into(),
        fk_in_dim: "mk".into(),
    });
    StarSchema::new(fact, dims)
}

fn region(label: &str) -> u32 {
    labels::REGIONS.iter().position(|r| *r == label).expect("known region") as u32
}

/// `Qtc`: snowflake COUNT — `Customer.region = 'ASIA' AND Month.monthnum < 7`
/// (the paper's hierarchized `Date.month < 7` predicate).
pub fn qtc() -> StarQuery {
    StarQuery::count("Qtc")
        .with(Predicate::point("Customer", "region", region("ASIA")))
        .with(Predicate::range("Month", "monthnum", 0, 5))
}

/// `Qts`: snowflake SUM(revenue) with `Qtc`'s predicates.
pub fn qts() -> StarQuery {
    let q = qtc();
    StarQuery { name: "Qts".into(), agg: starj_engine::Agg::Sum("revenue".into()), ..q }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::execute;

    fn snow() -> StarSchema {
        generate_snowflake(&SsbConfig { scale: 0.002, seed: 11, ..Default::default() }).unwrap()
    }

    #[test]
    fn month_subdim_resolves() {
        let s = snow();
        let (parent, sub) = s.subdim("Month").expect("Month must hang off Date");
        assert_eq!(parent.table.name(), "Date");
        assert_eq!(sub.table.num_rows(), 12);
    }

    #[test]
    fn date_mk_mirrors_month_attribute() {
        let s = snow();
        let date = &s.dim("Date").unwrap().table;
        assert_eq!(date.key("mk").unwrap(), *date.codes("month").unwrap());
    }

    #[test]
    fn snowflake_predicate_equals_flattened_predicate() {
        // Month.monthnum < 7 through the snowflake must equal Date.month < 7
        // asked directly of the denormalized attribute.
        let s = snow();
        let via_snowflake = execute(
            &s,
            &StarQuery::count("snow").with(Predicate::range("Month", "monthnum", 0, 6)),
        )
        .unwrap()
        .scalar()
        .unwrap();
        let via_star =
            execute(&s, &StarQuery::count("flat").with(Predicate::range("Date", "month", 0, 6)))
                .unwrap()
                .scalar()
                .unwrap();
        assert_eq!(via_snowflake, via_star);
        assert!(via_snowflake > 0.0, "first-half-of-year rows must exist");
    }

    #[test]
    fn qtc_qts_execute() {
        let s = snow();
        let c = execute(&s, &qtc()).unwrap().scalar().unwrap();
        let v = execute(&s, &qts()).unwrap().scalar().unwrap();
        assert!(c > 0.0);
        assert!(v > c, "sum of revenue exceeds count for the same rows");
    }
}
