//! The paper's SSB query suite (Appendix A.1) plus the Figure 8
//! domain-size query family.
//!
//! Predicate constants are resolved from the label vocabularies so each
//! query matches its SQL text; the documented domain-size products (Qc1: 7,
//! Qc2: 25×5, Qc3: 5×5×7, Qc4: 5×25×7×5) are asserted in tests.

use crate::labels;
use starj_engine::{GroupAttr, Predicate, StarQuery};

fn region(label: &str) -> u32 {
    labels::REGIONS.iter().position(|r| *r == label).expect("known region") as u32
}

fn nation(label: &str) -> u32 {
    labels::NATIONS.iter().position(|n| *n == label).expect("known nation") as u32
}

fn category(label: &str) -> u32 {
    labels::category_labels().iter().position(|c| c == label).expect("known category") as u32
}

/// `Qc1`: COUNT, `Date.year = 1993`. Domain size 7.
pub fn qc1() -> StarQuery {
    StarQuery::count("Qc1").with(Predicate::point("Date", "year", labels::year_code(1993)))
}

/// `Qc2`: COUNT, `Part.category = 'MFGR#12' AND Supplier.region = 'AMERICA'`.
/// Domain sizes 25 × 5.
pub fn qc2() -> StarQuery {
    StarQuery::count("Qc2")
        .with(Predicate::point("Part", "category", category("MFGR#12")))
        .with(Predicate::point("Supplier", "region", region("AMERICA")))
}

/// `Qc3`: COUNT, `Customer.region = 'ASIA' AND Supplier.region = 'ASIA' AND
/// Date.year BETWEEN 1992 AND 1997`. Domain sizes 5 × 5 × 7.
pub fn qc3() -> StarQuery {
    StarQuery::count("Qc3")
        .with(Predicate::point("Customer", "region", region("ASIA")))
        .with(Predicate::point("Supplier", "region", region("ASIA")))
        .with(Predicate::range("Date", "year", labels::year_code(1992), labels::year_code(1997)))
}

/// `Qc4`: COUNT over all four dimensions: `Customer.region = 'AMERICA' AND
/// Supplier.nation = 'UNITED STATES' AND Date.year BETWEEN 1997 AND 1998 AND
/// Part.mfgr ∈ {'MFGR#1','MFGR#2'}`. Domain sizes 5 × 25 × 7 × 5.
pub fn qc4() -> StarQuery {
    StarQuery::count("Qc4")
        .with(Predicate::point("Customer", "region", region("AMERICA")))
        .with(Predicate::point("Supplier", "nation", nation("UNITED STATES")))
        .with(Predicate::range("Date", "year", labels::year_code(1997), labels::year_code(1998)))
        .with(Predicate::set("Part", "mfgr", vec![0, 1]))
}

/// `Qs2`: SUM(revenue) with `Qc2`'s predicates.
pub fn qs2() -> StarQuery {
    let mut q = qc2();
    q.name = "Qs2".into();
    StarQuery { agg: starj_engine::Agg::Sum("revenue".into()), ..q }
}

/// `Qs3`: SUM(revenue) with `Qc3`'s predicates.
pub fn qs3() -> StarQuery {
    let q = qc3();
    StarQuery { name: "Qs3".into(), agg: starj_engine::Agg::Sum("revenue".into()), ..q }
}

/// `Qs4`: SUM(revenue) with `Qc4`'s predicates.
pub fn qs4() -> StarQuery {
    let q = qc4();
    StarQuery { name: "Qs4".into(), agg: starj_engine::Agg::Sum("revenue".into()), ..q }
}

/// `Qg2`: SUM(revenue) with `Qc2`'s predicates, GROUP BY `Date.year,
/// Part.brand`.
pub fn qg2() -> StarQuery {
    let q = qs2();
    StarQuery { name: "Qg2".into(), ..q }
        .group_by(GroupAttr::new("Date", "year"))
        .group_by(GroupAttr::new("Part", "brand"))
}

/// `Qg4`: SUM(revenue − supplycost) with `Qc4`'s predicates, GROUP BY
/// `Date.year, Part.category`.
pub fn qg4() -> StarQuery {
    let q = qc4();
    StarQuery {
        name: "Qg4".into(),
        agg: starj_engine::Agg::SumDiff("revenue".into(), "supplycost".into()),
        ..q
    }
    .group_by(GroupAttr::new("Date", "year"))
    .group_by(GroupAttr::new("Part", "category"))
}

/// All nine Table-1 queries, in the paper's column order.
pub fn all_queries() -> Vec<StarQuery> {
    vec![qc1(), qc2(), qc3(), qc4(), qs2(), qs3(), qs4(), qg2(), qg4()]
}

/// The Figure 8 family: two-dimension COUNT queries with the paper's domain
/// size combinations `{5×7, 5×10⁴, 250×10⁴, 5×366, 250×366}`.
///
/// Returns `(label, query)` pairs; labels match the figure's x-axis.
pub fn domain_size_queries() -> Vec<(String, StarQuery)> {
    let asia = region("ASIA");
    vec![
        (
            "5x7".into(),
            StarQuery::count("D_5x7")
                .with(Predicate::point("Customer", "region", asia))
                .with(Predicate::range("Date", "year", 0, 3)),
        ),
        (
            "5x10^4".into(),
            StarQuery::count("D_5x10e4")
                .with(Predicate::point("Customer", "region", asia))
                .with(Predicate::range("Supplier", "address", 0, 4_999)),
        ),
        (
            "250x10^4".into(),
            StarQuery::count("D_250x10e4")
                .with(Predicate::range("Customer", "city", 100, 149))
                .with(Predicate::range("Supplier", "address", 0, 4_999)),
        ),
        (
            "5x366".into(),
            StarQuery::count("D_5x366")
                .with(Predicate::point("Customer", "region", asia))
                .with(Predicate::range("Date", "dayofyear", 0, 180)),
        ),
        (
            "250x366".into(),
            StarQuery::count("D_250x366")
                .with(Predicate::range("Customer", "city", 100, 149))
                .with(Predicate::range("Date", "dayofyear", 0, 180)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, SsbConfig};
    use starj_engine::{execute, Agg};

    fn schema() -> starj_engine::StarSchema {
        generate(&SsbConfig { scale: 0.002, seed: 3, ..SsbConfig::default() }).unwrap()
    }

    /// Domain sizes of a query's predicates, looked up in the schema.
    fn domain_sizes(q: &StarQuery, s: &starj_engine::StarSchema) -> Vec<u32> {
        q.predicates
            .iter()
            .map(|p| s.dim(&p.table).unwrap().table.domain(&p.attr).unwrap().size())
            .collect()
    }

    #[test]
    fn qc1_domain_is_7() {
        assert_eq!(domain_sizes(&qc1(), &schema()), vec![7]);
    }

    #[test]
    fn qc2_domains_are_25_5() {
        assert_eq!(domain_sizes(&qc2(), &schema()), vec![25, 5]);
    }

    #[test]
    fn qc3_domains_are_5_5_7() {
        assert_eq!(domain_sizes(&qc3(), &schema()), vec![5, 5, 7]);
    }

    #[test]
    fn qc4_domains_are_5_25_7_5() {
        assert_eq!(domain_sizes(&qc4(), &schema()), vec![5, 25, 7, 5]);
        assert_eq!(qc4().predicate_tables().len(), 4, "touches all dimensions");
    }

    #[test]
    fn sum_queries_share_count_predicates() {
        assert_eq!(qs2().predicates, qc2().predicates);
        assert_eq!(qs3().predicates, qc3().predicates);
        assert_eq!(qs4().predicates, qc4().predicates);
        assert!(matches!(qs2().agg, Agg::Sum(_)));
    }

    #[test]
    fn group_queries_have_group_attrs() {
        let g2 = qg2();
        assert_eq!(g2.group_by.len(), 2);
        assert_eq!(g2.group_by[0].attr, "year");
        assert_eq!(g2.group_by[1].attr, "brand");
        assert!(matches!(qg4().agg, Agg::SumDiff(_, _)));
    }

    #[test]
    fn all_queries_execute_and_select_rows() {
        let s = schema();
        for q in all_queries() {
            let res = execute(&s, &q).expect("query must run");
            // Queries touching all four dimensions (Qc4 family) are so
            // selective they can be legitimately empty at test scale; the
            // broader queries must select rows.
            let selective = q.predicate_tables().len() >= 4;
            match res {
                starj_engine::QueryResult::Scalar(v) => {
                    if !selective && q.agg.is_count() {
                        assert!(v > 0.0, "{}: count selected nothing", q.name);
                    }
                }
                starj_engine::QueryResult::Groups(g) => {
                    if !selective {
                        assert!(!g.is_empty(), "{}: group query selected nothing", q.name);
                    }
                }
            }
        }
    }

    #[test]
    fn qc1_matches_manual_count() {
        let s = schema();
        let got = execute(&s, &qc1()).unwrap().scalar().unwrap();
        // Manual: count fact rows whose orderdate's year code is 1.
        let years = s.dim("Date").unwrap().table.codes("year").unwrap();
        let manual =
            s.fact().key("orderdate").unwrap().iter().filter(|&dk| years[dk as usize] == 1).count()
                as f64;
        assert_eq!(got, manual);
    }

    #[test]
    fn domain_size_queries_have_declared_products() {
        let s = schema();
        let expected: Vec<(u32, u32)> =
            vec![(5, 7), (5, 10_000), (250, 10_000), (5, 366), (250, 366)];
        let qs = domain_size_queries();
        assert_eq!(qs.len(), 5);
        for ((_, q), (d1, d2)) in qs.iter().zip(expected) {
            let doms = domain_sizes(q, &s);
            assert_eq!(doms, vec![d1, d2], "{}", q.name);
            execute(&s, q).expect("fig8 query must run");
        }
    }
}
