//! Edge-case and failure-injection tests across the whole stack: empty
//! relations, degenerate domains, zero-selectivity queries, and extreme
//! privacy budgets.

use dp_starj_repro::baselines::{kstar_r2t, LsMechanism, R2tConfig};
use dp_starj_repro::core::pm::{pm_answer, PmConfig};
use dp_starj_repro::core::pma::perturb_constraint;
use dp_starj_repro::engine::{
    execute, Column, Constraint, Dimension, Domain, EngineError, Predicate, StarQuery, StarSchema,
    SubDimension, Table,
};
use dp_starj_repro::graph::{kstar_count, Graph, KStarQuery};
use dp_starj_repro::noise::StarRng;

/// A schema with an empty fact table (0 rows) and one 2-row dimension.
fn empty_fact_schema() -> StarSchema {
    let d = Domain::numeric("x", 3).unwrap();
    let dim =
        Table::new("D", vec![Column::key("pk", vec![0, 1]), Column::attr("x", d, vec![0, 2])])
            .unwrap();
    let fact =
        Table::new("F", vec![Column::key("fk", vec![]), Column::measure("m", vec![])]).unwrap();
    StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
}

#[test]
fn empty_fact_table_counts_zero_everywhere() {
    let s = empty_fact_schema();
    let q = StarQuery::count("q").with(Predicate::point("D", "x", 0));
    assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 0.0);
    let q = StarQuery::sum("q", "m");
    assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 0.0);
}

#[test]
fn pm_runs_on_empty_fact_table() {
    let s = empty_fact_schema();
    let q = StarQuery::count("q").with(Predicate::point("D", "x", 0));
    let mut rng = StarRng::from_seed(1);
    let ans = pm_answer(&s, &q, 1.0, &PmConfig::default(), &mut rng).unwrap();
    assert_eq!(ans.result.scalar().unwrap(), 0.0, "no rows, no count — only the predicate moves");
}

#[test]
fn baselines_handle_zero_selectivity() {
    // A query no entity satisfies: every mechanism must still release
    // something finite (R2T releases ≥ 0 by construction).
    let s = empty_fact_schema();
    let q = StarQuery::count("q").with(Predicate::point("D", "x", 1)); // no dim row has x=1
    let mut rng = StarRng::from_seed(2);
    let cfg = R2tConfig::new(16.0, vec!["D".into()]);
    let r2t = dp_starj_repro::baselines::r2t_answer(&s, &q, 1.0, &cfg, &mut rng).unwrap();
    assert!(r2t.value >= 0.0 && r2t.value.is_finite());
    let ls = LsMechanism::cauchy(vec!["D".into()], 100.0);
    let a = ls.answer(&s, &q, 1.0, &mut rng).unwrap();
    assert!(a.value.is_finite());
    assert_eq!(a.local_sensitivity, 0.0, "nothing qualifies, LS = 0");
}

#[test]
fn single_value_domain_pma_is_identity() {
    // A domain of size 1 leaves no room to move.
    let d = Domain::numeric("only", 1).unwrap();
    let mut rng = StarRng::from_seed(3);
    for _ in 0..100 {
        match perturb_constraint(&Constraint::Point(0), &d, 0.01, &mut rng).unwrap() {
            Constraint::Point(v) => assert_eq!(v, 0),
            other => panic!("got {other:?}"),
        }
    }
}

#[test]
fn degenerate_range_on_tiny_domain_stays_valid() {
    let d = Domain::numeric("two", 2).unwrap();
    let mut rng = StarRng::from_seed(4);
    for _ in 0..500 {
        match perturb_constraint(&Constraint::Range { lo: 1, hi: 1 }, &d, 0.05, &mut rng).unwrap() {
            Constraint::Range { lo, hi } => assert!(lo <= hi && hi < 2),
            other => panic!("got {other:?}"),
        }
    }
}

#[test]
fn edgeless_graph_has_zero_stars_and_mechanisms_cope() {
    let g = Graph::from_edges(10, &[]).unwrap();
    let q = KStarQuery::full(2, 10);
    assert_eq!(kstar_count(&g, &q), 0);
    let mut rng = StarRng::from_seed(5);
    let (pm, _) = dp_starj_repro::core::pm_kstar(&g, &q, 1.0, &mut rng).unwrap();
    assert_eq!(pm, 0.0, "no stars anywhere, noisy range or not");
    let cfg = R2tConfig::new(4.0, vec![]);
    let r2t = kstar_r2t(&g, &q, 1.0, &cfg, &mut rng).unwrap();
    assert!(r2t.value >= 0.0);
}

#[test]
fn single_node_graph() {
    let g = Graph::from_edges(1, &[]).unwrap();
    assert_eq!(g.num_nodes(), 1);
    assert_eq!(g.degree(0), 0);
    assert_eq!(kstar_count(&g, &KStarQuery::full(2, 1)), 0);
}

#[test]
fn extreme_epsilons_are_rejected_not_propagated() {
    let s = empty_fact_schema();
    let q = StarQuery::count("q").with(Predicate::point("D", "x", 0));
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut rng = StarRng::from_seed(6);
        assert!(
            pm_answer(&s, &q, bad, &PmConfig::default(), &mut rng).is_err(),
            "ε = {bad} must be rejected"
        );
    }
}

#[test]
fn very_small_epsilon_still_terminates_quickly() {
    // ε = 1e-9 makes the rejection sampler's acceptance region tiny relative
    // to the noise scale; the bounded-attempts fallback must keep this fast.
    let s = empty_fact_schema();
    let q = StarQuery::count("q").with(Predicate::point("D", "x", 0));
    let start = std::time::Instant::now();
    let mut rng = StarRng::from_seed(7);
    for _ in 0..100 {
        pm_answer(&s, &q, 1e-9, &PmConfig::default(), &mut rng).unwrap();
    }
    assert!(
        start.elapsed().as_secs_f64() < 5.0,
        "PMA must not spin at tiny ε: {:?}",
        start.elapsed()
    );
}

#[test]
fn group_by_on_empty_result_is_empty_map() {
    let s = empty_fact_schema();
    let q = StarQuery::count("q").group_by(dp_starj_repro::engine::GroupAttr::new("D", "x"));
    let res = execute(&s, &q).unwrap();
    assert!(res.groups().unwrap().is_empty());
    // Positional error of empty vs empty is 0.
    assert_eq!(res.positional_relative_error(&res.clone()), 0.0);
}

#[test]
fn malformed_schemas_are_rejected_with_typed_errors_not_panics() {
    // Every shape of referential breakage the scan kernels would otherwise
    // hit as an out-of-bounds read must be refused at construction.
    let d = Domain::numeric("x", 3).unwrap();
    let dim = |name: &str| {
        Table::new(
            name,
            vec![Column::key("pk", vec![0, 1]), Column::attr("x", d.clone(), vec![0, 2])],
        )
        .unwrap()
    };

    // Fact fk referencing a row past the dimension.
    let fact =
        Table::new("F", vec![Column::key("fk", vec![0, 5]), Column::measure("m", vec![1, 1])])
            .unwrap();
    assert!(matches!(
        StarSchema::new(fact, vec![Dimension::new(dim("D"), "pk", "fk")]),
        Err(EngineError::ForeignKeyOutOfRange { value: 5, referenced_rows: 2, .. })
    ));

    // Snowflake sub-link in the dimension referencing past the sub-table.
    let sub = dim("S");
    let parent = Table::new(
        "P",
        vec![
            Column::key("pk", vec![0, 1]),
            Column::attr("x", d.clone(), vec![0, 1]),
            Column::key("sk", vec![0, 9]),
        ],
    )
    .unwrap();
    let fact =
        Table::new("F", vec![Column::key("fk", vec![0, 1]), Column::measure("m", vec![1, 1])])
            .unwrap();
    let dimension = Dimension::new(parent, "pk", "fk").with_subdim(SubDimension {
        table: sub,
        pk: "pk".into(),
        fk_in_dim: "sk".into(),
    });
    assert!(matches!(
        StarSchema::new(fact, vec![dimension]),
        Err(EngineError::ForeignKeyOutOfRange { value: 9, referenced_rows: 2, .. })
    ));

    // Duplicate table names would make predicate resolution ambiguous.
    let fact = Table::new(
        "F",
        vec![
            Column::key("fk_a", vec![0, 1]),
            Column::key("fk_b", vec![0, 1]),
            Column::measure("m", vec![1, 1]),
        ],
    )
    .unwrap();
    assert!(matches!(
        StarSchema::new(
            fact,
            vec![Dimension::new(dim("D"), "pk", "fk_a"), Dimension::new(dim("D"), "pk", "fk_b")]
        ),
        Err(EngineError::DuplicateTable(t)) if t == "D"
    ));
}

#[test]
fn boundary_foreign_keys_admit_and_execute_without_panicking() {
    // fk values exactly at rows−1 are the boundary the validation guards;
    // a validated schema must then scan cleanly through every kernel.
    let d = Domain::numeric("x", 3).unwrap();
    let dim = Table::new(
        "D",
        vec![Column::key("pk", vec![0, 1, 2]), Column::attr("x", d, vec![0, 1, 2])],
    )
    .unwrap();
    let fact = Table::new(
        "F",
        vec![Column::key("fk", vec![2, 2, 0]), Column::measure("m", vec![7, 8, 9])],
    )
    .unwrap();
    let s = StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap();
    let q = StarQuery::count("q").with(Predicate::point("D", "x", 2));
    assert_eq!(execute(&s, &q).unwrap().scalar().unwrap(), 2.0);
    let batch = dp_starj_repro::engine::execute_batch_with(
        &s,
        &[q],
        dp_starj_repro::engine::ScanOptions::parallel(2),
    )
    .unwrap();
    assert_eq!(batch[0].scalar().unwrap(), 2.0);
}

#[test]
fn fk_fanout_entirely_on_one_entity() {
    // All fact rows reference a single dimension tuple — the worst case for
    // output perturbation, routine for PM.
    let d = Domain::numeric("x", 3).unwrap();
    let dim =
        Table::new("D", vec![Column::key("pk", vec![0, 1]), Column::attr("x", d, vec![0, 1])])
            .unwrap();
    let fact = Table::new(
        "F",
        vec![Column::key("fk", vec![0; 1000]), Column::measure("m", vec![1; 1000])],
    )
    .unwrap();
    let s = StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap();
    let q = StarQuery::count("q").with(Predicate::point("D", "x", 0));
    let contrib = dp_starj_repro::engine::contributions(&s, &q, &["D".to_string()]).unwrap();
    assert_eq!(contrib.max(), 1000.0);
    assert_eq!(contrib.num_entities(), 1);
    // Deleting that entity zeroes the answer — verified through the
    // neighboring-instance constructor.
    let neighbor = dp_starj_repro::core::neighbors::delete_dim_tuple_cascade(&s, "D", 0).unwrap();
    assert_eq!(execute(&neighbor, &q).unwrap().scalar().unwrap(), 0.0);
}
