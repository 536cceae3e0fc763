//! Cost-model property tests: the fk-degree statistics must be *exact*
//! (every pass count equals a brute-force count of passing fact rows) and
//! the planner must be *immune* to them (plans built from adversarially
//! wrong statistics stay bit-identical to `exec::reference`).
//!
//! The second property is the load-bearing one: both decisions the model
//! steers — filter order and mask sharing — are plan-shape-only, so even
//! maximally wrong statistics can cost performance but never correctness.
//! The tests force pass fractions to both extremes through the
//! `force_fraction` hook and prove answers don't move.

use dp_starj_repro::engine::cost::CostModel;
use dp_starj_repro::engine::exec::reference;
use dp_starj_repro::engine::{
    BitSet, Column, Constraint, Dimension, Domain, GroupAttr, Predicate, ScanOptions, ScanPlan,
    StarQuery, StarSchema, SubDimension, Table,
};
use dp_starj_repro::noise::rng::splitmix64;
use dp_starj_repro::ssb::{all_queries, domain_size_queries, generate, SsbConfig};
use proptest::prelude::*;
use std::sync::Arc;

const DOM_A: u32 = 5;
const DOM_B: u32 = 3;
const DOM_S: u32 = 4;

/// A random snowflake instance: dimension A (attribute `x`, snowflake
/// sub-table S via link `sk`), dimension B (attribute `y`), and a fact
/// table.
#[derive(Debug, Clone)]
struct Instance {
    dim_a_attrs: Vec<u32>,   // domain DOM_A
    dim_a_links: Vec<usize>, // into sub-table S
    sub_attrs: Vec<u32>,     // domain DOM_S
    dim_b_attrs: Vec<u32>,   // domain DOM_B
    fact: Vec<(usize, usize, i64)>,
}

fn instance_strategy(fact_rows: std::ops::Range<usize>) -> impl Strategy<Value = Instance> {
    (2usize..9, 2usize..6, 1usize..5, fact_rows).prop_flat_map(|(na, nb, ns, nf)| {
        (
            proptest::collection::vec(0u32..DOM_A, na),
            proptest::collection::vec(0usize..ns, na),
            proptest::collection::vec(0u32..DOM_S, ns),
            proptest::collection::vec(0u32..DOM_B, nb),
            proptest::collection::vec((0usize..na, 0usize..nb, -50i64..50), nf),
        )
            .prop_map(|(dim_a_attrs, dim_a_links, sub_attrs, dim_b_attrs, fact)| {
                Instance { dim_a_attrs, dim_a_links, sub_attrs, dim_b_attrs, fact }
            })
    })
}

fn build(instance: &Instance) -> StarSchema {
    let da = Domain::numeric("x", DOM_A).unwrap();
    let db = Domain::numeric("y", DOM_B).unwrap();
    let ds = Domain::numeric("s", DOM_S).unwrap();
    let sub = Table::new(
        "S",
        vec![
            Column::key("pk", (0..instance.sub_attrs.len() as u32).collect()),
            Column::attr("s", ds, instance.sub_attrs.clone()),
        ],
    )
    .unwrap();
    let a = Table::new(
        "A",
        vec![
            Column::key("pk", (0..instance.dim_a_attrs.len() as u32).collect()),
            Column::attr("x", da, instance.dim_a_attrs.clone()),
            Column::key("sk", instance.dim_a_links.iter().map(|&v| v as u32).collect()),
        ],
    )
    .unwrap();
    let b = Table::new(
        "B",
        vec![
            Column::key("pk", (0..instance.dim_b_attrs.len() as u32).collect()),
            Column::attr("y", db, instance.dim_b_attrs.clone()),
        ],
    )
    .unwrap();
    let fact = Table::new(
        "F",
        vec![
            Column::key("fa", instance.fact.iter().map(|r| r.0 as u32).collect()),
            Column::key("fb", instance.fact.iter().map(|r| r.1 as u32).collect()),
            Column::measure("m", instance.fact.iter().map(|r| r.2).collect()),
        ],
    )
    .unwrap();
    let dim_a = Dimension::new(a, "pk", "fa").with_subdim(SubDimension {
        table: sub,
        pk: "pk".into(),
        fk_in_dim: "sk".into(),
    });
    StarSchema::new(fact, vec![dim_a, Dimension::new(b, "pk", "fb")]).unwrap()
}

fn constraint_strategy(domain: u32) -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (0..domain).prop_map(Constraint::Point),
        (0..domain, 0..domain).prop_map(|(a, b)| Constraint::Range { lo: a.min(b), hi: a.max(b) }),
        proptest::collection::vec(0..domain, 1..4).prop_map(Constraint::Set),
    ]
}

/// A random star query touching any subset of {A.x, B.y, S.s} with a random
/// aggregate and optional group-by — snowflake predicates included.
fn query_strategy() -> impl Strategy<Value = StarQuery> {
    (
        proptest::collection::vec(constraint_strategy(DOM_A), 0..3),
        proptest::collection::vec(constraint_strategy(DOM_B), 0..2),
        proptest::collection::vec(constraint_strategy(DOM_S), 0..2),
        0u32..3,
        0u32..4,
    )
        .prop_map(|(on_a, on_b, on_s, agg_kind, group_kind)| {
            let mut q = match agg_kind {
                0 => StarQuery::count("q"),
                1 => StarQuery::sum("q", "m"),
                _ => StarQuery::sum_diff("q", "m", "m"),
            };
            for c in on_a {
                q = q.with(Predicate { table: "A".into(), attr: "x".into(), constraint: c });
            }
            for c in on_b {
                q = q.with(Predicate { table: "B".into(), attr: "y".into(), constraint: c });
            }
            for c in on_s {
                q = q.with(Predicate { table: "S".into(), attr: "s".into(), constraint: c });
            }
            match group_kind {
                1 => q = q.group_by(GroupAttr::new("A", "x")),
                2 => q = q.group_by(GroupAttr::new("B", "y")),
                3 => {
                    q = q.group_by(GroupAttr::new("A", "x")).group_by(GroupAttr::new("B", "y"));
                }
                _ => {}
            }
            q
        })
}

/// The passing fact rows of a dimension mask, counted row by row.
fn brute_force_count(inst: &Instance, dim: usize, bits: &BitSet) -> usize {
    inst.fact.iter().filter(|r| bits.get(if dim == 0 { r.0 } else { r.1 })).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactness: on random instances, 24 random masks per dimension at
    /// random densities (empty and full included) each count exactly the
    /// fact rows a row-by-row pass admits.
    #[test]
    fn pass_counts_equal_the_brute_force_count(
        inst in instance_strategy(0..300),
        mask_seed in 0u64..u64::MAX,
    ) {
        let schema = build(&inst);
        let model = CostModel::build(&schema).unwrap();
        prop_assert_eq!(model.fact_rows(), inst.fact.len());
        let mut rng = mask_seed;
        for (dim, rows) in
            [inst.dim_a_attrs.len(), inst.dim_b_attrs.len()].into_iter().enumerate()
        {
            for _ in 0..24 {
                let density = (splitmix64(&mut rng) % 101) as f64 / 100.0;
                let bits = BitSet::from_fn(rows, |_| {
                    (splitmix64(&mut rng) % 1000) as f64 / 1000.0 < density
                });
                prop_assert_eq!(
                    model.pass_count(dim, &bits),
                    brute_force_count(&inst, dim, &bits),
                    "dim {} mask {:?}",
                    dim,
                    bits
                );
            }
        }
    }

    /// Immunity: plans built from adversarially wrong statistics — forced
    /// pass fractions at any value in [0, 1], per dimension — answer
    /// bit-identically to the row-at-a-time reference on random snowflake
    /// queries. Wrong statistics may only reshape the plan, never the
    /// answers.
    #[test]
    fn adversarial_estimates_keep_plans_bit_identical_to_reference(
        inst in instance_strategy(0..120),
        queries in proptest::collection::vec(query_strategy(), 1..6),
        forced_a in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..1.0],
        forced_b in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..1.0],
        threads in 1usize..4,
    ) {
        let schema = build(&inst);
        let mut model = CostModel::build(&schema).unwrap();
        model.force_fraction(0, forced_a);
        model.force_fraction(1, forced_b);
        let mut plan =
            ScanPlan::with_options(&schema, ScanOptions::default()).unwrap();
        plan.set_cost_model(Arc::new(model));
        for q in &queries {
            plan.add_query(q).unwrap();
        }
        let fused = plan.execute(ScanOptions::default());
        let parallel = plan.execute(ScanOptions::parallel(threads));
        for (i, q) in queries.iter().enumerate() {
            let oracle = reference::execute(&schema, q).unwrap();
            prop_assert_eq!(&fused[i], &oracle, "fused member {} diverged", i);
            prop_assert_eq!(&parallel[i], &oracle, "parallel member {} diverged", i);
        }
    }

    /// The default path (exact statistics) is equally immune —
    /// the production configuration of the same invariant.
    #[test]
    fn default_cost_model_plans_match_reference(
        inst in instance_strategy(0..120),
        queries in proptest::collection::vec(query_strategy(), 1..5),
    ) {
        let schema = build(&inst);
        let mut plan =
            ScanPlan::with_options(&schema, ScanOptions::default()).unwrap();
        for q in &queries {
            plan.add_query(q).unwrap();
        }
        let fused = plan.execute(ScanOptions::default());
        for (i, q) in queries.iter().enumerate() {
            let oracle = reference::execute(&schema, q).unwrap();
            prop_assert_eq!(&fused[i], &oracle, "member {} diverged", i);
        }
    }
}

/// On the SSB SF 0.01 instance, every single-predicate COUNT cut from the
/// paper's queries reports through `explain` the exact fraction of fact
/// rows the reference executor counts.
#[test]
fn explain_reports_exact_fractions_on_ssb() {
    let schema = generate(&SsbConfig { scale: 0.01, ..SsbConfig::default() }).unwrap();
    let queries =
        all_queries().into_iter().chain(domain_size_queries().into_iter().map(|(_, q)| q));
    let mut checked = 0;
    for pred in queries.flat_map(|q| q.predicates) {
        let single = StarQuery::count("single").with(pred);
        let mut plan = ScanPlan::new(&schema).unwrap();
        plan.add_query(&single).unwrap();
        let explain = plan.describe();
        let [filter] = explain.queries[0].filters.as_slice() else {
            panic!("one predicate compiles to one filter: {single:?}");
        };
        let count = reference::execute(&schema, &single).unwrap().scalar().unwrap();
        let rows = explain.fact_rows as f64;
        assert_eq!(filter.estimated_fraction, count / rows, "{single:?}");
        assert_eq!((filter.estimated_fraction * rows).round(), count, "{single:?}");
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} predicates checked");
}
