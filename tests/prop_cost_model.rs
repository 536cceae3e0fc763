//! Cost-model property tests: the sampling estimator must be *honest*
//! (measured truth inside its reported confidence interval) and the
//! planner must be *immune* to it (plans built from adversarially wrong
//! estimates stay bit-identical to `exec::reference`).
//!
//! The second property is the load-bearing one: every decision the model
//! steers — filter order, mask sharing, staging, batch windows — is
//! plan-shape-only, so even a maximally wrong estimator can cost
//! performance but never correctness. The tests force estimates to both
//! extremes through the `force_fraction` / `force_residency` hooks and
//! prove answers don't move.

use dp_starj_repro::engine::cost::{CostConfig, CostModel};
use dp_starj_repro::engine::exec::reference;
use dp_starj_repro::engine::{
    BitSet, Column, Constraint, Dimension, Domain, GroupAttr, Predicate, ScanOptions, ScanPlan,
    StarQuery, StarSchema, SubDimension, Table,
};
use dp_starj_repro::noise::rng::splitmix64;
use proptest::prelude::*;
use std::sync::Arc;

const DOM_A: u32 = 5;
const DOM_B: u32 = 3;
const DOM_S: u32 = 4;

/// A random snowflake instance: dimension A (attribute `x`, snowflake
/// sub-table S via link `sk`), dimension B (attribute `y`), and a fact
/// table big enough that a 64-row sample is a genuine subsample.
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

/// The exact fact pass fraction of a dimension mask: the truth the
/// estimator's interval must cover.
fn true_fraction(inst: &Instance, dim: usize, bits: &BitSet) -> f64 {
    if inst.fact.is_empty() {
        return 0.0;
    }
    let hits = inst.fact.iter().filter(|r| bits.get(if dim == 0 { r.0 } else { r.1 })).count();
    hits as f64 / inst.fact.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Honesty, sampled mode: a 64-row subsample of a 100–300-row fact
    /// table, 24 random masks per dimension. The 3σ + 1/n interval covers
    /// the truth ≥ 20/24 times per dimension — far below the interval's
    /// actual ≥ 99% coverage, so the bound holds deterministically in
    /// practice while staying robust to unlucky draws.
    #[test]
    fn sampled_estimates_cover_the_truth(
        inst in instance_strategy(100..300),
        mask_seed in 0u64..u64::MAX,
    ) {
        let schema = build(&inst);
        let config = CostConfig { sample_size: 64, ..CostConfig::default() };
        let model = CostModel::build(&schema, &config).unwrap();
        prop_assert!(!model.is_exact(), "a 64-row sample of ≥ 100 rows must subsample");
        let mut rng = mask_seed;
        for (dim, rows) in
            [inst.dim_a_attrs.len(), inst.dim_b_attrs.len()].into_iter().enumerate()
        {
            let mut covered = 0usize;
            for _ in 0..24 {
                let density = (splitmix64(&mut rng) % 101) as f64 / 100.0;
                let mut draws = rng;
                let bits = BitSet::from_fn(rows, |_| {
                    (splitmix64(&mut draws) % 1000) as f64 / 1000.0 < density
                });
                rng = draws;
                let est = model.pass_fraction(dim, &bits);
                prop_assert!(est.ci > 0.0, "sampled estimates must admit uncertainty");
                if est.covers(true_fraction(&inst, dim, &bits)) {
                    covered += 1;
                }
            }
            prop_assert!(
                covered >= 20,
                "dim {} interval coverage collapsed: {}/24",
                dim,
                covered
            );
        }
    }

    /// Honesty, exact mode: a sample covering the whole fact table reports
    /// the true fraction with a zero-width interval on every mask.
    #[test]
    fn exact_mode_reports_the_truth_with_zero_ci(
        inst in instance_strategy(1..60),
        mask_seed in 0u64..u64::MAX,
    ) {
        let schema = build(&inst);
        let config =
            CostConfig { sample_size: inst.fact.len().max(1), ..CostConfig::default() };
        let model = CostModel::build(&schema, &config).unwrap();
        prop_assert!(model.is_exact());
        let mut rng = mask_seed;
        for (dim, rows) in
            [inst.dim_a_attrs.len(), inst.dim_b_attrs.len()].into_iter().enumerate()
        {
            let mut draws = rng;
            let bits = BitSet::from_fn(rows, |_| splitmix64(&mut draws).is_multiple_of(2));
            rng = draws;
            let est = model.pass_fraction(dim, &bits);
            prop_assert_eq!(est.ci, 0.0, "exact models report certainty");
            let truth = true_fraction(&inst, dim, &bits);
            prop_assert!((est.fraction - truth).abs() < 1e-12);
        }
    }

    /// Immunity: plans built from adversarially wrong estimates — forced
    /// pass fractions at any value in [0, 1] and residency forced to
    /// either extreme, per dimension — answer bit-identically to the
    /// row-at-a-time reference on random snowflake queries. Wrong
    /// estimates may only reshape the plan, never the answers.
    #[test]
    fn adversarial_estimates_keep_plans_bit_identical_to_reference(
        inst in instance_strategy(0..120),
        queries in proptest::collection::vec(query_strategy(), 1..6),
        forced_a in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..1.0],
        forced_b in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..1.0],
        residency_hot in 0u32..2,
        threads in 1usize..4,
    ) {
        let schema = build(&inst);
        let mut model = CostModel::build(&schema, &CostConfig::default()).unwrap();
        model.force_fraction(0, forced_a);
        model.force_fraction(1, forced_b);
        let (ra, rb) = if residency_hot == 1 { (1e6, 0.0) } else { (0.0, 1e6) };
        model.force_residency(0, ra);
        model.force_residency(1, rb);
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

    /// The default path (model on, honest estimates) is equally immune —
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
