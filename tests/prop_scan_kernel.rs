//! Kernel-equivalence property tests: the vectorized scan kernels
//! ([`execute_batch`], the parallel sharded scan, and the fused weighted
//! batch) must produce **bit-identical** results to the row-at-a-time
//! executor preserved in `starj_engine::exec::reference`, on random schemas,
//! queries, group-bys and weighted predicates — including the snowflake
//! fold.
//!
//! Bit-identity (not approximate equality) is achievable because the fused
//! kernel accumulates each query in the same row order as the reference,
//! and the test instances keep every intermediate value exactly
//! representable (integer measures, dyadic weights), so even the parallel
//! shard merge reproduces the same floating-point values.

use dp_starj_repro::engine::exec::reference;
use dp_starj_repro::engine::{
    execute_batch, execute_batch_with, execute_weighted_batch, execute_weighted_batch_with, Agg,
    Column, Constraint, Dimension, Domain, GroupAttr, Keys, Predicate, ScanOptions, ScanPlan,
    StarQuery, StarSchema, SubDimension, Table, WeightHistogram, WeightedPredicate, WeightedQuery,
};
use proptest::prelude::*;

const DOM_A: u32 = 5;
const DOM_B: u32 = 3;
const DOM_S: u32 = 4;

/// A random snowflake instance: dimension A (attribute `x`, snowflake
/// sub-table S via link `sk`), dimension B (attribute `y`), and a fact
/// table with a measure.
#[derive(Debug, Clone)]
struct Instance {
    dim_a_attrs: Vec<u32>,   // domain DOM_A
    dim_a_links: Vec<usize>, // into sub-table S
    sub_attrs: Vec<u32>,     // domain DOM_S
    dim_b_attrs: Vec<u32>,   // domain DOM_B
    fact: Vec<(usize, usize, i64)>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (1usize..9, 1usize..6, 1usize..5).prop_flat_map(|(na, nb, ns)| {
        (
            proptest::collection::vec(0u32..DOM_A, na),
            proptest::collection::vec(0usize..ns, na),
            proptest::collection::vec(0u32..DOM_S, ns),
            proptest::collection::vec(0u32..DOM_B, nb),
            proptest::collection::vec((0usize..na, 0usize..nb, -50i64..50), 0..60),
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

/// Dyadic weights (multiples of 1/4): products and sums of these with the
/// integer measures stay exactly representable, so every accumulation order
/// yields bit-identical `f64`s.
fn weighted_strategy() -> impl Strategy<Value = WeightedQuery> {
    (
        proptest::collection::vec(0u32..9, DOM_A as usize),
        proptest::collection::vec(0u32..9, DOM_B as usize),
        0u32..2,
        0u32..2,
    )
        .prop_map(|(wa, wb, use_b, agg_kind)| {
            let use_b = use_b == 1;
            let quarter = |v: Vec<u32>| v.into_iter().map(|x| f64::from(x) / 4.0).collect();
            let mut predicates = vec![WeightedPredicate::new("A", "x", quarter(wa))];
            if use_b {
                predicates.push(WeightedPredicate::new("B", "y", quarter(wb)));
            }
            let agg = if agg_kind == 0 { Agg::Count } else { Agg::Sum("m".into()) };
            WeightedQuery { predicates, agg }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_batch_is_bit_identical_to_reference(
        inst in instance_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..7),
    ) {
        let schema = build(&inst);
        let batch = execute_batch(&schema, &queries).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let oracle = reference::execute(&schema, q).unwrap();
            prop_assert_eq!(&batch[i], &oracle, "batch member {} diverged", i);
        }
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_reference(
        inst in instance_strategy(),
        queries in proptest::collection::vec(query_strategy(), 1..5),
        threads in 2usize..5,
    ) {
        let schema = build(&inst);
        let batch =
            execute_batch_with(&schema, &queries, ScanOptions::parallel(threads)).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let oracle = reference::execute(&schema, q).unwrap();
            prop_assert_eq!(&batch[i], &oracle, "parallel member {} diverged", i);
        }
    }

    #[test]
    fn weighted_batch_is_bit_identical_to_reference(
        inst in instance_strategy(),
        items in proptest::collection::vec(weighted_strategy(), 1..6),
        threads in 1usize..4,
    ) {
        let schema = build(&inst);
        let fused = execute_weighted_batch(&schema, &items).unwrap();
        let sharded =
            execute_weighted_batch_with(&schema, &items, ScanOptions::parallel(threads)).unwrap();
        for (i, item) in items.iter().enumerate() {
            let oracle =
                reference::execute_weighted(&schema, &item.predicates, &item.agg).unwrap();
            prop_assert_eq!(fused[i], oracle, "weighted member {} diverged", i);
            prop_assert_eq!(sharded[i], oracle, "sharded weighted member {} diverged", i);
        }
    }

    #[test]
    fn single_query_wrappers_agree_with_reference(
        inst in instance_strategy(),
        q in query_strategy(),
    ) {
        let schema = build(&inst);
        let new = dp_starj_repro::engine::execute(&schema, &q).unwrap();
        let oracle = reference::execute(&schema, &q).unwrap();
        prop_assert_eq!(new, oracle);
    }
}

/// Group spaces past `DENSE_GROUP_CAP` must fall back to the sparse map and
/// still match the reference (deterministic, not property-based: the big
/// domains make random generation wasteful).
#[test]
fn sparse_group_fallback_matches_reference() {
    let big = 1u32 << 9; // 512³ = 2^27 ≫ DENSE_GROUP_CAP
    let mk_dim = |name: &str| {
        let d = Domain::numeric("x", big).unwrap();
        Table::new(
            name,
            vec![
                Column::key("pk", (0..4).collect()),
                Column::attr("x", d, vec![0, 1, big - 2, big - 1]),
            ],
        )
        .unwrap()
    };
    let fact = Table::new(
        "F",
        vec![
            Column::key("f1", vec![0, 1, 2, 3, 3, 0]),
            Column::key("f2", vec![3, 2, 1, 0, 3, 0]),
            Column::key("f3", vec![1, 1, 2, 2, 0, 3]),
            Column::measure("m", vec![5, -3, 11, 2, 2, 9]),
        ],
    )
    .unwrap();
    let schema = StarSchema::new(
        fact,
        vec![
            Dimension::new(mk_dim("D1"), "pk", "f1"),
            Dimension::new(mk_dim("D2"), "pk", "f2"),
            Dimension::new(mk_dim("D3"), "pk", "f3"),
        ],
    )
    .unwrap();
    let q = StarQuery::sum("wide", "m")
        .group_by(GroupAttr::new("D1", "x"))
        .group_by(GroupAttr::new("D2", "x"))
        .group_by(GroupAttr::new("D3", "x"));
    let oracle = reference::execute(&schema, &q).unwrap();
    assert_eq!(execute_batch(&schema, std::slice::from_ref(&q)).unwrap()[0], oracle);
    assert_eq!(
        execute_batch_with(&schema, std::slice::from_ref(&q), ScanOptions::parallel(3)).unwrap()[0],
        oracle
    );
}

// ---------------------------------------------------------------------------
// Adversarial shapes pinning the staged SIMD-width kernel's fast paths: the
// probe classification boundaries (≤ 64 rows → register word, ≤ 2^16 →
// byte LUT, above → packed bitset), chunk/word-straddling fact sizes, and
// the key-width boundary (a fact column whose largest key is `u16::MAX` is
// stored as `u16`, one key more as `u32`), and the degenerate
// all-rows-filtered / none-filtered masks — each proven bit-identical to
// `exec::reference`.
// ---------------------------------------------------------------------------

/// A one-dimension schema with `dim_rows` rows, identity attribute codes
/// (`x[i] = i`, domain `dim_rows`), and `fact_rows` fact rows with a
/// deterministic fk spread and signed measure. Fact row 0 references the
/// last dimension row, so the fk column's width is decided by `dim_rows`.
fn boundary_schema(dim_rows: usize, fact_rows: usize) -> StarSchema {
    let d = Domain::numeric("x", dim_rows as u32).unwrap();
    let dim = Table::new(
        "D",
        vec![
            Column::key("pk", (0..dim_rows as u32).collect()),
            Column::attr("x", d, (0..dim_rows as u32).collect()),
        ],
    )
    .unwrap();
    let fact = Table::new(
        "F",
        vec![
            Column::key(
                "fk",
                (0..fact_rows)
                    .map(|i| if i == 0 { dim_rows - 1 } else { (i * 7) % dim_rows } as u32)
                    .collect(),
            ),
            Column::measure("m", (0..fact_rows).map(|i| (i % 13) as i64 - 6).collect()),
        ],
    )
    .unwrap();
    StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
}

/// The adversarial query set over [`boundary_schema`]: unfiltered pure
/// count (the mask-free short circuit), an unsatisfiable conjunction
/// (all-rows-filtered bitset), a full range (none-filtered bitset), a
/// selective point, and a grouped range.
fn boundary_queries(dim_rows: usize) -> Vec<StarQuery> {
    let top = dim_rows as u32 - 1;
    vec![
        StarQuery::count("all"),
        StarQuery::count("none").with(Predicate::point("D", "x", 0)).with(Predicate::point(
            "D",
            "x",
            top.min(1),
        )),
        StarQuery::count("full").with(Predicate::range("D", "x", 0, top)),
        StarQuery::sum("pt", "m").with(Predicate::point("D", "x", top)),
        StarQuery::sum("grp", "m")
            .with(Predicate::range("D", "x", 0, top))
            .group_by(GroupAttr::new("D", "x")),
    ]
}

fn assert_boundary_equivalence(dim_rows: usize, fact_rows: usize) {
    let schema = boundary_schema(dim_rows, fact_rows);
    let queries = boundary_queries(dim_rows);
    let staged = execute_batch(&schema, &queries).unwrap();
    let parallel = execute_batch_with(&schema, &queries, ScanOptions::parallel(3)).unwrap();
    // Every probe class the dimension admits: the byte LUT at any size,
    // the packed bitset at any size (the register word only below 65 rows,
    // where the default classification above already uses it).
    let bytes = ScanOptions::default().with_probe_caps(0, usize::MAX);
    let bitset = ScanOptions::default().with_probe_caps(0, 0);
    let bytes = execute_batch_with(&schema, &queries, bytes).unwrap();
    let bitset = execute_batch_with(&schema, &queries, bitset).unwrap();
    for (i, q) in queries.iter().enumerate() {
        let oracle = reference::execute(&schema, q).unwrap();
        assert_eq!(staged[i], oracle, "dim={dim_rows} fact={fact_rows} query {i} (staged)");
        assert_eq!(parallel[i], oracle, "dim={dim_rows} fact={fact_rows} query {i} (parallel)");
        assert_eq!(bytes[i], oracle, "dim={dim_rows} fact={fact_rows} query {i} (byte LUT)");
        assert_eq!(bitset[i], oracle, "dim={dim_rows} fact={fact_rows} query {i} (bitset)");
    }
}

/// Word↔byte-LUT probe boundary (64 dimension rows) crossed with every
/// chunk/word-straddling fact size, including the empty fact table.
#[test]
fn word_byte_probe_boundary_matches_reference() {
    for dim_rows in [63usize, 64, 65] {
        for fact_rows in [0usize, 1, 63, 64, 4095, 4096, 4097] {
            assert_boundary_equivalence(dim_rows, fact_rows);
        }
    }
}

/// Byte-LUT↔packed-bitset probe boundary (2^16 dimension rows), which is
/// also the key-width boundary: the largest key is `u16::MAX - 1`,
/// `u16::MAX` (still two bytes) and `u16::MAX + 1` (four). The group-by
/// over the 2^16±1 domain also exercises the sparse fallback on both sides
/// of `DENSE_GROUP_CAP`.
#[test]
fn byte_wide_probe_boundary_matches_reference() {
    for dim_rows in [(1usize << 16) - 1, 1 << 16, (1 << 16) + 1] {
        let fk_is_narrow =
            matches!(boundary_schema(dim_rows, 1).fact().key("fk").unwrap(), Keys::U16(_));
        assert_eq!(fk_is_narrow, dim_rows <= 1 << 16, "dim={dim_rows}");
        assert_boundary_equivalence(dim_rows, 4097);
    }
}

/// Random queries over dimension row counts drawn from the probe-boundary
/// set, with random (non-identity) attribute codes: staged and parallel
/// kernels bit-identical to the reference.
fn boundary_dim_rows() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(63), Just(64), Just(65), Just(66)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adversarial_probe_shapes_bit_identical_to_reference(
        (dim_rows, codes, fact) in boundary_dim_rows().prop_flat_map(|nd| {
            (
                Just(nd),
                proptest::collection::vec(0u32..DOM_A, nd),
                proptest::collection::vec((0usize..nd, -9i64..9), 0..130),
            )
        }),
        constraints in proptest::collection::vec(constraint_strategy(DOM_A), 0..3),
        agg_kind in 0u32..2,
        group in 0u32..2,
        threads in 2usize..4,
    ) {
        let d = Domain::numeric("x", DOM_A).unwrap();
        let dim = Table::new(
            "D",
            vec![
                Column::key("pk", (0..dim_rows as u32).collect()),
                Column::attr("x", d, codes),
            ],
        )
        .unwrap();
        let fact_table = Table::new(
            "F",
            vec![
                Column::key("fk", fact.iter().map(|r| r.0 as u32).collect()),
                Column::measure("m", fact.iter().map(|r| r.1).collect()),
            ],
        )
        .unwrap();
        let schema = StarSchema::new(fact_table, vec![Dimension::new(dim, "pk", "fk")]).unwrap();
        let mut q =
            if agg_kind == 0 { StarQuery::count("q") } else { StarQuery::sum("q", "m") };
        for c in constraints {
            q = q.with(Predicate { table: "D".into(), attr: "x".into(), constraint: c });
        }
        if group == 1 {
            q = q.group_by(GroupAttr::new("D", "x"));
        }
        let queries = vec![q];
        let oracle = reference::execute(&schema, &queries[0]).unwrap();
        let staged = execute_batch(&schema, &queries).unwrap();
        prop_assert_eq!(&staged[0], &oracle, "staged diverged");
        let parallel =
            execute_batch_with(&schema, &queries, ScanOptions::parallel(threads)).unwrap();
        prop_assert_eq!(&parallel[0], &oracle, "parallel diverged");
    }
}

/// Chunk-boundary coverage: fact tables straddling the 4096-row chunk and
/// 64-row word boundaries, against the reference.
#[test]
fn chunk_boundary_sizes_match_reference() {
    for rows in [63usize, 64, 65, 4095, 4096, 4097, 8192 + 17] {
        let d = Domain::numeric("x", 4).unwrap();
        let dim = Table::new(
            "D",
            vec![Column::key("pk", vec![0, 1, 2, 3]), Column::attr("x", d, vec![0, 1, 2, 3])],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![
                Column::key("fk", (0..rows).map(|i| (i % 4) as u32).collect()),
                Column::measure("m", (0..rows).map(|i| (i % 13) as i64 - 6).collect()),
            ],
        )
        .unwrap();
        let schema = StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap();
        let queries = vec![
            StarQuery::count("c").with(Predicate::range("D", "x", 1, 2)),
            StarQuery::sum("s", "m").with(Predicate::point("D", "x", 3)),
            StarQuery::count("g").group_by(GroupAttr::new("D", "x")),
        ];
        let batch = execute_batch(&schema, &queries).unwrap();
        let parallel = execute_batch_with(&schema, &queries, ScanOptions::parallel(3)).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let oracle = reference::execute(&schema, q).unwrap();
            assert_eq!(batch[i], oracle, "rows={rows} query {i}");
            assert_eq!(parallel[i], oracle, "rows={rows} query {i} (parallel)");
        }
    }
}

/// Kernel-sized sharding (the default `threads = 0`) on a table big enough
/// to split: two 300-row dimensions, one measure, just past twice the
/// kernel's ~1 M-row shard floor. The fk columns are `u16`.
fn shardable_schema() -> StarSchema {
    const DIM_ROWS: u32 = 300;
    const FACT_ROWS: u32 = (2 << 20) + 4097;
    let dim = |name: &str| {
        Table::new(
            name,
            vec![
                Column::key("pk", (0..DIM_ROWS).collect()),
                Column::attr("x", Domain::numeric("x", DIM_ROWS).unwrap(), (0..DIM_ROWS).collect()),
            ],
        )
        .unwrap()
    };
    let fact = Table::new(
        "F",
        vec![
            Column::key("fa", (0..FACT_ROWS).map(|i| (i * 7) % DIM_ROWS).collect()),
            Column::key("fb", (0..FACT_ROWS).map(|i| (i / 3) % DIM_ROWS).collect()),
            Column::measure("m", (0..FACT_ROWS).map(|i| i64::from(i % 13) - 6).collect()),
            Column::measure("c", (0..FACT_ROWS).map(|i| i64::from(i % 5)).collect()),
            // 2 M rows of ~2⁴⁰ sum past 2⁵³: these partials round.
            Column::measure("big", (0..FACT_ROWS).map(|i| (1 << 40) + i64::from(i % 3)).collect()),
        ],
    )
    .unwrap();
    StarSchema::new(
        fact,
        vec![Dimension::new(dim("A"), "pk", "fa"), Dimension::new(dim("B"), "pk", "fb")],
    )
    .unwrap()
}

#[test]
fn default_sharding_is_bit_identical_and_skips_real_weighted_plans() {
    let schema = shardable_schema();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let queries = vec![
        StarQuery::count("count").with(Predicate::range("A", "x", 10, 200)),
        StarQuery::sum("sum", "m")
            .with(Predicate::range("A", "x", 0, 150))
            .with(Predicate::range("B", "x", 100, 299)),
        StarQuery::sum_diff("diff", "m", "c").with(Predicate::point("B", "x", 7)),
        StarQuery::sum("grouped", "m")
            .with(Predicate::range("A", "x", 5, 290))
            .group_by(GroupAttr::new("B", "x")),
    ];
    let mut plan = ScanPlan::with_options(&schema, ScanOptions::default()).unwrap();
    for q in &queries {
        plan.add_query(q).unwrap();
    }
    assert_eq!(plan.describe().shards, cores.min(2), "one shard per core, ≥ ~1 M rows each");
    assert!(plan.describe().dims.iter().all(|d| d.fk_width_bytes == 2));
    let sharded = plan.execute(ScanOptions::default());
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(sharded[i], reference::execute(&schema, q).unwrap(), "query {i}");
    }

    // A count histogram sums integers: shardable, and still exact.
    let quarters = |n: u32| (0..n).map(|i| f64::from(i % 9) / 4.0).collect::<Vec<f64>>();
    let hist = vec![WeightedPredicate::new("A", "x", quarters(300))];
    let mut plan = ScanPlan::with_options(&schema, ScanOptions::default()).unwrap();
    plan.add_weighted(&hist, &Agg::Count).unwrap();
    assert_eq!(plan.describe().shards, cores.min(2));
    assert_eq!(
        plan.execute(ScanOptions::default())[0].scalar().unwrap().to_bits(),
        reference::execute_weighted(&schema, &hist, &Agg::Count).unwrap().to_bits(),
    );

    // Integer sums re-associate only below 2⁵³. SUM(big) rounds on the way,
    // so its bits depend on the split: the kernel keeps it — scalar, grouped
    // or as a histogram — on one shard, in the reference's order.
    let big = StarQuery::sum("big", "big").with(Predicate::range("A", "x", 0, 250));
    let big_grouped = big.clone().group_by(GroupAttr::new("B", "x"));
    let mut plan = ScanPlan::with_options(&schema, ScanOptions::default()).unwrap();
    plan.add_query(&queries[0]).unwrap();
    plan.add_query(&big).unwrap();
    plan.add_query(&big_grouped).unwrap();
    plan.add_weighted(&hist, &Agg::Sum("big".into())).unwrap();
    assert_eq!(plan.describe().shards, 1, "sums that can pass 2⁵³ pin the plan");
    let pinned = plan.execute(ScanOptions::default());
    assert!(pinned[1].scalar().unwrap() > 2f64.powi(53));
    assert_eq!(pinned[1], reference::execute(&schema, &big).unwrap());
    assert_eq!(pinned[2], reference::execute(&schema, &big_grouped).unwrap());
    let (axes, sum_big) = ([("A".to_string(), "x".to_string())], Agg::Sum("big".into()));
    let standalone = WeightHistogram::build(&schema, &axes, &sum_big, ScanOptions::default());
    assert_eq!(
        standalone.unwrap().answer(&hist, &sum_big).unwrap().to_bits(),
        pinned[3].scalar().unwrap().to_bits(),
        "a histogram built on its own follows the same rule"
    );

    // Two 300-code axes overflow the joint histogram, so this query runs
    // the row loop on real weights: its sum depends on the split, and the
    // kernel must keep it on one shard — bit-identical to the reference
    // even with weights that are not exactly representable.
    let tenths = |n: u32| (0..n).map(|i| 0.1 + f64::from(i % 7) / 10.0).collect::<Vec<f64>>();
    let real = vec![
        WeightedPredicate::new("A", "x", tenths(300)),
        WeightedPredicate::new("B", "x", tenths(300)),
    ];
    let mut plan = ScanPlan::with_options(&schema, ScanOptions::default()).unwrap();
    plan.add_query(&queries[0]).unwrap();
    plan.add_weighted(&real, &Agg::Sum("m".into())).unwrap();
    assert_eq!(plan.describe().shards, 1, "a real-weighted row-loop query pins the plan");
    let pinned = plan.execute(ScanOptions::default());
    assert_eq!(pinned[0], sharded[0]);
    assert_eq!(
        pinned[1].scalar().unwrap().to_bits(),
        reference::execute_weighted(&schema, &real, &Agg::Sum("m".into())).unwrap().to_bits(),
    );
}
