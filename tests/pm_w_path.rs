//! The W-histogram path for PM: a covered noisy member is answered from a
//! cached joint attribute-code histogram instead of a fact scan, and the
//! answer is the scan's, bit for bit.
//!
//! * every Table-1 SSB query's served noisy forms at ε ∈ {0.1, 1} equal
//!   `exec::reference` on the noisy query (the scalar ones through W);
//! * the same on a width-boundary schema whose measures sit at ±2⁷, ±2¹⁵
//!   and ±2³¹, so the integer cells start at every width and widen;
//! * a WD request answered from a W that a PM request built equals the
//!   same request on a fresh service and `execute_weighted_batch` on the
//!   same reconstructed rows;
//! * eight threads missing the same W build it once.

use dp_starj_repro::core::workload::{wd_reconstruct, PredicateWorkload, WdConfig, WorkloadBlock};
use dp_starj_repro::engine::exec::reference;
use dp_starj_repro::engine::{
    execute_weighted_batch, Agg, Column, Constraint, Dimension, Domain, Predicate, QueryResult,
    ScanOptions, StarQuery, StarSchema, Table, WeightHistogram,
};
use dp_starj_repro::noise::{PrivacyBudget, StarRng};
use dp_starj_repro::service::{Service, ServiceConfig};
use dp_starj_repro::ssb::{all_queries, generate, SsbConfig};
use std::sync::{Arc, Barrier};

const SEED: u64 = 2023;

fn ssb() -> Arc<StarSchema> {
    Arc::new(generate(&SsbConfig { scale: 0.005, seed: 7, ..Default::default() }).unwrap())
}

fn service(schema: &Arc<StarSchema>) -> Service {
    Service::new(Arc::clone(schema), ServiceConfig { seed: SEED, ..ServiceConfig::default() })
}

fn allotment() -> PrivacyBudget {
    PrivacyBudget::pure(1.0e6).unwrap()
}

fn bits(result: &QueryResult) -> Vec<(Vec<u32>, u64)> {
    match result {
        QueryResult::Scalar(v) => vec![(Vec::new(), v.to_bits())],
        QueryResult::Groups(groups) => {
            groups.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
        }
    }
}

/// Serves each query `draws` times per ε, one fresh tenant per draw (so no
/// answer replays from the cache), and checks every served result against
/// the reference executor on the noisy query it released. Returns the
/// number of scalar members served.
fn served_equals_reference(schema: &Arc<StarSchema>, queries: &[StarQuery], draws: usize) -> u64 {
    let service = service(schema);
    let mut scalar = 0;
    for epsilon in [0.1, 1.0] {
        for draw in 0..draws {
            let tenant = format!("t{epsilon}-{draw}");
            service.register_tenant(&tenant, allotment()).unwrap();
            for q in queries {
                let answer = service.pm_answer(&tenant, q, epsilon).unwrap();
                let noisy = answer.noisy_query.as_ref().expect("a paid answer");
                let oracle = reference::execute(schema, noisy).unwrap();
                assert_eq!(bits(&answer.result), bits(&oracle), "{} at ε = {epsilon}", q.name);
                scalar += u64::from(!q.is_grouped());
            }
        }
    }
    let m = service.metrics();
    assert!(m.w_builds > 0 && m.w_builds <= m.pm_w_answers, "{m}");
    scalar
}

#[test]
fn ssb_noisy_queries_through_w_equal_the_reference() {
    let schema = ssb();
    let queries = all_queries();
    let service_scalar = served_equals_reference(&schema, &queries, 3);
    // At this scale every scalar Table-1 query is covered: the grouped
    // ones alone scan.
    let service = service(&schema);
    service.register_tenant("t", allotment()).unwrap();
    for q in &queries {
        service.pm_answer("t", q, 1.0).unwrap();
    }
    let scalar = queries.iter().filter(|q| !q.is_grouped()).count() as u64;
    assert_eq!(service.metrics().pm_w_answers, scalar);
    assert_eq!(service_scalar, scalar * 6);
}

/// Dimension A (5 rows) and B (300 rows), identity codes, over two full
/// chunks and a ragged third of fact rows whose measures straddle each
/// width boundary (the `prop_scan_kernel` width battery's columns).
fn width_schema() -> Arc<StarSchema> {
    const ROWS: usize = 2 * 4096 + 17;
    let straddling = |lo: i64, hi: i64| -> Vec<i64> {
        (0..ROWS as i64)
            .map(|i| match i % 8 {
                0 => lo,
                1 => hi,
                2 => lo + 1,
                3 => hi - 1,
                4 => -(i % 97),
                5 => i % 89,
                6 => 0,
                _ => -1,
            })
            .collect()
    };
    let dim = |name: &str, rows: u32| {
        Table::new(
            name,
            vec![
                Column::key("pk", (0..rows).collect()),
                Column::attr("x", Domain::numeric("x", rows).unwrap(), (0..rows).collect()),
            ],
        )
        .unwrap()
    };
    let fk = |rows: usize, mul: usize| (0..ROWS).map(|i| ((i * mul) % rows) as u32).collect();
    let mut late: Vec<i64> = (0..ROWS as i64).map(|i| i % 13 - 6).collect();
    *late.last_mut().unwrap() = -(1 << 31) - 1;
    let fact = Table::new(
        "F",
        vec![
            Column::key("fa", fk(5, 3)),
            Column::key("fb", fk(300, 7)),
            Column::measure("in8", straddling(-(1 << 7), (1 << 7) - 1)),
            Column::measure("out8", straddling(-(1 << 7) - 1, 1 << 7)),
            Column::measure("in16", straddling(-(1 << 15), (1 << 15) - 1)),
            Column::measure("out16", straddling(-(1 << 15) - 1, 1 << 15)),
            Column::measure("in32", straddling(-(1 << 31), (1 << 31) - 1)),
            Column::measure("out32", straddling(-(1 << 31) - 1, 1 << 31)),
            Column::measure("late", late),
        ],
    )
    .unwrap();
    let dims =
        vec![Dimension::new(dim("A", 5), "pk", "fa"), Dimension::new(dim("B", 300), "pk", "fb")];
    Arc::new(StarSchema::new(fact, dims).unwrap())
}

const MEASURES: [&str; 7] = ["in8", "out8", "in16", "out16", "in32", "out32", "late"];

#[test]
fn width_boundary_measures_through_w_equal_the_reference() {
    let schema = width_schema();
    let mut queries = vec![StarQuery::count("count").with(Predicate::range("A", "x", 1, 3))];
    for m in MEASURES {
        queries.push(StarQuery::sum(format!("{m}.a"), m).with(Predicate::range("A", "x", 1, 3)));
        queries.push(
            StarQuery::sum(format!("{m}.ab"), m)
                .with(Predicate::point("A", "x", 2))
                .with(Predicate::range("B", "x", 10, 250)),
        );
    }
    let served = served_equals_reference(&schema, &queries, 2);
    assert_eq!(served, queries.len() as u64 * 4);

    // Cells start at the measure's stored width (one byte for COUNT) and
    // widen when a sum outgrows it; the battery reaches every width.
    let a = [("A".to_string(), "x".to_string())];
    let width = |agg: Agg| {
        WeightHistogram::build(&schema, &a, &agg, ScanOptions::default())
            .unwrap()
            .cell_width_bytes()
    };
    assert_eq!(width(Agg::Count), 2, "1 641 rows a cell outgrow i8");
    let widths: Vec<usize> = MEASURES.iter().map(|m| width(Agg::Sum(m.to_string()))).collect();
    for (m, w) in MEASURES.iter().zip(&widths) {
        let stored = schema.fact().measure(m).unwrap().width_bytes();
        assert!(*w >= stored, "{m}: {w}-byte cells under a {stored}-byte column");
    }
    assert!(widths.contains(&4) && widths.contains(&8), "{widths:?}");
    let ab = [a[0].clone(), ("B".to_string(), "x".to_string())];
    let narrow = WeightHistogram::build(&schema, &ab, &Agg::Count, ScanOptions::default()).unwrap();
    assert_eq!(narrow.cell_width_bytes(), 1, "about 5 rows a cell fit i8");
}

fn region_workload() -> PredicateWorkload {
    let block =
        |table: &str| WorkloadBlock { table: table.into(), attr: "region".into(), domain: 5 };
    PredicateWorkload::new(
        vec![block("Customer"), block("Supplier")],
        vec![
            vec![Constraint::Point(2), Constraint::Range { lo: 0, hi: 3 }],
            vec![Constraint::Range { lo: 1, hi: 4 }, Constraint::Point(0)],
            vec![Constraint::Range { lo: 0, hi: 4 }, Constraint::Range { lo: 2, hi: 2 }],
        ],
    )
    .unwrap()
}

#[test]
fn wd_from_a_pm_built_w_equals_a_fresh_service_and_the_batch_executor() {
    let schema = ssb();
    let workload = region_workload();
    let run = |first: &StarQuery| {
        let service = service(&schema);
        service.register_tenant("t", allotment()).unwrap();
        // Request 0: a PM query; request 1: the workload.
        service.pm_answer("t", first, 0.5).unwrap();
        let answer = service.wd_answer("t", &workload, 0.5).unwrap();
        (answer.answers.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), service.metrics())
    };
    // On the workload's own axes: PM builds the W the workload then reads.
    let on_axes = StarQuery::count("pm")
        .with(Predicate::point("Supplier", "region", 1))
        .with(Predicate::point("Customer", "region", 3));
    let (shared, m) = run(&on_axes);
    assert_eq!((m.w_builds, m.pm_w_answers, m.w_cache_hits), (1, 1, 1), "{m}");
    // On other axes: the workload builds its own W.
    let elsewhere = StarQuery::count("pm").with(Predicate::point("Date", "year", 2));
    let (fresh, m) = run(&elsewhere);
    assert_eq!((m.w_builds, m.pm_w_answers, m.w_cache_hits), (2, 1, 0), "{m}");
    assert_eq!(shared, fresh);

    // The same reconstructed rows (request 1's RNG) through the fused
    // weighted executor.
    let mut rng = StarRng::from_seed(SEED).derive_index(1);
    let rows = wd_reconstruct(&schema, &workload, 0.5, &WdConfig::default(), &mut rng).unwrap();
    let fused = execute_weighted_batch(&schema, &rows).unwrap();
    assert_eq!(shared, fused.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
}

#[test]
fn concurrent_misses_on_one_w_build_it_once() {
    let schema = ssb();
    let service = service(&schema);
    const THREADS: u32 = 8;
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, barrier) = (&service, &barrier);
            scope.spawn(move || {
                let tenant = format!("t{t}");
                service.register_tenant(&tenant, allotment()).unwrap();
                // Distinct constants, one axis set: Customer.nation × Date.year.
                let q = StarQuery::count(format!("q{t}"))
                    .with(Predicate::point("Customer", "nation", t))
                    .with(Predicate::range("Date", "year", 1, 5));
                barrier.wait();
                service.pm_answer(&tenant, &q, 1.0).unwrap();
            });
        }
    });
    let m = service.metrics();
    assert_eq!(m.pm_w_answers, u64::from(THREADS), "{m}");
    assert_eq!(m.w_builds, 1, "{m}");
    assert_eq!(service.cached_histograms(), 1);
}
