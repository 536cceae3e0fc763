//! Cross-crate tests for the serving subsystem's two core guarantees:
//!
//! 1. **No over-spend under contention** — N threads hammering one tenant's
//!    `(ε, δ)` allotment can never drive committed spending past it, and
//!    every refusal is the typed `BudgetExhausted` error.
//! 2. **Cache hits are free** — an identical repeat query replays the stored
//!    noisy answer bit-for-bit while consuming zero additional budget.

use dp_starj_repro::core::workload::{PredicateWorkload, WorkloadBlock};
use dp_starj_repro::engine::{
    Column, Constraint, Dimension, Domain, Predicate, StarQuery, StarSchema, Table,
};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{Service, ServiceConfig, ServiceError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::thread;

/// A schema with a wide attribute domain so tests can mint many *distinct*
/// queries (distinct queries cannot hit the cache, so each must pay), plus
/// a narrow `shade` attribute (domain 8) for workload traffic — WD's
/// strategy pseudo-inverse is cubic in the domain, so storm tests keep
/// their workloads on the narrow block.
fn wide_schema() -> StarSchema {
    const DOMAIN: u32 = 512;
    let domain = Domain::numeric("bucket", DOMAIN).unwrap();
    let shade = Domain::numeric("shade", 8).unwrap();
    let n_dim = DOMAIN as usize;
    let dim = Table::new(
        "D",
        vec![
            Column::key("pk", (0..DOMAIN).collect()),
            Column::attr("bucket", domain, (0..DOMAIN).collect()),
            Column::attr("shade", shade, (0..DOMAIN).map(|i| i % 8).collect()),
        ],
    )
    .unwrap();
    let n_fact = 2_000usize;
    let fact = Table::new(
        "F",
        vec![
            Column::key("fk", (0..n_fact).map(|i| (i % n_dim) as u32).collect()),
            Column::measure("qty", (0..n_fact).map(|i| (i % 7) as i64).collect()),
        ],
    )
    .unwrap();
    StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
}

fn query_for(i: u32) -> StarQuery {
    StarQuery::count(format!("q{i}")).with(Predicate::point("D", "bucket", i % 512))
}

/// `fact_scan_count` is process-global. The storm test counts its own scans
/// with it, so it holds this lock exclusively; every other test in this
/// binary scans too and holds it shared.
static SCAN_WINDOW: RwLock<()> = RwLock::new(());

fn shared_scan_window() -> RwLockReadGuard<'static, ()> {
    SCAN_WINDOW.read().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn contended_tenant_never_overspends() {
    let _scans = shared_scan_window();
    const THREADS: u32 = 8;
    const ATTEMPTS_PER_THREAD: u32 = 40;
    const EPS_PER_QUERY: f64 = 0.05;
    const ALLOTMENT: f64 = 1.0;
    // Demand (8 × 40 × 0.05 = 16 ε) far exceeds supply (1 ε): exactly
    // ⌊1.0 / 0.05⌋ = 20 queries can ever be admitted.

    let service = Arc::new(Service::new(Arc::new(wide_schema()), ServiceConfig::default()));
    service.register_tenant("shared", PrivacyBudget::pure(ALLOTMENT).unwrap()).unwrap();

    let successes = Arc::new(AtomicU64::new(0));
    let refusals = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let successes = Arc::clone(&successes);
            let refusals = Arc::clone(&refusals);
            thread::spawn(move || {
                for i in 0..ATTEMPTS_PER_THREAD {
                    // Distinct predicate per attempt → no cache assists.
                    let q = query_for(t * ATTEMPTS_PER_THREAD + i);
                    match service.pm_answer("shared", &q, EPS_PER_QUERY) {
                        Ok(answer) => {
                            assert!(!answer.cached, "distinct queries cannot hit the cache");
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::BudgetExhausted {
                            tenant, requested_epsilon, ..
                        }) => {
                            assert_eq!(tenant, "shared");
                            assert_eq!(requested_epsilon, EPS_PER_QUERY);
                            refusals.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error under contention: {other}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("serving thread panicked");
    }

    let ok = successes.load(Ordering::Relaxed);
    let refused = refusals.load(Ordering::Relaxed);
    assert_eq!(ok + refused, u64::from(THREADS * ATTEMPTS_PER_THREAD));

    let usage = service.tenant_usage("shared").unwrap();
    assert!(
        usage.spent_epsilon <= ALLOTMENT + 1e-9,
        "over-spend: {} > {ALLOTMENT}",
        usage.spent_epsilon
    );
    assert!(
        (usage.spent_epsilon - ok as f64 * EPS_PER_QUERY).abs() < 1e-9,
        "spend must equal successes × per-query ε"
    );
    assert_eq!(usage.in_flight_epsilon, 0.0, "no reservation may leak");
    // The budget admits exactly 20 queries; concurrency must not change that.
    assert_eq!(ok, (ALLOTMENT / EPS_PER_QUERY).round() as u64);
    assert!(refused > 0, "demand exceeded supply, someone must be refused");

    let metrics = service.metrics();
    assert_eq!(metrics.queries_served, ok);
    assert_eq!(metrics.budget_refusals, refused);
    assert_eq!(metrics.cache_hits, 0);
}

#[test]
fn cache_hit_spends_zero_budget() {
    let _scans = shared_scan_window();
    let service = Service::new(Arc::new(wide_schema()), ServiceConfig::default());
    service.register_tenant("alice", PrivacyBudget::pure(1.0).unwrap()).unwrap();

    let q = StarQuery::count("repeat").with(Predicate::range("D", "bucket", 10, 20));
    let first = service.pm_answer("alice", &q, 0.3).unwrap();
    assert!(!first.cached);
    assert!(first.cost.is_some());
    let spent_after_first = service.tenant_usage("alice").unwrap().spent_epsilon;
    assert!((spent_after_first - 0.3).abs() < 1e-12);

    // Same query, different label and predicate presentation: canonical hit.
    let same = StarQuery::count("relabeled").with(Predicate::range("D", "bucket", 10, 20));
    let replay = service.pm_answer("alice", &same, 0.3).unwrap();
    assert!(replay.cached, "identical query must replay from the cache");
    assert!(replay.cost.is_none(), "a replay charges nothing");
    assert_eq!(replay.result, first.result, "replay returns the stored noisy answer");
    assert_eq!(replay.noisy_query, first.noisy_query);

    let spent_after_replay = service.tenant_usage("alice").unwrap().spent_epsilon;
    assert_eq!(
        spent_after_first, spent_after_replay,
        "a cache hit must consume zero additional budget"
    );
    assert_eq!(service.metrics().cache_hits, 1);

    // A different ε is a different release: it must pay again.
    let other_eps = service.pm_answer("alice", &q, 0.2).unwrap();
    assert!(!other_eps.cached);
    assert!((service.tenant_usage("alice").unwrap().spent_epsilon - 0.5).abs() < 1e-12);
}

#[test]
fn concurrent_repeat_queries_converge_to_one_spend_per_distinct_query() {
    let _scans = shared_scan_window();
    // 4 tenants × 4 threads each replaying the same 5 queries over and over:
    // each tenant ends up having paid for at most 5 distinct releases.
    const TENANTS: usize = 4;
    const EPS: f64 = 0.01;
    let service = Arc::new(Service::new(Arc::new(wide_schema()), ServiceConfig::default()));
    for t in 0..TENANTS {
        service.register_tenant(&format!("t{t}"), PrivacyBudget::pure(10.0).unwrap()).unwrap();
    }

    let handles: Vec<_> = (0..TENANTS * 4)
        .map(|i| {
            let service = Arc::clone(&service);
            let tenant = format!("t{}", i % TENANTS);
            thread::spawn(move || {
                for round in 0..50 {
                    let q = query_for((round % 5) as u32);
                    service.pm_answer(&tenant, &q, EPS).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("serving thread panicked");
    }

    for t in 0..TENANTS {
        let usage = service.tenant_usage(&format!("t{t}")).unwrap();
        // Racing first requests may each pay before the winner lands in the
        // cache, so the bound is "at most one spend per racing thread per
        // distinct query", and after the race every repeat is free.
        assert!(
            usage.spent_epsilon <= 4.0 * 5.0 * EPS + 1e-9,
            "tenant t{t} spent {} — repeats must not keep paying",
            usage.spent_epsilon
        );
        assert!(usage.spent_epsilon >= 5.0 * EPS - 1e-9, "5 distinct queries must be paid");
    }
    let m = service.metrics();
    assert_eq!(m.queries_served, (TENANTS * 4 * 50) as u64);
    assert!(m.cache_hits >= (TENANTS * 4 * 45) as u64, "most requests replay");
}

#[test]
fn unsatisfiable_queries_are_answered_exactly_and_free() {
    let _scans = shared_scan_window();
    let service = Service::new(Arc::new(wide_schema()), ServiceConfig::default());
    service.register_tenant("t", PrivacyBudget::pure(0.5).unwrap()).unwrap();
    let contradiction = StarQuery::count("impossible")
        .with(Predicate::point("D", "bucket", 1))
        .with(Predicate::point("D", "bucket", 2));
    let ans = service.pm_answer("t", &contradiction, 0.4).unwrap();
    assert_eq!(ans.result.scalar().unwrap(), 0.0);
    assert!(ans.cost.is_none());
    assert_eq!(service.tenant_usage("t").unwrap().spent_epsilon, 0.0);
    assert_eq!(service.metrics().free_answers, 1);
}

/// A tiny two-row workload over the wide schema's narrow `shade` block.
fn storm_workload(lo: u32, hi: u32) -> PredicateWorkload {
    let (lo, hi) = ((lo % 8).min(hi % 8), (lo % 8).max(hi % 8));
    PredicateWorkload::new(
        vec![WorkloadBlock { table: "D".into(), attr: "shade".into(), domain: 8 }],
        vec![vec![Constraint::Point(lo)], vec![Constraint::Range { lo, hi }]],
    )
    .unwrap()
}

#[test]
fn coalesced_storm_fuses_scans_without_overspend_or_lost_requests() {
    let _scans = SCAN_WINDOW.write().unwrap_or_else(PoisonError::into_inner);
    const THREADS: u32 = 16;
    const REQUESTS_PER_THREAD: u32 = 30;
    const EPS: f64 = 0.015625; // 2⁻⁶: ledger sums stay exact under any order
    let config = ServiceConfig {
        coalesce: true,
        cache_answers: false, // every request pays → every request must fuse or scan
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(Arc::new(wide_schema()), config));
    service.register_tenant("storm", PrivacyBudget::pure(1_000.0).unwrap()).unwrap();

    let scans_before = dp_starj_repro::engine::fact_scan_count();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let n = t * REQUESTS_PER_THREAD + i;
                    // Mixed pm/wd traffic: every 5th request is a workload.
                    if n.is_multiple_of(5) {
                        let answer = service
                            .wd_answer("storm", &storm_workload(n, n + 7), EPS)
                            .expect("storm wd requests are well-formed and funded");
                        assert_eq!(answer.answers.len(), 2);
                    } else {
                        let answer = service
                            .pm_answer("storm", &query_for(n), EPS)
                            .expect("storm pm requests are well-formed and funded");
                        assert!(answer.noisy_query.is_some());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("storm thread panicked");
    }
    let scan_delta = dp_starj_repro::engine::fact_scan_count() - scans_before;

    let total = u64::from(THREADS * REQUESTS_PER_THREAD);
    let metrics = service.metrics();
    assert_eq!(metrics.queries_served, total, "no request may be lost");
    // The whole point of the coalescer: strictly fewer scans than requests.
    assert!(
        scan_delta < total,
        "coalescing must fuse scans: {scan_delta} scans for {total} requests"
    );
    assert!(metrics.fused_queries_saved > 0, "fusion must actually engage");
    assert!(metrics.coalesced_requests > 0 && metrics.coalesced_batches > 0);
    assert!(
        metrics.w_cache_hits > 0,
        "repeat same-axis workload traffic must reuse the W histogram"
    );

    // Exact spend: every request paid EPS exactly once (dyadic ⇒ exact sum).
    let usage = service.tenant_usage("storm").unwrap();
    assert_eq!(
        usage.spent_epsilon.to_bits(),
        (total as f64 * EPS).to_bits(),
        "spend must equal requests × ε: no double-charge, no free ride"
    );
    assert_eq!(usage.in_flight_epsilon, 0.0, "no reservation may leak");
}

#[test]
fn degenerate_coalescer_configs_lose_no_wakeups() {
    let _scans = shared_scan_window();
    // Requests arriving while a worker drains must still be picked up (the
    // classic lost-wakeup hazard).
    let config = ServiceConfig { coalesce: true, cache_answers: false, ..ServiceConfig::default() };
    let service = Arc::new(Service::new(Arc::new(wide_schema()), config));
    service.register_tenant("t", PrivacyBudget::pure(100.0).unwrap()).unwrap();
    let handles: Vec<_> = (0..8u32)
        .map(|t| {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                for i in 0..20u32 {
                    service
                        .pm_answer("t", &query_for(t * 20 + i), 0.0625)
                        .expect("the coalescer must answer everything");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread may hang or panic");
    }
    let metrics = service.metrics();
    assert_eq!(metrics.queries_served, 160, "every request answered");
    assert_eq!(metrics.coalesced_requests, 160, "every paid request parked");
}

/// `refresh_schema` must invalidate both the answer cache and the
/// W-histogram cache: a post-refresh repeat query may not return any
/// stale pre-refresh release or `W`-derived answer.
#[test]
fn refresh_schema_invalidates_answer_and_w_caches() {
    let _scans = shared_scan_window();
    // Two instances with the same shape but very different data: v1 puts
    // every fact row in bucket 0, v2 spreads them 0..512.
    let instance = |spread: bool| {
        const DOMAIN: u32 = 512;
        let domain = Domain::numeric("bucket", DOMAIN).unwrap();
        let shade = Domain::numeric("shade", 8).unwrap();
        let dim = Table::new(
            "D",
            vec![
                Column::key("pk", (0..DOMAIN).collect()),
                Column::attr("bucket", domain, (0..DOMAIN).collect()),
                Column::attr("shade", shade, (0..DOMAIN).map(|i| i % 8).collect()),
            ],
        )
        .unwrap();
        let n_fact = 1_000usize;
        let fact = Table::new(
            "F",
            vec![Column::key(
                "fk",
                (0..n_fact).map(|i| if spread { (i % 512) as u32 } else { 0 }).collect(),
            )],
        )
        .unwrap();
        Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
    };

    // Huge ε ⇒ negligible noise ⇒ answers ≈ exact counts, so a stale cache
    // is detectable as a plainly wrong count.
    const EPS: f64 = 1e9;
    let service = Service::new(instance(false), ServiceConfig::default());
    service.register_tenant("t", PrivacyBudget::pure(f64::MAX).unwrap()).unwrap();

    let q = StarQuery::count("bucket0").with(Predicate::point("D", "bucket", 0));
    let w = storm_workload(0, 0);

    let pm_v1 = service.pm_answer("t", &q, EPS).unwrap();
    assert!((pm_v1.result.scalar().unwrap() - 1_000.0).abs() < 1.0);
    let wd_v1 = service.wd_answer("t", &w, EPS).unwrap();
    assert!((wd_v1.answers[0] - 1_000.0).abs() < 1.0);
    assert!(service.cached_answers() > 0, "answers cached on v1");
    assert!(service.cached_histograms() > 0, "W cached on v1");

    service.refresh_schema(instance(true));

    // The same requests must re-execute against the new data: not cached,
    // and the counts reflect the spread-out instance (bucket 0 now holds
    // 1000/512 ≈ 2 rows, nowhere near 1000).
    let pm_v2 = service.pm_answer("t", &q, EPS).unwrap();
    assert!(!pm_v2.cached, "pre-refresh answer must not replay");
    assert!(
        pm_v2.result.scalar().unwrap() < 100.0,
        "stale pre-refresh answer leaked through the answer cache: {:?}",
        pm_v2.result
    );
    // shade 0 drops from 1000 rows to ~1000/8 once the data spreads out.
    let wd_v2 = service.wd_answer("t", &w, EPS).unwrap();
    assert!(!wd_v2.cached);
    assert!(wd_v2.answers[0] < 500.0, "stale pre-refresh W histogram leaked: {}", wd_v2.answers[0]);

    // Same invariants with the coalescer in the path.
    let coalesced =
        Service::new(instance(false), ServiceConfig { coalesce: true, ..ServiceConfig::default() });
    coalesced.register_tenant("t", PrivacyBudget::pure(f64::MAX).unwrap()).unwrap();
    coalesced.pm_answer("t", &q, EPS).unwrap();
    coalesced.wd_answer("t", &w, EPS).unwrap();
    coalesced.refresh_schema(instance(true));
    let pm = coalesced.pm_answer("t", &q, EPS).unwrap();
    let wd = coalesced.wd_answer("t", &w, EPS).unwrap();
    assert!(!pm.cached && pm.result.scalar().unwrap() < 100.0);
    assert!(!wd.cached && wd.answers[0] < 500.0);
}

#[test]
fn admission_rejects_before_any_budget_moves() {
    let _scans = shared_scan_window();
    let service = Service::new(Arc::new(wide_schema()), ServiceConfig::default());
    service.register_tenant("t", PrivacyBudget::pure(1.0).unwrap()).unwrap();

    let unknown_table = StarQuery::count("bad").with(Predicate::point("Nope", "x", 0));
    assert!(matches!(
        service.pm_answer("t", &unknown_table, 0.5),
        Err(ServiceError::InvalidQuery(_))
    ));
    let out_of_domain = StarQuery::count("bad").with(Predicate::point("D", "bucket", 99_999));
    assert!(matches!(
        service.pm_answer("t", &out_of_domain, 0.5),
        Err(ServiceError::InvalidQuery(_))
    ));
    let bad_eps = query_for(0);
    assert!(matches!(service.pm_answer("t", &bad_eps, -1.0), Err(ServiceError::InvalidBudget(_))));

    let usage = service.tenant_usage("t").unwrap();
    assert_eq!(usage.spent_epsilon, 0.0);
    assert_eq!(usage.in_flight_epsilon, 0.0);
    assert_eq!(service.metrics().admission_rejections, 3);
    assert_eq!(service.metrics().queries_served, 0);
}
