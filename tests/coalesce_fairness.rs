//! Coalescer admission-shaping tests: per-tenant fairness under a flooding
//! tenant, and the typed `StaleDataVersion` refusal for coalesced submits
//! that raced a `refresh_schema`.
//!
//! The fair queue's *ordering* guarantees (round-robin drain, FIFO within a
//! tenant lane, cursor persistence) are pinned deterministically by the
//! queue-level unit tests in `starj-service`; these cross-crate tests cover
//! the end-to-end behaviors: a flooding tenant backpressures only itself,
//! a victim tenant stays live while the flood is in progress, and a refresh
//! racing parked work refunds instead of answering over retired data.

use dp_starj_repro::core::workload::{PredicateWorkload, WorkloadBlock};
use dp_starj_repro::engine::{
    Column, Constraint, Dimension, Domain, Predicate, StarQuery, StarSchema, Table,
};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{Request, Service, ServiceConfig, ServiceError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A toy instance whose scans are cheap: fairness tests need volume, not
/// data size.
fn toy_schema(buckets: u32) -> Arc<StarSchema> {
    let domain = Domain::numeric("bucket", buckets).unwrap();
    let dim = Table::new(
        "D",
        vec![
            Column::key("pk", (0..buckets).collect()),
            Column::attr("bucket", domain, (0..buckets).collect()),
        ],
    )
    .unwrap();
    let fact =
        Table::new("F", vec![Column::key("fk", (0..4_000u32).map(|i| i % buckets).collect())])
            .unwrap();
    Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
}

fn query(i: usize) -> StarQuery {
    StarQuery::count(format!("q{i}")).with(Predicate::point("D", "bucket", (i % 16) as u32))
}

/// The per-tenant lane cap blocks only the flooding tenant: its over-cap
/// submit parks the *submitting thread*, while another tenant's submit
/// sails through the same queue.
#[test]
fn tenant_cap_blocks_the_flooder_but_not_other_tenants() {
    let config = ServiceConfig {
        coalesce: true,
        coalesce_workers: 1,
        // Long window + huge max_batch: nothing drains while the cap
        // semantics are being observed, making the blocking deterministic.
        coalesce_window: Duration::from_millis(500),
        max_batch: 1_000,
        coalesce_tenant_queue: 4,
        cache_answers: false,
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(toy_schema(16), config));
    service.register_tenant("flood", PrivacyBudget::pure(100.0).unwrap()).unwrap();
    service.register_tenant("victim", PrivacyBudget::pure(100.0).unwrap()).unwrap();

    let progress = Arc::new(AtomicUsize::new(0));
    let flooder = {
        let service = Arc::clone(&service);
        let progress = Arc::clone(&progress);
        thread::spawn(move || {
            (0..6)
                .map(|i| {
                    let handle = service.submit("flood", Request::Pm(&query(i)), 0.1).unwrap();
                    progress.fetch_add(1, Ordering::SeqCst);
                    handle
                })
                .collect::<Vec<_>>()
        })
    };

    // The flooder reaches its lane cap of 4, then its 5th submit blocks.
    let deadline = Instant::now() + Duration::from_secs(5);
    while progress.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
        thread::yield_now();
    }
    thread::sleep(Duration::from_millis(60));
    assert_eq!(
        progress.load(Ordering::SeqCst),
        4,
        "the 5th over-cap submit must block the flooding tenant"
    );

    // A different tenant is not behind the flooder's cap: its submit parks
    // immediately instead of blocking.
    let victim = service.submit("victim", Request::Pm(&query(99)), 0.1).unwrap();
    assert!(victim.is_queued(), "victim parks while the flooder is capped");
    assert!(victim.wait().is_ok());

    // Once drains free the flooder's lane, the remaining submits proceed
    // and every request completes.
    let handles = flooder.join().unwrap();
    assert_eq!(progress.load(Ordering::SeqCst), 6);
    for handle in handles {
        assert!(handle.wait().is_ok());
    }
    let m = service.metrics();
    assert_eq!(m.queries_served, 7, "6 flood + 1 victim all answered");
    assert_eq!(m.stale_refusals, 0);
}

/// Starvation: one tenant floods thousands of requests through the queue;
/// a victim tenant's sequential requests must complete while the flood is
/// still in progress (round-robin drains + the lane cap keep the victim's
/// head-of-line job at most one rotation from service).
#[test]
fn flooding_tenant_cannot_starve_a_victim() {
    const FLOOD: usize = 5_000;
    let config = ServiceConfig {
        coalesce: true,
        coalesce_workers: 1,
        coalesce_window: Duration::ZERO,
        max_batch: 8,
        coalesce_tenant_queue: 16,
        cache_answers: false,
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(toy_schema(16), config));
    service.register_tenant("flood", PrivacyBudget::pure(f64::MAX).unwrap()).unwrap();
    service.register_tenant("victim", PrivacyBudget::pure(f64::MAX).unwrap()).unwrap();

    let flood_done = Arc::new(AtomicBool::new(false));
    let pumped = Arc::new(AtomicUsize::new(0));
    let flooder = {
        let service = Arc::clone(&service);
        let flood_done = Arc::clone(&flood_done);
        let pumped = Arc::clone(&pumped);
        thread::spawn(move || {
            let handles: Vec<_> = (0..FLOOD)
                .map(|i| {
                    let h = service.submit("flood", Request::Pm(&query(i)), 1e-6).unwrap();
                    pumped.fetch_add(1, Ordering::SeqCst);
                    h
                })
                .collect();
            for h in handles {
                h.wait().unwrap();
            }
            flood_done.store(true, Ordering::SeqCst);
        })
    };

    // Wait until the flood is saturating its lane before the victim shows
    // up, so the victim genuinely contends with a full backlog.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pumped.load(Ordering::SeqCst) < 32 && Instant::now() < deadline {
        thread::yield_now();
    }
    assert!(pumped.load(Ordering::SeqCst) >= 32, "flood never got going");

    for i in 0..20 {
        service.pm_answer("victim", &query(1_000 + i), 1e-6).unwrap();
    }
    assert!(
        !flood_done.load(Ordering::SeqCst),
        "victim's 20 requests outlasted a {FLOOD}-request flood — starved"
    );

    flooder.join().unwrap();
    assert_eq!(service.metrics().queries_served, FLOOD as u64 + 20);
}

/// Regression: a coalesced submit that raced a `refresh_schema` gets the
/// typed `StaleDataVersion` refusal with a full refund — it must not
/// commit-and-answer over the retired instance.
#[test]
fn refresh_refuses_parked_submits_with_stale_version_and_refunds() {
    let config = ServiceConfig {
        coalesce: true,
        coalesce_workers: 1,
        // The drain waits out this window, giving the refresh a wide slot
        // to land while the submit is parked.
        coalesce_window: Duration::from_millis(400),
        max_batch: 1_000,
        ..ServiceConfig::default()
    };
    let service = Service::new(toy_schema(16), config);
    service.register_tenant("t", PrivacyBudget::pure(10.0).unwrap()).unwrap();

    let parked = service.submit("t", Request::Pm(&query(0)), 0.5).unwrap();
    assert!(parked.is_queued());
    let new_version = service.refresh_schema(toy_schema(16));
    assert_eq!(new_version, 1);

    match parked.wait() {
        Err(ServiceError::StaleDataVersion { submitted, current }) => {
            assert_eq!((submitted, current), (0, 1));
        }
        other => panic!("expected StaleDataVersion, got {other:?}"),
    }
    let usage = service.tenant_usage("t").unwrap();
    assert_eq!(usage.spent_epsilon, 0.0, "stale refusal must refund the reservation");
    assert_eq!(usage.in_flight_epsilon, 0.0);
    assert_eq!(service.metrics().stale_refusals, 1);

    // A resubmit runs cleanly against the new version and pays normally.
    let fresh = service.pm_answer("t", &query(0), 0.5).unwrap();
    assert!(!fresh.cached);
    assert!((service.tenant_usage("t").unwrap().spent_epsilon - 0.5).abs() < 1e-12);
}

/// Regression: the stale refusal refunds *before* it wakes the caller. A
/// worker that filled the slot first let the woken caller read its ledger
/// with the reservation still in flight. Each round forces the interleaving
/// without sleeping: the window is far longer than the test, so the parked
/// submit can only drain when the second submit (another tenant, after the
/// refresh) fills the batch.
#[test]
fn stale_refusal_refunds_before_it_wakes_the_caller() {
    const ROUNDS: usize = 1_000;
    let config = ServiceConfig {
        coalesce: true,
        coalesce_workers: 1,
        coalesce_window: Duration::from_secs(30),
        max_batch: 2,
        ..ServiceConfig::default()
    };
    let service = Service::new(toy_schema(16), config);
    service.register_tenant("t", PrivacyBudget::pure(10.0).unwrap()).unwrap();
    service.register_tenant("kick", PrivacyBudget::pure(10.0).unwrap()).unwrap();

    for round in 0..ROUNDS {
        let parked = service.submit("t", Request::Pm(&query(round)), 0.5).unwrap();
        assert!(parked.is_queued());
        service.refresh_schema(toy_schema(16));
        let kick = service.submit("kick", Request::Pm(&query(round)), 1e-6).unwrap();

        assert!(matches!(parked.wait(), Err(ServiceError::StaleDataVersion { .. })));
        let usage = service.tenant_usage("t").unwrap();
        assert_eq!(
            (usage.spent_epsilon, usage.in_flight_epsilon),
            (0.0, 0.0),
            "round {round}: woken before the refund landed"
        );
        kick.wait().unwrap();
    }
    assert_eq!(service.metrics().stale_refusals, ROUNDS as u64);
}

/// The same stale-version contract holds for workload submits.
#[test]
fn refresh_refuses_parked_workload_submits_too() {
    let config = ServiceConfig {
        coalesce: true,
        coalesce_workers: 1,
        coalesce_window: Duration::from_millis(400),
        max_batch: 1_000,
        ..ServiceConfig::default()
    };
    let service = Service::new(toy_schema(8), config);
    service.register_tenant("t", PrivacyBudget::pure(10.0).unwrap()).unwrap();

    let workload = PredicateWorkload::new(
        vec![WorkloadBlock { table: "D".into(), attr: "bucket".into(), domain: 8 }],
        vec![vec![Constraint::Point(0)], vec![Constraint::Range { lo: 0, hi: 3 }]],
    )
    .unwrap();
    let parked = service.submit("t", Request::Wd(&workload), 0.5).unwrap();
    assert!(parked.is_queued());
    service.refresh_schema(toy_schema(8));

    assert!(matches!(
        parked.wait(),
        Err(ServiceError::StaleDataVersion { submitted: 0, current: 1 })
    ));
    assert_eq!(service.tenant_usage("t").unwrap().spent_epsilon, 0.0);
    assert_eq!(service.metrics().stale_refusals, 1);
}
