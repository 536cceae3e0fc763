//! Coalescer-equivalence property tests: routing traffic through the
//! group-commit scan coalescer must be **observationally identical** to the
//! sequential per-request path — bit-identical answers and noisy queries,
//! and a per-tenant budget ledger that ends in exactly the same state (no
//! double-charge, no free ride).
//!
//! Why exact equality is achievable: everything privacy-relevant (RNG
//! derivation by arrival index, perturbation, reservation) happens at
//! submit time in arrival order on both paths, and the fused kernels
//! accumulate each query in the same order a solo scan would. The ε values
//! drawn here are dyadic, so even ledger sums are order-independent exact
//! `f64`s, letting the tests assert bitwise equality of spending.

use dp_starj_repro::core::workload::{PredicateWorkload, WorkloadBlock};
use dp_starj_repro::engine::{
    canonicalize, Column, Constraint, Dimension, Domain, GroupAttr, Predicate, StarQuery,
    StarSchema, Table,
};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{Answer, Request, Service, ServiceConfig, ServiceError, Submitted};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const DOM_X: u32 = 4;
const DOM_Y: u32 = 3;

/// A random two-dimension star instance (dimension attributes are fixed to
/// their pks; only the fact table varies).
fn build(fact_rows: &[(usize, usize, i64)]) -> Arc<StarSchema> {
    let dx = Domain::numeric("x", DOM_X).unwrap();
    let dy = Domain::numeric("y", DOM_Y).unwrap();
    let x = Table::new(
        "X",
        vec![Column::key("pk", (0..DOM_X).collect()), Column::attr("x", dx, (0..DOM_X).collect())],
    )
    .unwrap();
    let y = Table::new(
        "Y",
        vec![Column::key("pk", (0..DOM_Y).collect()), Column::attr("y", dy, (0..DOM_Y).collect())],
    )
    .unwrap();
    let fact = Table::new(
        "F",
        vec![
            Column::key("fx", fact_rows.iter().map(|r| r.0 as u32).collect()),
            Column::key("fy", fact_rows.iter().map(|r| r.1 as u32).collect()),
            Column::measure("m", fact_rows.iter().map(|r| r.2).collect()),
        ],
    )
    .unwrap();
    Arc::new(
        StarSchema::new(fact, vec![Dimension::new(x, "pk", "fx"), Dimension::new(y, "pk", "fy")])
            .unwrap(),
    )
}

fn constraint_strategy(domain: u32) -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (0..domain).prop_map(Constraint::Point),
        (0..domain, 0..domain).prop_map(|(a, b)| Constraint::Range { lo: a.min(b), hi: a.max(b) }),
    ]
}

fn query_strategy() -> impl Strategy<Value = StarQuery> {
    (
        proptest::collection::vec(constraint_strategy(DOM_X), 0..3),
        proptest::collection::vec(constraint_strategy(DOM_Y), 0..2),
        0u32..2,
        0u32..2,
    )
        .prop_map(|(on_x, on_y, agg, group)| {
            let mut q = if agg == 0 { StarQuery::count("q") } else { StarQuery::sum("q", "m") };
            for c in on_x {
                q = q.with(Predicate { table: "X".into(), attr: "x".into(), constraint: c });
            }
            for c in on_y {
                q = q.with(Predicate { table: "Y".into(), attr: "y".into(), constraint: c });
            }
            if group == 1 {
                q = q.group_by(GroupAttr::new("Y", "y"));
            }
            q
        })
}

fn workload_strategy() -> impl Strategy<Value = PredicateWorkload> {
    proptest::collection::vec((constraint_strategy(DOM_X), constraint_strategy(DOM_Y)), 1..4)
        .prop_map(|rows| {
            PredicateWorkload::new(
                vec![
                    WorkloadBlock { table: "X".into(), attr: "x".into(), domain: DOM_X },
                    WorkloadBlock { table: "Y".into(), attr: "y".into(), domain: DOM_Y },
                ],
                rows.into_iter().map(|(cx, cy)| vec![cx, cy]).collect(),
            )
            .expect("generated workloads are well-formed")
        })
}

/// Dyadic ε values: ledger additions are exact, so spending comparisons can
/// be bitwise regardless of commit order.
fn eps_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.25), Just(0.5), Just(1.0)]
}

#[derive(Debug, Clone)]
enum Req {
    Pm(StarQuery, f64),
    Wd(PredicateWorkload, f64),
}

impl Req {
    fn submit(&self, service: &Service) -> Result<Submitted<Answer>, ServiceError> {
        match self {
            Req::Pm(q, eps) => service.submit("t", Request::Pm(q), *eps),
            Req::Wd(w, eps) => service.submit("t", Request::Wd(w), *eps),
        }
    }
}

fn request_strategy() -> impl Strategy<Value = Req> {
    prop_oneof![
        (query_strategy(), eps_strategy()).prop_map(|(q, e)| Req::Pm(q, e)),
        (workload_strategy(), eps_strategy()).prop_map(|(w, e)| Req::Wd(w, e)),
    ]
}

fn sequential_service(schema: &Arc<StarSchema>, seed: u64) -> Service {
    Service::new(Arc::clone(schema), ServiceConfig { seed, ..ServiceConfig::default() })
}

fn coalesced_service(schema: &Arc<StarSchema>, seed: u64) -> Service {
    Service::new(
        Arc::clone(schema),
        ServiceConfig {
            seed,
            coalesce: true,
            coalesce_window: Duration::from_millis(2),
            max_batch: 64,
            coalesce_workers: 1,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lockstep submission (repeats included): every request is answered by
    /// both services in turn, so cache hits line up, and every observable —
    /// result bits, noisy query, cached flag, cost, error — must match.
    #[test]
    fn lockstep_coalesced_equals_sequential(
        fact in proptest::collection::vec((0usize..DOM_X as usize, 0usize..DOM_Y as usize, -20i64..20), 0..40),
        mut requests in proptest::collection::vec(request_strategy(), 1..8),
        seed in 0u64..1_000,
    ) {
        // Re-submit a prefix verbatim: repeats must replay from the cache
        // identically on both paths.
        let repeats: Vec<Req> = requests.iter().take(2).cloned().collect();
        requests.extend(repeats);

        let schema = build(&fact);
        let seq = sequential_service(&schema, seed);
        let coal = coalesced_service(&schema, seed);
        for service in [&seq, &coal] {
            service.register_tenant("t", PrivacyBudget::pure(64.0).unwrap()).unwrap();
        }

        for (i, req) in requests.iter().enumerate() {
            match req {
                Req::Pm(q, eps) => {
                    let a = seq.pm_answer("t", q, *eps);
                    let b = coal.pm_answer("t", q, *eps);
                    match (a, b) {
                        (Ok(a), Ok(b)) => {
                            prop_assert_eq!(&a.result, &b.result, "pm result diverged at {}", i);
                            prop_assert_eq!(&a.noisy_query, &b.noisy_query);
                            prop_assert_eq!(a.cached, b.cached);
                            prop_assert_eq!(a.cost, b.cost);
                        }
                        (a, b) => prop_assert_eq!(a.err(), b.err(), "error parity at {}", i),
                    }
                }
                Req::Wd(w, eps) => {
                    let a = seq.wd_answer("t", w, *eps).unwrap();
                    let b = coal.wd_answer("t", w, *eps).unwrap();
                    prop_assert_eq!(a.answers.len(), b.answers.len());
                    for (x, y) in a.answers.iter().zip(&b.answers) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "wd answer diverged at {}", i);
                    }
                    prop_assert_eq!(a.cached, b.cached);
                    prop_assert_eq!(a.cost, b.cost);
                }
            }
        }

        let ua = seq.tenant_usage("t").unwrap();
        let ub = coal.tenant_usage("t").unwrap();
        prop_assert_eq!(ua.spent_epsilon.to_bits(), ub.spent_epsilon.to_bits(),
            "ledgers must end bit-identical");
        prop_assert_eq!(ua.in_flight_epsilon, 0.0);
        prop_assert_eq!(ub.in_flight_epsilon, 0.0);
        prop_assert_eq!(seq.cached_answers(), coal.cached_answers());

        // The audit trail is evidence, not an estimate: on both paths the
        // summed Commit-event ε/δ deltas must be bit-identical to what the
        // ledger actually charged (dyadic ε ⇒ exact fp sums either way).
        for (name, service, usage) in [("seq", &seq, &ua), ("coal", &coal, &ub)] {
            let (audit_eps, audit_delta) = service.telemetry().audit().committed("t");
            prop_assert_eq!(audit_eps.to_bits(), usage.spent_epsilon.to_bits(),
                "{} audit trail diverged from the ledger", name);
            prop_assert_eq!(audit_delta.to_bits(), usage.spent_delta.to_bits());
        }
    }

    /// Asynchronous submission: every request parks before the first drain
    /// completes, so the coalescer genuinely fuses them — and the fused
    /// answers must still be bit-identical to the one-at-a-time path.
    #[test]
    fn fused_batches_are_bit_identical_to_sequential(
        fact in proptest::collection::vec((0usize..DOM_X as usize, 0usize..DOM_Y as usize, -20i64..20), 0..40),
        requests in proptest::collection::vec(request_strategy(), 1..10),
        seed in 0u64..1_000,
    ) {
        // Distinct requests only: an async submitter cannot expect a racing
        // duplicate to have landed in the cache yet, so duplicates are the
        // one (benign, raced) divergence from the sequential path.
        let mut seen = Vec::new();
        let requests: Vec<Req> = requests
            .into_iter()
            .filter(|r| {
                let key = match r {
                    Req::Pm(q, e) => format!("pm{:?}{e:?}", canonicalize(q)),
                    Req::Wd(w, e) => format!("wd{:?}{e:?}",
                        w.to_star_queries().iter().map(canonicalize).collect::<Vec<_>>()),
                };
                if seen.contains(&key) { false } else { seen.push(key); true }
            })
            .collect();

        let schema = build(&fact);
        let seq = sequential_service(&schema, seed);
        let coal = coalesced_service(&schema, seed);
        for service in [&seq, &coal] {
            service.register_tenant("t", PrivacyBudget::pure(64.0).unwrap()).unwrap();
        }

        // Sequential oracle first.
        let oracle: Vec<Answer> =
            requests.iter().map(|req| req.submit(&seq).unwrap().wait().unwrap()).collect();

        // Submit everything before waiting on anything: the queue holds the
        // whole sequence and the worker fuses it into few partitions.
        let handles: Vec<Submitted<Answer>> =
            requests.iter().map(|req| req.submit(&coal).unwrap()).collect();

        for (i, (handle, oracle)) in handles.into_iter().zip(oracle).enumerate() {
            match (oracle, handle.wait().unwrap()) {
                (Answer::Pm(a), Answer::Pm(b)) => {
                    prop_assert_eq!(&a.result, &b.result, "fused pm diverged at {}", i);
                    prop_assert_eq!(&a.noisy_query, &b.noisy_query);
                    prop_assert_eq!(a.cost, b.cost);
                }
                (Answer::Wd(a), Answer::Wd(b)) => {
                    for (x, y) in a.answers.iter().zip(&b.answers) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "fused wd diverged at {}", i);
                    }
                    prop_assert_eq!(a.cost, b.cost);
                }
                (a, b) => prop_assert!(false, "answer kind diverged at {}: {:?} vs {:?}", i, a, b),
            }
        }

        let ua = seq.tenant_usage("t").unwrap();
        let ub = coal.tenant_usage("t").unwrap();
        prop_assert_eq!(ua.spent_epsilon.to_bits(), ub.spent_epsilon.to_bits());
        prop_assert_eq!(ub.in_flight_epsilon, 0.0, "no reservation may leak");
        prop_assert_eq!(seq.cached_answers(), coal.cached_answers());
    }
}

/// Budget-refusal parity under scarcity: the coalescer must admit exactly
/// the queries the sequential path admits — same successes, same typed
/// refusals, same final ledger — whether callers wait in lockstep or
/// submit asynchronously.
#[test]
fn scarce_budget_refusals_match_the_sequential_path() {
    let fact: Vec<(usize, usize, i64)> =
        (0..32).map(|i| (i % DOM_X as usize, i % DOM_Y as usize, i as i64)).collect();
    let schema = build(&fact);
    let queries: Vec<StarQuery> = (0..DOM_X)
        .flat_map(|v| {
            (0..DOM_Y).map(move |w| {
                StarQuery::count(format!("q{v}_{w}"))
                    .with(Predicate::point("X", "x", v))
                    .with(Predicate::point("Y", "y", w))
            })
        })
        .collect();
    assert_eq!(queries.len(), 12);
    const EPS: f64 = 0.125;
    // 1.0 / 0.125 = 8 admissions; the remaining 4 distinct queries refuse.
    let allotment = PrivacyBudget::pure(1.0).unwrap();

    let seq = sequential_service(&schema, 99);
    seq.register_tenant("t", allotment).unwrap();
    let oracle: Vec<Result<_, _>> = queries.iter().map(|q| seq.pm_answer("t", q, EPS)).collect();
    assert_eq!(oracle.iter().filter(|r| r.is_ok()).count(), 8);

    // Lockstep coalesced.
    let lock = coalesced_service(&schema, 99);
    lock.register_tenant("t", allotment).unwrap();
    for (q, expected) in queries.iter().zip(&oracle) {
        let got = lock.pm_answer("t", q, EPS);
        match (expected, got) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.result, b.result);
                assert_eq!(a.noisy_query, b.noisy_query);
            }
            (Err(a), Err(b)) => assert_eq!(a, &b),
            (a, b) => panic!("admission parity broke: {a:?} vs {b:?}"),
        }
    }

    // Asynchronous coalesced: reservations happen at submit in submission
    // order, so the same 8 queries are admitted before anything drains.
    let coal = coalesced_service(&schema, 99);
    coal.register_tenant("t", allotment).unwrap();
    let handles: Vec<_> = queries.iter().map(|q| coal.submit("t", Request::Pm(q), EPS)).collect();
    for (handle, expected) in handles.into_iter().zip(&oracle) {
        match (expected, handle.and_then(|h| h.wait()).map(Answer::into_pm)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.result, b.result);
                assert_eq!(a.noisy_query, b.noisy_query);
            }
            (Err(a), Err(b)) => assert_eq!(a, &b),
            (a, b) => panic!("async admission parity broke: {a:?} vs {b:?}"),
        }
    }

    for service in [&seq, &lock, &coal] {
        let usage = service.tenant_usage("t").unwrap();
        assert_eq!(usage.spent_epsilon.to_bits(), 1.0f64.to_bits(), "exactly the allotment");
        assert_eq!(usage.in_flight_epsilon, 0.0);
        assert_eq!(service.metrics().budget_refusals, 4);

        // The audit trail saw the same story: 8 commits summing (exactly,
        // ε is dyadic) to the allotment, and one Refusal per refused query.
        let audit = service.telemetry().audit();
        assert_eq!(audit.committed("t").0.to_bits(), 1.0f64.to_bits());
        let refusals = audit
            .events_for("t")
            .iter()
            .filter(|e| e.kind == dp_starj_repro::service::AuditKind::Refusal)
            .count();
        assert_eq!(refusals, 4, "every budget refusal leaves an audit event");
    }
}
