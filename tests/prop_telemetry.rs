//! Telemetry property tests: completed request spans must be *balanced*
//! (every stage interval is well-formed and nests inside its request
//! span), and the privacy-budget audit trail must be *exact* (per-tenant
//! Commit-event ε/δ sums bit-identical to the accountant's ledger) under
//! mixed success/refusal traffic on both the sequential and coalesced
//! paths.
//!
//! Why bit-equality is achievable: audit events record the same dyadic ε
//! deltas the ledger charges, and dyadic sums are exact in `f64` in any
//! order — so the trail either reproduces the ledger bit-for-bit or it
//! missed (or invented) an event.

use dp_starj_repro::engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{
    Request, Service, ServiceConfig, ServiceError, SettlementKind, Stage, TraceRecord,
};
use proptest::prelude::*;
use std::sync::Arc;

const DOM: u32 = 5;

fn build() -> Arc<StarSchema> {
    let d = Domain::numeric("c", DOM).unwrap();
    let dim = Table::new(
        "D",
        vec![Column::key("pk", (0..DOM).collect()), Column::attr("c", d, (0..DOM).collect())],
    )
    .unwrap();
    let fact = Table::new(
        "F",
        vec![
            Column::key("fk", (0..40u32).map(|i| i % DOM).collect()),
            Column::measure("m", (0..40i64).collect()),
        ],
    )
    .unwrap();
    Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
}

/// Every structural invariant a completed span must satisfy.
fn assert_balanced(record: &TraceRecord) {
    assert!(record.start_ns <= record.end_ns, "span ends before it starts: {record:?}");
    let mut saw_queue_wait = false;
    for stage in Stage::ALL {
        if let Some((s, e)) = record.stage(stage) {
            assert!(s <= e, "{} interval inverted in {record:?}", stage.name());
            assert!(
                record.start_ns <= s && e <= record.end_ns,
                "{} does not nest inside the request span: {record:?}",
                stage.name()
            );
            if stage == Stage::QueueWait {
                saw_queue_wait = true;
            }
        }
    }
    // A span that waited in the coalescer queue says so, and vice versa.
    assert_eq!(
        record.queued, saw_queue_wait,
        "queued flag must match the presence of a queue-wait stage: {record:?}"
    );
}

fn service(schema: &Arc<StarSchema>, seed: u64, coalesce: bool) -> Service {
    Service::new(Arc::clone(schema), ServiceConfig { seed, coalesce, ..ServiceConfig::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed traffic — paid answers, cache replays, refusals — through both
    /// paths: all completed spans balance, and each tenant's audit trail
    /// sums bit-identically to its ledger.
    #[test]
    fn spans_balance_and_audit_matches_ledger(
        picks in proptest::collection::vec((0u32..DOM, 0usize..3), 4..24),
        allotment_eighths in 2u32..40,
        seed in 0u64..1_000,
        coalesce in (0u32..2).prop_map(|b| b == 1),
    ) {
        const EPS: f64 = 0.125; // dyadic
        let schema = build();
        let service = service(&schema, seed, coalesce);
        let tenants = ["ann", "ben", "cyn"];
        // A deliberately scarce allotment so longer pick sequences refuse.
        let allotment = PrivacyBudget::pure(f64::from(allotment_eighths) * EPS).unwrap();
        for t in tenants {
            service.register_tenant(t, allotment).unwrap();
        }

        for &(value, who) in &picks {
            let q = StarQuery::count(format!("q{value}"))
                .with(Predicate::point("D", "c", value));
            match service.pm_answer(tenants[who], &q, EPS) {
                Ok(_) | Err(ServiceError::BudgetExhausted { .. }) => {}
                Err(e) => prop_assert!(false, "unexpected failure: {e}"),
            }
        }

        for record in service.telemetry().spans() {
            assert_balanced(&record);
        }

        let audit = service.telemetry().audit();
        for t in tenants {
            let usage = service.tenant_usage(t).unwrap();
            let (audit_eps, audit_delta) = audit.committed(t);
            prop_assert_eq!(
                audit_eps.to_bits(), usage.spent_epsilon.to_bits(),
                "audit ε for {} diverged from the ledger", t
            );
            prop_assert_eq!(audit_delta.to_bits(), usage.spent_delta.to_bits());

            // The running totals are redundant with the retained events as
            // long as nothing evicted; re-summing must agree bit-for-bit.
            // (fold from +0.0: an empty `Iterator::sum` is -0.0, which is
            // not bit-equal to the ledger's untouched +0.0)
            let resummed: f64 = audit
                .events_for(t)
                .iter()
                .filter(|e| e.kind == SettlementKind::Commit)
                .fold(0.0, |acc, e| acc + e.epsilon);
            prop_assert_eq!(audit.dropped(), 0);
            prop_assert_eq!(resummed.to_bits(), usage.spent_epsilon.to_bits());

            // Conservation: every Reserve settles as exactly one Commit or
            // Refund — in-flight ends at zero, so the counts must balance.
            let events = audit.events_for(t);
            let count = |k: SettlementKind| events.iter().filter(|e| e.kind == k).count();
            prop_assert_eq!(usage.in_flight_epsilon, 0.0);
            prop_assert_eq!(
                count(SettlementKind::Reserve),
                count(SettlementKind::Commit) + count(SettlementKind::Refund),
                "unsettled reservation in the audit trail for {}", t
            );
        }
    }
}

/// Coalesced spans pass through the queue: the queued flag and the
/// QueueWait/FusedScan stages must show up, and still balance.
#[test]
fn coalesced_spans_record_queue_wait() {
    let schema = build();
    let service = service(&schema, 7, true);
    service.register_tenant("t", PrivacyBudget::pure(16.0).unwrap()).unwrap();

    // Submit everything before waiting so the requests genuinely park.
    let queries: Vec<StarQuery> = (0..DOM)
        .map(|v| StarQuery::count(format!("q{v}")).with(Predicate::point("D", "c", v)))
        .collect();
    let handles: Vec<_> =
        queries.iter().map(|q| service.submit("t", Request::Pm(q), 0.25).unwrap()).collect();
    for h in handles {
        h.wait().unwrap();
    }

    let spans = service.telemetry().spans();
    assert_eq!(spans.len(), DOM as usize);
    for record in &spans {
        assert!(record.queued, "paid coalesced requests park in the queue");
        let (qs, qe) = record.stage(Stage::QueueWait).expect("queue-wait stage recorded");
        let (fs, fe) = record.stage(Stage::FusedScan).expect("fused-scan stage recorded");
        assert!(qs <= qe && qe <= fs && fs <= fe, "queue wait precedes the fused scan");
        let (rs, re) = record.stage(Stage::BudgetReserve).expect("reserve stage recorded");
        assert!(rs <= re && re <= qs, "reservation happens at submit time, before parking");
    }
}
