//! Recovery edge cases for the crash-safe budget journal, end to end
//! through [`Service`], [`Router`], and the wire gate:
//!
//! * an empty journal recovers to a clean slate, and a clean shutdown's
//!   journal rebuilds every tenant ledger **bit-for-bit** — matching the
//!   telemetry audit trail's committed sums, which share the same
//!   write-ahead ordering;
//! * a crash that tears the last record truncates the torn tail and
//!   recovers exactly the released answers (never an under-charge);
//! * rotation failures degrade the service rather than corrupt history,
//!   and multi-segment journals replay across segment boundaries;
//! * replaying a journal onto a non-empty accountant is refused — the
//!   fail-closed guard against double-applying spends;
//! * a tenant id too long for a journal record is refused at
//!   registration, so it can never truncate the journal and drop other
//!   tenants' spends;
//! * degraded mode keeps serving cache hits and free answers while
//!   refusing new spends, all the way out to the gate's stable
//!   `journal_unavailable` wire code;
//! * a coalescer worker panic is contained: the caller gets a typed
//!   [`ServiceError::Internal`], the reservation is refunded, and the
//!   worker survives to answer the next request.

use dp_starj_repro::durable::record::MAX_TENANT_BYTES;
use dp_starj_repro::durable::{FaultKind, FaultPlan, TempDir};
use dp_starj_repro::engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
use dp_starj_repro::gate::{Gate, GateClient, GateConfig};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::router::{Router, RouterConfig};
use dp_starj_repro::service::{
    BudgetAccountant, DurableConfig, Service, ServiceConfig, ServiceError,
};
use dp_starj_repro::telemetry::{Json, TenantTotals};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

fn schema() -> Arc<StarSchema> {
    let domain = Domain::numeric("c", 4).unwrap();
    let dim = Table::new(
        "Dim",
        vec![Column::key("pk", (0..4).collect()), Column::attr("c", domain, (0..4).collect())],
    )
    .unwrap();
    let fact = Table::new(
        "Fact",
        vec![
            Column::key("fk", vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 1]),
            Column::measure("m", vec![5, -3, 7, 2, 2, 9, -1, 4, 6, 1]),
        ],
    )
    .unwrap();
    Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
}

/// Distinct queries (labels are canon-free, so the predicate/aggregate
/// must differ) so nothing cache-hits unless a test wants it to.
fn query(i: usize) -> StarQuery {
    let predicate = Predicate::point("Dim", "c", (i % 4) as u32);
    if i < 4 {
        StarQuery::count(format!("q{i}")).with(predicate)
    } else {
        StarQuery::sum(format!("q{i}"), "m").with(predicate)
    }
}

fn open(dir: &Path, fault: Option<Arc<FaultPlan>>) -> Service {
    let config =
        ServiceConfig { durable: Some(DurableConfig::at(dir)), fault, ..ServiceConfig::default() };
    Service::open(schema(), config).expect("journal opens")
}

#[test]
fn empty_journal_recovers_to_a_clean_slate() {
    let dir = TempDir::new("durable-empty").unwrap();
    {
        let service = open(dir.path(), None);
        let replay = service.durable_status().unwrap().replay;
        assert_eq!(replay.records, 0);
        assert_eq!(replay.commits, 0);
        assert!(!replay.torn_tail_truncated);
        service.register_tenant("alice", PrivacyBudget::pure(4.0).unwrap()).unwrap();
        assert_eq!(service.tenant_usage("alice").unwrap().spent_epsilon, 0.0);
    }
    // Reopening an untouched-but-existing journal is still a clean slate
    // (the registration itself journals nothing).
    let service = open(dir.path(), None);
    assert_eq!(service.durable_status().unwrap().replay.commits, 0);
}

#[test]
fn clean_shutdown_replays_ledgers_bit_for_bit_and_matches_the_audit_trail() {
    let dir = TempDir::new("durable-replay").unwrap();
    let epsilons = [0.25, 0.125, 0.5, 0.0625];
    let (usage_before, audit_committed) = {
        let service = open(dir.path(), None);
        for tenant in ["alice", "bob"] {
            service.register_tenant(tenant, PrivacyBudget::pure(8.0).unwrap()).unwrap();
        }
        for (i, &eps) in epsilons.iter().enumerate() {
            let tenant = if i % 2 == 0 { "alice" } else { "bob" };
            service.pm_answer(tenant, &query(i), eps).unwrap();
        }
        let usage = |t: &str| service.tenant_usage(t).unwrap();
        let audit = |t: &str| service.telemetry().audit().totals(t).committed_epsilon;
        ([usage("alice"), usage("bob")], [audit("alice"), audit("bob")])
    };

    let recovered = open(dir.path(), None);
    let replay = recovered.durable_status().unwrap().replay;
    assert_eq!(replay.commits, epsilons.len() as u64);
    assert!(!replay.torn_tail_truncated, "clean shutdown leaves no torn tail");
    for (i, tenant) in ["alice", "bob"].iter().enumerate() {
        recovered.register_tenant(tenant, PrivacyBudget::pure(8.0).unwrap()).unwrap();
        let after = recovered.tenant_usage(tenant).unwrap();
        assert_eq!(
            after.spent_epsilon.to_bits(),
            usage_before[i].spent_epsilon.to_bits(),
            "{tenant}: recovered ledger must be bit-identical"
        );
        assert_eq!(after.spent_delta.to_bits(), usage_before[i].spent_delta.to_bits());
        assert_eq!(
            after.spent_epsilon.to_bits(),
            audit_committed[i].to_bits(),
            "{tenant}: journal replay and audit-trail commit sums share write-ahead order"
        );
    }
    // The recovered ledger keeps charging from where it left off.
    let more = recovered.pm_answer("alice", &query(7), 0.25).unwrap();
    assert!(!more.cached);
}

#[test]
fn crash_mid_commit_truncates_the_torn_tail_and_never_undercharges() {
    let dir = TempDir::new("durable-torn").unwrap();
    // wal.write hits: q0 Reserve=0, q0 Commit=1, q1 Reserve=2, q1 Commit=3.
    // Tear q1's Commit mid-frame: 11 bytes land, then the "process dies".
    let plan =
        Arc::new(FaultPlan::new(3).fail_at("wal.write", 3, FaultKind::Crash { torn_bytes: 11 }));
    let released = {
        let service = open(dir.path(), Some(plan));
        service.register_tenant("alice", PrivacyBudget::pure(4.0).unwrap()).unwrap();
        service.pm_answer("alice", &query(0), 0.25).unwrap();
        let err = service.pm_answer("alice", &query(1), 0.125).unwrap_err();
        assert!(
            matches!(err, ServiceError::DurabilityUnavailable { .. }),
            "a journal crash must refuse, not release: {err}"
        );
        assert!(service.is_degraded());
        let usage = service.tenant_usage("alice").unwrap();
        assert_eq!(usage.in_flight_epsilon, 0.0, "the failed commit refunded its reservation");
        usage.spent_epsilon
    };
    assert_eq!(released.to_bits(), 0.25f64.to_bits());

    let recovered = open(dir.path(), None);
    let replay = recovered.durable_status().unwrap().replay;
    assert!(replay.torn_tail_truncated, "the 11-byte torn prefix must be truncated");
    assert_eq!(replay.commits, 1, "only q0's commit survived");
    recovered.register_tenant("alice", PrivacyBudget::pure(4.0).unwrap()).unwrap();
    assert_eq!(
        recovered.tenant_usage("alice").unwrap().spent_epsilon.to_bits(),
        released.to_bits(),
        "recovered spend equals released answers exactly — the torn record was never released"
    );
}

#[test]
fn multi_segment_journals_replay_across_rotation() {
    let dir = TempDir::new("durable-rotate").unwrap();
    let tiny = DurableConfig {
        segment_bytes: 100, // a couple of records per segment
        ..DurableConfig::at(dir.path())
    };
    let spent = {
        let config = ServiceConfig { durable: Some(tiny.clone()), ..ServiceConfig::default() };
        let service = Service::open(schema(), config).unwrap();
        service.register_tenant("alice", PrivacyBudget::pure(8.0).unwrap()).unwrap();
        for i in 0..6 {
            service.pm_answer("alice", &query(i), 0.125).unwrap();
        }
        let status = service.durable_status().unwrap();
        assert!(status.counters.rotations > 0, "100-byte segments must rotate");
        service.tenant_usage("alice").unwrap().spent_epsilon
    };

    let config = ServiceConfig { durable: Some(tiny), ..ServiceConfig::default() };
    let recovered = Service::open(schema(), config).unwrap();
    let replay = recovered.durable_status().unwrap().replay;
    assert!(replay.segments > 1, "recovery must scan every segment");
    assert_eq!(replay.commits, 6);
    recovered.register_tenant("alice", PrivacyBudget::pure(8.0).unwrap()).unwrap();
    assert_eq!(recovered.tenant_usage("alice").unwrap().spent_epsilon.to_bits(), spent.to_bits());
}

#[test]
fn crash_during_rotation_degrades_and_recovers_released_spend_only() {
    let dir = TempDir::new("durable-rotate-crash").unwrap();
    let tiny = DurableConfig { segment_bytes: 100, ..DurableConfig::at(dir.path()) };
    let plan =
        Arc::new(FaultPlan::new(5).fail_at("wal.rotate", 0, FaultKind::Crash { torn_bytes: 0 }));
    let released = {
        let config = ServiceConfig {
            durable: Some(tiny.clone()),
            fault: Some(plan),
            ..ServiceConfig::default()
        };
        let service = Service::open(schema(), config).unwrap();
        service.register_tenant("alice", PrivacyBudget::pure(8.0).unwrap()).unwrap();
        let mut released = 0.0f64;
        let mut refused = 0u32;
        for i in 0..6 {
            match service.pm_answer("alice", &query(i), 0.125) {
                Ok(_) => released += 0.125,
                Err(ServiceError::DurabilityUnavailable { .. }) => refused += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(refused > 0, "the rotation crash must refuse at least one spend");
        assert!(service.is_degraded());
        assert_eq!(
            service.tenant_usage("alice").unwrap().spent_epsilon.to_bits(),
            released.to_bits()
        );
        released
    };

    let config = ServiceConfig { durable: Some(tiny), ..ServiceConfig::default() };
    let recovered = Service::open(schema(), config).unwrap();
    recovered.register_tenant("alice", PrivacyBudget::pure(8.0).unwrap()).unwrap();
    assert_eq!(
        recovered.tenant_usage("alice").unwrap().spent_epsilon.to_bits(),
        released.to_bits(),
        "rotation crash: recovered spend still equals released answers"
    );
}

#[test]
fn replaying_onto_a_non_empty_accountant_is_refused() {
    let accountant = BudgetAccountant::new();
    accountant.register("alice", PrivacyBudget::pure(1.0).unwrap()).unwrap();
    let mut recovered = BTreeMap::new();
    recovered.insert(
        "alice".to_string(),
        TenantTotals {
            committed_epsilon: 0.5,
            committed_delta: 0.0,
            commits: 2,
            ..TenantTotals::default()
        },
    );
    let err = accountant.adopt_recovery(&recovered).unwrap_err();
    assert!(
        matches!(err, ServiceError::Internal(_)),
        "replay onto live ledgers must refuse, not double-apply: {err}"
    );
    // An empty accountant adopts the same recovery fine.
    let fresh = BudgetAccountant::new();
    fresh.adopt_recovery(&recovered).unwrap();
    fresh.register("alice", PrivacyBudget::pure(1.0).unwrap()).unwrap();
    assert_eq!(fresh.usage("alice").unwrap().spent_epsilon.to_bits(), 0.5f64.to_bits());
}

#[test]
fn registration_refuses_tenant_ids_too_long_to_journal() {
    let dir = TempDir::new("durable-long-tenant").unwrap();
    let budget = PrivacyBudget::pure(4.0).unwrap();
    let longest = "y".repeat(MAX_TENANT_BYTES);
    {
        let service = open(dir.path(), None);
        let err = service.register_tenant(&"x".repeat(MAX_TENANT_BYTES + 1), budget).unwrap_err();
        assert_eq!(
            err,
            ServiceError::TenantIdTooLong { bytes: MAX_TENANT_BYTES + 1, max: MAX_TENANT_BYTES }
        );
        // The longest accepted id journals like any other, and the records
        // around it survive.
        service.register_tenant(&longest, budget).unwrap();
        service.register_tenant("alice", budget).unwrap();
        service.register_tenant("bob", budget).unwrap();
        service.pm_answer("alice", &query(0), 0.25).unwrap();
        service.pm_answer(&longest, &query(1), 0.5).unwrap();
        service.pm_answer("alice", &query(2), 0.25).unwrap();
        service.pm_answer("bob", &query(3), 0.125).unwrap();
    }
    let recovered = open(dir.path(), None);
    let replay = recovered.durable_status().unwrap().replay;
    assert!(!replay.torn_tail_truncated);
    assert_eq!(replay.commits, 4);
    for (tenant, spent) in [("alice", 0.5f64), (longest.as_str(), 0.5), ("bob", 0.125)] {
        recovered.register_tenant(tenant, budget).unwrap();
        let usage = recovered.tenant_usage(tenant).unwrap();
        assert_eq!(usage.spent_epsilon.to_bits(), spent.to_bits());
    }
}

#[test]
fn degraded_mode_serves_cache_hits_and_refuses_spends() {
    let dir = TempDir::new("durable-degraded").unwrap();
    // q0 journals Reserve (hit 0) + Commit (hit 1); the next spend's
    // Reserve (hit 2) hits a clean IO error and latches degraded mode.
    let plan = Arc::new(FaultPlan::new(9).fail_at("wal.write", 2, FaultKind::IoError));
    let service = open(dir.path(), Some(plan));
    service.register_tenant("alice", PrivacyBudget::pure(4.0).unwrap()).unwrap();

    let first = service.pm_answer("alice", &query(0), 0.25).unwrap();
    assert!(!first.cached);
    assert!(!service.is_degraded());

    let err = service.pm_answer("alice", &query(1), 0.25).unwrap_err();
    assert!(matches!(err, ServiceError::DurabilityUnavailable { .. }), "got: {err}");
    assert!(service.is_degraded());

    // Cache hits spend nothing, so they keep flowing in degraded mode —
    // bit-identical to the original answer.
    let replay = service.pm_answer("alice", &query(0), 0.25).unwrap();
    assert!(replay.cached);
    assert_eq!(replay.result, first.result);

    // New spends stay refused, and each refusal is counted.
    let again = service.pm_answer("alice", &query(2), 0.25).unwrap_err();
    assert!(matches!(again, ServiceError::DurabilityUnavailable { .. }));
    let status = service.durable_status().unwrap();
    assert!(status.degraded);
    assert_eq!(status.journal_errors, 1);
    assert_eq!(service.metrics().durable_refusals, 2);
    let usage = service.tenant_usage("alice").unwrap();
    assert_eq!(usage.spent_epsilon.to_bits(), 0.25f64.to_bits(), "refusals spend nothing");
    assert_eq!(usage.in_flight_epsilon, 0.0);

    let prom = service.prometheus_text();
    assert!(prom.contains("starj_durable_degraded 1"), "gauge missing:\n{prom}");
    assert!(prom.contains("starj_durable_degraded_refusals_total 2"), "counter missing:\n{prom}");
}

#[test]
fn gate_refuses_degraded_spends_with_a_stable_wire_code() {
    let dir = TempDir::new("durable-gate").unwrap();
    let plan = Arc::new(FaultPlan::new(11).fail_at("wal.write", 2, FaultKind::IoError));
    let router = Router::new(
        RouterConfig {
            shards: 1,
            shard_config: ServiceConfig { fault: Some(plan), ..ServiceConfig::default() },
            ..RouterConfig::default()
        }
        .with_durable_root(dir.path()),
    )
    .unwrap();
    router.add_dataset("sales", schema()).unwrap();
    router.register_tenant("sales", "alice", PrivacyBudget::pure(4.0).unwrap()).unwrap();
    let config = GateConfig {
        tokens: vec![("tok".to_string(), "alice".to_string())],
        ..GateConfig::default()
    };
    let gate = Gate::bind(Arc::new(router), config, "127.0.0.1:0").unwrap();
    let mut client = GateClient::connect(gate.addr()).unwrap();

    let ok = client.sql("tok", "sales", "SELECT count(*) FROM Fact;", 0.25).unwrap();
    assert_eq!(ok.get("ok").and_then(Json::as_f64), Some(1.0));

    let refused = client
        .sql(
            "tok",
            "sales",
            "SELECT count(*) FROM Fact, Dim WHERE Dim.pk = Fact.fk AND Dim.c = 1;",
            0.25,
        )
        .unwrap();
    assert_eq!(refused.get("ok").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        refused.get("code").and_then(Json::as_str),
        Some("journal_unavailable"),
        "degraded spends must carry the stable wire code: {refused:?}"
    );

    // The cached answer still serves over the wire in degraded mode.
    let cached = client.sql("tok", "sales", "SELECT count(*) FROM Fact;", 0.25).unwrap();
    assert_eq!(cached.get("ok").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cached.get("cached").and_then(Json::as_f64), Some(1.0));
}

#[test]
fn coalescer_worker_panic_is_contained_refunded_and_survivable() {
    // Arm a panic on the first batch drain only.
    let plan = Arc::new(FaultPlan::new(13).fail_at("coalesce.drain", 0, FaultKind::Panic));
    let config = ServiceConfig { coalesce: true, fault: Some(plan), ..ServiceConfig::default() };
    let service = Service::new(schema(), config);
    service.register_tenant("alice", PrivacyBudget::pure(4.0).unwrap()).unwrap();

    let err = service.pm_answer("alice", &query(0), 0.25).unwrap_err();
    assert!(
        matches!(err, ServiceError::Internal(_)),
        "a worker panic must surface as a typed internal error, got: {err}"
    );
    let usage = service.tenant_usage("alice").unwrap();
    assert_eq!(usage.spent_epsilon, 0.0, "the panicked request spent nothing");
    assert_eq!(usage.in_flight_epsilon, 0.0, "the reservation was refunded by RAII");

    // The worker caught the unwind and lives on: the next request answers.
    let answer = service.pm_answer("alice", &query(1), 0.25).unwrap();
    assert!(!answer.cached);
    assert_eq!(service.tenant_usage("alice").unwrap().spent_epsilon.to_bits(), 0.25f64.to_bits());
}
