//! Golden pin for the rendered `/audit` JSONL schema.
//!
//! One journaled service settles one of each kind — a reserve and commit,
//! a refusal, and a refund (a commit whose journal append fails) — each
//! under its own wire request id. The rendered lines are pinned verbatim
//! with only `at_ns` masked: key order, the hex `query_hash`, the number
//! formatting, and `request_id` all belong to the operator-facing schema.
//! The same events streamed to a `subscribe` connection are those lines
//! behind the `event` and `component` tags. The on-disk journal frames are pinned separately, in
//! `starj-durable`'s record tests.

use dp_starj_repro::durable::{FaultKind, FaultPlan, SyncPolicy, TempDir};
use dp_starj_repro::engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{DurableConfig, Service, ServiceConfig, ServiceError};
use dp_starj_repro::telemetry::{EventBus, TelemetryConfig, WireRequestScope};
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

fn query(c: u32) -> StarQuery {
    StarQuery::count(format!("q{c}")).with(Predicate::point("Dim", "c", c))
}

/// `"at_ns": <digits>` → `"at_ns": 0`: the only field that depends on
/// when the test runs.
fn mask_at_ns(line: &str) -> String {
    const KEY: &str = "\"at_ns\":";
    let start = line.find(KEY).expect("every line carries at_ns") + KEY.len();
    let end = start + line[start..].find(',').expect("at_ns is not the last key");
    format!("{} 0{}", &line[..start], &line[end..])
}

const GOLDEN: &str = r#"{"seq": 0, "at_ns": 0, "tenant": "alice", "kind": "reserve", "query_hash": "be7240af8ea0259c", "epsilon": 0.25, "delta": 0, "data_version": 0, "request_id": 101}
{"seq": 1, "at_ns": 0, "tenant": "alice", "kind": "commit", "query_hash": "be7240af8ea0259c", "epsilon": 0.25, "delta": 0, "data_version": 0, "request_id": 101}
{"seq": 2, "at_ns": 0, "tenant": "bob", "kind": "refusal", "query_hash": "6607ab7fa95c511b", "epsilon": 0.5, "delta": 0, "data_version": 0, "request_id": 102}
{"seq": 3, "at_ns": 0, "tenant": "alice", "kind": "reserve", "query_hash": "303c9f1183451cdb", "epsilon": 0.125, "delta": 0, "data_version": 0, "request_id": 103}
{"seq": 4, "at_ns": 0, "tenant": "alice", "kind": "refund", "query_hash": "303c9f1183451cdb", "epsilon": 0.125, "delta": 0, "data_version": 0, "request_id": 103}
"#;

#[test]
fn audit_jsonl_pins_one_line_per_settlement_kind() {
    let dir = TempDir::new("settlement-golden").unwrap();
    // wal.write hits: alice Reserve=0, Commit=1; bob Refusal=2; alice
    // Reserve=3, Commit=4 — the last fails, so it settles as a Refund.
    let plan = Arc::new(FaultPlan::new(1).fail_at("wal.write", 4, FaultKind::IoError));
    let bus = EventBus::new();
    let subscriber = bus.subscribe(16);
    let config = ServiceConfig {
        seed: 2023,
        telemetry: TelemetryConfig::default().with_bus(Arc::clone(&bus), "sales"),
        durable: Some(DurableConfig { sync: SyncPolicy::Never, ..DurableConfig::at(dir.path()) }),
        fault: Some(plan),
        ..ServiceConfig::default()
    };
    let service = Service::open(schema(), config).unwrap();
    service.register_tenant("alice", PrivacyBudget::pure(4.0).unwrap()).unwrap();
    service.register_tenant("bob", PrivacyBudget::pure(0.25).unwrap()).unwrap();

    {
        let _wire = WireRequestScope::enter(101);
        service.pm_answer("alice", &query(0), 0.25).unwrap();
    }
    {
        let _wire = WireRequestScope::enter(102);
        let err = service.pm_answer("bob", &query(1), 0.5).unwrap_err();
        assert!(matches!(err, ServiceError::BudgetExhausted { .. }), "got {err}");
    }
    {
        let _wire = WireRequestScope::enter(103);
        let err = service.pm_answer("alice", &query(2), 0.125).unwrap_err();
        assert!(matches!(err, ServiceError::DurabilityUnavailable { .. }), "got {err}");
    }

    let rendered: String =
        service.audit_jsonl().lines().map(|line| mask_at_ns(line) + "\n").collect();
    assert_eq!(rendered, GOLDEN, "rendered:\n{rendered}");

    let frames: String = subscriber
        .drain()
        .iter()
        .map(|e| e.to_json().render())
        .filter(|frame| frame.starts_with(r#"{"event": "audit""#))
        .map(|frame| mask_at_ns(&frame) + "\n")
        .collect();
    let expected: String = GOLDEN
        .lines()
        .map(|line| format!(r#"{{"event": "audit", "component": "sales", {}"#, &line[1..]) + "\n")
        .collect();
    assert_eq!(frames, expected);
}
