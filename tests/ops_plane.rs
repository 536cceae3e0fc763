//! End-to-end tests for the operator plane: trace-context stitching
//! across the fleet, live streaming over the gate's `subscribe` verb,
//! the `explain` verb, the HTTP/1 exposition endpoint, and the
//! slow-consumer isolation guarantee.

use dp_starj_repro::engine::{
    to_sql, Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table,
};
use dp_starj_repro::gate::{sql_request, Gate, GateClient, GateConfig};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::ops::{OpsConfig, OpsServer};
use dp_starj_repro::router::{Router, RouterConfig};
use dp_starj_repro::service::ServiceConfig;
use dp_starj_repro::telemetry::{EventBus, Json, OpsPayload, RequestKind, WireRequestScope};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const DATASET: &str = "sales";
const TOKEN: &str = "tok-alice";
const TENANT: &str = "alice";
const ADMIN_TOKEN: &str = "tok-admin";

fn schema(fact: &str, dim: &str) -> Arc<StarSchema> {
    let domain = Domain::numeric("c", 4).unwrap();
    let dim_table = Table::new(
        dim,
        vec![Column::key("pk", (0..4).collect()), Column::attr("c", domain, (0..4).collect())],
    )
    .unwrap();
    let fact_table = Table::new(
        fact,
        vec![
            Column::key("fk", vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 1]),
            Column::measure("m", vec![5, -3, 7, 2, 2, 9, -1, 4, 6, 1]),
        ],
    )
    .unwrap();
    Arc::new(StarSchema::new(fact_table, vec![Dimension::new(dim_table, "pk", "fk")]).unwrap())
}

fn router_with(bus: Option<Arc<EventBus>>, config: ServiceConfig) -> Arc<Router> {
    let router = Router::new(RouterConfig {
        shards: 1,
        replication: 8,
        seed: 7,
        shard_config: config,
        bus,
        ..RouterConfig::default()
    })
    .unwrap();
    router.add_dataset(DATASET, schema("Fact", "Dim")).unwrap();
    router.register_tenant(DATASET, TENANT, PrivacyBudget::pure(64.0).unwrap()).unwrap();
    Arc::new(router)
}

fn gate_over(router: &Arc<Router>) -> Gate {
    let config = GateConfig {
        tokens: vec![(TOKEN.to_string(), TENANT.to_string())],
        admin_tokens: vec![ADMIN_TOKEN.to_string()],
        ..GateConfig::default()
    };
    Gate::bind(Arc::clone(router), config, "127.0.0.1:0").unwrap()
}

// ---- trace-context propagation ---------------------------------------------

/// The acceptance test for fleet-wide trace context: one wire request's
/// streamed spans all carry the wire id as their trace id, and the
/// parent/child links reconstruct the gate → service timeline.
#[test]
fn wire_subscription_streams_a_stitched_timeline() {
    let bus = EventBus::new();
    let router = router_with(Some(Arc::clone(&bus)), ServiceConfig::default());
    let gate = gate_over(&router);

    let mut admin = GateClient::connect(gate.addr()).unwrap();
    let (sub_id, ack) = admin.subscribe(ADMIN_TOKEN, Some(512)).unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_f64), Some(1.0), "{ack:?}");
    assert_eq!(ack.get("kind").and_then(Json::as_str), Some("subscribed"));
    assert_eq!(ack.get("capacity").and_then(Json::as_f64), Some(512.0));

    let mut tenant = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();
    let sql = to_sql(&schema, &StarQuery::count("q").with(Predicate::point("Dim", "c", 1)));
    const WIRE_ID: u64 = 31337;
    tenant.send(sql_request(WIRE_ID, TOKEN, DATASET, &sql, 0.5)).unwrap();
    let answer = tenant.recv().unwrap();
    assert_eq!(answer.get("ok").and_then(Json::as_f64), Some(1.0), "{answer:?}");

    // Read streamed frames until the gate root span arrives (it is
    // finished last, after the service answered).
    let mut spans: Vec<Json> = Vec::new();
    let mut audit_request_ids: Vec<f64> = Vec::new();
    for _ in 0..400 {
        let frame = admin.recv().unwrap();
        assert_eq!(
            frame.get("id").and_then(Json::as_f64),
            Some(sub_id as f64),
            "event frames echo the subscription id: {frame:?}"
        );
        match frame.get("event").and_then(Json::as_str) {
            Some("audit") => {
                audit_request_ids.push(frame.get("request_id").and_then(Json::as_f64).unwrap());
            }
            Some("span") | Some("slow_query") => {
                let done = frame.get("kind").and_then(Json::as_str) == Some("gate");
                spans.push(frame);
                if done {
                    break;
                }
            }
            other => panic!("unexpected event type {other:?} in {frame:?}"),
        }
    }

    let find = |kind: &str| {
        spans
            .iter()
            .find(|s| s.get("kind").and_then(Json::as_str) == Some(kind))
            .unwrap_or_else(|| panic!("no `{kind}` span streamed; got {spans:?}"))
    };
    let gate_span = find("gate");
    let pm_span = find("pm");
    for span in [&gate_span, &pm_span] {
        assert_eq!(
            span.get("trace_id").and_then(Json::as_f64),
            Some(WIRE_ID as f64),
            "every span of the request carries the wire id as its trace id: {span:?}"
        );
    }
    assert_eq!(
        gate_span.get("parent_span_id").and_then(Json::as_f64),
        Some(0.0),
        "the gate span is the root"
    );
    let gate_span_id = gate_span.get("span_id").and_then(Json::as_f64).unwrap();
    assert!(gate_span_id > 0.0);
    assert_eq!(
        pm_span.get("parent_span_id").and_then(Json::as_f64),
        Some(gate_span_id),
        "the service span parents to the gate root: {pm_span:?}"
    );
    assert_eq!(gate_span.get("component").and_then(Json::as_str), Some("gate"));
    let pm_component = pm_span.get("component").and_then(Json::as_str).unwrap();
    assert!(
        pm_component.starts_with("shard") && pm_component.ends_with(&format!("/{DATASET}")),
        "service spans are labelled shard<id>/<dataset>: {pm_component}"
    );
    assert!(
        !audit_request_ids.is_empty() && audit_request_ids.iter().all(|&r| r == WIRE_ID as f64),
        "audit events carry the wire id: {audit_request_ids:?}"
    );
}

/// The router's cross-shard fan-out publishes a `fanout` parent span, and
/// every per-shard `pm_batch` span parents to it under the same trace id —
/// the router → shard → worker half of the timeline.
#[test]
fn fanout_spans_parent_to_the_fanout_span() {
    let bus = EventBus::new();
    let router = Router::new(RouterConfig {
        shards: 2,
        replication: 8,
        seed: 7,
        shard_config: ServiceConfig::default(),
        bus: Some(Arc::clone(&bus)),
        ..RouterConfig::default()
    })
    .unwrap();
    router.add_dataset("alpha", schema("FactA", "DimA")).unwrap();
    router.add_dataset("beta", schema("FactB", "DimB")).unwrap();
    for dataset in ["alpha", "beta"] {
        router.register_tenant(dataset, TENANT, PrivacyBudget::pure(16.0).unwrap()).unwrap();
    }
    let sub = bus.subscribe(1024);

    const WIRE_ID: u64 = 904;
    {
        let _scope = WireRequestScope::enter(WIRE_ID);
        let queries = vec![
            StarQuery::count("qa").with(Predicate::point("DimA", "c", 0)),
            StarQuery::count("qb").with(Predicate::point("DimB", "c", 1)),
        ];
        router.pm_fanout_answer(TENANT, &queries, 1.0).unwrap();
    }

    let events = sub.drain();
    let spans: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.payload {
            OpsPayload::Span(record) => Some((e.component.to_string(), record)),
            _ => None,
        })
        .collect();
    let (fanout_component, fanout) = spans
        .iter()
        .find(|(_, r)| r.kind == RequestKind::Fanout)
        .expect("the fan-out publishes a parent span");
    assert_eq!(fanout_component, "router");
    assert_eq!(fanout.trace_id, WIRE_ID, "the fan-out span adopts the ambient wire id");
    let batches: Vec<_> = spans.iter().filter(|(_, r)| r.kind == RequestKind::PmBatch).collect();
    assert_eq!(batches.len(), 2, "one pm_batch span per owning shard: {spans:?}");
    for (component, batch) in &batches {
        assert_eq!(batch.trace_id, WIRE_ID, "shard spans share the trace id");
        assert_eq!(
            batch.parent_span_id, fanout.span_id,
            "shard spans parent to the fan-out span ({component})"
        );
    }
    let audits = events
        .iter()
        .filter_map(|e| match &e.payload {
            OpsPayload::Audit(a) => Some(a.request_id),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert!(
        !audits.is_empty() && audits.iter().all(|&r| r == WIRE_ID),
        "fan-out audit events carry the wire id: {audits:?}"
    );
}

// ---- slow-consumer isolation -----------------------------------------------

/// A stalled subscriber must cost the serving path nothing: identical
/// coalesced traffic against a bus-carrying router (with a never-drained
/// tiny subscriber) and a bus-less twin produces bit-identical answers
/// and ledgers, while the subscriber's queue stays bounded and its losses
/// are counted.
#[test]
fn stalled_subscriber_never_perturbs_serving_and_loss_is_counted() {
    let config = ServiceConfig {
        coalesce: true,
        coalesce_window: Duration::from_millis(5),
        ..ServiceConfig::default()
    };
    let bus = EventBus::new();
    let streamed = router_with(Some(Arc::clone(&bus)), config.clone());
    let quiet = router_with(None, config);
    // Tiny and never drained: every event past the fourth is a drop.
    let stalled = bus.subscribe(4);

    for i in 0..24u32 {
        let q = StarQuery::count("q").with(Predicate::point("Dim", "c", i % 4));
        let a = streamed.pm_answer(DATASET, TENANT, &q, 0.25).unwrap();
        let b = quiet.pm_answer(DATASET, TENANT, &q, 0.25).unwrap();
        assert_eq!(
            a.result.scalar().unwrap().to_bits(),
            b.result.scalar().unwrap().to_bits(),
            "query {i}: a stalled subscriber changed an answer"
        );
        assert_eq!(a.cached, b.cached, "query {i}: cache behavior diverged");
    }

    let usage_a = streamed.tenant_usage(DATASET, TENANT).unwrap();
    let usage_b = quiet.tenant_usage(DATASET, TENANT).unwrap();
    assert_eq!(usage_a.spent_epsilon.to_bits(), usage_b.spent_epsilon.to_bits());
    assert_eq!(usage_a.remaining_epsilon.to_bits(), usage_b.remaining_epsilon.to_bits());

    assert!(stalled.queued() <= 4, "queue exceeded its bound: {}", stalled.queued());
    assert!(stalled.dropped() > 0, "24 served queries must overflow a 4-slot ring");
    assert_eq!(bus.dropped_total(), stalled.dropped());
}

/// The drop counter reaches the wire: a subscriber whose ring overflows
/// while its connection is busy gets a `dropped` notice frame before the
/// surviving events.
#[test]
fn wire_subscriber_is_told_about_its_drops() {
    let bus = EventBus::new();
    let router = router_with(Some(Arc::clone(&bus)), ServiceConfig::default());
    let gate = gate_over(&router);

    let mut admin = GateClient::connect(gate.addr()).unwrap();
    let (sub_id, ack) = admin.subscribe(ADMIN_TOKEN, Some(1)).unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_f64), Some(1.0));

    // Produce a burst of events faster than a 1-slot ring can hold. The
    // subscriber's connection is idle, so some pumping may interleave;
    // serve enough traffic that drops are guaranteed regardless.
    let schema = router.dataset_schema(DATASET).unwrap();
    let mut tenant = GateClient::connect(gate.addr()).unwrap();
    for i in 0..8u32 {
        let q = StarQuery::count("q").with(Predicate::point("Dim", "c", i % 4));
        let sql = to_sql(&schema, &q);
        tenant.sql(TOKEN, DATASET, &sql, 0.25).unwrap();
    }

    // Among the streamed frames there must be at least one drop notice,
    // and it must echo the subscription id.
    let mut saw_drop_notice = false;
    for _ in 0..64 {
        let frame = admin.recv().unwrap();
        assert_eq!(frame.get("id").and_then(Json::as_f64), Some(sub_id as f64));
        if frame.get("event").and_then(Json::as_str) == Some("dropped") {
            assert!(frame.get("dropped").and_then(Json::as_f64).unwrap() >= 1.0);
            assert!(frame.get("dropped_total").and_then(Json::as_f64).unwrap() >= 1.0);
            saw_drop_notice = true;
            break;
        }
    }
    assert!(saw_drop_notice, "no dropped notice arrived within 64 frames");
}

// ---- the explain verb ------------------------------------------------------

/// `explain` resolves, plans, and (with `profile`) executes once — all
/// without touching the tenant's budget — and is admin-gated because the
/// report is exact and un-noised.
#[test]
fn explain_verb_reports_plan_and_profile_without_spending() {
    let router = router_with(None, ServiceConfig::default());
    let gate = gate_over(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();
    let sql = to_sql(&schema, &StarQuery::count("q").with(Predicate::range("Dim", "c", 1, 2)));

    let before = router.tenant_usage(DATASET, TENANT).unwrap();
    let report = client.explain(ADMIN_TOKEN, DATASET, &sql, true).unwrap();
    assert_eq!(report.get("ok").and_then(Json::as_f64), Some(1.0), "{report:?}");
    assert_eq!(report.get("kind").and_then(Json::as_str), Some("explain"));
    assert_eq!(report.get("dataset").and_then(Json::as_str), Some(DATASET));
    let canonical = report.get("canonical_sql").and_then(Json::as_str).unwrap();
    assert!(canonical.contains("SELECT"), "canonical SQL looks wrong: {canonical}");
    let plan = report.get("plan").expect("satisfiable query carries a plan");
    assert!(plan.get("fact_rows").and_then(Json::as_f64).unwrap() > 0.0);
    let profile = report.get("profile").expect("profile=1 executes once");
    assert!(profile.get("elapsed_ns").and_then(Json::as_f64).unwrap() > 0.0);

    let after = router.tenant_usage(DATASET, TENANT).unwrap();
    assert_eq!(
        before.spent_epsilon.to_bits(),
        after.spent_epsilon.to_bits(),
        "explain must spend nothing"
    );
    assert_eq!(after.in_flight_epsilon, 0.0);

    // Gating: tenant tokens are authenticated but not privileged.
    let forbidden = client.explain(TOKEN, DATASET, &sql, false).unwrap();
    assert_eq!(forbidden.get("code").and_then(Json::as_str), Some("forbidden"));
    let unauthorized = client.explain("wrong", DATASET, &sql, false).unwrap();
    assert_eq!(unauthorized.get("code").and_then(Json::as_str), Some("unauthorized"));
    // Refusals still carry stable codes through the explain path.
    let bad_sql = client.explain(ADMIN_TOKEN, DATASET, "SELEC nope", false).unwrap();
    assert_eq!(bad_sql.get("code").and_then(Json::as_str), Some("parse_error"));
    let bad_dataset = client.explain(ADMIN_TOKEN, "ghost", &sql, false).unwrap();
    assert_eq!(bad_dataset.get("code").and_then(Json::as_str), Some("unknown_dataset"));
}

/// Subscribe gating: admin-only, one per connection, and a structured
/// refusal when the router carries no bus.
#[test]
fn subscribe_verb_gating_and_no_bus_refusal() {
    let bus = EventBus::new();
    let router = router_with(Some(bus), ServiceConfig::default());
    let gate = gate_over(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();

    let (_, forbidden) = client.subscribe(TOKEN, None).unwrap();
    assert_eq!(forbidden.get("code").and_then(Json::as_str), Some("forbidden"));
    let (_, unauthorized) = client.subscribe("wrong", None).unwrap();
    assert_eq!(unauthorized.get("code").and_then(Json::as_str), Some("unauthorized"));

    let (_, ack) = client.subscribe(ADMIN_TOKEN, None).unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_f64), Some(1.0));
    let (_, second) = client.subscribe(ADMIN_TOKEN, None).unwrap();
    assert_eq!(second.get("code").and_then(Json::as_str), Some("already_subscribed"));

    let busless = router_with(None, ServiceConfig::default());
    let busless_gate = gate_over(&busless);
    let mut busless_client = GateClient::connect(busless_gate.addr()).unwrap();
    let (_, refused) = busless_client.subscribe(ADMIN_TOKEN, None).unwrap();
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("no_stream"));
}

// ---- the HTTP exposition endpoint ------------------------------------------

/// One `GET` over a fresh connection; returns `(status, head, body)`.
fn http_get(addr: SocketAddr, target: &str, token: Option<&str>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let auth = token.map(|t| format!("Authorization: Bearer {t}\r\n")).unwrap_or_default();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{auth}\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, head.to_string(), body.to_string())
}

/// The four routes, their auth boundaries, and a lint-clean scrape body —
/// what a stock Prometheus + curl setup exercises.
#[test]
fn http_endpoint_serves_probes_metrics_and_audit_behind_bearer_auth() {
    let router = router_with(None, ServiceConfig::default());
    let q = StarQuery::count("q").with(Predicate::point("Dim", "c", 2));
    router.pm_answer(DATASET, TENANT, &q, 0.5).unwrap();

    let server = OpsServer::bind(
        Arc::clone(&router),
        OpsConfig { admin_tokens: vec![ADMIN_TOKEN.to_string()], ..OpsConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr();

    // Unauthenticated one-bit probes.
    let (status, _, body) = http_get(addr, "/healthz", None);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _, body) = http_get(addr, "/readyz", None);
    assert_eq!((status, body.as_str()), (200, "ready\n"));

    // The cross-tenant surfaces demand the admin bearer token.
    let (status, head, _) = http_get(addr, "/metrics", None);
    assert_eq!(status, 401);
    assert!(head.contains("WWW-Authenticate: Bearer"));
    let (status, _, _) = http_get(addr, "/metrics", Some("wrong"));
    assert_eq!(status, 401);
    let (status, _, _) = http_get(addr, "/audit", Some(TOKEN));
    assert_eq!(status, 401, "tenant tokens are not admin tokens over HTTP");

    let (status, head, metrics) = http_get(addr, "/metrics", Some(ADMIN_TOKEN));
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"));
    let report = dp_starj_repro::telemetry::prom::lint(&metrics)
        .unwrap_or_else(|errors| panic!("scrape body fails lint: {errors:?}"));
    assert!(report.families > 10, "suspiciously few families: {}", report.families);
    assert!(metrics.contains("starj_ops_build_info{"));
    assert!(metrics.contains("starj_ops_uptime_seconds"));

    let (status, head, audit) = http_get(addr, "/audit", Some(ADMIN_TOKEN));
    assert_eq!(status, 200);
    assert!(head.contains("application/jsonl"));
    assert!(audit.lines().any(|l| l.contains("\"commit\"")), "served commit missing:\n{audit}");
    for line in audit.lines() {
        Json::parse(line).unwrap_or_else(|e| panic!("audit line is not JSON ({e}): {line}"));
    }

    // Unknown routes and methods.
    let (status, _, _) = http_get(addr, "/nope", None);
    assert_eq!(status, 404);
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405 "), "POST should be refused: {raw}");
    assert!(raw.contains("Allow: GET"));
}

/// Observing a busy fleet: with requests parked in flight, a `/metrics`
/// scrape completes and lints, the wire subscriber streams their events
/// once they drain, and the ledger still ends exact. The window outlasts
/// the test, so the parked requests can only drain when the last one fills
/// the batch — after the scrape.
#[test]
fn scrape_and_subscription_work_while_requests_are_in_flight() {
    const REQUESTS: usize = 8;
    const EPSILON: f64 = 0.125;
    let bus = EventBus::new();
    let router = router_with(
        Some(Arc::clone(&bus)),
        ServiceConfig {
            cache_answers: false,
            coalesce: true,
            coalesce_window: Duration::from_secs(30),
            max_batch: REQUESTS,
            ..ServiceConfig::default()
        },
    );
    let gate = gate_over(&router);
    let server = OpsServer::bind(
        Arc::clone(&router),
        OpsConfig { admin_tokens: vec![ADMIN_TOKEN.to_string()], ..OpsConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut admin = GateClient::connect(gate.addr()).unwrap();
    let (_, ack) = admin.subscribe(ADMIN_TOKEN, Some(512)).unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_f64), Some(1.0), "{ack:?}");

    let mut tenant = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();
    let request = |i: usize| {
        let q = StarQuery::count("q").with(Predicate::point("Dim", "c", i as u32 % 4));
        sql_request(0, TOKEN, DATASET, &to_sql(&schema, &q), EPSILON)
    };
    for i in 0..REQUESTS - 1 {
        tenant.send(request(i)).unwrap();
    }
    let parked = EPSILON * (REQUESTS - 1) as f64;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while router.tenant_usage(DATASET, TENANT).unwrap().in_flight_epsilon != parked {
        assert!(std::time::Instant::now() < deadline, "requests never parked");
        std::thread::yield_now();
    }

    let (status, _, metrics) = http_get(server.addr(), "/metrics", Some(ADMIN_TOKEN));
    assert_eq!(status, 200);
    dp_starj_repro::telemetry::prom::lint(&metrics)
        .unwrap_or_else(|errors| panic!("mid-flight scrape fails lint: {errors:?}"));
    assert_eq!(router.tenant_usage(DATASET, TENANT).unwrap().in_flight_epsilon, parked);

    tenant.send(request(REQUESTS - 1)).unwrap();
    for _ in 0..REQUESTS {
        let answer = tenant.recv().unwrap();
        assert_eq!(answer.get("ok").and_then(Json::as_f64), Some(1.0), "{answer:?}");
    }
    let frame = admin.recv().unwrap();
    assert!(frame.get("event").is_some(), "subscriber streamed no event: {frame:?}");

    let usage = router.tenant_usage(DATASET, TENANT).unwrap();
    assert_eq!(usage.spent_epsilon.to_bits(), (EPSILON * REQUESTS as f64).to_bits());
    assert_eq!(usage.in_flight_epsilon, 0.0);
}

/// Keep-alive: a Prometheus scraper reuses one connection across scrapes.
#[test]
fn http_keep_alive_serves_sequential_requests_on_one_connection() {
    let router = router_with(None, ServiceConfig::default());
    let server = OpsServer::bind(Arc::clone(&router), OpsConfig::default(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    for i in 0..3 {
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "request {i}: {head}");
        assert!(head.contains("Connection: keep-alive"), "request {i} should keep alive");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).unwrap();
        assert_eq!(body, b"ok\n");
    }
}

/// Hostile tenant names survive the whole exposition path: registered
/// with quotes, backslashes, and a newline, served, then scraped over
/// real HTTP — the metrics body still lints and the audit JSONL still
/// parses, and the `?tenant=` filter finds the tenant through percent
/// encoding.
#[test]
fn hostile_tenant_names_survive_the_http_exposition() {
    let hostile = "ev\"il\\ten\nant";
    let router = router_with(None, ServiceConfig::default());
    router.register_tenant(DATASET, hostile, PrivacyBudget::pure(8.0).unwrap()).unwrap();
    let q = StarQuery::count("hq").with(Predicate::point("Dim", "c", 3));
    router.pm_answer(DATASET, hostile, &q, 0.5).unwrap();
    router.pm_answer(DATASET, TENANT, &q, 0.5).unwrap();

    let server = OpsServer::bind(
        Arc::clone(&router),
        OpsConfig { admin_tokens: vec![ADMIN_TOKEN.to_string()], ..OpsConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();

    let (status, _, metrics) = http_get(server.addr(), "/metrics", Some(ADMIN_TOKEN));
    assert_eq!(status, 200);
    dp_starj_repro::telemetry::prom::lint(&metrics)
        .unwrap_or_else(|errors| panic!("hostile tenant broke the exposition: {errors:?}"));

    // %22=%5C=\ %0A=newline: the filter matches the decoded name.
    let encoded = "ev%22il%5Cten%0Aant";
    let (status, _, audit) =
        http_get(server.addr(), &format!("/audit?tenant={encoded}"), Some(ADMIN_TOKEN));
    assert_eq!(status, 200);
    assert!(!audit.trim().is_empty(), "tenant filter found nothing");
    for line in audit.lines() {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL ({e}): {line}"));
        assert_eq!(
            json.get("tenant").and_then(Json::as_str),
            Some(hostile),
            "filtered audit leaked another tenant: {line}"
        );
    }
    // And the filter really filters: the other tenant's lines are absent.
    let (_, _, all) = http_get(server.addr(), "/audit", Some(ADMIN_TOKEN));
    assert!(all.lines().count() > audit.lines().count());
}
