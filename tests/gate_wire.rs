//! End-to-end tests for the SQL front door's wire path: a real [`Gate`]
//! on an ephemeral port, real TCP clients, and a router underneath.
//!
//! The load-bearing properties:
//!
//! * **parity** — answers served over the wire are bit-identical to
//!   direct [`Router`] calls against an identically-configured twin
//!   (the gate adds zero privacy logic);
//! * **refusal refunds** — wire-path refusals spend nothing: a
//!   budget-exhausted refusal at the submit seam and a stale-data-version
//!   refusal settled later on a coalescer *worker* thread both leave the
//!   tenant ledger untouched and land in the audit trail carrying the
//!   wire request id the client sent;
//! * **protocol discipline** — pipelined responses come back in request
//!   order, auth and parse failures are structured refusals with stable
//!   codes, and the `metrics` verb serves the router's Prometheus
//!   exposition and audit JSONL.

use dp_starj_repro::engine::{
    canonicalize, to_sql, Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table,
};
use dp_starj_repro::gate::{sql_request, Gate, GateClient, GateConfig};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::router::{Router, RouterConfig};
use dp_starj_repro::service::ServiceConfig;
use dp_starj_repro::telemetry::Json;
use std::sync::Arc;
use std::time::Duration;

const DATASET: &str = "sales";
const TOKEN: &str = "tok-alice";
const TENANT: &str = "alice";
const ADMIN_TOKEN: &str = "tok-admin";

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

fn router(config: ServiceConfig) -> Arc<Router> {
    let router = Router::new(RouterConfig {
        shards: 1,
        replication: 8,
        seed: 7,
        shard_config: config,
        ..RouterConfig::default()
    })
    .unwrap();
    router.add_dataset(DATASET, schema()).unwrap();
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

fn queries() -> Vec<StarQuery> {
    vec![
        StarQuery::count("q0"),
        StarQuery::count("q1").with(Predicate::point("Dim", "c", 2)),
        StarQuery::sum("q2", "m").with(Predicate::range("Dim", "c", 1, 3)),
        StarQuery::count("q3").with(Predicate::set("Dim", "c", vec![0, 3])),
        // Repeat of q1's semantics under different presentation: must hit
        // the same cache entry through the wire.
        StarQuery::count("q4").with(Predicate::range("Dim", "c", 2, 2)),
        // Unsatisfiable: answered free, exactly zero.
        StarQuery::count("q5")
            .with(Predicate::point("Dim", "c", 1))
            .with(Predicate::point("Dim", "c", 2)),
    ]
}

/// Answers over the wire are bit-identical to direct router calls on an
/// identically-configured twin, and so are the resulting tenant ledgers.
#[test]
fn wire_answers_and_ledgers_match_direct_router_calls() {
    let gated = router(ServiceConfig::default());
    let direct = router(ServiceConfig::default());
    let gate = gate_over(&gated);
    let mut client = GateClient::connect(gate.addr()).unwrap();

    for (i, q) in queries().iter().enumerate() {
        let sql = to_sql(&direct.dataset_schema(DATASET).unwrap(), q);
        let wire = client.sql(TOKEN, DATASET, &sql, 0.5).unwrap();
        // The gate submits the canonical form; mirror it on the direct
        // side so both services see identical requests in identical
        // arrival order (the RNG derives from the arrival index).
        let canon = canonicalize(q);
        let submitted = if canon.unsatisfiable { q.clone() } else { canon.to_query("sql") };
        let reference = direct.pm_answer(DATASET, TENANT, &submitted, 0.5).unwrap();

        assert_eq!(wire.get("ok").and_then(Json::as_f64), Some(1.0), "query {i}: {wire:?}");
        let value = wire.get("value").and_then(Json::as_f64).unwrap();
        let expected = reference.result.scalar().unwrap();
        assert_eq!(value.to_bits(), expected.to_bits(), "query {i} diverged");
        let cached = wire.get("cached").and_then(Json::as_f64).unwrap() != 0.0;
        assert_eq!(cached, reference.cached, "query {i} cache behavior diverged");
        let cost = wire.get("cost_epsilon").and_then(Json::as_f64).unwrap();
        assert_eq!(
            cost.to_bits(),
            reference.cost.map_or(0.0, |c| c.epsilon()).to_bits(),
            "query {i} charge diverged"
        );
        // The noisy statement is rendered for every charged answer.
        assert_eq!(
            wire.get("noisy_sql").is_some(),
            reference.noisy_query.is_some(),
            "query {i} noisy-SQL presence diverged"
        );
    }

    let wire_usage = gated.tenant_usage(DATASET, TENANT).unwrap();
    let direct_usage = direct.tenant_usage(DATASET, TENANT).unwrap();
    assert_eq!(wire_usage.spent_epsilon.to_bits(), direct_usage.spent_epsilon.to_bits());
    assert_eq!(wire_usage.in_flight_epsilon, 0.0);
    assert_eq!(wire_usage.remaining_epsilon.to_bits(), direct_usage.remaining_epsilon.to_bits());
}

/// The concurrent form of the ledger half: four connections, one tenant
/// each, all pipelining at once through the coalesced path with the answer
/// cache off. ε is dyadic, so however the requests interleave and fuse,
/// every tenant's spend is bit-equal to ε × requests with nothing in flight.
#[test]
fn concurrent_pipelined_connections_leave_exact_ledgers() {
    const CONNECTIONS: usize = 4;
    const REQUESTS: usize = 24;
    const EPSILON: f64 = 0.125;
    let router =
        router(ServiceConfig { cache_answers: false, coalesce: true, ..ServiceConfig::default() });
    for c in 0..CONNECTIONS {
        let tenant = format!("tenant-{c}");
        router.register_tenant(DATASET, &tenant, PrivacyBudget::pure(64.0).unwrap()).unwrap();
    }
    let config = GateConfig {
        tokens: (0..CONNECTIONS).map(|c| (format!("tok-{c}"), format!("tenant-{c}"))).collect(),
        ..GateConfig::default()
    };
    let gate = Gate::bind(Arc::clone(&router), config, "127.0.0.1:0").unwrap();
    let addr = gate.addr();
    let schema = router.dataset_schema(DATASET).unwrap();
    let statements: Vec<String> = queries()[..4].iter().map(|q| to_sql(&schema, q)).collect();

    // Every connection has its whole pipeline on the wire before any of
    // them reads a reply.
    let all_sent = std::sync::Barrier::new(CONNECTIONS);
    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let (statements, all_sent) = (&statements, &all_sent);
            scope.spawn(move || {
                let mut client = GateClient::connect(addr).unwrap();
                let token = format!("tok-{c}");
                for i in 0..REQUESTS {
                    let sql = &statements[(c + i) % statements.len()];
                    client.send(sql_request(0, &token, DATASET, sql, EPSILON)).unwrap();
                }
                all_sent.wait();
                for _ in 0..REQUESTS {
                    let response = client.recv().unwrap();
                    assert_eq!(response.get("ok").and_then(Json::as_f64), Some(1.0));
                }
            });
        }
    });

    let expected = EPSILON * REQUESTS as f64;
    for c in 0..CONNECTIONS {
        let usage = router.tenant_usage(DATASET, &format!("tenant-{c}")).unwrap();
        assert_eq!(usage.spent_epsilon.to_bits(), expected.to_bits(), "tenant-{c} ledger drifted");
        assert_eq!(usage.in_flight_epsilon, 0.0, "tenant-{c} left ε in flight");
    }
}

/// Pipelining: many requests in flight on one connection come back in
/// request order with their ids.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let router = router(ServiceConfig::default());
    let gate = gate_over(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();

    let mut sent = Vec::new();
    for i in 0..8u32 {
        let q = StarQuery::count("q").with(Predicate::point("Dim", "c", i % 4));
        let sql = to_sql(&schema, &q);
        sent.push(client.send(sql_request(0, TOKEN, DATASET, &sql, 0.25)).unwrap());
    }
    for id in sent {
        let response = client.recv().unwrap();
        assert_eq!(
            response.get("id").and_then(Json::as_f64),
            Some(id as f64),
            "responses out of order"
        );
        assert_eq!(response.get("ok").and_then(Json::as_f64), Some(1.0));
    }
}

/// A budget-exhausted refusal at the wire seam: structured code, nothing
/// spent, and the audit trail's refusal event carries the wire request id.
#[test]
fn budget_refusal_spends_nothing_and_lands_in_audit_with_wire_id() {
    let router = {
        let r = Router::new(RouterConfig {
            shards: 1,
            replication: 8,
            seed: 7,
            shard_config: ServiceConfig::default(),
            ..RouterConfig::default()
        })
        .unwrap();
        r.add_dataset(DATASET, schema()).unwrap();
        // Room for exactly one ε=0.5 query.
        r.register_tenant(DATASET, TENANT, PrivacyBudget::pure(0.75).unwrap()).unwrap();
        Arc::new(r)
    };
    let gate = gate_over(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();
    let sql_a = to_sql(&schema, &StarQuery::count("a").with(Predicate::point("Dim", "c", 0)));
    let sql_b = to_sql(&schema, &StarQuery::count("b").with(Predicate::point("Dim", "c", 1)));

    let first = client.sql(TOKEN, DATASET, &sql_a, 0.5).unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_f64), Some(1.0));
    let usage_before = router.tenant_usage(DATASET, TENANT).unwrap();

    let refused_id = client.send(sql_request(777, TOKEN, DATASET, &sql_b, 0.5)).unwrap();
    assert_eq!(refused_id, 777);
    let refused = client.recv().unwrap();
    assert_eq!(refused.get("ok").and_then(Json::as_f64), Some(0.0));
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("budget_exhausted"));
    assert_eq!(refused.get("id").and_then(Json::as_f64), Some(777.0));

    let usage_after = router.tenant_usage(DATASET, TENANT).unwrap();
    assert_eq!(usage_before.spent_epsilon.to_bits(), usage_after.spent_epsilon.to_bits());
    assert_eq!(usage_after.in_flight_epsilon, 0.0, "refusal left ε in flight");

    let audit = router.audit_jsonl();
    let refusal_line = audit
        .lines()
        .find(|l| l.contains("\"refusal\"") && l.contains("\"request_id\": 777"))
        .unwrap_or_else(|| panic!("no refusal line with the wire id in:\n{audit}"));
    assert!(refusal_line.contains(TENANT));
}

/// The hard case: a request parked in the coalescer is refused as stale by
/// a *worker* thread after a schema refresh. The RAII reservation must
/// refund, and both the reserve and the refund must carry the wire
/// request id captured at submit time (the worker thread never saw it).
#[test]
fn stale_refusal_over_the_coalesced_path_refunds_with_the_wire_id() {
    let config = ServiceConfig {
        coalesce: true,
        // A long fixed hold so the job is still parked when the schema
        // refreshes underneath it.
        coalesce_window: Duration::from_millis(1500),
        ..ServiceConfig::default()
    };
    let router = router(config);
    let gate = gate_over(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();
    let sql = to_sql(&schema, &StarQuery::count("q").with(Predicate::point("Dim", "c", 3)));

    // Pipelined send: don't wait for the answer yet.
    client.send(sql_request(4242, TOKEN, DATASET, &sql, 0.5)).unwrap();
    // Let the connection thread submit (reserve + park), then refresh.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        router.tenant_usage(DATASET, TENANT).unwrap().in_flight_epsilon > 0.0,
        "request should be parked with a live reservation"
    );
    router.refresh_schema(DATASET, schema).unwrap();

    let refused = client.recv().unwrap();
    assert_eq!(refused.get("id").and_then(Json::as_f64), Some(4242.0));
    assert_eq!(refused.get("ok").and_then(Json::as_f64), Some(0.0));
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("stale_data_version"));

    let usage = router.tenant_usage(DATASET, TENANT).unwrap();
    assert_eq!(usage.spent_epsilon, 0.0, "stale refusal must not spend");
    assert_eq!(usage.in_flight_epsilon, 0.0, "stale refusal must refund the reservation");

    let audit = router.audit_jsonl();
    for kind in ["\"reserve\"", "\"refund\""] {
        assert!(
            audit.lines().any(|l| l.contains(kind) && l.contains("\"request_id\": 4242")),
            "no {kind} line with the wire id in:\n{audit}"
        );
    }
}

/// Auth, routing, and parse failures are structured refusals with stable
/// codes — and none of them close the connection.
#[test]
fn refusal_codes_are_stable_and_keep_the_connection() {
    let router = router(ServiceConfig::default());
    let gate = gate_over(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();

    let bad_token = client.sql("wrong-token", DATASET, "SELECT count(*) FROM Fact;", 0.5).unwrap();
    assert_eq!(bad_token.get("code").and_then(Json::as_str), Some("unauthorized"));

    let bad_dataset = client.sql(TOKEN, "ghost", "SELECT count(*) FROM Fact;", 0.5).unwrap();
    assert_eq!(bad_dataset.get("code").and_then(Json::as_str), Some("unknown_dataset"));

    let bad_sql = client.sql(TOKEN, DATASET, "SELEC count(*) FROM Fact;", 0.5).unwrap();
    assert_eq!(bad_sql.get("code").and_then(Json::as_str), Some("parse_error"));
    assert!(bad_sql.get("pos").and_then(Json::as_f64).is_some(), "parse refusals carry pos");

    let bad_name =
        client.sql(TOKEN, DATASET, "SELECT count(*) FROM Fact WHERE Dim.nope = 1;", 0.5).unwrap();
    assert_eq!(bad_name.get("code").and_then(Json::as_str), Some("resolve_error"));

    let bad_epsilon = client.sql(TOKEN, DATASET, "SELECT count(*) FROM Fact;", -1.0).unwrap();
    assert_eq!(bad_epsilon.get("code").and_then(Json::as_str), Some("invalid_budget"));

    let bad_frame = client
        .send(Json::obj(vec![("id", Json::Num(50.0)), ("verb", Json::Str("warp".into()))]))
        .unwrap();
    assert_eq!(bad_frame, 50);
    let refused = client.recv().unwrap();
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("bad_request"));

    // The connection survived all of the above.
    let ok = client.sql(TOKEN, DATASET, "SELECT count(*) FROM Fact;", 0.5).unwrap();
    assert_eq!(ok.get("ok").and_then(Json::as_f64), Some(1.0));
}

/// The metrics verb serves the router's Prometheus exposition and the
/// audit JSONL — to admin tokens only. The snapshot spans every tenant
/// (identities, spends, query hashes), so a plain tenant token gets a
/// `forbidden` refusal instead of another tenant's metadata.
#[test]
fn metrics_verb_is_admin_only_and_serves_prometheus_and_audit_jsonl() {
    let router = router(ServiceConfig::default());
    let gate = gate_over(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();
    let sql = to_sql(&schema, &StarQuery::count("q").with(Predicate::point("Dim", "c", 1)));
    client.sql(TOKEN, DATASET, &sql, 0.5).unwrap();

    let unauthorized = client.metrics("wrong").unwrap();
    assert_eq!(unauthorized.get("code").and_then(Json::as_str), Some("unauthorized"));

    // A registered *tenant* token is authenticated but not privileged:
    // cross-tenant metadata stays behind the admin boundary.
    let forbidden = client.metrics(TOKEN).unwrap();
    assert_eq!(forbidden.get("code").and_then(Json::as_str), Some("forbidden"));
    assert!(forbidden.get("prometheus").is_none() && forbidden.get("audit_jsonl").is_none());

    let metrics = client.metrics(ADMIN_TOKEN).unwrap();
    assert_eq!(metrics.get("ok").and_then(Json::as_f64), Some(1.0));
    let prom = metrics.get("prometheus").and_then(Json::as_str).unwrap();
    assert!(prom.contains("starj_"), "prometheus text looks wrong:\n{prom}");
    let audit = metrics.get("audit_jsonl").and_then(Json::as_str).unwrap();
    assert!(audit.contains("\"commit\""), "audit trail missing the served commit:\n{audit}");
    assert!(audit.contains(&format!("\"{DATASET}\"")), "audit lines are dataset-tagged");
}

/// A slowloris client — half a length prefix, then silence — must not pin
/// its connection thread forever: after [`GateConfig::read_timeout`] the
/// gate answers a structured `timeout` refusal and closes the connection.
/// A client idle *between* frames is never timed out.
#[test]
fn slowloris_partial_frame_is_refused_with_timeout_and_closed() {
    use dp_starj_repro::gate::wire::read_frame;
    use std::io::Write;

    let router = router(ServiceConfig::default());
    let config = GateConfig {
        tokens: vec![(TOKEN.to_string(), TENANT.to_string())],
        poll_interval: Duration::from_millis(2),
        read_timeout: Duration::from_millis(40),
        ..GateConfig::default()
    };
    let gate = Gate::bind(Arc::clone(&router), config, "127.0.0.1:0").unwrap();

    // A well-behaved client on the same gate: connect, idle far past the
    // read deadline *between* frames, then get a normal answer.
    let mut polite = GateClient::connect(gate.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(120));

    // The slowloris peer: two bytes of a length prefix, then nothing.
    let mut trickle = std::net::TcpStream::connect(gate.addr()).unwrap();
    trickle.write_all(&[0, 0]).unwrap();
    trickle.flush().unwrap();

    let body = read_frame(&mut trickle, 1 << 20)
        .unwrap()
        .expect("the gate answers a refusal before closing");
    let json = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(json.get("ok").and_then(Json::as_f64), Some(0.0));
    assert_eq!(json.get("code").and_then(Json::as_str), Some("timeout"));
    // ... and the connection is closed: the next read sees a clean EOF.
    assert!(read_frame(&mut trickle, 1 << 20).unwrap().is_none());

    let answer = polite.sql(TOKEN, DATASET, "SELECT count(*) FROM Fact;", 0.25).unwrap();
    assert_eq!(answer.get("ok").and_then(Json::as_f64), Some(1.0), "idle-between-frames survives");
}

/// Dropping the gate must join its connection threads even when a client
/// streams frames back-to-back and never goes idle — the shutdown flag
/// has to be observed on the frame path, not just the idle path.
#[test]
fn shutdown_joins_even_under_a_continuously_streaming_client() {
    let router = router(ServiceConfig::default());
    let gate = gate_over(&router);
    let addr = gate.addr();
    let schema = router.dataset_schema(DATASET).unwrap();
    let sql = to_sql(&schema, &StarQuery::count("q").with(Predicate::point("Dim", "c", 0)));

    // Hammer without pausing; ε = -1 is an invalid-budget refusal, so the
    // traffic is free and can run forever without exhausting anything.
    let streamer = std::thread::spawn(move || {
        let mut client = GateClient::connect(addr).unwrap();
        while client.sql(TOKEN, DATASET, &sql, -1.0).is_ok() {}
    });
    // Let the stream get going, then shut down mid-flood. Without the
    // frame-path shutdown check this join blocks forever (the test hangs).
    std::thread::sleep(Duration::from_millis(200));
    drop(gate);
    streamer.join().unwrap();
}
