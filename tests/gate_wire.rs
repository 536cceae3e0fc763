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
    canonicalize, to_sql, Column, Dimension, Domain, GroupAttr, Predicate, StarQuery, StarSchema,
    Table,
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
        // The perturbed statement stays in process even when it exists.
        assert!(wire.get("noisy_sql").is_none(), "query {i} released its noisy SQL");
    }

    let wire_usage = gated.tenant_usage(DATASET, TENANT).unwrap();
    let direct_usage = direct.tenant_usage(DATASET, TENANT).unwrap();
    assert_eq!(wire_usage.spent_epsilon.to_bits(), direct_usage.spent_epsilon.to_bits());
    assert_eq!(wire_usage.in_flight_epsilon, 0.0);
    assert_eq!(wire_usage.remaining_epsilon.to_bits(), direct_usage.remaining_epsilon.to_bits());
}

/// No answer frame carries anything that fixes the mechanism's randomness.
/// PM evaluates the perturbed query exactly, so the perturbed query next to
/// its answer would make the answer a deterministic function of the data.
/// Every answer frame, whether paid, replayed from cache or coalesced,
/// holds exactly the documented answer fields.
#[test]
fn answer_frames_never_carry_the_perturbed_query() {
    const FIELDS: [&str; 8] =
        ["id", "ok", "kind", "value", "groups", "cached", "cost_epsilon", "cost_delta"];
    for coalesce in [false, true] {
        let router = router(ServiceConfig { coalesce, ..ServiceConfig::default() });
        let gate = gate_over(&router);
        let mut client = GateClient::connect(gate.addr()).unwrap();
        let schema = router.dataset_schema(DATASET).unwrap();
        let (mut paid, mut cached) = (0, 0);
        // The second round replays the first from the answer cache.
        for _round in 0..2 {
            let ids: Vec<u64> = queries()
                .iter()
                .map(|q| client.send(sql_request(0, TOKEN, DATASET, &to_sql(&schema, q), 0.5)))
                .collect::<Result<_, _>>()
                .unwrap();
            for id in ids {
                let frame = client.recv().unwrap();
                assert_eq!(frame.get("id").and_then(Json::as_f64), Some(id as f64));
                assert_eq!(frame.get("ok").and_then(Json::as_f64), Some(1.0), "{frame:?}");
                let Json::Obj(pairs) = &frame else { panic!("answer is not an object") };
                for (key, _) in pairs {
                    assert!(FIELDS.contains(&key.as_str()), "answer frame leaks `{key}`");
                }
                paid += usize::from(frame.get("cost_epsilon").and_then(Json::as_f64) > Some(0.0));
                cached += usize::from(frame.get("cached").and_then(Json::as_f64) == Some(1.0));
            }
        }
        assert!(paid > 0 && cached > 0, "coalesce={coalesce}: paid {paid}, cached {cached}");
    }
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

// ---- parked answers are written as soon as they resolve ----------------------

/// A gate over a coalescing router whose idle poll is far longer than any
/// answer takes: a reply that waited on the poll would show up as ≥ 2 s.
fn slow_poll_gate(router: &Arc<Router>) -> Gate {
    let config = GateConfig {
        tokens: vec![(TOKEN.to_string(), TENANT.to_string())],
        poll_interval: Duration::from_secs(2),
        ..GateConfig::default()
    };
    Gate::bind(Arc::clone(router), config, "127.0.0.1:0").unwrap()
}

/// A request the coalescer parks is answered as soon as it resolves, not
/// when the connection's idle poll next wakes up.
#[test]
fn a_parked_answer_is_written_without_waiting_for_the_poll() {
    let router = router(ServiceConfig { coalesce: true, ..ServiceConfig::default() });
    let gate = slow_poll_gate(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();
    let sql = to_sql(&schema, &StarQuery::count("q").with(Predicate::point("Dim", "c", 1)));

    let started = std::time::Instant::now();
    let answer = client.sql(TOKEN, DATASET, &sql, 0.5).unwrap();
    let waited = started.elapsed();
    assert_eq!(answer.get("ok").and_then(Json::as_f64), Some(1.0), "{answer:?}");
    assert_eq!(answer.get("cached").and_then(Json::as_f64), Some(0.0), "the answer was paid");
    assert!(waited < Duration::from_secs(1), "answered after {waited:?}");
}

/// Pipelined requests that all park come back in order, each as soon as it
/// resolves.
#[test]
fn pipelined_parked_answers_arrive_in_order_without_the_poll() {
    let router = router(ServiceConfig { coalesce: true, ..ServiceConfig::default() });
    let gate = slow_poll_gate(&router);
    let mut client = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();

    let started = std::time::Instant::now();
    let mut sent = Vec::new();
    for (lo, hi) in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 3)] {
        let sql =
            to_sql(&schema, &StarQuery::count("q").with(Predicate::range("Dim", "c", lo, hi)));
        sent.push(client.send(sql_request(0, TOKEN, DATASET, &sql, 0.25)).unwrap());
    }
    for id in sent {
        let response = client.recv().unwrap();
        assert_eq!(response.get("id").and_then(Json::as_f64), Some(id as f64), "out of order");
        assert_eq!(response.get("ok").and_then(Json::as_f64), Some(1.0), "{response:?}");
    }
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(1), "8 answers took {waited:?}");
}

/// The probe for a waiting frame is the only non-blocking read, and no
/// write ever runs non-blocking: a client that pipelines megabytes of
/// replies and reads none of them for a while fills the gate's send
/// buffer, and the gate must wait that out rather than drop the
/// connection. Every 50th request is distinct, so the connection probes
/// with answers parked all the way through. Loopback absorbs about 4 MB
/// between the two socket buffers before a write blocks, so the replies
/// total several times that.
#[test]
fn megabytes_of_pipelined_replies_survive_a_late_reader() {
    use dp_starj_repro::gate::wire::{frame_of, read_frame, write_frame};

    const GROUPS: u32 = 256;
    const REQUESTS: u64 = 2000;
    let domain = Domain::numeric("g", GROUPS).unwrap();
    let dim = Table::new(
        "Big",
        vec![
            Column::key("pk", (0..GROUPS).collect()),
            Column::attr("g", domain, (0..GROUPS).collect()),
        ],
    )
    .unwrap();
    let fact = Table::new(
        "Fact",
        vec![
            Column::key("fk", (0..2 * GROUPS).map(|r| r % GROUPS).collect()),
            Column::measure("m", (0..2 * GROUPS).map(i64::from).collect()),
        ],
    )
    .unwrap();
    let schema = Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap());
    let router = Router::new(RouterConfig {
        shards: 1,
        replication: 8,
        seed: 7,
        shard_config: ServiceConfig { coalesce: true, ..ServiceConfig::default() },
        ..RouterConfig::default()
    })
    .unwrap();
    router.add_dataset(DATASET, Arc::clone(&schema)).unwrap();
    router.register_tenant(DATASET, TENANT, PrivacyBudget::pure(64.0).unwrap()).unwrap();
    let router = Arc::new(router);
    let gate = gate_over(&router);

    // The hot query answers every group exactly (no predicate to perturb)
    // and is answered once up front, so its replays are cache hits.
    let grouped = |name: &str| StarQuery::count(name).group_by(GroupAttr::new("Big", "g"));
    let hot = to_sql(&schema, &grouped("hot"));
    let distinct: Vec<String> = (0..REQUESTS / 50)
        .map(|k| {
            let q = grouped("d").with(Predicate::range("Big", "g", 0, GROUPS - 2 - k as u32));
            to_sql(&schema, &q)
        })
        .collect();
    let mut warm = GateClient::connect(gate.addr()).unwrap();
    assert_eq!(
        warm.sql(TOKEN, DATASET, &hot, 0.01).unwrap().get("ok").and_then(Json::as_f64),
        Some(1.0)
    );

    let stream = std::net::TcpStream::connect(gate.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = stream;
    let sender = std::thread::spawn(move || {
        for id in 1..=REQUESTS {
            let sql = if id % 50 == 0 { &distinct[(id / 50 - 1) as usize] } else { &hot };
            let request = sql_request(id, TOKEN, DATASET, sql, 0.01);
            write_frame(&mut writer, &frame_of(&request)).unwrap();
        }
    });
    let receiver = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let mut bytes = 0usize;
        for id in 1..=REQUESTS {
            let body = read_frame(&mut reader, 1 << 24).unwrap().expect("the gate hung up");
            bytes += body.len() + 4;
            let reply = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            assert_eq!(reply.get("id").and_then(Json::as_f64), Some(id as f64), "out of order");
            assert_eq!(reply.get("ok").and_then(Json::as_f64), Some(1.0), "{reply:?}");
        }
        bytes
    });
    sender.join().unwrap();
    let bytes = receiver.join().unwrap();
    assert!(bytes >= 12 << 20, "only {bytes} reply bytes: the send buffer never filled");
}

/// `poll_interval: ZERO` is clamped: the OS rejects a zero read timeout,
/// and a socket left with none blocks its connection thread forever, so
/// dropping the gate would never return.
#[test]
fn zero_poll_interval_still_lets_drop_join_an_idle_connection() {
    let router = router(ServiceConfig::default());
    let config = GateConfig {
        tokens: vec![(TOKEN.to_string(), TENANT.to_string())],
        poll_interval: Duration::ZERO,
        ..GateConfig::default()
    };
    let gate = Gate::bind(Arc::clone(&router), config, "127.0.0.1:0").unwrap();
    let mut idle = GateClient::connect(gate.addr()).unwrap();
    let answer = idle.sql(TOKEN, DATASET, "SELECT count(*) FROM Fact;", 0.25).unwrap();
    assert_eq!(answer.get("ok").and_then(Json::as_f64), Some(1.0));

    let (done, dropped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(gate);
        let _ = done.send(());
    });
    let joined = dropped.recv_timeout(Duration::from_secs(2));
    assert!(joined.is_ok(), "dropping the gate hung on an idle connection");
    drop(idle);
}

/// One connection past [`MAX_CONNECTIONS`] gets a typed `overloaded`
/// refusal and is closed; the connections already open keep serving.
#[test]
fn the_connection_past_the_cap_is_refused_overloaded() {
    use dp_starj_repro::gate::wire::read_frame;
    use dp_starj_repro::gate::MAX_CONNECTIONS;

    let router = router(ServiceConfig::default());
    let gate = gate_over(&router);
    let mut open: Vec<GateClient> =
        (0..MAX_CONNECTIONS).map(|_| GateClient::connect(gate.addr()).unwrap()).collect();

    let mut extra = std::net::TcpStream::connect(gate.addr()).unwrap();
    extra.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let body = read_frame(&mut extra, 1 << 20).unwrap().expect("a refusal before the close");
    let refused = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(refused.get("ok").and_then(Json::as_f64), Some(0.0));
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("overloaded"));
    assert!(read_frame(&mut extra, 1 << 20).unwrap().is_none(), "then the gate closes");

    for (i, client) in open.iter_mut().enumerate() {
        let answer = client.sql(TOKEN, DATASET, "SELECT count(*) FROM Fact;", 0.25).unwrap();
        assert_eq!(answer.get("ok").and_then(Json::as_f64), Some(1.0), "connection {i}");
    }
    let refusals = gate.metrics().refusal_counts();
    assert_eq!(refusals, vec![("overloaded".to_string(), 1)], "the refusal is tallied");
}
