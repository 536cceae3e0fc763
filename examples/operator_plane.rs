//! The operator plane end to end: the HTTP exposition endpoint scraped
//! with raw sockets (exactly what Prometheus and curl do), a live wire
//! subscriber watching one request's spans and audit events arrive, the
//! stitched trace timeline, and an EXPLAIN/profile report — none of it
//! spending a single ε beyond the one served query.
//!
//! ```text
//! cargo run --release --example operator_plane
//! ```

use dp_starj_repro::engine::{to_sql, Predicate, StarQuery};
use dp_starj_repro::gate::{sql_request, Gate, GateClient, GateConfig};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::ops::{OpsConfig, OpsServer};
use dp_starj_repro::router::{Router, RouterConfig};
use dp_starj_repro::ssb::{generate, SsbConfig};
use dp_starj_repro::telemetry::{EventBus, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const ADMIN: &str = "0ps-t3am";

/// One `GET` the way curl does it: a raw socket, a handful of header
/// lines, the whole response read back.
fn http_get(addr: SocketAddr, target: &str, token: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let auth = token.map(|t| format!("Authorization: Bearer {t}\r\n")).unwrap_or_default();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n{auth}\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    (head.split(' ').nth(1).unwrap().parse().unwrap(), body.to_string())
}

fn main() {
    // A router with an event bus: every shard, the router, and the gate
    // publish completed spans, audit events, and slow queries into it.
    let schema = Arc::new(generate(&SsbConfig::at_scale(0.01, 7)).expect("SSB generation"));
    let bus = EventBus::new();
    let router = Arc::new(
        Router::new(RouterConfig { bus: Some(Arc::clone(&bus)), ..RouterConfig::default() })
            .unwrap(),
    );
    router.add_dataset("ssb", Arc::clone(&schema)).unwrap();
    router.register_tenant("ssb", "analyst", PrivacyBudget::pure(4.0).unwrap()).unwrap();

    let gate = Gate::bind(
        Arc::clone(&router),
        GateConfig {
            tokens: vec![("s3cret".to_string(), "analyst".to_string())],
            admin_tokens: vec![ADMIN.to_string()],
            ..GateConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();

    // ---- 1. the HTTP face -------------------------------------------------
    let ops = OpsServer::bind(
        Arc::clone(&router),
        OpsConfig { admin_tokens: vec![ADMIN.to_string()], ..OpsConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    println!("gate on {}, HTTP exposition on http://{}\n", gate.addr(), ops.addr());

    let (status, body) = http_get(ops.addr(), "/healthz", None);
    println!("GET /healthz            → {status} {}", body.trim());
    let (status, body) = http_get(ops.addr(), "/readyz", None);
    println!("GET /readyz             → {status} {}", body.trim());
    let (status, _) = http_get(ops.addr(), "/metrics", None);
    println!("GET /metrics (no token) → {status} (cross-tenant, admin bearer token required)");
    let (status, metrics) = http_get(ops.addr(), "/metrics", Some(ADMIN));
    let families = metrics.lines().filter(|l| l.starts_with("# TYPE")).count();
    println!("GET /metrics (admin)    → {status}, {} bytes, {families} families", metrics.len());

    // ---- 2. a live subscriber + one traced request ------------------------
    let mut operator = GateClient::connect(gate.addr()).unwrap();
    let (_, ack) = operator.subscribe(ADMIN, Some(256)).unwrap();
    println!(
        "\nsubscribed to the live event stream (ring capacity {})",
        ack.get("capacity").and_then(Json::as_f64).unwrap()
    );

    let query = StarQuery::count("winter_eu")
        .with(Predicate::range("Date", "year", 0, 2))
        .with(Predicate::point("Customer", "region", 1));
    let sql = to_sql(&schema, &query);
    let mut analyst = GateClient::connect(gate.addr()).unwrap();
    analyst.send(sql_request(7001, "s3cret", "ssb", &sql, 0.5)).unwrap();
    let answer = analyst.recv().unwrap();
    println!(
        "served wire request id 7001: noisy count = {:.1}\n",
        answer.get("value").and_then(Json::as_f64).unwrap()
    );

    // Drain events until the gate root span lands (it finishes last),
    // then print the stitched timeline: every span of the request shares
    // trace_id 7001, and parent_span_id links reconstruct who spawned
    // whom — gate → shard worker — without any request-scoped state.
    let mut spans: Vec<Json> = Vec::new();
    let mut audits = 0u32;
    loop {
        let frame = operator.recv().unwrap();
        match frame.get("event").and_then(Json::as_str) {
            Some("audit") => audits += 1,
            Some("span") | Some("slow_query") => {
                let is_root = frame.get("kind").and_then(Json::as_str) == Some("gate");
                spans.push(frame);
                if is_root {
                    break;
                }
            }
            _ => {}
        }
    }
    println!("streamed {} spans + {audits} audit events for trace 7001:", spans.len());
    fn print_tree(spans: &[Json], parent: f64, depth: usize) {
        for span in spans {
            if span.get("parent_span_id").and_then(Json::as_f64) == Some(parent) {
                println!(
                    "  {:indent$}{} span {} on {} ({} µs)",
                    "",
                    span.get("kind").and_then(Json::as_str).unwrap_or("?"),
                    span.get("span_id").and_then(Json::as_f64).unwrap(),
                    span.get("component").and_then(Json::as_str).unwrap_or("?"),
                    span.get("duration_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e3,
                    indent = depth * 2
                );
                print_tree(spans, span.get("span_id").and_then(Json::as_f64).unwrap(), depth + 1);
            }
        }
    }
    print_tree(&spans, 0.0, 0);

    // The audit trail over HTTP: every settlement carries the wire request
    // id it settled (request_id 7001 for the commit above).
    let (status, audit) = http_get(ops.addr(), "/audit", Some(ADMIN));
    println!("\nGET /audit (admin)      → {status}, {} events:", audit.lines().count());
    for line in audit.lines() {
        println!("  {line}");
    }

    // ---- 3. EXPLAIN with a profile, spending nothing ----------------------
    let before = router.tenant_usage("ssb", "analyst").unwrap().spent_epsilon;
    let report = operator.explain(ADMIN, "ssb", &sql, true).unwrap();
    let after = router.tenant_usage("ssb", "analyst").unwrap().spent_epsilon;
    println!("\nEXPLAIN (profiled), ε spent: {before} → {after}");
    println!("  canonical: {}", report.get("canonical_sql").and_then(Json::as_str).unwrap());
    if let Some(plan) = report.get("plan") {
        println!("  plan: {}", plan.render());
    }
    if let Some(profile) = report.get("profile") {
        println!("  profile: {}", profile.render());
    }
}
