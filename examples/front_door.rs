//! The SQL front door end to end: a [`Gate`] listening on a real TCP
//! port in front of a router hosting an SSB dataset, and a wire client
//! speaking the length-prefixed JSON protocol — guarded SQL in, noisy
//! answers and structured refusals out.
//!
//! ```text
//! cargo run --release --example front_door
//! ```

use dp_starj_repro::engine::{to_sql, Predicate, StarQuery};
use dp_starj_repro::gate::{Gate, GateClient, GateConfig};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::router::{Router, RouterConfig};
use dp_starj_repro::ssb::{generate, SsbConfig};
use dp_starj_repro::telemetry::Json;
use std::sync::Arc;

fn main() {
    // A router hosting one SSB dataset with one funded tenant.
    let schema = Arc::new(generate(&SsbConfig::at_scale(0.01, 7)).expect("SSB generation"));
    let router = Arc::new(Router::new(RouterConfig::default()).unwrap());
    router.add_dataset("ssb", Arc::clone(&schema)).unwrap();
    router.register_tenant("ssb", "analyst", PrivacyBudget::pure(4.0).unwrap()).unwrap();

    // The gate: auth tokens map wire clients to tenants; everything else
    // (budgets, canonicalization, noise) stays behind the router. The
    // operator's view — metrics and the audit trail — is the HTTP plane's
    // (see the `operator_plane` example).
    let config = GateConfig {
        tokens: vec![("s3cret".to_string(), "analyst".to_string())],
        ..GateConfig::default()
    };
    let gate = Gate::bind(Arc::clone(&router), config, "127.0.0.1:0").unwrap();
    println!("gate listening on {}\n", gate.addr());

    let mut client = GateClient::connect(gate.addr()).unwrap();

    // Ask in SQL — here rendered from a StarQuery, but any statement in
    // the guarded dialect works.
    let query = StarQuery::count("winter_eu")
        .with(Predicate::range("Date", "year", 0, 2))
        .with(Predicate::point("Customer", "region", 1));
    let sql = to_sql(&schema, &query);
    println!("> {sql}");
    let answer = client.sql("s3cret", "ssb", &sql, 0.5).unwrap();
    println!(
        "  noisy count = {:.1}  (charged ε = {}, cached = {})",
        answer.get("value").and_then(Json::as_f64).unwrap(),
        answer.get("cost_epsilon").and_then(Json::as_f64).unwrap(),
        answer.get("cached").and_then(Json::as_f64).unwrap() != 0.0,
    );
    // The perturbed query PM evaluated never leaves the process: PM answers
    // it exactly, so releasing it would undo the privacy guarantee.

    // The same statement again replays the cached answer for free.
    let again = client.sql("s3cret", "ssb", &sql, 0.5).unwrap();
    println!(
        "\n> (same statement)\n  noisy count = {:.1}  (charged ε = {}, cached = {})",
        again.get("value").and_then(Json::as_f64).unwrap(),
        again.get("cost_epsilon").and_then(Json::as_f64).unwrap(),
        again.get("cached").and_then(Json::as_f64).unwrap() != 0.0,
    );

    // Refusals are structured, typed, and never close the connection.
    let typo = "SELECT count(*) FROM Fact WHERE Customer.regio = 1;";
    println!("\n> {typo}");
    let refused = client.sql("s3cret", "ssb", typo, 0.5).unwrap();
    println!(
        "  refused: code = {}, pos = {}, error = {}",
        refused.get("code").and_then(Json::as_str).unwrap(),
        refused.get("pos").and_then(Json::as_f64).unwrap(),
        refused.get("error").and_then(Json::as_str).unwrap(),
    );

    // Burn the rest of the budget with distinct statements (repeats would
    // replay from cache for free) to show the accountant refusing over
    // the wire with the standard code.
    for year in 0..7u32 {
        let spender = to_sql(
            &schema,
            &StarQuery::count("spend").with(Predicate::point("Date", "year", year)),
        );
        let response = client.sql("s3cret", "ssb", &spender, 1.0).unwrap();
        if response.get("ok").and_then(Json::as_f64) != Some(1.0) {
            println!(
                "\n> (after exhausting the allotment)\n  refused: code = {}",
                response.get("code").and_then(Json::as_str).unwrap()
            );
            break;
        }
    }
}
