//! The served noise stream is a secret: a default `ServiceConfig` draws its
//! root seed from the OS, so two default services perturb the same
//! requests differently, while two services given one fixed seed repeat
//! each other bit for bit. A router mixes each dataset's name into the
//! seed, so two datasets of one router never share a stream either.

use dp_starj_repro::engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::router::{Router, RouterConfig};
use dp_starj_repro::service::{Service, ServiceAnswer, ServiceConfig};
use std::sync::Arc;

const DOM: u32 = 64;
const EPS: f64 = 0.5;

/// `D(code ∈ 0..64)` over a fact table with two rows on every code.
fn schema() -> Arc<StarSchema> {
    let code = Domain::numeric("code", DOM).unwrap();
    let d = Table::new(
        "D",
        vec![Column::key("pk", (0..DOM).collect()), Column::attr("code", code, (0..DOM).collect())],
    )
    .unwrap();
    let fact = Table::new(
        "F",
        vec![
            Column::key("fk", (0..2 * DOM).map(|i| i % DOM).collect()),
            Column::measure("qty", (1..=i64::from(2 * DOM)).collect()),
        ],
    )
    .unwrap();
    Arc::new(StarSchema::new(fact, vec![Dimension::new(d, "pk", "fk")]).unwrap())
}

/// 16 distinct range counts.
fn requests() -> impl Iterator<Item = StarQuery> {
    (0..16).map(|i| {
        let (lo, hi) = (2 * i, 2 * i + 20);
        StarQuery::count(format!("q{i}")).with(Predicate::range("D", "code", lo, hi))
    })
}

fn allotment() -> PrivacyBudget {
    PrivacyBudget::pure(16.0 * EPS).unwrap()
}

/// The perturbed query a fresh paid PM answer carries.
fn noisy(answer: ServiceAnswer) -> StarQuery {
    assert!(!answer.cached, "every request is fresh");
    answer.noisy_query.expect("a paid PM answer carries its noisy query")
}

/// The perturbed queries a service executes for the 16 requests.
fn noisy_queries(config: ServiceConfig) -> Vec<StarQuery> {
    let service = Service::new(schema(), config);
    service.register_tenant("t", allotment()).unwrap();
    requests().map(|query| noisy(service.pm_answer("t", &query, EPS).unwrap())).collect()
}

#[test]
fn default_services_draw_different_noise_and_fixed_seeds_repeat() {
    assert_ne!(
        noisy_queries(ServiceConfig::default()),
        noisy_queries(ServiceConfig::default()),
        "two default services perturbed 16 requests identically"
    );
    let fixed = || ServiceConfig { seed: 7, ..ServiceConfig::default() };
    assert_eq!(noisy_queries(fixed()), noisy_queries(fixed()));
}

#[test]
fn two_datasets_of_a_default_router_draw_different_noise() {
    let router = Router::new(RouterConfig::default()).unwrap();
    let datasets = ["east", "west"];
    for name in datasets {
        router.add_dataset(name, schema()).unwrap();
        router.register_tenant(name, "t", allotment()).unwrap();
    }
    let [east, west] = datasets.map(|name| {
        let answer = |query: StarQuery| router.pm_answer(name, "t", &query, EPS).unwrap();
        requests().map(|query| noisy(answer(query))).collect::<Vec<_>>()
    });
    assert_ne!(east, west, "two datasets perturbed 16 requests identically");
}
