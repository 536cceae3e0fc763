//! Router-equivalence property tests: serving through the sharded router
//! must be **observationally identical** to N standalone per-dataset
//! services — bit-identical answers, noisy queries, cache behavior, and
//! budget ledgers, under a randomized mixed workload (single PM requests,
//! explicit batches, workloads, cross-shard fan-outs, and budget
//! refusals), replayed in lockstep.
//!
//! Why exact equality is achievable: the router adds **zero** privacy
//! logic. Every dataset's `Service` owns its own RNG stream, seeded from
//! the shared seed and the dataset name (`dataset_seed`), its own
//! accountant, and caches; the router only chooses *which* service
//! answers. As long as the per-dataset request order matches (lockstep
//! guarantees it — fan-out groups preserve submission order within each
//! dataset), every draw, charge, and cache key lines up bit for bit. The
//! ε values drawn here are dyadic, so even ledger sums are exact `f64`s
//! and spending compares bitwise.

use dp_starj_repro::core::workload::{PredicateWorkload, WorkloadBlock};
use dp_starj_repro::engine::{
    Column, Constraint, Dimension, Domain, Predicate, StarQuery, StarSchema, Table,
};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::router::{dataset_seed, Router, RouterConfig, RouterError};
use dp_starj_repro::service::{Answer, Request, Service, ServiceConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const DATASETS: [&str; 3] = ["sales", "web", "ads"];
const DOMAIN: u32 = 4;

/// Each dataset gets its own dimension table name (`Dim_sales`, …) so the
/// fan-out planner can resolve ownership from tables alone.
fn dataset_schema(name: &str, fact_rows: &[(u32, i64)]) -> Arc<StarSchema> {
    let domain = Domain::numeric("c", DOMAIN).unwrap();
    let dim = Table::new(
        format!("Dim_{name}"),
        vec![
            Column::key("pk", (0..DOMAIN).collect()),
            Column::attr("c", domain, (0..DOMAIN).collect()),
        ],
    )
    .unwrap();
    let fact = Table::new(
        format!("Fact_{name}"),
        vec![
            Column::key("fk", fact_rows.iter().map(|r| r.0 % DOMAIN).collect()),
            Column::measure("m", fact_rows.iter().map(|r| r.1).collect()),
        ],
    )
    .unwrap();
    Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
}

fn constraint_strategy() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (0..DOMAIN).prop_map(Constraint::Point),
        (0..DOMAIN, 0..DOMAIN).prop_map(|(a, b)| Constraint::Range { lo: a.min(b), hi: a.max(b) }),
    ]
}

fn query_strategy(dataset: usize) -> impl Strategy<Value = StarQuery> {
    (proptest::collection::vec(constraint_strategy(), 0..3), 0u32..2).prop_map(move |(cs, agg)| {
        let name = DATASETS[dataset];
        let mut q = if agg == 0 {
            StarQuery::count(format!("q_{name}"))
        } else {
            StarQuery::sum(format!("q_{name}"), "m")
        };
        for c in cs {
            q = q.with(Predicate { table: format!("Dim_{name}"), attr: "c".into(), constraint: c });
        }
        q
    })
}

fn workload_strategy(dataset: usize) -> impl Strategy<Value = PredicateWorkload> {
    proptest::collection::vec(constraint_strategy(), 1..4).prop_map(move |rows| {
        PredicateWorkload::new(
            vec![WorkloadBlock {
                table: format!("Dim_{}", DATASETS[dataset]),
                attr: "c".into(),
                domain: DOMAIN,
            }],
            rows.into_iter().map(|c| vec![c]).collect(),
        )
        .expect("generated workloads are well-formed")
    })
}

/// Dyadic ε values keep every ledger sum exact.
fn eps_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.125), Just(0.25), Just(0.5)]
}

#[derive(Debug, Clone)]
enum Req {
    Pm {
        dataset: usize,
        query: StarQuery,
        eps: f64,
    },
    Batch {
        dataset: usize,
        queries: Vec<StarQuery>,
        eps: f64,
    },
    Wd {
        dataset: usize,
        workload: PredicateWorkload,
        eps: f64,
    },
    /// One query per listed dataset, fanned out in a single call.
    Fanout {
        datasets: Vec<usize>,
        eps: f64,
    },
}

fn request_strategy() -> impl Strategy<Value = Req> {
    let pm = (0usize..3, eps_strategy()).prop_flat_map(|(d, e)| {
        query_strategy(d).prop_map(move |q| Req::Pm { dataset: d, query: q, eps: e })
    });
    let batch = (0usize..3, eps_strategy()).prop_flat_map(|(d, e)| {
        proptest::collection::vec(query_strategy(d), 1..4).prop_map(move |qs| Req::Batch {
            dataset: d,
            queries: qs,
            eps: e,
        })
    });
    let wd = (0usize..3, eps_strategy()).prop_flat_map(|(d, e)| {
        workload_strategy(d).prop_map(move |w| Req::Wd { dataset: d, workload: w, eps: e })
    });
    let fanout = (proptest::collection::vec(0usize..3, 2..5), eps_strategy())
        .prop_map(|(ds, e)| Req::Fanout { datasets: ds, eps: e });
    prop_oneof![pm, batch, wd, fanout]
}

/// Mirrors the router's fan-out plan on the standalone services: group by
/// dataset preserving submission order, sort groups by dataset name (the
/// router sorts by `(shard, dataset)`; within one dataset the subset and
/// ε-share are identical, and separate services have independent RNG
/// streams, so group execution order cannot matter), split ε by member
/// count.
fn mirror_fanout(
    standalones: &BTreeMap<String, Service>,
    queries: &[StarQuery],
    eps: f64,
) -> Result<Vec<dp_starj_repro::service::ServiceAnswer>, dp_starj_repro::service::ServiceError> {
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, q) in queries.iter().enumerate() {
        let table = &q.predicates[0].table;
        let dataset = table.strip_prefix("Dim_").expect("generated queries are routable");
        groups.entry(dataset.to_string()).or_default().push(i);
    }
    let total = queries.len() as f64;
    let mut answers: Vec<Option<dp_starj_repro::service::ServiceAnswer>> =
        vec![None; queries.len()];
    for (dataset, indices) in groups {
        let share = eps * indices.len() as f64 / total;
        let subset: Vec<StarQuery> = indices.iter().map(|&i| queries[i].clone()).collect();
        let batch = standalones[&dataset].pm_batch_answer("t", &subset, share)?;
        for (&i, a) in indices.iter().zip(batch.answers) {
            answers[i] = Some(a);
        }
    }
    Ok(answers.into_iter().map(|a| a.expect("all queries grouped")).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline acceptance property: a randomized mixed workload
    /// replayed in lockstep leaves the router and N standalone services
    /// with bit-identical answers and ledgers.
    #[test]
    fn router_matches_standalone_services_in_lockstep(
        facts in proptest::collection::vec(
            proptest::collection::vec((0u32..DOMAIN, -10i64..10), 1..30), 3, ),
        mut requests in proptest::collection::vec(request_strategy(), 1..12),
        seed in 0u64..1_000,
    ) {
        // Repeat a prefix verbatim: cache replays must line up too.
        let repeats: Vec<Req> = requests.iter().take(2).cloned().collect();
        requests.extend(repeats);

        let config = ServiceConfig { seed, ..ServiceConfig::default() };
        let router = Router::new(RouterConfig {
            shards: 2,
            shard_config: config.clone(),
            ..RouterConfig::default()
        }).unwrap();
        let mut standalones: BTreeMap<String, Service> = BTreeMap::new();
        for (name, rows) in DATASETS.iter().zip(&facts) {
            let schema = dataset_schema(name, rows);
            router.add_dataset(name, Arc::clone(&schema)).unwrap();
            let twin = ServiceConfig { seed: dataset_seed(seed, name), ..config.clone() };
            standalones.insert(name.to_string(), Service::new(schema, twin));
        }
        // A rich tenant everywhere, plus a scarce one so refusals are
        // exercised (0.5 ε per dataset runs dry quickly).
        router.register_tenant_all("t", PrivacyBudget::pure(64.0).unwrap()).unwrap();
        router.register_tenant_all("scarce", PrivacyBudget::pure(0.5).unwrap()).unwrap();
        for s in standalones.values() {
            s.register_tenant("t", PrivacyBudget::pure(64.0).unwrap()).unwrap();
            s.register_tenant("scarce", PrivacyBudget::pure(0.5).unwrap()).unwrap();
        }

        for (i, req) in requests.iter().enumerate() {
            match req {
                Req::Pm { dataset, query, eps } => {
                    let name = DATASETS[*dataset];
                    // Alternate the scarce tenant in so refusals interleave.
                    let tenant = if i % 5 == 4 { "scarce" } else { "t" };
                    let a = router.pm_answer(name, tenant, query, *eps);
                    let b = standalones[name].pm_answer(tenant, query, *eps);
                    match (a, b) {
                        (Ok(a), Ok(b)) => {
                            prop_assert_eq!(&a.result, &b.result, "pm diverged at {}", i);
                            prop_assert_eq!(&a.noisy_query, &b.noisy_query);
                            prop_assert_eq!(a.cached, b.cached);
                            prop_assert_eq!(a.cost, b.cost);
                        }
                        (Err(RouterError::Shard { source, .. }), Err(b)) => {
                            prop_assert_eq!(&source, &b, "refusal parity at {}", i);
                        }
                        (a, b) => prop_assert!(false, "outcome mismatch at {}: {:?} vs {:?}", i, a, b),
                    }
                }
                Req::Batch { dataset, queries, eps } => {
                    let name = DATASETS[*dataset];
                    let a = router.submit(name, "t", Request::PmBatch(queries), *eps).unwrap();
                    let a = a.wait().unwrap().into_batch();
                    let b = standalones[name].pm_batch_answer("t", queries, *eps).unwrap();
                    prop_assert_eq!(a.cached, b.cached);
                    prop_assert_eq!(a.cost, b.cost);
                    for (x, y) in a.answers.iter().zip(&b.answers) {
                        prop_assert_eq!(&x.result, &y.result, "batch diverged at {}", i);
                        prop_assert_eq!(&x.noisy_query, &y.noisy_query);
                    }
                }
                Req::Wd { dataset, workload, eps } => {
                    let name = DATASETS[*dataset];
                    let a = router.submit(name, "t", Request::Wd(workload), *eps).unwrap();
                    let a = a.wait().map(Answer::into_wd).unwrap();
                    let b = standalones[name].wd_answer("t", workload, *eps).unwrap();
                    prop_assert_eq!(a.cached, b.cached);
                    for (x, y) in a.answers.iter().zip(&b.answers) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "wd diverged at {}", i);
                    }
                    // Routed addressing resolves the same dataset as the
                    // explicit call (cache hit against the same shard).
                    let routed = router.wd_answer_routed("t", workload, *eps).unwrap();
                    prop_assert!(routed.cached, "routed repeat must replay the explicit release");
                    let c = standalones[name].wd_answer("t", workload, *eps).unwrap();
                    prop_assert!(c.cached);
                }
                Req::Fanout { datasets, eps } => {
                    // One query per occurrence; duplicate datasets fold
                    // into the same group, exercising multi-query groups.
                    let queries: Vec<StarQuery> = datasets
                        .iter()
                        .enumerate()
                        .map(|(j, &d)| {
                            let name = DATASETS[d];
                            StarQuery::count(format!("f{i}_{j}_{name}")).with(Predicate {
                                table: format!("Dim_{name}"),
                                attr: "c".into(),
                                constraint: Constraint::Point((j as u32) % DOMAIN),
                            })
                        })
                        .collect();
                    let a = router.pm_fanout_answer("t", &queries, *eps).unwrap();
                    let b = mirror_fanout(&standalones, &queries, *eps).unwrap();
                    prop_assert_eq!(a.answers.len(), b.len());
                    for (x, y) in a.answers.iter().zip(&b) {
                        prop_assert_eq!(&x.result, &y.result, "fanout diverged at {}", i);
                        prop_assert_eq!(&x.noisy_query, &y.noisy_query);
                        prop_assert_eq!(&x.name, &y.name, "submission order preserved");
                    }
                }
            }
        }

        // Final ledgers: bitwise identical per tenant per dataset — no
        // cross-shard ε leakage in either direction.
        for name in DATASETS {
            for tenant in ["t", "scarce"] {
                let a = router.tenant_usage(name, tenant).unwrap();
                let b = standalones[name].tenant_usage(tenant).unwrap();
                prop_assert_eq!(
                    a.spent_epsilon.to_bits(),
                    b.spent_epsilon.to_bits(),
                    "ledger diverged for {}/{}", name, tenant
                );
                prop_assert_eq!(a.in_flight_epsilon, 0.0);
                prop_assert_eq!(b.in_flight_epsilon, 0.0);
            }
            let sa = router.metrics();
            prop_assert_eq!(
                sa.aggregate.queries_served,
                standalones.values().map(|s| s.metrics().queries_served).sum::<u64>(),
                "aggregate served must partition across the standalone mirrors"
            );
        }
    }
}
