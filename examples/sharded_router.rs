//! The router tier end to end: four SSB scale slices, each its own
//! dataset and budget domain, labelled with one of four shards by a hash
//! of the dataset name; eight tenants firing mixed PM/WD traffic at them;
//! per-shard vs aggregate metrics; and a dataset-local `refresh_schema`
//! that leaves the other three slices' caches untouched.
//!
//! ```text
//! cargo run --release --example sharded_router
//! ```

use dp_starj_repro::core::workload::{PredicateWorkload, WorkloadBlock};
use dp_starj_repro::engine::{Constraint, Predicate, StarQuery};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::router::{Router, RouterConfig};
use dp_starj_repro::service::Request;
use dp_starj_repro::ssb::{generate, SsbConfig};
use std::sync::Arc;

const SHARDS: usize = 4;
const TENANTS: usize = 8;
const QUERIES_EACH: usize = 30;

fn dashboard() -> PredicateWorkload {
    PredicateWorkload::new(
        vec![
            WorkloadBlock { table: "Date".into(), attr: "year".into(), domain: 7 },
            WorkloadBlock { table: "Customer".into(), attr: "region".into(), domain: 5 },
        ],
        (0..7u32)
            .map(|y| vec![Constraint::Range { lo: 0, hi: y }, Constraint::Range { lo: 0, hi: 4 }])
            .collect(),
    )
    .unwrap()
}

fn main() {
    // Four slices of one SSB volume, each its own dataset → its own scan
    // plans, caches, and privacy budget domain.
    let router =
        Arc::new(Router::new(RouterConfig { shards: SHARDS, ..RouterConfig::default() }).unwrap());
    for i in 0..SHARDS {
        let slice = Arc::new(
            generate(&SsbConfig::at_scale(0.02 / SHARDS as f64, 7 + i as u64))
                .expect("SSB slice generation"),
        );
        let placement = router.add_dataset(&format!("slice-{i}"), slice).unwrap();
        println!("dataset `{}` placed on shard {}", placement.dataset, placement.shard);
    }
    for t in 0..TENANTS {
        router
            .register_tenant_all(&format!("tenant-{t}"), PrivacyBudget::pure(50.0).unwrap())
            .unwrap();
    }

    // Mixed pm/wd traffic: each tenant walks the slices round-robin,
    // interleaving ad-hoc counts with a repeat dashboard workload.
    let workload = Arc::new(dashboard());
    std::thread::scope(|scope| {
        for t in 0..TENANTS {
            let router = Arc::clone(&router);
            let workload = Arc::clone(&workload);
            scope.spawn(move || {
                let tenant = format!("tenant-{t}");
                for i in 0..QUERIES_EACH {
                    let dataset = format!("slice-{}", (t + i) % SHARDS);
                    if i % 5 == 4 {
                        let dashboard = Request::Wd(&workload);
                        let submitted = router.submit(&dataset, &tenant, dashboard, 0.2);
                        submitted.expect("funded dashboard").wait().expect("dashboard answer");
                    } else {
                        let q = StarQuery::count(format!("adhoc-{t}-{i}"))
                            .with(Predicate::range("Date", "year", 0, ((t + i) % 7) as u32))
                            .with(Predicate::point("Customer", "region", (i % 5) as u32));
                        router.pm_answer(&dataset, &tenant, &q, 0.05).expect("funded query");
                    }
                }
            });
        }
    });

    // Per-shard vs aggregate: counters partition exactly; the aggregate
    // latency quantiles come from merged histogram buckets.
    let m = router.metrics();
    println!("\nper-shard metrics:");
    for (shard, s) in &m.per_shard {
        println!(
            "  shard {shard}: {} served, {} cache hits, {} W-cache hits, p99 {:.0} µs",
            s.queries_served,
            s.cache_hits,
            s.w_cache_hits,
            s.p99_latency_us.unwrap_or(0.0)
        );
    }
    println!(
        "aggregate: {} served ({} routed requests), {} cache hits, {} W-cache hits, \
         p50 {:.0} µs / p99 {:.0} µs",
        m.aggregate.queries_served,
        m.routed_requests,
        m.aggregate.cache_hits,
        m.aggregate.w_cache_hits,
        m.aggregate.p50_latency_us.unwrap_or(0.0),
        m.aggregate.p99_latency_us.unwrap_or(0.0),
    );

    // Dataset-local refresh: slice-0 gets fresh data — its caches die and
    // its version bumps, while every other slice keeps its caches warm.
    let cached_before: Vec<u64> = m.per_shard.iter().map(|(_, s)| s.cache_hits).collect();
    let version = router
        .refresh_schema(
            "slice-0",
            Arc::new(generate(&SsbConfig::at_scale(0.02 / SHARDS as f64, 99)).unwrap()),
        )
        .unwrap();
    println!("\nrefreshed `slice-0` to data version {version} (dataset-local):");
    let q = StarQuery::count("post-refresh").with(Predicate::range("Date", "year", 0, 6));
    let fresh = router.pm_answer("slice-0", "tenant-0", &q, 0.05).unwrap();
    println!("  slice-0 re-pays after refresh: cached={}", fresh.cached);
    // A repeat dashboard on an untouched slice still replays for free.
    let replayed = router.submit("slice-1", "tenant-0", Request::Wd(&workload), 0.2).unwrap();
    let replayed = replayed.wait().unwrap().into_wd();
    println!(
        "  slice-1 dashboard replay untouched by the refresh: cached={} \
         (cache hits before: {:?})",
        replayed.cached, cached_before
    );
}
