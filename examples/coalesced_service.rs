//! Group-commit coalescing end to end: eight analysts fire independent
//! single-shot queries at one service, and the coalescer fuses their
//! concurrent traffic into shared fact scans — no one ever calls a batch
//! API. A second act shows repeat dashboard workloads going scan-free via
//! the W-histogram cache, and a data refresh invalidating every cache.
//!
//! ```text
//! cargo run --release --example coalesced_service
//! ```

use dp_starj_repro::core::workload::{PredicateWorkload, WorkloadBlock};
use dp_starj_repro::engine::{fact_scan_count, Constraint, Predicate, StarQuery};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{Service, ServiceConfig};
use dp_starj_repro::ssb::{generate, SsbConfig};
use std::sync::Arc;

fn main() {
    let schema = Arc::new(generate(&SsbConfig::at_scale(0.01, 7)).expect("SSB generation"));
    let config = ServiceConfig {
        coalesce: true,
        cache_answers: false, // make every request pay, so fusion is visible
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(Arc::clone(&schema), config));

    // Act 1: eight analysts, single-shot queries, zero explicit batches.
    const ANALYSTS: u32 = 8;
    const QUERIES_EACH: u32 = 40;
    for a in 0..ANALYSTS {
        service
            .register_tenant(&format!("analyst-{a}"), PrivacyBudget::pure(50.0).unwrap())
            .unwrap();
    }
    let scans_before = fact_scan_count();
    let handles: Vec<_> = (0..ANALYSTS)
        .map(|a| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let tenant = format!("analyst-{a}");
                for i in 0..QUERIES_EACH {
                    let q = StarQuery::count(format!("adhoc-{a}-{i}"))
                        .with(Predicate::range("Date", "year", 0, (a + i) % 7))
                        .with(Predicate::point("Customer", "region", i % 5));
                    service.pm_answer(&tenant, &q, 0.05).expect("funded, well-formed");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let scans = fact_scan_count() - scans_before;
    let m = service.metrics();
    println!(
        "{} single-query requests from {ANALYSTS} analysts answered with {scans} fact scans",
        m.queries_served
    );
    println!(
        "  coalescer: {} requests parked across {} drains (mean batch {:.1}), \
         {} scans fused away",
        m.coalesced_requests,
        m.coalesced_batches,
        m.coalesced_requests as f64 / m.coalesced_batches.max(1) as f64,
        m.fused_queries_saved
    );

    // Act 2: a repeat dashboard workload — cold request builds W (one
    // scan), every warm repeat is a scan-free dot product.
    let workload = PredicateWorkload::new(
        vec![
            WorkloadBlock { table: "Date".into(), attr: "year".into(), domain: 7 },
            WorkloadBlock { table: "Customer".into(), attr: "region".into(), domain: 5 },
            WorkloadBlock { table: "Supplier".into(), attr: "region".into(), domain: 5 },
        ],
        (0..7u32)
            .map(|y| {
                vec![
                    Constraint::Range { lo: 0, hi: y },
                    Constraint::Range { lo: 0, hi: 4 },
                    Constraint::Range { lo: 0, hi: 4 },
                ]
            })
            .collect(),
    )
    .unwrap();
    let scans_before = fact_scan_count();
    for _ in 0..10 {
        service.wd_answer("analyst-0", &workload, 0.2).expect("dashboard refresh");
    }
    let m = service.metrics();
    println!(
        "10 dashboard workloads ({} queries each) cost {} fact scans — {} W-cache hits",
        workload.len(),
        fact_scan_count() - scans_before,
        m.w_cache_hits
    );

    // Act 3: the data changes — every cached release and histogram dies.
    let version = service.refresh_schema(Arc::new(
        generate(&SsbConfig::at_scale(0.01, 8)).expect("refreshed instance"),
    ));
    println!(
        "refreshed to data version {version}: {} cached answers, {} cached histograms",
        service.cached_answers(),
        service.cached_histograms()
    );
    let after = service.wd_answer("analyst-0", &workload, 0.2).unwrap();
    println!(
        "post-refresh dashboard re-pays and re-scans: cached={} (W rebuilt: {} histograms)",
        after.cached,
        service.cached_histograms()
    );
}
