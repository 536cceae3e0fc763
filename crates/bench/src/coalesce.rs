//! Coalescer throughput scenario: concurrent *single-query* traffic
//! through the service, with and without the group-commit scan coalescer,
//! plus the cold/warm split of the W-histogram cache on repeat workload
//! traffic.
//!
//! The answer cache is disabled in both regimes so every request pays the
//! full pipeline; the only difference between the regimes is whether
//! requests scan one-by-one on their own threads (sequential) or park in
//! the queue and share fused scans (coalesced). That isolates exactly the
//! win the coalescer claims — and lets the bin gate on it.

use starj_engine::StarSchema;
use starj_noise::PrivacyBudget;
use starj_service::{Service, ServiceConfig};
use starj_ssb::BLOCKS;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::service::query_pool;
use dp_starj::workload::{PredicateWorkload, WorkloadBlock};

/// One coalescer throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceSample {
    /// Concurrent client threads, each issuing single-query requests.
    pub clients: usize,
    /// Total requests served.
    pub requests: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Requests per second.
    pub qps: f64,
    /// Fact scans the run actually performed (process-counter delta).
    pub fact_scans: u64,
    /// `fused_queries_saved` metric delta — scans fusion avoided.
    pub fused_queries_saved: u64,
    /// Requests that parked in the coalescer queue (0 when disabled).
    pub coalesced_requests: u64,
    /// Median end-to-end request latency in µs (0.0 if nothing recorded) —
    /// the signal the adaptive-window idle gate compares: a fixed window
    /// taxes every idle request with the full hold, an adaptive window
    /// collapses it.
    pub p50_latency_us: f64,
}

/// Runs `queries_per_client` PM requests from each of `clients` threads
/// against a fresh cache-disabled service, with the coalescer on or off.
pub fn measure_coalesce(
    schema: &Arc<StarSchema>,
    clients: usize,
    queries_per_client: usize,
    epsilon: f64,
    coalesce: bool,
    window: Duration,
    seed: u64,
) -> CoalesceSample {
    measure_coalesce_tracing(
        schema,
        clients,
        queries_per_client,
        epsilon,
        coalesce,
        window,
        seed,
        true,
    )
}

/// [`measure_coalesce`] with telemetry selectable (`tracing = false`
/// builds the service with [`starj_service::TelemetryConfig::disabled`],
/// so no span ring, no audit trail, no slow-query log and — because
/// disabled trace builders are inert — no clock reads on the request
/// path). The tracing-on/off A/B in `coalesce_throughput` gates on this
/// pair.
#[allow(clippy::too_many_arguments)]
pub fn measure_coalesce_tracing(
    schema: &Arc<StarSchema>,
    clients: usize,
    queries_per_client: usize,
    epsilon: f64,
    coalesce: bool,
    window: Duration,
    seed: u64,
    tracing: bool,
) -> CoalesceSample {
    let mut config = ServiceConfig {
        seed,
        cache_answers: false,
        coalesce,
        coalesce_window: window,
        ..ServiceConfig::default()
    };
    if !tracing {
        config.telemetry = starj_service::TelemetryConfig::disabled();
    }
    measure_with_config(schema, clients, queries_per_client, epsilon, config)
}

/// [`measure_coalesce`] with the EWMA-adaptive group-commit window enabled:
/// `window` is the fixed starting window, `window_max`
/// ([`starj_service::ServiceConfig::coalesce_window_max`]) bounds the
/// adaptation. The `cost_model` bench's idle-latency and burst-throughput
/// gates compare this against the fixed-window arm.
pub fn measure_coalesce_adaptive(
    schema: &Arc<StarSchema>,
    clients: usize,
    queries_per_client: usize,
    epsilon: f64,
    window: Duration,
    window_max: Duration,
    seed: u64,
) -> CoalesceSample {
    let config = ServiceConfig {
        seed,
        cache_answers: false,
        coalesce: true,
        coalesce_window: window,
        coalesce_window_max: window_max,
        ..ServiceConfig::default()
    };
    measure_with_config(schema, clients, queries_per_client, epsilon, config)
}

/// The shared interior: spins up a service with `config`, drives
/// `queries_per_client` PM requests from each of `clients` threads, and
/// reads the sample off the wall clock and the service metrics.
fn measure_with_config(
    schema: &Arc<StarSchema>,
    clients: usize,
    queries_per_client: usize,
    epsilon: f64,
    config: ServiceConfig,
) -> CoalesceSample {
    let service = Arc::new(Service::new(Arc::clone(schema), config));
    let allotment = PrivacyBudget::pure(epsilon * (queries_per_client.max(1) as f64) * 2.0)
        .expect("valid benchmark allotment");
    for c in 0..clients {
        service.register_tenant(&format!("client-{c}"), allotment).expect("fresh service");
    }
    let pool = Arc::new(query_pool());

    let scans_before = starj_engine::fact_scan_count();
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let service = Arc::clone(&service);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let tenant = format!("client-{c}");
                for i in 0..queries_per_client {
                    let q = &pool[(c + i) % pool.len()];
                    service
                        .pm_answer(&tenant, q, epsilon)
                        .expect("benchmark requests are well-formed and funded");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("benchmark client thread panicked");
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let fact_scans = starj_engine::fact_scan_count() - scans_before;

    let metrics = service.metrics();
    CoalesceSample {
        clients,
        requests: metrics.queries_served,
        wall_secs,
        qps: metrics.queries_served as f64 / wall_secs,
        fact_scans,
        fused_queries_saved: metrics.fused_queries_saved,
        coalesced_requests: metrics.coalesced_requests,
        p50_latency_us: metrics.p50_latency_us.unwrap_or(0.0),
    }
}

/// The paper's three SSB blocks as a core workload: one cumulative-year
/// row per year plus one per customer region — a realistic repeat-dashboard
/// shape whose joint code space (7·5·5 = 175) easily fits the dense cap.
pub fn dashboard_workload() -> PredicateWorkload {
    use starj_engine::Constraint;
    let blocks: Vec<WorkloadBlock> = BLOCKS
        .iter()
        .map(|(t, a, d)| WorkloadBlock { table: (*t).into(), attr: (*a).into(), domain: *d })
        .collect();
    let mut rows = Vec::new();
    for year in 0..7u32 {
        rows.push(vec![
            Constraint::Range { lo: 0, hi: year },
            Constraint::Range { lo: 0, hi: 4 },
            Constraint::Range { lo: 0, hi: 4 },
        ]);
    }
    for region in 0..5u32 {
        rows.push(vec![
            Constraint::Range { lo: 0, hi: 6 },
            Constraint::Point(region),
            Constraint::Range { lo: 0, hi: 4 },
        ]);
    }
    PredicateWorkload::new(blocks, rows).expect("dashboard workload is well-formed")
}

/// Cold/warm W-cache measurement over repeat workload traffic.
#[derive(Debug, Clone, Copy)]
pub struct WCacheSample {
    /// Warm repeats measured (after the one cold request).
    pub repeats: u64,
    /// Seconds for the cold request (builds the W histogram: one scan).
    pub cold_secs: f64,
    /// Warm requests per second (scan-free dot products).
    pub warm_qps: f64,
    /// `w_cache_hits` after the run (one per warm request).
    pub w_cache_hits: u64,
    /// Fact scans the warm phase performed (0 when the cache works).
    pub warm_fact_scans: u64,
}

/// Issues one cold workload request (the histogram build) and `repeats`
/// warm ones against a cache-disabled-answers service. Every request
/// perturbs fresh noise — only the data-dependent `W` is reused — so this
/// measures the W cache specifically, not answer replay.
pub fn measure_wd_wcache(
    schema: &Arc<StarSchema>,
    repeats: usize,
    epsilon: f64,
    seed: u64,
) -> WCacheSample {
    let config = ServiceConfig { seed, cache_answers: false, ..ServiceConfig::default() };
    let service = Service::new(Arc::clone(schema), config);
    let allotment = PrivacyBudget::pure(epsilon * (repeats as f64 + 1.0) * 2.0).unwrap();
    service.register_tenant("dashboard", allotment).unwrap();
    let workload = dashboard_workload();

    let start = Instant::now();
    service.wd_answer("dashboard", &workload, epsilon).expect("cold workload request");
    let cold_secs = start.elapsed().as_secs_f64();

    let scans_before = starj_engine::fact_scan_count();
    let start = Instant::now();
    for _ in 0..repeats {
        service.wd_answer("dashboard", &workload, epsilon).expect("warm workload request");
    }
    let warm_secs = start.elapsed().as_secs_f64();
    let warm_fact_scans = starj_engine::fact_scan_count() - scans_before;

    WCacheSample {
        repeats: repeats as u64,
        cold_secs,
        warm_qps: repeats as f64 / warm_secs.max(1e-9),
        w_cache_hits: service.metrics().w_cache_hits,
        warm_fact_scans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_ssb::{generate, SsbConfig};

    #[test]
    fn coalesced_measurement_counts_every_request_and_fuses() {
        let schema = Arc::new(generate(&SsbConfig::at_scale(0.002, 7)).unwrap());
        let s = measure_coalesce(&schema, 4, 20, 0.05, true, Duration::from_micros(200), 7);
        assert_eq!(s.requests, 80);
        assert_eq!(s.coalesced_requests, 80, "every paid request parks");
        assert!(s.fact_scans < 80 + 1, "fusion may never cost extra scans");
        let seq = measure_coalesce(&schema, 4, 20, 0.05, false, Duration::ZERO, 7);
        assert_eq!(seq.coalesced_requests, 0, "disabled coalescer parks nothing");
        assert_eq!(seq.requests, 80);
    }

    #[test]
    fn warm_w_cache_is_scan_free() {
        let schema = Arc::new(generate(&SsbConfig::at_scale(0.002, 9)).unwrap());
        let s = measure_wd_wcache(&schema, 5, 0.1, 9);
        assert_eq!(s.w_cache_hits, 5, "every warm request hits the W cache");
        assert_eq!(s.warm_fact_scans, 0, "warm workload traffic never scans");
        assert!(s.warm_qps > 0.0);
    }
}
