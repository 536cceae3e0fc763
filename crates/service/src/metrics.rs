//! Lock-free service metrics: request counters and a latency histogram with
//! p50/p99 extraction.
//!
//! Counters are plain relaxed atomics — they are monotonic tallies, not
//! synchronization points. Latency uses a fixed 64-bucket power-of-two
//! histogram over nanoseconds: recording is one atomic increment, and
//! quantiles are read by scanning 64 buckets, so the histogram never
//! allocates and never takes a lock on the serving path.

use starj_telemetry::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets (public so cross-service
/// aggregators — e.g. a shard router merging per-shard histograms — can
/// size their accumulation arrays).
pub const LATENCY_BUCKETS: usize = 64;
const BUCKETS: usize = LATENCY_BUCKETS;

/// Power-of-two latency histogram. Bucket `i` covers `[2^(i−1), 2^i)` ns
/// (bucket 0 covers `[0, 1)` ns).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in microseconds, resolved to the
    /// geometric mean of the containing bucket's edges — the unbiased point
    /// estimate for a power-of-two bucket, off by at most √2× in either
    /// direction. (The previous upper-edge convention biased every quantile
    /// high, up to 2× the true value.) `None` until something was recorded.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket idx covers [2^(idx−1), 2^idx) ns; its geometric
                // mean is 2^(idx−0.5). Bucket 0 covers [0, 1) ns.
                let mid_ns = if idx == 0 { 1.0 } else { (idx as f64 - 0.5).exp2() };
                return Some(mid_ns / 1_000.0);
            }
        }
        None
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the raw bucket counts (bucket `i` covers
    /// `[2^(i−1), 2^i)` ns). The merge surface for cross-service
    /// aggregation: quantiles of a fleet are read from the *summed*
    /// buckets, never from per-service p50/p99 (quantiles do not average).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Adds another histogram's bucket counts into this one — the other
    /// half of the merge surface.
    pub fn absorb(&self, counts: &[u64; BUCKETS]) {
        for (bucket, &n) in self.buckets.iter().zip(counts) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Counters and latency for one [`crate::Service`].
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Successfully answered requests (fresh, cached, and free).
    pub queries_served: AtomicU64,
    /// Answers replayed from the cache (a subset of `queries_served`).
    pub cache_hits: AtomicU64,
    /// Unsatisfiable-query short-circuits answered exactly at zero cost
    /// (a subset of `queries_served`).
    pub free_answers: AtomicU64,
    /// Requests refused because the tenant's budget could not absorb them.
    pub budget_refusals: AtomicU64,
    /// Requests rejected at admission (malformed against the schema).
    pub admission_rejections: AtomicU64,
    /// Requests that failed in the mechanism after admission (refunded).
    pub mechanism_failures: AtomicU64,
    /// Fused multi-query fact scans executed (batch + workload requests).
    pub fused_scans: AtomicU64,
    /// Fact scans *saved* by fusion: for each fused scan answering `l`
    /// queries, `l − 1` scans the per-query path would have paid. Counts
    /// explicit batches, workload requests, coalesced partitions, and
    /// W-histogram reuse alike.
    pub fused_queries_saved: AtomicU64,
    /// Requests that parked in the coalescer queue and were answered by a
    /// group-commit drain (free answers and cache hits never park).
    pub coalesced_requests: AtomicU64,
    /// Queue drains the coalescer workers performed (a batch may hold one
    /// request; `coalesced_requests / coalesced_batches` is the mean batch).
    pub coalesced_batches: AtomicU64,
    /// Workload requests answered scan-free from a cached W histogram.
    pub w_cache_hits: AtomicU64,
    /// W histograms built (one fact scan each): cached ones for workload
    /// requests and covered PM members alike, and transient ones for a
    /// batch of covered PM members past the cache's cap.
    pub w_builds: AtomicU64,
    /// Noisy PM members answered from a W histogram, cached or transient,
    /// instead of a fact scan (`pm_w_answers` over the paid PM members is
    /// the covered share).
    pub pm_w_answers: AtomicU64,
    /// Requests refused with [`crate::ServiceError::StaleDataVersion`]
    /// because a [`crate::Service::refresh_schema`] landed between their
    /// submit and their commit — while parked in the coalescer queue or
    /// while their scan was running (each one refunded its reservation).
    pub stale_refusals: AtomicU64,
    /// Spend attempts refused with
    /// [`crate::ServiceError::DurabilityUnavailable`] because the budget
    /// journal was broken (degraded mode) or failed mid-request. Always 0
    /// for services without a journal.
    pub durable_refusals: AtomicU64,
    /// End-to-end request latency (successful requests only).
    pub latency: LatencyHistogram,
}

/// A point-in-time copy of the metrics, cheap to print or ship elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// See [`ServiceMetrics::queries_served`].
    pub queries_served: u64,
    /// See [`ServiceMetrics::cache_hits`].
    pub cache_hits: u64,
    /// See [`ServiceMetrics::free_answers`].
    pub free_answers: u64,
    /// See [`ServiceMetrics::budget_refusals`].
    pub budget_refusals: u64,
    /// See [`ServiceMetrics::admission_rejections`].
    pub admission_rejections: u64,
    /// See [`ServiceMetrics::mechanism_failures`].
    pub mechanism_failures: u64,
    /// See [`ServiceMetrics::fused_scans`].
    pub fused_scans: u64,
    /// See [`ServiceMetrics::fused_queries_saved`].
    pub fused_queries_saved: u64,
    /// See [`ServiceMetrics::coalesced_requests`].
    pub coalesced_requests: u64,
    /// See [`ServiceMetrics::coalesced_batches`].
    pub coalesced_batches: u64,
    /// See [`ServiceMetrics::w_cache_hits`].
    pub w_cache_hits: u64,
    /// See [`ServiceMetrics::w_builds`].
    pub w_builds: u64,
    /// See [`ServiceMetrics::pm_w_answers`].
    pub pm_w_answers: u64,
    /// See [`ServiceMetrics::stale_refusals`].
    pub stale_refusals: u64,
    /// See [`ServiceMetrics::durable_refusals`].
    pub durable_refusals: u64,
    /// Median latency in µs (None before the first served query).
    pub p50_latency_us: Option<f64>,
    /// 99th-percentile latency in µs.
    pub p99_latency_us: Option<f64>,
}

impl MetricsSnapshot {
    /// Adds another snapshot's counters into this one — the counter half of
    /// cross-service aggregation. The latency quantiles are deliberately
    /// **not** touched (quantiles do not sum); an aggregator derives them
    /// from the merged [`LatencyHistogram`] buckets instead.
    pub fn accumulate(&mut self, other: &MetricsSnapshot) {
        self.queries_served += other.queries_served;
        self.cache_hits += other.cache_hits;
        self.free_answers += other.free_answers;
        self.budget_refusals += other.budget_refusals;
        self.admission_rejections += other.admission_rejections;
        self.mechanism_failures += other.mechanism_failures;
        self.fused_scans += other.fused_scans;
        self.fused_queries_saved += other.fused_queries_saved;
        self.coalesced_requests += other.coalesced_requests;
        self.coalesced_batches += other.coalesced_batches;
        self.w_cache_hits += other.w_cache_hits;
        self.w_builds += other.w_builds;
        self.pm_w_answers += other.pm_w_answers;
        self.stale_refusals += other.stale_refusals;
        self.durable_refusals += other.durable_refusals;
    }

    /// `(name, value)` counter pairs in declaration order — the single
    /// source the JSON, `Display`, and Prometheus expositions iterate.
    pub fn counter_entries(&self) -> [(&'static str, u64); 15] {
        [
            ("queries_served", self.queries_served),
            ("cache_hits", self.cache_hits),
            ("free_answers", self.free_answers),
            ("budget_refusals", self.budget_refusals),
            ("admission_rejections", self.admission_rejections),
            ("mechanism_failures", self.mechanism_failures),
            ("fused_scans", self.fused_scans),
            ("fused_queries_saved", self.fused_queries_saved),
            ("coalesced_requests", self.coalesced_requests),
            ("coalesced_batches", self.coalesced_batches),
            ("w_cache_hits", self.w_cache_hits),
            ("w_builds", self.w_builds),
            ("pm_w_answers", self.pm_w_answers),
            ("stale_refusals", self.stale_refusals),
            ("durable_refusals", self.durable_refusals),
        ]
    }

    /// The snapshot as a stable JSON object: every counter by name,
    /// `p50_latency_us` / `p99_latency_us` (null before the first
    /// request), plus a `cost` sub-object embedding the *process-wide*
    /// cost-model counters (model reuse and builds, window adjustments) —
    /// read at render time, not at snapshot time, since they live outside
    /// any one service.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = self
            .counter_entries()
            .iter()
            .map(|&(name, v)| (name.to_string(), Json::Num(v as f64)))
            .collect();
        pairs.push((
            "p50_latency_us".to_string(),
            self.p50_latency_us.map_or(Json::Null, Json::Num),
        ));
        pairs.push((
            "p99_latency_us".to_string(),
            self.p99_latency_us.map_or(Json::Null, Json::Num),
        ));
        pairs.push(("cost".to_string(), starj_telemetry::cost_counters().snapshot().to_json()));
        Json::Obj(pairs)
    }

    /// An all-zero snapshot, the identity for [`MetricsSnapshot::accumulate`].
    pub fn zero() -> MetricsSnapshot {
        MetricsSnapshot {
            queries_served: 0,
            cache_hits: 0,
            free_answers: 0,
            budget_refusals: 0,
            admission_rejections: 0,
            mechanism_failures: 0,
            fused_scans: 0,
            fused_queries_saved: 0,
            coalesced_requests: 0,
            coalesced_batches: 0,
            w_cache_hits: 0,
            w_builds: 0,
            pm_w_answers: 0,
            stale_refusals: 0,
            durable_refusals: 0,
            p50_latency_us: None,
            p99_latency_us: None,
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    /// Renders the stable JSON form ([`MetricsSnapshot::to_json`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_json().render())
    }
}

impl ServiceMetrics {
    /// Bumps a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot (individual counters are exact;
    /// cross-counter skew is bounded by in-flight requests).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_served: self.queries_served.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            free_answers: self.free_answers.load(Ordering::Relaxed),
            budget_refusals: self.budget_refusals.load(Ordering::Relaxed),
            admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
            mechanism_failures: self.mechanism_failures.load(Ordering::Relaxed),
            fused_scans: self.fused_scans.load(Ordering::Relaxed),
            fused_queries_saved: self.fused_queries_saved.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            w_cache_hits: self.w_cache_hits.load(Ordering::Relaxed),
            w_builds: self.w_builds.load(Ordering::Relaxed),
            pm_w_answers: self.pm_w_answers.load(Ordering::Relaxed),
            stale_refusals: self.stale_refusals.load(Ordering::Relaxed),
            durable_refusals: self.durable_refusals.load(Ordering::Relaxed),
            p50_latency_us: self.latency.quantile_us(0.50),
            p99_latency_us: self.latency.quantile_us(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_bracket_recorded_values() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // 10_000 ns → bucket upper 16_384 ns
        }
        h.record(Duration::from_millis(10)); // the single slow outlier
        let p50 = h.quantile_us(0.5).unwrap();
        assert!((10.0..=20.0).contains(&p50), "p50 {p50} should bracket 10 µs");
        let p99 = h.quantile_us(0.99).unwrap();
        assert!(p99 <= 20.0, "p99 {p99} still inside the fast cluster (99/100)");
        let p100 = h.quantile_us(1.0).unwrap();
        assert!(p100 >= 10_000.0, "max {p100} must see the 10 ms outlier");
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn ordering_is_monotone_in_q() {
        let h = LatencyHistogram::default();
        for us in [1u64, 10, 100, 1_000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        let p10 = h.quantile_us(0.1).unwrap();
        let p90 = h.quantile_us(0.9).unwrap();
        assert!(p10 <= p90);
    }

    #[test]
    fn bucket_counts_round_trip_through_absorb() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        for us in [1u64, 10, 100] {
            a.record(Duration::from_micros(us));
        }
        b.record(Duration::from_millis(5));
        let merged = LatencyHistogram::default();
        merged.absorb(&a.bucket_counts());
        merged.absorb(&b.bucket_counts());
        assert_eq!(merged.count(), 4);
        // The merged p100 must see b's 5 ms outlier even though a holds
        // three fast observations.
        assert!(merged.quantile_us(1.0).unwrap() >= 5_000.0);
        assert_eq!(
            merged.bucket_counts().iter().sum::<u64>(),
            a.count() + b.count(),
            "absorb preserves total mass"
        );
    }

    #[test]
    fn snapshot_accumulate_sums_counters_only() {
        let m = ServiceMetrics::default();
        ServiceMetrics::add(&m.queries_served, 3);
        ServiceMetrics::inc(&m.cache_hits);
        ServiceMetrics::inc(&m.stale_refusals);
        m.latency.record(Duration::from_micros(7));
        let mut total = MetricsSnapshot::zero();
        total.accumulate(&m.snapshot());
        total.accumulate(&m.snapshot());
        assert_eq!(total.queries_served, 6);
        assert_eq!(total.cache_hits, 2);
        assert_eq!(total.stale_refusals, 2);
        assert_eq!(total.p50_latency_us, None, "quantiles never sum");
    }

    #[test]
    fn quantiles_use_the_bucket_geometric_mean() {
        // 1000 identical 10 µs observations land in bucket 14
        // ([8_192, 16_384) ns). The old upper-edge convention reported
        // p50 = p99 = 16.384 µs — a 64% overshoot; the geometric mean
        // 2^13.5 ns ≈ 11.585 µs is within √2 of the true 10 µs.
        let h = LatencyHistogram::default();
        for _ in 0..1000 {
            h.record(Duration::from_micros(10));
        }
        let expected = (13.5f64).exp2() / 1_000.0;
        for q in [0.5, 0.99] {
            let got = h.quantile_us(q).unwrap();
            assert!((got - expected).abs() < 1e-9, "q={q}: got {got}, want {expected}");
            assert!(got < 16.0, "q={q}: {got} must not sit on the 16.384 µs upper edge");
            assert!((10.0 / 2f64.sqrt()..=10.0 * 2f64.sqrt()).contains(&got));
        }
    }

    #[test]
    fn snapshot_serializes_to_stable_json() {
        let m = ServiceMetrics::default();
        ServiceMetrics::add(&m.queries_served, 3);
        ServiceMetrics::inc(&m.w_cache_hits);
        let s = m.snapshot();
        let json = starj_telemetry::Json::parse(&s.to_string()).expect("Display renders JSON");
        assert_eq!(json.get("queries_served").and_then(starj_telemetry::Json::as_f64), Some(3.0));
        assert_eq!(json.get("w_cache_hits").and_then(starj_telemetry::Json::as_f64), Some(1.0));
        assert!(
            matches!(json.get("p50_latency_us"), Some(starj_telemetry::Json::Null)),
            "no latency recorded yet"
        );
        m.latency.record(Duration::from_micros(5));
        let again = m.snapshot().to_json();
        assert!(again.get("p50_latency_us").and_then(starj_telemetry::Json::as_f64).is_some());
        assert!(
            again.get("cost").and_then(|c| c.get("cache_builds")).is_some(),
            "cost-model counters ride along as a sub-object"
        );
        assert_eq!(s.counter_entries().len(), 15);
    }

    #[test]
    fn snapshot_copies_counters() {
        let m = ServiceMetrics::default();
        ServiceMetrics::inc(&m.queries_served);
        ServiceMetrics::inc(&m.queries_served);
        ServiceMetrics::inc(&m.cache_hits);
        ServiceMetrics::inc(&m.budget_refusals);
        m.latency.record(Duration::from_micros(5));
        let s = m.snapshot();
        assert_eq!(s.queries_served, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.budget_refusals, 1);
        assert_eq!(s.admission_rejections, 0);
        assert!(s.p50_latency_us.is_some());
    }
}
