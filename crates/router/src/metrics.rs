//! Fleet-wide metric aggregation across shards.
//!
//! Every hosted dataset's [`starj_service::Service`] keeps its own
//! lock-free [`starj_service::ServiceMetrics`]; the router's job is to
//! roll them up without lying about latency. Counters are plain sums
//! ([`starj_service::MetricsSnapshot::accumulate`]); quantiles are **not**
//! — the aggregate p50/p99 is read from the *merged* latency histogram
//! buckets ([`starj_service::LatencyHistogram::bucket_counts`] /
//! [`absorb`](starj_service::LatencyHistogram::absorb)), never from
//! averaged per-shard quantiles.

use starj_service::{LatencyHistogram, MetricsSnapshot};
use starj_telemetry::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Router-level counters (on top of what the shards themselves count).
#[derive(Debug, Default)]
pub(crate) struct RouterCounters {
    /// Single-dataset requests routed to an owning shard.
    pub routed_requests: AtomicU64,
    /// Cross-shard fan-out requests planned and executed.
    pub fanout_requests: AtomicU64,
    /// Per-shard sub-requests those fan-outs expanded into.
    pub fanout_subrequests: AtomicU64,
}

impl RouterCounters {
    pub(crate) fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// One hosted dataset's point-in-time metrics, tagged with its placement.
#[derive(Debug, Clone)]
pub struct DatasetMetrics {
    /// The dataset name.
    pub dataset: String,
    /// The shard hosting it.
    pub shard: u32,
    /// The dataset service's own snapshot.
    pub snapshot: MetricsSnapshot,
}

/// A point-in-time roll-up of the whole router fleet.
#[derive(Debug, Clone)]
pub struct RouterMetrics {
    /// Per-dataset snapshots, sorted by `(shard, dataset)` so reports are
    /// deterministic.
    pub per_dataset: Vec<DatasetMetrics>,
    /// Per-shard totals: counters summed over the shard's datasets, with
    /// p50/p99 from the shard's merged latency buckets.
    pub per_shard: Vec<(u32, MetricsSnapshot)>,
    /// Fleet totals: counters summed over every dataset, p50/p99 from the
    /// fleet-merged latency buckets.
    pub aggregate: MetricsSnapshot,
    /// Single-dataset requests routed to an owning shard.
    pub routed_requests: u64,
    /// Cross-shard fan-out requests planned and executed.
    pub fanout_requests: u64,
    /// Per-shard sub-requests those fan-outs expanded into.
    pub fanout_subrequests: u64,
}

impl RouterMetrics {
    /// A stable JSON rendering of the whole roll-up: router counters,
    /// the fleet aggregate, per-shard totals, and per-dataset snapshots,
    /// in the same deterministic `(shard, dataset)` order the struct
    /// carries. Field names match [`MetricsSnapshot::to_json`], so a
    /// dashboard can parse shard and fleet rows with one schema.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("routed_requests", Json::Num(self.routed_requests as f64)),
            ("fanout_requests", Json::Num(self.fanout_requests as f64)),
            ("fanout_subrequests", Json::Num(self.fanout_subrequests as f64)),
            ("aggregate", self.aggregate.to_json()),
            (
                "per_shard",
                Json::Arr(
                    self.per_shard
                        .iter()
                        .map(|(shard, snapshot)| {
                            Json::obj(vec![
                                ("shard", Json::Num(*shard as f64)),
                                ("metrics", snapshot.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_dataset",
                Json::Arr(
                    self.per_dataset
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("dataset", Json::Str(d.dataset.clone())),
                                ("shard", Json::Num(d.shard as f64)),
                                ("metrics", d.snapshot.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl std::fmt::Display for RouterMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json().render())
    }
}

/// Sums snapshots and merges latency buckets into one `MetricsSnapshot`
/// whose p50/p99 come from the merged histogram.
pub(crate) fn merge(
    parts: &[(MetricsSnapshot, [u64; starj_service::LATENCY_BUCKETS])],
) -> MetricsSnapshot {
    let mut total = MetricsSnapshot::zero();
    let merged = LatencyHistogram::default();
    for (snapshot, buckets) in parts {
        total.accumulate(snapshot);
        merged.absorb(buckets);
    }
    total.p50_latency_us = merged.quantile_us(0.50);
    total.p99_latency_us = merged.quantile_us(0.99);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn merge_sums_counters_and_merges_latency() {
        let fast = LatencyHistogram::default();
        for _ in 0..99 {
            fast.record(Duration::from_micros(10));
        }
        let slow = LatencyHistogram::default();
        slow.record(Duration::from_millis(50));

        let mut a = MetricsSnapshot::zero();
        a.queries_served = 99;
        let mut b = MetricsSnapshot::zero();
        b.queries_served = 1;

        let merged = merge(&[(a, fast.bucket_counts()), (b, slow.bucket_counts())]);
        assert_eq!(merged.queries_served, 100);
        // p50 sits in the fast cluster; the p100-ish tail must see the
        // slow shard's outlier — exactly what averaging per-shard p50s
        // would have hidden.
        assert!(merged.p50_latency_us.unwrap() <= 20.0);
        let p99 = merged.p99_latency_us.unwrap();
        assert!(p99 <= 20.0, "99/100 observations are fast, p99 = {p99}");
    }

    #[test]
    fn merge_of_nothing_is_zero() {
        let merged = merge(&[]);
        assert_eq!(merged.queries_served, 0);
        assert_eq!(merged.p50_latency_us, None);
    }
}
