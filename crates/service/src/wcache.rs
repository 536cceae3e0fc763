//! The W-histogram cache: reusable joint attribute-code histograms, keyed
//! on `(axis set, aggregate, data version)`, shared by both mechanisms.
//!
//! `W` — the joint histogram of a set of attribute codes over the fact
//! table, one integer cell per code combination — depends only on the
//! **data**, never on a query or its noise. That makes it safe to share
//! across requests, tenants, and mechanisms alike: it is an internal
//! evaluation artifact, not a release, and everything computed *from* it is
//! post-processing of already-perturbed queries, so caching it affects no
//! budget accounting.
//!
//! Both mechanisms evaluate through it (`ServiceCore::evaluate`):
//!
//! * **Workload Decomposition** answers every reconstructed row as the dot
//!   product `Φ̂·W` (paper Eq. 11) against the `W` over exactly the
//!   workload's axes ([`WeightHistogramCache::get_or_build`]): the weights
//!   are real-valued, so the answer keeps `W`'s own axes and tensor order.
//! * **The Predicate Mechanism** routes each noisy member by its coverage,
//!   computed once ([`WeightHistogram::covered_axes`]: scalar, COUNT or
//!   SUM of a measure, star predicates only, a joint code space within
//!   [`W_SPACE_CEILING`] and no larger than the fact table, and sums
//!   below 2⁵³):
//!   1. a covered member within [`DENSE_GROUP_CAP`] is answered from the
//!      smallest cached `W` whose axes contain the member's
//!      ([`WeightHistogramCache::covering`]), else from the `W` over
//!      exactly its axes, built and cached;
//!   2. covered members over [`DENSE_GROUP_CAP`] that share an axis set,
//!      when one evaluation holds at least [`MIN_BATCH_W_MEMBERS`] of
//!      them, are answered from one **transient** `W` over all their
//!      aggregates, each axis pruned to the codes they pass
//!      ([`WeightHistogram::build_for`]), built in one scan and dropped
//!      when the evaluation returns — never stored here;
//!   3. everything else takes the fused scan.
//!
//!   A covered answer is the exact COUNT or integer SUM of the noisy
//!   query — the 0/1 masks and integer cells make every summation order
//!   exact — so it is the same `f64` the scan returns, bit for bit, and no
//!   budget or ledger moves. A transient `W` is the same data-only
//!   artifact as a cached one, held for less time.
//!
//! Two caps bound the memory: [`DENSE_GROUP_CAP`] bounds what this cache
//! *retains* (every stored `W`), and [`W_SPACE_CEILING`] bounds the one
//! transient `W` an evaluation holds at a time.
//!
//! A covered answer's latency depends on the shape of `W` (its axes and
//! cell count), on whether it was cached, and on how many members shared
//! its batch — never on the data values: the timing channel is the
//! queries' shapes, which the callers chose.
//!
//! Builds are single-flight per key: concurrent misses on one key wait for
//! the first builder's scan instead of each paying one.
//!
//! The key carries the data version so [`crate::Service::refresh_schema`]
//! invalidates by construction: after a refresh, lookups carry the new
//! version and can never see a histogram built on the old data, even if an
//! in-flight request inserts one late. `clear()` additionally reclaims the
//! memory eagerly.
//!
//! [`W_SPACE_CEILING`]: starj_engine::W_SPACE_CEILING

use starj_engine::{
    Agg, AxisNames, EngineError, StarQuery, StarSchema, WeightHistogram, DENSE_GROUP_CAP,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

/// Fewest covered members over one axis set past [`DENSE_GROUP_CAP`] that
/// one evaluation answers from a transient `W`; fewer take the fused scan.
/// A build breaks even with the scan at about three members; four leaves
/// a margin and keeps low-concurrency traffic, whose batches hold one or
/// two members, off the build path.
pub const MIN_BATCH_W_MEMBERS: usize = 4;

/// How a noisy PM member is evaluated, decided from its coverage alone.
#[derive(Debug)]
pub(crate) enum PmRoute {
    /// Covered within [`DENSE_GROUP_CAP`]: a cached `W` over these
    /// normalized axes (or a superset) answers.
    Cached(AxisNames),
    /// Covered only under the transient ceiling
    /// ([`starj_engine::W_SPACE_CEILING`]): a transient `W` over these axes
    /// answers when [`MIN_BATCH_W_MEMBERS`] share them, else the scan.
    Batch(AxisNames),
    /// Not covered: the fused scan.
    Scan,
}

impl PmRoute {
    /// The route of `query` over `schema`; errors as
    /// [`WeightHistogram::covered_axes`] does.
    pub(crate) fn of(schema: &StarSchema, query: &StarQuery) -> Result<Self, EngineError> {
        Ok(match WeightHistogram::covered_axes(schema, query)? {
            Some((axes, space)) if space <= DENSE_GROUP_CAP => PmRoute::Cached(axes),
            Some((axes, _)) => PmRoute::Batch(axes),
            None => PmRoute::Scan,
        })
    }

    /// The name `explain` reports: `w_cached`, `w_batch` or `scan`.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            PmRoute::Cached(_) => "w_cached",
            PmRoute::Batch(_) => "w_batch",
            PmRoute::Scan => "scan",
        }
    }
}

/// Cache key: normalized axes (ascending dimension order, as
/// [`WeightHistogram::plan_axes`] returns them), aggregate kind, and the
/// service data version the histogram was built against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WKey {
    /// Normalized `(table, attr)` axes.
    pub axes: Vec<(String, String)>,
    /// The aggregate the histogram accumulates.
    pub agg: Agg,
    /// Data version at build time.
    pub version: u64,
}

/// Default [`WeightHistogramCache`] capacity (entries). Stored histograms
/// are bounded by [`DENSE_GROUP_CAP`] (`2^16` cells of at most 8 bytes,
/// 512 KiB; one to four bytes a cell in practice), so the default bounds
/// worst-case retention at ~16 MiB. The transient `W` one evaluation may
/// build on top is bounded by [`starj_engine::W_SPACE_CEILING`] instead,
/// and is never stored.
pub const DEFAULT_W_CACHE_CAPACITY: usize = 32;

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<WKey, Arc<WeightHistogram>>,
    /// Insertion order for FIFO eviction once `capacity` is reached.
    order: VecDeque<WKey>,
}

/// Thread-safe, bounded map from axis sets to their built histograms
/// (FIFO eviction, like the answer cache). Shared via `Arc` so a long
/// answer never holds the cache lock.
#[derive(Debug)]
pub struct WeightHistogramCache {
    inner: RwLock<Inner>,
    /// One gate per key being built: a miss holds its key's gate for the
    /// whole build, so a concurrent miss on the same key waits for it.
    building: Mutex<HashMap<WKey, Arc<Mutex<()>>>>,
    capacity: usize,
}

impl Default for WeightHistogramCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_W_CACHE_CAPACITY)
    }
}

impl WeightHistogramCache {
    /// An empty cache holding at most `capacity` histograms. A capacity of
    /// 0 disables retention entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        WeightHistogramCache {
            inner: RwLock::new(Inner::default()),
            building: Mutex::new(HashMap::new()),
            capacity,
        }
    }

    /// Looks a histogram up; `None` is a miss.
    pub fn get(&self, key: &WKey) -> Option<Arc<WeightHistogram>> {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).map.get(key).cloned()
    }

    /// The smallest cached histogram of `agg` at `version` whose axes
    /// contain every one of `axes`: the cheapest `W` a binary query over
    /// `axes` can be answered from, the other axes summed out.
    pub fn covering(
        &self,
        axes: &[(String, String)],
        agg: &Agg,
        version: u64,
    ) -> Option<Arc<WeightHistogram>> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner
            .map
            .iter()
            .filter(|(k, _)| k.version == version && k.agg == *agg)
            .filter(|(k, _)| axes.iter().all(|a| k.axes.contains(a)))
            .map(|(_, h)| h)
            .min_by_key(|h| h.space())
            .cloned()
    }

    /// The histogram under `key`, built by `build` on a miss and stored.
    /// Single-flight: a miss waits while another caller builds the same
    /// key, then takes its histogram. The flag is true iff this call built.
    pub fn get_or_build<E>(
        &self,
        key: &WKey,
        build: impl FnOnce() -> Result<WeightHistogram, E>,
    ) -> Result<(Arc<WeightHistogram>, bool), E> {
        if let Some(histogram) = self.get(key) {
            return Ok((histogram, false));
        }
        let gate = {
            let mut building = self.building.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(building.entry(key.clone()).or_default())
        };
        let held = gate.lock().unwrap_or_else(|e| e.into_inner());
        // Whoever held the gate before us has stored its histogram by now.
        let outcome = match self.get(key) {
            Some(histogram) => Ok((histogram, false)),
            None => build().map(|histogram| {
                let histogram = Arc::new(histogram);
                self.insert(key.clone(), Arc::clone(&histogram));
                (histogram, true)
            }),
        };
        let mut building = self.building.lock().unwrap_or_else(|e| e.into_inner());
        if building.get(key).is_some_and(|g| Arc::ptr_eq(g, &gate)) {
            building.remove(key);
        }
        drop(held);
        outcome
    }

    /// Stores a histogram, evicting the oldest entries past the capacity.
    pub fn insert(&self, key: WKey, histogram: Arc<WeightHistogram>) {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if inner.map.insert(key.clone(), histogram).is_none() {
            inner.order.push_back(key);
        }
        while inner.map.len() > self.capacity {
            let oldest = inner.order.pop_front().expect("order tracks every map entry");
            inner.map.remove(&oldest);
        }
    }

    /// Number of stored histograms.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).map.len()
    }

    /// True iff no histograms are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored histogram (data refresh).
    pub fn clear(&self) {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.map.clear();
        inner.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::{Column, Dimension, Domain, ScanOptions, StarSchema, Table};

    fn schema() -> StarSchema {
        let d = Domain::numeric("x", 3).unwrap();
        let dim = Table::new(
            "D",
            vec![Column::key("pk", vec![0, 1, 2]), Column::attr("x", d, vec![0, 1, 2])],
        )
        .unwrap();
        let fact = Table::new("F", vec![Column::key("fk", vec![0, 1, 2, 2])]).unwrap();
        StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
    }

    fn key(version: u64) -> WKey {
        WKey { axes: vec![("D".into(), "x".into())], agg: Agg::Count, version }
    }

    fn hist() -> Arc<WeightHistogram> {
        let s = schema();
        Arc::new(
            WeightHistogram::build(
                &s,
                &[("D".to_string(), "x".to_string())],
                &Agg::Count,
                ScanOptions::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn hit_requires_exact_key() {
        let cache = WeightHistogramCache::default();
        cache.insert(key(0), hist());
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(1)).is_none(), "version bump must miss");
        let other = WKey { agg: Agg::Sum("m".into()), ..key(0) };
        assert!(cache.get(&other).is_none(), "aggregate kind must match");
    }

    #[test]
    fn capacity_bounds_fifo_and_clear_empties() {
        let cache = WeightHistogramCache::with_capacity(2);
        for v in 0..3 {
            cache.insert(key(v), hist());
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0)).is_none(), "oldest evicted first");
        assert!(cache.get(&key(2)).is_some());
        // Re-inserting an existing key must not duplicate its order slot.
        cache.insert(key(1), hist());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        let zero = WeightHistogramCache::with_capacity(0);
        zero.insert(key(0), hist());
        assert!(zero.is_empty(), "zero capacity disables retention");
    }

    #[test]
    fn covering_picks_the_smallest_superset_of_the_axes() {
        let y = Domain::numeric("y", 2).unwrap();
        let e =
            Table::new("E", vec![Column::key("pk", vec![0, 1]), Column::attr("y", y, vec![0, 1])])
                .unwrap();
        let x = Domain::numeric("x", 3).unwrap();
        let d = Table::new(
            "D",
            vec![Column::key("pk", vec![0, 1, 2]), Column::attr("x", x, vec![0, 1, 2])],
        )
        .unwrap();
        let fact = Table::new(
            "F",
            vec![Column::key("fd", vec![0, 1, 2, 2]), Column::key("fe", vec![0, 1, 0, 1])],
        )
        .unwrap();
        let s = StarSchema::new(
            fact,
            vec![Dimension::new(d, "pk", "fd"), Dimension::new(e, "pk", "fe")],
        )
        .unwrap();
        let dx = ("D".to_string(), "x".to_string());
        let ey = ("E".to_string(), "y".to_string());
        let cache = WeightHistogramCache::default();
        for axes in [vec![dx.clone(), ey.clone()], vec![dx.clone()]] {
            let h = WeightHistogram::build(&s, &axes, &Agg::Count, ScanOptions::default());
            cache.insert(WKey { axes, agg: Agg::Count, version: 0 }, Arc::new(h.unwrap()));
        }
        let space =
            |axes: &[(String, String)]| cache.covering(axes, &Agg::Count, 0).map(|h| h.space());
        let (x, y) = (std::slice::from_ref(&dx), std::slice::from_ref(&ey));
        assert_eq!(space(x), Some(3), "the exact W beats the wider one");
        assert_eq!(space(y), Some(6), "only the joint W holds E.y");
        assert_eq!(space(&[ey.clone(), dx.clone()]), Some(6));
        assert!(cache.covering(x, &Agg::Count, 1).is_none(), "version must match");
        assert!(cache.covering(x, &Agg::Sum("m".into()), 0).is_none(), "agg must match");
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        let cache = WeightHistogramCache::default();
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let (h, _) = cache
                        .get_or_build(&key(0), || {
                            builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, ()>(WeightHistogram::clone(&hist()))
                        })
                        .unwrap();
                    assert_eq!(h.space(), 3);
                });
            }
        });
        assert_eq!(builds.into_inner(), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.building.lock().unwrap().is_empty(), "no gate outlives its build");
    }
}
