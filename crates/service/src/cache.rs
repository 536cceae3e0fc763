//! Answer cache: identical repeat queries replay their stored noisy answer
//! at zero additional privacy budget.
//!
//! Replaying is free because of DP's post-processing invariance: the cached
//! value is already a differentially private release, and handing the same
//! bytes back again reveals nothing new. This is a particularly good deal
//! for the Predicate Mechanism — perturbation happens on the query's
//! predicate constants, so the stored answer is an ordinary exact evaluation
//! of a noisy query and can be replayed verbatim.
//!
//! The key is `(tenant, mechanism, ε-bits, data version, canonical
//! request)`:
//!
//! * **tenant** — answers are never shared across tenants. Each tenant's
//!   noisy answer was financed by that tenant's ledger; sharing would let
//!   tenant B observe a release tenant A paid for, and correlated replays
//!   across trust boundaries defeat per-tenant accounting.
//! * **mechanism** — a PM answer and a WD answer to the same workload are
//!   different releases.
//! * **ε-bits** — the same query at a different ε is a different release
//!   (different noise scale); bit-exact `f64` comparison keeps the key
//!   `Eq`/`Hash`-sound.
//! * **data version** — an answer computed on one schema instance must
//!   never replay after [`crate::Service::refresh_schema`] swaps the data.
//!   Keying on the version (rather than relying on `clear()` alone) also
//!   makes late inserts from requests that were in flight *during* a
//!   refresh harmless: they land under the old version and are unreachable.
//! * **canonical request** — queries are normalized through
//!   [`starj_engine::canon`], so predicate order, `[v, v]` vs. point, and
//!   label differences all hit the same entry.

use crate::service::Answer;
use starj_engine::CanonicalQuery;
use starj_noise::PrivacyBudget;
use std::collections::{HashMap, VecDeque};
use std::sync::RwLock;

/// Which mechanism produced (or is being asked to produce) an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Predicate Mechanism (Algorithms 1 & 3).
    Pm,
    /// PM over a query batch answered in one fused fact scan.
    PmBatch,
    /// Workload Decomposition (Algorithm 4).
    Wd,
}

/// The canonical form of a request, as cached.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestKey {
    /// A single star-join query in canonical form.
    Single(CanonicalQuery),
    /// A workload: the canonical forms of its member queries, in order.
    Workload(Vec<CanonicalQuery>),
}

impl RequestKey {
    /// The canonical member queries, in order.
    pub(crate) fn members(&self) -> &[CanonicalQuery] {
        match self {
            RequestKey::Single(query) => std::slice::from_ref(query),
            RequestKey::Workload(queries) => queries,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    tenant: String,
    mechanism: Mechanism,
    epsilon_bits: u64,
    version: u64,
    request: RequestKey,
}

/// A stored answer, replayable for free.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The answer as first released. A hit replays it flagged cached, at
    /// no cost, under the caller's labels.
    pub answer: Answer,
    /// What the original (cache-missing) call paid.
    pub original_cost: PrivacyBudget,
}

/// Default [`AnswerCache`] capacity (entries).
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, CachedAnswer>,
    /// Insertion order for FIFO eviction once `capacity` is reached.
    order: VecDeque<CacheKey>,
}

/// Thread-safe, **bounded** map from canonical requests to their released
/// answers. Once the capacity is reached, the oldest entry is evicted
/// (FIFO). Eviction is privacy-safe: the budget spent producing an evicted
/// answer stays spent, and a re-submitted query simply pays again for a
/// fresh release.
#[derive(Debug)]
pub struct AnswerCache {
    inner: RwLock<CacheInner>,
    capacity: usize,
}

impl Default for AnswerCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl AnswerCache {
    /// An empty cache holding at most [`DEFAULT_CACHE_CAPACITY`] answers.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` answers. A capacity of 0
    /// disables retention entirely (every insert is immediately evicted).
    pub fn with_capacity(capacity: usize) -> Self {
        AnswerCache { inner: RwLock::new(CacheInner::default()), capacity }
    }

    /// Looks an answer up; `None` is a miss. `version` is the data version
    /// the caller is answering against.
    pub fn get(
        &self,
        tenant: &str,
        mechanism: Mechanism,
        epsilon: f64,
        version: u64,
        request: &RequestKey,
    ) -> Option<CachedAnswer> {
        let key = CacheKey {
            tenant: tenant.to_string(),
            mechanism,
            epsilon_bits: epsilon.to_bits(),
            version,
            request: request.clone(),
        };
        self.inner.read().unwrap_or_else(|e| e.into_inner()).map.get(&key).cloned()
    }

    /// Stores an answer for replay, evicting the oldest entries past the
    /// capacity.
    pub fn insert(
        &self,
        tenant: &str,
        mechanism: Mechanism,
        epsilon: f64,
        version: u64,
        request: RequestKey,
        answer: CachedAnswer,
    ) {
        let key = CacheKey {
            tenant: tenant.to_string(),
            mechanism,
            epsilon_bits: epsilon.to_bits(),
            version,
            request,
        };
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        if inner.map.insert(key.clone(), answer).is_none() {
            inner.order.push_back(key);
        }
        while inner.map.len() > self.capacity {
            let oldest = inner.order.pop_front().expect("order tracks every map entry");
            inner.map.remove(&oldest);
        }
    }

    /// Number of stored answers.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).map.len()
    }

    /// True iff no answers are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored answer (e.g. after a data refresh that invalidates
    /// them — note the *budget* already spent on them stays spent).
    pub fn clear(&self) {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.map.clear();
        inner.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceAnswer;
    use starj_engine::{canonicalize, Predicate, QueryResult, StarQuery};

    fn canon(q: &StarQuery) -> RequestKey {
        RequestKey::Single(canonicalize(q))
    }

    fn answer(v: f64) -> CachedAnswer {
        let cost = PrivacyBudget::pure(0.5).unwrap();
        CachedAnswer {
            answer: Answer::Pm(ServiceAnswer {
                name: "q".into(),
                result: QueryResult::Scalar(v),
                noisy_query: None,
                cached: false,
                cost: Some(cost),
            }),
            original_cost: cost,
        }
    }

    #[test]
    fn hit_requires_exact_tenant_mechanism_and_epsilon() {
        let cache = AnswerCache::new();
        let q = StarQuery::count("q").with(Predicate::point("A", "x", 1));
        let key = canon(&q);
        cache.insert("alice", Mechanism::Pm, 0.5, 0, key.clone(), answer(42.0));

        assert!(cache.get("alice", Mechanism::Pm, 0.5, 0, &key).is_some());
        assert!(cache.get("bob", Mechanism::Pm, 0.5, 0, &key).is_none(), "tenant isolation");
        assert!(cache.get("alice", Mechanism::Wd, 0.5, 0, &key).is_none(), "mechanism");
        assert!(cache.get("alice", Mechanism::Pm, 0.25, 0, &key).is_none(), "epsilon");
    }

    #[test]
    fn presentation_equivalent_queries_share_an_entry() {
        let cache = AnswerCache::new();
        let a = StarQuery::count("first")
            .with(Predicate::point("B", "y", 2))
            .with(Predicate::range("A", "x", 3, 3));
        let b = StarQuery::count("second")
            .with(Predicate::point("A", "x", 3))
            .with(Predicate::point("B", "y", 2));
        cache.insert("t", Mechanism::Pm, 1.0, 0, canon(&a), answer(7.0));
        let hit = cache.get("t", Mechanism::Pm, 1.0, 0, &canon(&b)).expect("canonical hit");
        assert_eq!(hit.answer.into_pm().result, QueryResult::Scalar(7.0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_the_cache_fifo() {
        let cache = AnswerCache::with_capacity(2);
        for i in 0..3u32 {
            let q = StarQuery::count("q").with(Predicate::point("A", "x", i));
            cache.insert("t", Mechanism::Pm, 1.0, 0, canon(&q), answer(f64::from(i)));
        }
        assert_eq!(cache.len(), 2, "capacity must hold");
        let oldest = StarQuery::count("q").with(Predicate::point("A", "x", 0));
        assert!(
            cache.get("t", Mechanism::Pm, 1.0, 0, &canon(&oldest)).is_none(),
            "oldest entry is evicted first"
        );
        let newest = StarQuery::count("q").with(Predicate::point("A", "x", 2));
        assert!(cache.get("t", Mechanism::Pm, 1.0, 0, &canon(&newest)).is_some());
        // Re-inserting an existing key must not duplicate its order slot.
        let mid = StarQuery::count("q").with(Predicate::point("A", "x", 1));
        cache.insert("t", Mechanism::Pm, 1.0, 0, canon(&mid), answer(9.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = AnswerCache::with_capacity(0);
        let q = StarQuery::count("q").with(Predicate::point("A", "x", 1));
        cache.insert("t", Mechanism::Pm, 1.0, 0, canon(&q), answer(1.0));
        assert!(cache.is_empty());
        assert!(cache.get("t", Mechanism::Pm, 1.0, 0, &canon(&q)).is_none());
    }

    #[test]
    fn versions_are_isolated() {
        let cache = AnswerCache::new();
        let q = StarQuery::count("q").with(Predicate::point("A", "x", 1));
        cache.insert("t", Mechanism::Pm, 1.0, 0, canon(&q), answer(1.0));
        assert!(cache.get("t", Mechanism::Pm, 1.0, 0, &canon(&q)).is_some());
        assert!(
            cache.get("t", Mechanism::Pm, 1.0, 1, &canon(&q)).is_none(),
            "a pre-refresh answer must not replay against refreshed data"
        );
        // A late insert under the old version stays unreachable at the new.
        cache.insert("t", Mechanism::Pm, 1.0, 0, canon(&q), answer(2.0));
        assert!(cache.get("t", Mechanism::Pm, 1.0, 1, &canon(&q)).is_none());
    }

    #[test]
    fn clear_empties() {
        let cache = AnswerCache::new();
        let key = RequestKey::Workload(Vec::new());
        cache.insert("t", Mechanism::PmBatch, 1.0, 0, key, answer(1.0));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
