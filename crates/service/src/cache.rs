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
//!   (different noise scale); keying on the bit pattern keeps the key exact.
//! * **data version** — an answer computed on one schema instance must
//!   never replay after [`crate::Service::refresh_schema`] swaps the data.
//!   Keying on the version (rather than relying on `clear()` alone) also
//!   makes late inserts from requests that were in flight *during* a
//!   refresh harmless: they land under the old version and are unreachable.
//! * **canonical request** — queries are normalized through
//!   [`starj_engine::canon`], so predicate order, `[v, v]` vs. point, and
//!   label differences all hit the same entry.
//!
//! ## Entry layout
//!
//! Each entry is one `Arc<[u8]>` shared by the hash index and the FIFO:
//! `[key length][key][release]`, integers as LEB128 varints. The **key**
//! is the tenant, mechanism, ε bits, version and canonical request, with
//! table, attribute and measure names as ids from the cache's own
//! append-only name table; every variable-length part is count-prefixed
//! and every variant tagged, so the encoding is injective. The
//! **release** is, per PM member, a free/paid tag, the original label, the
//! noisy constraints and the result, or WD's values. A hit rebuilds each
//! noisy query from the probe's canonical member (PM only replaces
//! constraints), so the replay is `==` the first release, label included.
//!
//! A scalar PM entry costs ≈ 131 B all in, as `tests/cache_footprint.rs`
//! counts (2 016 B when the key was deep-copied into both the map and the
//! FIFO and the value was a full [`Answer`] clone), so the default 65 536
//! entries hold ≈ 9 MB.

use crate::service::{Answer, BatchAnswer, ServiceAnswer, WorkloadAnswer};
use starj_engine::{Agg, CanonicalQuery, Constraint, QueryResult};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

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

/// Default [`AnswerCache`] capacity (entries).
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// One stored release, `[key length][key][release]` in one allocation.
/// Clones share it; hashing and equality see the key bytes only.
#[derive(Debug, Clone)]
struct Entry(Arc<[u8]>);

impl Entry {
    /// The key bytes and the release bytes.
    fn split(&self) -> (&[u8], &[u8]) {
        let mut r = Reader(&self.0);
        let len = r.len();
        r.0.split_at(len)
    }
}

impl Borrow<[u8]> for Entry {
    fn borrow(&self) -> &[u8] {
        self.split().0
    }
}

impl Hash for Entry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.split().0.hash(state);
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.split().0 == other.split().0
    }
}

impl Eq for Entry {}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashSet<Entry>,
    /// Insertion order for FIFO eviction once `capacity` is reached.
    order: VecDeque<Entry>,
    /// Append-only name table: every table, attribute and measure name a
    /// stored key mentions, by id. Bounded by the schemas' vocabulary.
    names: HashMap<String, u32>,
}

thread_local! {
    /// The probe key's scratch buffer, reused by every lookup on a thread.
    static PROBE: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
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

impl AnswerCache {
    /// An empty cache holding at most `capacity` answers. A capacity of 0
    /// disables retention entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        AnswerCache { inner: RwLock::new(CacheInner::default()), capacity }
    }

    /// Looks an answer up; `None` is a miss. `version` is the data version
    /// the caller is answering against. A hit is the first release flagged
    /// cached and charging nothing, under its original labels.
    pub fn get(
        &self,
        tenant: &str,
        mechanism: Mechanism,
        epsilon: f64,
        version: u64,
        request: &RequestKey,
    ) -> Option<Answer> {
        let entry = PROBE.with_borrow_mut(|probe| {
            probe.clear();
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            let mut id = |name: &str| inner.names.get(name).copied();
            // A name never interned cannot occur in any stored key.
            encode_key(probe, &mut id, tenant, mechanism, epsilon, version, request)?;
            inner.entries.get(probe.as_slice()).cloned()
        })?;
        Some(decode_release(mechanism, request.members(), entry.split().1))
    }

    /// Stores an answer for replay, evicting the oldest entries past the
    /// capacity. The first release stored under a key is the one replayed:
    /// a later insert under the same key is ignored.
    pub fn insert(
        &self,
        tenant: &str,
        mechanism: Mechanism,
        epsilon: f64,
        version: u64,
        request: &RequestKey,
        answer: &Answer,
    ) {
        let mut release = Vec::new();
        encode_release(&mut release, request.members(), answer);
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let CacheInner { entries, order, names } = &mut *inner;
        let mut key = Vec::new();
        let mut id = |name: &str| {
            let next = names.len() as u32;
            let known = names.get(name).copied();
            Some(known.unwrap_or_else(|| *names.entry(name.to_string()).or_insert(next)))
        };
        encode_key(&mut key, &mut id, tenant, mechanism, epsilon, version, request)
            .expect("interning resolves every name");
        let mut prefix = Vec::new();
        put_var(&mut prefix, key.len() as u64);
        let entry = Entry([prefix, key, release].concat().into());
        if entries.insert(entry.clone()) {
            order.push_back(entry);
        }
        while entries.len() > self.capacity {
            let oldest = order.pop_front().expect("order tracks every entry");
            entries.remove(oldest.split().0);
        }
    }

    /// Number of stored answers.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).entries.len()
    }

    /// True iff no answers are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored answer (e.g. after a data refresh that invalidates
    /// them — note the *budget* already spent on them stays spent).
    pub fn clear(&self) {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        inner.entries.clear();
        inner.order.clear();
    }
}

fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_var(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes the injective cache key. `id` maps a table, attribute or measure
/// name to its name-table id; `None` when it has none.
fn encode_key(
    out: &mut Vec<u8>,
    id: &mut impl FnMut(&str) -> Option<u32>,
    tenant: &str,
    mechanism: Mechanism,
    epsilon: f64,
    version: u64,
    request: &RequestKey,
) -> Option<()> {
    put_str(out, tenant);
    out.push(mechanism as u8);
    put_f64(out, epsilon);
    put_var(out, version);
    // The shape; members are self-delimiting and the key ends with them.
    out.push(u8::from(matches!(request, RequestKey::Workload(_))));
    let mut name = |out: &mut Vec<u8>, name: &str| {
        put_var(out, u64::from(id(name)?));
        Some(())
    };
    for member in request.members() {
        let (tag, measures) = match &member.agg {
            Agg::Count => (0, [None, None]),
            Agg::Sum(measure) => (1, [Some(measure), None]),
            Agg::SumDiff(a, b) => (2, [Some(a), Some(b)]),
        };
        out.push(tag);
        for measure in measures.into_iter().flatten() {
            name(out, measure)?;
        }
        out.push(u8::from(member.unsatisfiable));
        put_var(out, member.predicates.len() as u64);
        for predicate in &member.predicates {
            name(out, &predicate.table)?;
            name(out, &predicate.attr)?;
            put_constraint(out, &predicate.constraint);
        }
        put_var(out, member.group_by.len() as u64);
        for attr in &member.group_by {
            name(out, &attr.table)?;
            name(out, &attr.attr)?;
        }
    }
    Some(())
}

fn put_constraint(out: &mut Vec<u8>, constraint: &Constraint) {
    match constraint {
        Constraint::Point(v) => {
            out.push(0);
            put_var(out, u64::from(*v));
        }
        Constraint::Range { lo, hi } => {
            out.push(1);
            put_var(out, u64::from(*lo));
            put_var(out, u64::from(*hi));
        }
        Constraint::Set(codes) => {
            out.push(2);
            put_codes(out, codes);
        }
    }
}

/// `codes`, count-prefixed.
fn put_codes(out: &mut Vec<u8>, codes: &[u32]) {
    put_var(out, codes.len() as u64);
    codes.iter().for_each(|c| put_var(out, u64::from(*c)));
}

/// Writes what a hit replays: per PM member its tag, label, noisy
/// constraints and result; for WD the values.
fn encode_release(out: &mut Vec<u8>, members: &[CanonicalQuery], answer: &Answer) {
    let released: &[ServiceAnswer] = match answer {
        Answer::Pm(answer) => std::slice::from_ref(answer),
        Answer::PmBatch(batch) => &batch.answers,
        Answer::Wd(workload) => {
            put_var(out, workload.answers.len() as u64);
            workload.answers.iter().for_each(|v| put_f64(out, *v));
            return;
        }
    };
    debug_assert_eq!(released.len(), members.len(), "one release per canonical member");
    for (member, canon) in released.iter().zip(members) {
        out.push(u8::from(member.noisy_query.is_some()));
        put_str(out, &member.name);
        if let Some(noisy) = &member.noisy_query {
            // A hit rebuilds all but the constraints from `canon`.
            debug_assert_eq!(noisy.predicates.len(), canon.predicates.len());
            noisy.predicates.iter().for_each(|p| put_constraint(out, &p.constraint));
        }
        match &member.result {
            QueryResult::Scalar(v) => {
                out.push(0);
                put_f64(out, *v);
            }
            QueryResult::Groups(groups) => {
                out.push(1);
                put_var(out, groups.len() as u64);
                for (codes, v) in groups {
                    put_codes(out, codes);
                    put_f64(out, *v);
                }
            }
        }
    }
}

/// A cursor over bytes this module wrote: the bytes not yet read.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn byte(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn var(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn len(&mut self) -> usize {
        self.var() as usize
    }

    fn code(&mut self) -> u32 {
        self.var() as u32
    }

    fn codes(&mut self) -> Vec<u32> {
        (0..self.len()).map(|_| self.code()).collect()
    }

    fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn str(&mut self) -> &'a str {
        let len = self.len();
        std::str::from_utf8(self.take(len)).expect("stored from a str")
    }

    fn constraint(&mut self) -> Constraint {
        match self.byte() {
            0 => Constraint::Point(self.code()),
            1 => Constraint::Range { lo: self.code(), hi: self.code() },
            _ => Constraint::Set(self.codes()),
        }
    }

    fn result(&mut self) -> QueryResult {
        if self.byte() == 0 {
            return QueryResult::Scalar(self.f64());
        }
        QueryResult::Groups((0..self.len()).map(|_| (self.codes(), self.f64())).collect())
    }

    /// One PM member's release, its noisy query rebuilt from `canon`.
    fn member(&mut self, canon: &CanonicalQuery) -> ServiceAnswer {
        let paid = self.byte() == 1;
        let name = self.str().to_string();
        let noisy_query = paid.then(|| {
            let mut noisy = canon.to_query(name.as_str());
            noisy.predicates.iter_mut().for_each(|p| p.constraint = self.constraint());
            noisy
        });
        let result = self.result();
        ServiceAnswer { name, result, noisy_query, cached: true, cost: None }
    }
}

/// Rebuilds the stored release as a replay: flagged cached, charging
/// nothing.
fn decode_release(mechanism: Mechanism, members: &[CanonicalQuery], bytes: &[u8]) -> Answer {
    let mut r = Reader(bytes);
    if mechanism == Mechanism::Wd {
        let answers = (0..r.len()).map(|_| r.f64()).collect();
        return Answer::Wd(WorkloadAnswer { answers, cached: true, cost: None });
    }
    let mut answers: Vec<ServiceAnswer> = members.iter().map(|canon| r.member(canon)).collect();
    match mechanism {
        Mechanism::Pm => Answer::Pm(answers.pop().expect("a single PM request has one member")),
        _ => Answer::PmBatch(BatchAnswer { answers, cached: true, cost: None }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::{canonicalize, GroupAttr, Predicate, QueryResult, StarQuery};
    use std::collections::BTreeMap;

    fn canon(q: &StarQuery) -> RequestKey {
        RequestKey::Single(canonicalize(q))
    }

    fn answer(v: f64) -> Answer {
        Answer::Pm(ServiceAnswer {
            name: "q".into(),
            result: QueryResult::Scalar(v),
            noisy_query: None,
            cached: false,
            cost: None,
        })
    }

    fn scalar(hit: Option<Answer>) -> f64 {
        hit.expect("hit").into_pm().result.scalar().unwrap()
    }

    /// The key bytes of `(tenant, mechanism, request)` against one shared
    /// name table, as an insert would write them.
    fn key_bytes(
        names: &mut HashMap<String, u32>,
        tenant: &str,
        mechanism: Mechanism,
        request: &RequestKey,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        let mut id = |name: &str| {
            let next = names.len() as u32;
            Some(*names.entry(name.to_string()).or_insert(next))
        };
        encode_key(&mut out, &mut id, tenant, mechanism, 1.0, 0, request).unwrap();
        out
    }

    #[test]
    fn hit_requires_exact_tenant_mechanism_and_epsilon() {
        let cache = AnswerCache::with_capacity(DEFAULT_CACHE_CAPACITY);
        let q = StarQuery::count("q").with(Predicate::point("A", "x", 1));
        let key = canon(&q);
        cache.insert("alice", Mechanism::Pm, 0.5, 0, &key, &answer(42.0));

        assert_eq!(scalar(cache.get("alice", Mechanism::Pm, 0.5, 0, &key)), 42.0);
        assert!(cache.get("bob", Mechanism::Pm, 0.5, 0, &key).is_none(), "tenant isolation");
        assert!(cache.get("alice", Mechanism::Wd, 0.5, 0, &key).is_none(), "mechanism");
        assert!(cache.get("alice", Mechanism::Pm, 0.25, 0, &key).is_none(), "epsilon");
    }

    #[test]
    fn presentation_equivalent_queries_share_an_entry() {
        let cache = AnswerCache::with_capacity(DEFAULT_CACHE_CAPACITY);
        let a = StarQuery::count("first")
            .with(Predicate::point("B", "y", 2))
            .with(Predicate::range("A", "x", 3, 3));
        let b = StarQuery::count("second")
            .with(Predicate::point("A", "x", 3))
            .with(Predicate::point("B", "y", 2));
        cache.insert("t", Mechanism::Pm, 1.0, 0, &canon(&a), &answer(7.0));
        assert_eq!(scalar(cache.get("t", Mechanism::Pm, 1.0, 0, &canon(&b))), 7.0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_the_cache_fifo() {
        let cache = AnswerCache::with_capacity(2);
        let q = |i| canon(&StarQuery::count("q").with(Predicate::point("A", "x", i)));
        for i in 0..3u32 {
            cache.insert("t", Mechanism::Pm, 1.0, 0, &q(i), &answer(f64::from(i)));
        }
        assert_eq!(cache.len(), 2, "capacity must hold");
        assert!(cache.get("t", Mechanism::Pm, 1.0, 0, &q(0)).is_none(), "oldest goes first");
        assert!(cache.get("t", Mechanism::Pm, 1.0, 0, &q(2)).is_some());
        // Re-inserting a stored key keeps the first release and its slot.
        cache.insert("t", Mechanism::Pm, 1.0, 0, &q(1), &answer(9.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(scalar(cache.get("t", Mechanism::Pm, 1.0, 0, &q(1))), 1.0);
        cache.insert("t", Mechanism::Pm, 1.0, 0, &q(3), &answer(3.0));
        assert!(cache.get("t", Mechanism::Pm, 1.0, 0, &q(1)).is_none(), "slot was not renewed");
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = AnswerCache::with_capacity(0);
        let q = StarQuery::count("q").with(Predicate::point("A", "x", 1));
        cache.insert("t", Mechanism::Pm, 1.0, 0, &canon(&q), &answer(1.0));
        assert!(cache.is_empty());
        assert!(cache.get("t", Mechanism::Pm, 1.0, 0, &canon(&q)).is_none());
    }

    #[test]
    fn versions_are_isolated() {
        let cache = AnswerCache::with_capacity(DEFAULT_CACHE_CAPACITY);
        let q = StarQuery::count("q").with(Predicate::point("A", "x", 1));
        cache.insert("t", Mechanism::Pm, 1.0, 0, &canon(&q), &answer(1.0));
        assert!(cache.get("t", Mechanism::Pm, 1.0, 0, &canon(&q)).is_some());
        assert!(
            cache.get("t", Mechanism::Pm, 1.0, 1, &canon(&q)).is_none(),
            "a pre-refresh answer must not replay against refreshed data"
        );
        // A late insert under the old version stays unreachable at the new.
        cache.insert("t", Mechanism::Pm, 1.0, 0, &canon(&q), &answer(2.0));
        assert!(cache.get("t", Mechanism::Pm, 1.0, 1, &canon(&q)).is_none());
    }

    #[test]
    fn clear_empties() {
        let cache = AnswerCache::with_capacity(DEFAULT_CACHE_CAPACITY);
        let key = RequestKey::Workload(Vec::new());
        let empty = Answer::Wd(WorkloadAnswer { answers: vec![], cached: false, cost: None });
        cache.insert("t", Mechanism::Wd, 1.0, 0, &key, &empty);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn key_encoding_is_injective() {
        let mut names = HashMap::new();
        let mut key = |tenant: &str, mechanism, request: &RequestKey| {
            key_bytes(&mut names, tenant, mechanism, request)
        };
        let single = |q: StarQuery| canon(&q);
        let raw = |constraint| {
            RequestKey::Single(CanonicalQuery {
                agg: Agg::Count,
                predicates: vec![Predicate { table: "A".into(), attr: "x".into(), constraint }],
                group_by: Vec::new(),
                unsatisfiable: false,
            })
        };
        let range = |lo, hi| Constraint::Range { lo, hi };
        let pm = Mechanism::Pm;
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            // Table / attribute boundaries: ("ab", "c") vs ("a", "bc").
            (
                key("t", pm, &single(StarQuery::count("q").with(Predicate::point("ab", "c", 1)))),
                key("t", pm, &single(StarQuery::count("q").with(Predicate::point("a", "bc", 1)))),
            ),
            // Tenant vs first table: the tenant's bytes cannot run on
            // into the request.
            (
                key("tA", pm, &single(StarQuery::count("q").with(Predicate::point("x", "y", 1)))),
                key("t", pm, &single(StarQuery::count("q").with(Predicate::point("Ax", "y", 1)))),
            ),
            // Range vs Set vs Point over the same codes (canonicalization
            // would merge some of these, so the forms are built raw).
            (key("t", pm, &raw(range(1, 2))), key("t", pm, &raw(Constraint::Set(vec![1, 2])))),
            (key("t", pm, &raw(range(4, 4))), key("t", pm, &raw(Constraint::Point(4)))),
            (
                key("t", pm, &raw(Constraint::Set(vec![4]))),
                key("t", pm, &raw(Constraint::Point(4))),
            ),
            // Sum vs SumDiff over the same measure.
            (
                key("t", pm, &single(StarQuery::sum("q", "m"))),
                key("t", pm, &single(StarQuery::sum_diff("q", "m", "m"))),
            ),
            // With and without GROUP BY.
            (
                key("t", pm, &single(StarQuery::count("q").with(Predicate::point("A", "x", 1)))),
                key(
                    "t",
                    pm,
                    &single(
                        StarQuery::count("q")
                            .with(Predicate::point("A", "x", 1))
                            .group_by(GroupAttr::new("A", "x")),
                    ),
                ),
            ),
            // A single query vs a one-member batch.
            (
                key("t", pm, &single(StarQuery::count("q"))),
                key(
                    "t",
                    Mechanism::PmBatch,
                    &RequestKey::Workload(vec![canonicalize(&StarQuery::count("q"))]),
                ),
            ),
        ];
        for (i, (a, b)) in pairs.iter().enumerate() {
            assert_ne!(a, b, "pair {i} collided");
        }
    }

    #[test]
    fn pm_replay_round_trips_the_first_release() {
        let cache = AnswerCache::with_capacity(DEFAULT_CACHE_CAPACITY);
        let q = StarQuery::count("orig").with(Predicate::range("A", "x", 2, 5));
        let key = canon(&q);
        let mut noisy = canonicalize(&q).to_query("orig");
        noisy.predicates[0].constraint = Constraint::Range { lo: 1, hi: 7 };
        let released = ServiceAnswer {
            name: "orig".into(),
            result: QueryResult::Scalar(-3.25),
            noisy_query: Some(noisy.clone()),
            cached: false,
            cost: None,
        };
        cache.insert("t", Mechanism::Pm, 0.5, 3, &key, &Answer::Pm(released));
        let hit = cache.get("t", Mechanism::Pm, 0.5, 3, &key).unwrap().into_pm();
        assert_eq!(hit.name, "orig");
        assert_eq!(hit.noisy_query, Some(noisy), "noisy query replays `==`, label included");
        assert_eq!(hit.result, QueryResult::Scalar(-3.25));
        assert!(hit.cached && hit.cost.is_none());
    }

    #[test]
    fn batch_replay_round_trips_free_members_and_groups() {
        let cache = AnswerCache::with_capacity(DEFAULT_CACHE_CAPACITY);
        let grouped = StarQuery::sum("g", "m")
            .with(Predicate::set("A", "x", vec![1, 4, 300]))
            .group_by(GroupAttr::new("A", "x"))
            .group_by(GroupAttr::new("B", "y"));
        let free = StarQuery::count("f")
            .with(Predicate::point("A", "x", 1))
            .with(Predicate::point("A", "x", 2));
        let queries = [grouped.clone(), free.clone()];
        let key = RequestKey::Workload(queries.iter().map(canonicalize).collect());
        let mut noisy = canonicalize(&grouped).to_query("g");
        noisy.predicates[0].constraint = Constraint::Set(vec![0, 4, 70_000]);
        let groups: BTreeMap<Vec<u32>, f64> =
            [(vec![1, 2], 10.5), (vec![300, 0], -1.0)].into_iter().collect();
        let released = Answer::PmBatch(BatchAnswer {
            answers: vec![
                ServiceAnswer {
                    name: "g".into(),
                    result: QueryResult::Groups(groups.clone()),
                    noisy_query: Some(noisy.clone()),
                    cached: false,
                    cost: None,
                },
                ServiceAnswer {
                    name: "f".into(),
                    result: QueryResult::Scalar(0.0),
                    noisy_query: None,
                    cached: false,
                    cost: None,
                },
            ],
            cached: false,
            cost: None,
        });
        cache.insert("t", Mechanism::PmBatch, 1.0, 0, &key, &released);
        let hit = cache.get("t", Mechanism::PmBatch, 1.0, 0, &key).unwrap().into_batch();
        assert!(hit.cached && hit.cost.is_none());
        assert_eq!(hit.answers.len(), 2);
        assert_eq!(hit.answers[0].noisy_query, Some(noisy));
        assert_eq!(hit.answers[0].result, QueryResult::Groups(groups));
        assert_eq!(hit.answers[1].name, "f");
        assert_eq!(hit.answers[1].noisy_query, None, "a free member stays free");
        assert_eq!(hit.answers[1].result, QueryResult::Scalar(0.0));
    }

    #[test]
    fn wd_replay_round_trips_the_values() {
        let cache = AnswerCache::with_capacity(DEFAULT_CACHE_CAPACITY);
        let members = vec![
            canonicalize(&StarQuery::count("a").with(Predicate::point("A", "x", 1))),
            canonicalize(&StarQuery::count("b").with(Predicate::point("A", "x", 2))),
        ];
        let key = RequestKey::Workload(members);
        let values = vec![1.5, -0.0, f64::MAX];
        let released =
            Answer::Wd(WorkloadAnswer { answers: values.clone(), cached: false, cost: None });
        cache.insert("t", Mechanism::Wd, 1.0, 0, &key, &released);
        let hit = cache.get("t", Mechanism::Wd, 1.0, 0, &key).unwrap().into_wd();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&hit.answers), bits(&values));
        assert!(hit.cached && hit.cost.is_none());
    }
}
