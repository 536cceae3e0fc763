//! Deterministic query normalization — the identity the answer cache keys on.
//!
//! Two star-join queries that differ only in presentation (label, predicate
//! order, `[v, v]` ranges vs. points, unsorted IN-sets, repeated constraints
//! on one attribute) compute the same aggregate, so a DP answer served for
//! one can be replayed for the other at **zero additional privacy budget**.
//! [`canonicalize`] maps every query to a [`CanonicalQuery`] normal form such
//! that presentation-equivalent queries produce identical (`Eq`/`Hash`-equal)
//! values:
//!
//! * the query label is dropped — it never affects the answer;
//! * all constraints on one `(table, attribute)` pair are **intersected**
//!   (the WHERE clause is a conjunction) into a single constraint;
//! * constraint shapes are collapsed: a degenerate range `[v, v]` becomes
//!   `Point(v)`, an IN-set is sorted and deduplicated, a one-element set
//!   becomes a point, a set of consecutive codes becomes a range;
//! * predicates are sorted by `(table, attribute, constraint)`;
//! * GROUP BY attributes are sorted and deduplicated — the engine returns a
//!   `BTreeMap` keyed in `group_by` order, so reordering changes key layout
//!   but never the histogram; callers that cache grouped answers get the
//!   canonical attribute order.
//!
//! An intersection can come up **empty** (`a = 1 AND a = 2`): the query is
//! then unsatisfiable *for every database instance*, which the normal form
//! records in [`CanonicalQuery::unsatisfiable`] rather than manufacturing an
//! unrepresentable empty constraint. Because that fact is derived from the
//! query alone — never from the data — a service may answer such queries
//! with an exact empty result without touching the privacy budget.

use crate::predicate::{Constraint, Predicate};
use crate::query::{Agg, GroupAttr, StarQuery};
use std::collections::BTreeMap;

/// The normal form of a [`StarQuery`]: label-free, order-insensitive, with
/// per-attribute constraints intersected and collapsed. Use this as the
/// cache/deduplication key for query answers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalQuery {
    /// The aggregate (unchanged by normalization).
    pub agg: Agg,
    /// Sorted predicates, at most one per `(table, attribute)` pair. Empty
    /// when `unsatisfiable` is set.
    pub predicates: Vec<Predicate>,
    /// Sorted, deduplicated grouping attributes.
    pub group_by: Vec<GroupAttr>,
    /// True iff some attribute's constraints intersect to the empty set, so
    /// the query returns an empty result on **every** database instance.
    pub unsatisfiable: bool,
}

impl CanonicalQuery {
    /// Rebuilds an executable [`StarQuery`] carrying `name` as its label.
    /// For an unsatisfiable canonical form there is no constraint encoding
    /// the empty set, so callers should short-circuit instead of executing.
    pub fn to_query(&self, name: impl Into<String>) -> StarQuery {
        StarQuery {
            name: name.into(),
            agg: self.agg.clone(),
            predicates: self.predicates.clone(),
            group_by: self.group_by.clone(),
        }
    }
}

/// The explicit, finite code set of a constraint intersection in progress.
/// Ranges stay symbolic (`Span`) until a set forces enumeration, so huge
/// ranges never materialize.
enum Acc {
    /// Contiguous `[lo, hi]`.
    Span(u32, u32),
    /// Sorted, deduplicated explicit codes.
    Codes(Vec<u32>),
}

impl Acc {
    /// `None` means the constraint matches nothing on its own — an empty
    /// IN-set or an inverted range (`lo > hi`). Such constraints are
    /// rejected by domain validation, but canonicalization must stay total
    /// over every representable query.
    fn from_constraint(c: &Constraint) -> Option<Acc> {
        match c {
            Constraint::Point(v) => Some(Acc::Span(*v, *v)),
            Constraint::Range { lo, hi } => (lo <= hi).then_some(Acc::Span(*lo, *hi)),
            Constraint::Set(vs) => {
                let mut sorted = vs.clone();
                sorted.sort_unstable();
                sorted.dedup();
                (!sorted.is_empty()).then_some(Acc::Codes(sorted))
            }
        }
    }

    /// Intersects with one more constraint; `None` means provably empty.
    fn intersect(self, c: &Constraint) -> Option<Acc> {
        match (self, Acc::from_constraint(c)?) {
            (Acc::Span(a, b), Acc::Span(c, d)) => {
                let (lo, hi) = (a.max(c), b.min(d));
                (lo <= hi).then_some(Acc::Span(lo, hi))
            }
            (Acc::Span(a, b), Acc::Codes(vs)) | (Acc::Codes(vs), Acc::Span(a, b)) => {
                let kept: Vec<u32> = vs.into_iter().filter(|v| (a..=b).contains(v)).collect();
                (!kept.is_empty()).then_some(Acc::Codes(kept))
            }
            (Acc::Codes(xs), Acc::Codes(ys)) => {
                // Both sides sorted — linear merge intersection.
                let mut kept = Vec::with_capacity(xs.len().min(ys.len()));
                let (mut i, mut j) = (0, 0);
                while i < xs.len() && j < ys.len() {
                    match xs[i].cmp(&ys[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            kept.push(xs[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                (!kept.is_empty()).then_some(Acc::Codes(kept))
            }
        }
    }

    /// The most compact constraint shape for the accumulated set.
    fn collapse(self) -> Constraint {
        match self {
            Acc::Span(lo, hi) if lo == hi => Constraint::Point(lo),
            Acc::Span(lo, hi) => Constraint::Range { lo, hi },
            Acc::Codes(vs) => {
                debug_assert!(!vs.is_empty(), "empty intersections are None");
                if vs.len() == 1 {
                    return Constraint::Point(vs[0]);
                }
                let consecutive = vs.windows(2).all(|w| w[1] == w[0] + 1);
                if consecutive {
                    Constraint::Range { lo: vs[0], hi: *vs.last().expect("non-empty") }
                } else {
                    Constraint::Set(vs)
                }
            }
        }
    }
}

/// Normalizes a query to its [`CanonicalQuery`] form. Deterministic: the
/// output depends only on the input query, never on hash-map iteration
/// order or any ambient state.
pub fn canonicalize(query: &StarQuery) -> CanonicalQuery {
    // Group constraints by (table, attr); BTreeMap gives the sorted order
    // the canonical predicate list needs.
    let mut by_attr: BTreeMap<(String, String), Option<Acc>> = BTreeMap::new();
    for p in &query.predicates {
        let slot = by_attr.entry((p.table.clone(), p.attr.clone())).or_insert(None);
        *slot = match slot.take() {
            None => Acc::from_constraint(&p.constraint),
            Some(acc) => acc.intersect(&p.constraint),
        };
        if slot.is_none() {
            // Empty intersection: the whole conjunction is unsatisfiable.
            return CanonicalQuery {
                agg: query.agg.clone(),
                predicates: Vec::new(),
                group_by: sorted_group_by(query),
                unsatisfiable: true,
            };
        }
    }

    let predicates = by_attr
        .into_iter()
        .map(|((table, attr), acc)| Predicate {
            table,
            attr,
            constraint: acc.expect("empty intersections returned early").collapse(),
        })
        .collect();

    CanonicalQuery {
        agg: query.agg.clone(),
        predicates,
        group_by: sorted_group_by(query),
        unsatisfiable: false,
    }
}

fn sorted_group_by(query: &StarQuery) -> Vec<GroupAttr> {
    let mut gs = query.group_by.clone();
    gs.sort();
    gs.dedup();
    gs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn key_of(c: &CanonicalQuery) -> u64 {
        let mut h = DefaultHasher::new();
        c.hash(&mut h);
        h.finish()
    }

    #[test]
    fn label_and_order_do_not_matter() {
        let a = StarQuery::count("first")
            .with(Predicate::point("B", "y", 2))
            .with(Predicate::range("A", "x", 0, 3));
        let b = StarQuery::count("second")
            .with(Predicate::range("A", "x", 0, 3))
            .with(Predicate::point("B", "y", 2));
        let (ca, cb) = (canonicalize(&a), canonicalize(&b));
        assert_eq!(ca, cb);
        assert_eq!(key_of(&ca), key_of(&cb));
    }

    #[test]
    fn degenerate_range_collapses_to_point() {
        let range = StarQuery::count("q").with(Predicate::range("A", "x", 5, 5));
        let point = StarQuery::count("q").with(Predicate::point("A", "x", 5));
        assert_eq!(canonicalize(&range), canonicalize(&point));
        assert_eq!(canonicalize(&range).predicates[0].constraint, Constraint::Point(5));
    }

    #[test]
    fn sets_sort_dedup_and_collapse() {
        let messy = StarQuery::count("q").with(Predicate::set("A", "x", vec![3, 1, 2, 3]));
        let c = canonicalize(&messy);
        // {1,2,3} is consecutive → a range.
        assert_eq!(c.predicates[0].constraint, Constraint::Range { lo: 1, hi: 3 });
        let single = StarQuery::count("q").with(Predicate::set("A", "x", vec![7, 7]));
        assert_eq!(canonicalize(&single).predicates[0].constraint, Constraint::Point(7));
        let sparse = StarQuery::count("q").with(Predicate::set("A", "x", vec![9, 1, 4]));
        assert_eq!(canonicalize(&sparse).predicates[0].constraint, Constraint::Set(vec![1, 4, 9]));
    }

    #[test]
    fn same_attr_constraints_intersect() {
        let q = StarQuery::count("q")
            .with(Predicate::range("A", "x", 0, 10))
            .with(Predicate::range("A", "x", 5, 20));
        let c = canonicalize(&q);
        assert_eq!(c.predicates.len(), 1);
        assert_eq!(c.predicates[0].constraint, Constraint::Range { lo: 5, hi: 10 });
        assert!(!c.unsatisfiable);

        let mixed = StarQuery::count("q")
            .with(Predicate::set("A", "x", vec![2, 4, 8]))
            .with(Predicate::range("A", "x", 3, 9));
        assert_eq!(canonicalize(&mixed).predicates[0].constraint, Constraint::Set(vec![4, 8]));
    }

    #[test]
    fn degenerate_single_constraints_are_unsatisfiable_not_panics() {
        // An empty IN-set matches nothing; canonicalization must stay total
        // even though domain validation would reject the query upstream.
        let empty_set = StarQuery::count("q").with(Predicate::set("A", "x", vec![]));
        let c = canonicalize(&empty_set);
        assert!(c.unsatisfiable);
        assert!(c.predicates.is_empty());
        // An inverted range also matches nothing.
        let inverted = StarQuery::count("q").with(Predicate::range("A", "x", 5, 2));
        assert!(canonicalize(&inverted).unsatisfiable);
        // Both canonicalize equal to a point-contradiction query: all three
        // return the empty result on every instance.
        let contradiction = StarQuery::count("q")
            .with(Predicate::point("A", "x", 1))
            .with(Predicate::point("A", "x", 2));
        assert_eq!(canonicalize(&inverted), canonicalize(&contradiction));
    }

    #[test]
    fn contradiction_is_unsatisfiable() {
        let q = StarQuery::count("q")
            .with(Predicate::point("A", "x", 1))
            .with(Predicate::point("A", "x", 2));
        let c = canonicalize(&q);
        assert!(c.unsatisfiable);
        assert!(c.predicates.is_empty());
        // Disjoint sets, too.
        let q2 = StarQuery::count("q")
            .with(Predicate::set("A", "x", vec![1, 3]))
            .with(Predicate::set("A", "x", vec![2, 4]));
        assert!(canonicalize(&q2).unsatisfiable);
    }

    #[test]
    fn different_attrs_stay_separate() {
        let q = StarQuery::count("q")
            .with(Predicate::point("A", "x", 1))
            .with(Predicate::point("A", "y", 2));
        let c = canonicalize(&q);
        assert_eq!(c.predicates.len(), 2);
        assert!(!c.unsatisfiable);
    }

    #[test]
    fn group_by_sorts_and_dedups() {
        let a = StarQuery::count("q")
            .group_by(GroupAttr::new("D", "year"))
            .group_by(GroupAttr::new("C", "nation"))
            .group_by(GroupAttr::new("D", "year"));
        let b = StarQuery::count("q")
            .group_by(GroupAttr::new("C", "nation"))
            .group_by(GroupAttr::new("D", "year"));
        assert_eq!(canonicalize(&a), canonicalize(&b));
        assert_eq!(canonicalize(&a).group_by.len(), 2);
    }

    #[test]
    fn distinct_queries_stay_distinct() {
        let a = StarQuery::count("q").with(Predicate::point("A", "x", 1));
        let b = StarQuery::count("q").with(Predicate::point("A", "x", 2));
        assert_ne!(canonicalize(&a), canonicalize(&b));
        let s = StarQuery::sum("q", "qty").with(Predicate::point("A", "x", 1));
        assert_ne!(canonicalize(&a), canonicalize(&s));
    }

    #[test]
    fn to_query_round_trips_semantics() {
        let q = StarQuery::count("orig")
            .with(Predicate::range("A", "x", 2, 2))
            .with(Predicate::point("B", "y", 0));
        let c = canonicalize(&q);
        let rebuilt = c.to_query("rebuilt");
        assert_eq!(rebuilt.name, "rebuilt");
        assert_eq!(canonicalize(&rebuilt), c, "canonicalization is idempotent");
    }
}
