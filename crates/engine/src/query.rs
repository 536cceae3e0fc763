//! Star-join query representation.
//!
//! Mirrors the paper's query template `SELECT Aggr(*) FROM R WHERE Φ
//! [GROUP BY g…]`: an aggregate over the fact table, a conjunction of
//! dimension predicates, and optional grouping attributes.

use crate::predicate::Predicate;
use std::collections::BTreeMap;

/// The aggregate function over the fact table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Agg {
    /// `COUNT(*)` — every joined tuple weighs 1.
    Count,
    /// `SUM(measure)` — tuple weight is the named fact measure.
    Sum(String),
    /// `SUM(a − b)` — e.g. `Qg4`'s `revenue − supplycost`.
    SumDiff(String, String),
}

impl Agg {
    /// True for COUNT.
    pub fn is_count(&self) -> bool {
        matches!(self, Agg::Count)
    }
}

/// A grouping attribute `table.attr` (e.g. `Date.year`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupAttr {
    /// Dimension table name.
    pub table: String,
    /// Attribute column name.
    pub attr: String,
}

impl GroupAttr {
    /// Builds a grouping attribute.
    pub fn new(table: impl Into<String>, attr: impl Into<String>) -> Self {
        GroupAttr { table: table.into(), attr: attr.into() }
    }
}

/// A star-join query: aggregate + predicate conjunction + optional grouping.
///
/// `Eq`/`Hash` cover every field **including the label `name`**, so two
/// semantically identical queries with different labels compare unequal.
/// Callers that want label-free, order-insensitive identity (e.g. answer
/// caches) should key on [`crate::canon::CanonicalQuery`] instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StarQuery {
    /// Query label (e.g. `Qc2`), used in reports.
    pub name: String,
    /// Aggregate over the fact table.
    pub agg: Agg,
    /// Conjunction of dimension-attribute predicates.
    pub predicates: Vec<Predicate>,
    /// GROUP BY attributes (empty for plain aggregates).
    pub group_by: Vec<GroupAttr>,
}

impl StarQuery {
    /// A COUNT(*) query with no predicates yet.
    pub fn count(name: impl Into<String>) -> Self {
        StarQuery { name: name.into(), agg: Agg::Count, predicates: vec![], group_by: vec![] }
    }

    /// A SUM(measure) query with no predicates yet.
    pub fn sum(name: impl Into<String>, measure: impl Into<String>) -> Self {
        StarQuery {
            name: name.into(),
            agg: Agg::Sum(measure.into()),
            predicates: vec![],
            group_by: vec![],
        }
    }

    /// A SUM(a − b) query with no predicates yet.
    pub fn sum_diff(name: impl Into<String>, a: impl Into<String>, b: impl Into<String>) -> Self {
        StarQuery {
            name: name.into(),
            agg: Agg::SumDiff(a.into(), b.into()),
            predicates: vec![],
            group_by: vec![],
        }
    }

    /// Adds a predicate (builder style).
    pub fn with(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Adds a grouping attribute (builder style).
    pub fn group_by(mut self, group: GroupAttr) -> Self {
        self.group_by.push(group);
        self
    }

    /// The distinct tables carrying predicates, in first-appearance order —
    /// the paper's `n` for the `ε_i = ε/n` budget split.
    pub fn predicate_tables(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for p in &self.predicates {
            if !seen.contains(&p.table.as_str()) {
                seen.push(p.table.as_str());
            }
        }
        seen
    }

    /// True iff the query has a GROUP BY clause.
    pub fn is_grouped(&self) -> bool {
        !self.group_by.is_empty()
    }
}

/// A query answer: a scalar aggregate or a group map keyed by the group-by
/// attribute codes (in `group_by` order). `BTreeMap` keeps group iteration
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Single aggregate value.
    Scalar(f64),
    /// Per-group aggregate values.
    Groups(BTreeMap<Vec<u32>, f64>),
}

impl QueryResult {
    /// The scalar value; errors on grouped results.
    pub fn scalar(&self) -> Result<f64, crate::error::EngineError> {
        match self {
            QueryResult::Scalar(v) => Ok(*v),
            QueryResult::Groups(_) => Err(crate::error::EngineError::WrongResultShape("scalar")),
        }
    }

    /// The group map; errors on scalar results.
    pub fn groups(&self) -> Result<&BTreeMap<Vec<u32>, f64>, crate::error::EngineError> {
        match self {
            QueryResult::Groups(g) => Ok(g),
            QueryResult::Scalar(_) => Err(crate::error::EngineError::WrongResultShape("groups")),
        }
    }

    /// Positional relative error: for grouped results, both group-value
    /// vectors are sorted descending and compared slot-by-slot (shorter one
    /// zero-padded), measuring the accuracy of the group *histogram* rather
    /// than key alignment. This is the forgiving metric the paper's GROUP BY
    /// numbers imply (Qg2 ≈ Qs2 errors despite predicate shifts relabelling
    /// groups); scalars fall back to [`QueryResult::relative_error`].
    pub fn positional_relative_error(&self, truth: &QueryResult) -> f64 {
        match (self, truth) {
            (QueryResult::Groups(est), QueryResult::Groups(t)) => {
                let mut a: Vec<f64> = est.values().copied().collect();
                let mut b: Vec<f64> = t.values().copied().collect();
                a.sort_by(|x, y| y.partial_cmp(x).expect("finite group values"));
                b.sort_by(|x, y| y.partial_cmp(x).expect("finite group values"));
                let len = a.len().max(b.len());
                a.resize(len, 0.0);
                b.resize(len, 0.0);
                let num: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
                let den: f64 = b.iter().map(|y| y.abs()).sum();
                num / den.max(1.0)
            }
            _ => self.relative_error(truth),
        }
    }

    /// Relative L1 error against a reference result.
    ///
    /// Scalars: `|x̂ − x| / max(|x|, 1)`. Groups: `Σ_g |x̂_g − x_g| / Σ_g
    /// |x_g|` over the union of group keys (a group missing on either side
    /// counts with value 0) — interpretation #8 in the README's
    /// "Interpretations and substitutions".
    pub fn relative_error(&self, truth: &QueryResult) -> f64 {
        match (self, truth) {
            (QueryResult::Scalar(est), QueryResult::Scalar(t)) => {
                (est - t).abs() / t.abs().max(1.0)
            }
            (QueryResult::Groups(est), QueryResult::Groups(t)) => {
                let mut num = 0.0;
                let mut den = 0.0;
                for (k, v) in t {
                    num += (est.get(k).copied().unwrap_or(0.0) - v).abs();
                    den += v.abs();
                }
                for (k, v) in est {
                    if !t.contains_key(k) {
                        num += v.abs();
                    }
                }
                num / den.max(1.0)
            }
            // Shape mismatch: treat as total error.
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let q = StarQuery::count("q")
            .with(Predicate::point("A", "x", 1))
            .with(Predicate::range("B", "y", 0, 2))
            .with(Predicate::point("A", "z", 0))
            .group_by(GroupAttr::new("A", "x"));
        assert_eq!(q.predicates.len(), 3);
        assert_eq!(q.predicate_tables(), vec!["A", "B"], "distinct, order-preserving");
        assert!(q.is_grouped());
        assert!(q.agg.is_count());
    }

    #[test]
    fn result_shape_accessors() {
        let s = QueryResult::Scalar(5.0);
        assert_eq!(s.scalar().unwrap(), 5.0);
        assert!(s.groups().is_err());
        let mut m = BTreeMap::new();
        m.insert(vec![1u32], 2.0);
        let g = QueryResult::Groups(m);
        assert!(g.scalar().is_err());
        assert_eq!(g.groups().unwrap().len(), 1);
    }

    #[test]
    fn scalar_relative_error() {
        let t = QueryResult::Scalar(100.0);
        let e = QueryResult::Scalar(110.0);
        assert!((e.relative_error(&t) - 0.1).abs() < 1e-12);
        // Zero truth guards against division by zero.
        let t0 = QueryResult::Scalar(0.0);
        let e0 = QueryResult::Scalar(3.0);
        assert!((e0.relative_error(&t0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn group_relative_error_handles_missing_groups() {
        let mut truth = BTreeMap::new();
        truth.insert(vec![0u32], 10.0);
        truth.insert(vec![1u32], 10.0);
        let mut est = BTreeMap::new();
        est.insert(vec![0u32], 12.0); // +2
        est.insert(vec![2u32], 3.0); // spurious group: +3
                                     // missing group [1]: +10
        let err = QueryResult::Groups(est).relative_error(&QueryResult::Groups(truth));
        assert!((err - 15.0 / 20.0).abs() < 1e-12, "got {err}");
    }

    #[test]
    fn shape_mismatch_is_infinite_error() {
        let s = QueryResult::Scalar(1.0);
        let g = QueryResult::Groups(BTreeMap::new());
        assert!(s.relative_error(&g).is_infinite());
    }

    #[test]
    fn positional_error_ignores_key_relabelling() {
        // Same histogram under different keys: positional error is 0, the
        // key-aligned metric sees total disagreement.
        let mut truth = BTreeMap::new();
        truth.insert(vec![0u32], 10.0);
        truth.insert(vec![1u32], 5.0);
        let mut est = BTreeMap::new();
        est.insert(vec![7u32], 5.0);
        est.insert(vec![9u32], 10.0);
        let t = QueryResult::Groups(truth);
        let e = QueryResult::Groups(est);
        assert_eq!(e.positional_relative_error(&t), 0.0);
        assert!(e.relative_error(&t) > 1.9);
    }

    #[test]
    fn positional_error_pads_missing_groups() {
        let mut truth = BTreeMap::new();
        truth.insert(vec![0u32], 10.0);
        truth.insert(vec![1u32], 10.0);
        let mut est = BTreeMap::new();
        est.insert(vec![0u32], 10.0);
        let t = QueryResult::Groups(truth);
        let e = QueryResult::Groups(est);
        assert!((e.positional_relative_error(&t) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn positional_error_on_scalars_delegates() {
        let t = QueryResult::Scalar(100.0);
        let e = QueryResult::Scalar(90.0);
        assert!((e.positional_relative_error(&t) - 0.1).abs() < 1e-12);
    }
}
