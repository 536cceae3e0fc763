//! Predicates over dimension attributes.
//!
//! A star-join query's WHERE clause is a conjunction `Φ = φ_{a_1} ∧ … ∧
//! φ_{a_n}` of per-dimension predicates (paper §3.1). Each `φ` is a point
//! constraint `a = v`, a range constraint `a ∈ [l, r]`, or (for queries like
//! `Qc4`'s `mfgr IN {…}`) a small set. The engine additionally supports
//! real-valued *weighted* predicates, the `Φ·W` generalization that Workload
//! Decomposition's reconstructed matrices produce.

use crate::domain::Domain;
use crate::error::EngineError;

/// A single-attribute constraint.
///
/// `Hash`/`Ord` make constraints usable as cache-key components and give
/// canonicalization ([`crate::canon`]) a total order to sort by.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Constraint {
    /// `a = v`.
    Point(u32),
    /// `a ∈ [lo, hi]`, inclusive on both ends.
    Range {
        /// Lower bound (inclusive).
        lo: u32,
        /// Upper bound (inclusive).
        hi: u32,
    },
    /// `a ∈ set` — used for IN-lists such as `mfgr ∈ {MFGR#1, MFGR#2}`.
    Set(Vec<u32>),
}

impl Constraint {
    /// True iff `code` satisfies the constraint.
    #[inline]
    pub fn matches(&self, code: u32) -> bool {
        match self {
            Constraint::Point(v) => code == *v,
            Constraint::Range { lo, hi } => code >= *lo && code <= *hi,
            Constraint::Set(vs) => vs.contains(&code),
        }
    }

    /// Validates the constraint against a domain.
    pub fn validate(&self, domain: &Domain) -> Result<(), EngineError> {
        self.validate_size(domain.name(), domain.size())
    }

    /// Validates the constraint against the domain `name` of codes
    /// `0..size`.
    pub fn validate_size(&self, name: &str, size: u32) -> Result<(), EngineError> {
        match self {
            Constraint::Point(v) => {
                if *v >= size {
                    return Err(EngineError::InvalidConstraint(format!(
                        "point {v} outside domain `{name}` of size {size}"
                    )));
                }
            }
            Constraint::Range { lo, hi } => {
                if lo > hi {
                    return Err(EngineError::InvalidConstraint(format!(
                        "range [{lo}, {hi}] has lo > hi"
                    )));
                }
                if *hi >= size {
                    return Err(EngineError::InvalidConstraint(format!(
                        "range end {hi} outside domain `{name}` of size {size}"
                    )));
                }
            }
            Constraint::Set(vs) => {
                if vs.is_empty() {
                    return Err(EngineError::InvalidConstraint("empty IN-set".into()));
                }
                if let Some(bad) = vs.iter().find(|&&v| v >= size) {
                    return Err(EngineError::InvalidConstraint(format!(
                        "set member {bad} outside domain `{name}` of size {size}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Fraction of the domain the constraint selects (uniform prior) —
    /// useful for tests and workload diagnostics.
    pub fn selectivity(&self, domain_size: u32) -> f64 {
        let hits = match self {
            Constraint::Point(_) => 1,
            Constraint::Range { lo, hi } => (hi - lo + 1) as usize,
            Constraint::Set(vs) => vs.len(),
        };
        hits as f64 / domain_size as f64
    }

    /// The 0/1 indicator vector of the constraint over `0..domain_size` — the
    /// one-hot encoding of §5.3.
    pub fn to_indicator(&self, domain_size: u32) -> Vec<f64> {
        (0..domain_size).map(|c| if self.matches(c) { 1.0 } else { 0.0 }).collect()
    }
}

/// A predicate bound to a table and attribute. `table` may name either a
/// dimension or (for snowflake queries) a sub-dimension table.
///
/// `Hash`/`Ord` make predicates usable as cache-key components and give
/// canonicalization ([`crate::canon`]) a total order to sort by.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Predicate {
    /// Table the attribute lives in.
    pub table: String,
    /// Attribute column name.
    pub attr: String,
    /// The constraint on the attribute.
    pub constraint: Constraint,
}

impl Predicate {
    /// Point predicate `table.attr = value`.
    pub fn point(table: impl Into<String>, attr: impl Into<String>, value: u32) -> Self {
        Predicate { table: table.into(), attr: attr.into(), constraint: Constraint::Point(value) }
    }

    /// Range predicate `table.attr ∈ [lo, hi]`.
    pub fn range(table: impl Into<String>, attr: impl Into<String>, lo: u32, hi: u32) -> Self {
        Predicate {
            table: table.into(),
            attr: attr.into(),
            constraint: Constraint::Range { lo, hi },
        }
    }

    /// Set predicate `table.attr ∈ values`.
    pub fn set(table: impl Into<String>, attr: impl Into<String>, values: Vec<u32>) -> Self {
        Predicate { table: table.into(), attr: attr.into(), constraint: Constraint::Set(values) }
    }
}

/// A real-valued predicate: one weight per domain code. The query value is
/// `Σ_t Π_i w_i(a_i(t)) · w(t)` (paper Eq. 11 with a real-valued `Φ`).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPredicate {
    /// Dimension table name (weighted predicates are star-only).
    pub table: String,
    /// Attribute column name.
    pub attr: String,
    /// One weight per domain code.
    pub weights: Vec<f64>,
}

impl WeightedPredicate {
    /// Builds a weighted predicate; the weight vector length must equal the
    /// attribute's domain size (checked at execution).
    pub fn new(table: impl Into<String>, attr: impl Into<String>, weights: Vec<f64>) -> Self {
        WeightedPredicate { table: table.into(), attr: attr.into(), weights }
    }

    /// The weight assigned to a code (0 outside the vector).
    #[inline]
    pub fn weight(&self, code: u32) -> f64 {
        self.weights.get(code as usize).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_semantics() {
        assert!(Constraint::Point(3).matches(3));
        assert!(!Constraint::Point(3).matches(4));
        let r = Constraint::Range { lo: 2, hi: 5 };
        assert!(r.matches(2) && r.matches(5) && !r.matches(1) && !r.matches(6));
        let s = Constraint::Set(vec![1, 4]);
        assert!(s.matches(1) && s.matches(4) && !s.matches(2));
    }

    #[test]
    fn validation_against_domain() {
        let d = Domain::numeric("x", 5).unwrap();
        assert!(Constraint::Point(4).validate(&d).is_ok());
        assert!(Constraint::Point(5).validate(&d).is_err());
        assert!(Constraint::Range { lo: 0, hi: 4 }.validate(&d).is_ok());
        assert!(Constraint::Range { lo: 3, hi: 2 }.validate(&d).is_err());
        assert!(Constraint::Range { lo: 0, hi: 9 }.validate(&d).is_err());
        assert!(Constraint::Set(vec![]).validate(&d).is_err());
        assert!(Constraint::Set(vec![0, 4]).validate(&d).is_ok());
        assert!(Constraint::Set(vec![0, 7]).validate(&d).is_err());
    }

    #[test]
    fn selectivity_and_indicator() {
        let r = Constraint::Range { lo: 1, hi: 3 };
        assert!((r.selectivity(6) - 0.5).abs() < 1e-12);
        assert_eq!(r.to_indicator(6), vec![0.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
        let p = Constraint::Point(2);
        assert_eq!(p.to_indicator(4), vec![0.0, 0.0, 1.0, 0.0]);
        assert!((Constraint::Set(vec![0, 3]).selectivity(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn predicate_constructors() {
        let p = Predicate::point("Customer", "region", 2);
        assert_eq!(p.table, "Customer");
        assert_eq!(p.constraint, Constraint::Point(2));
        let r = Predicate::range("Date", "year", 0, 5);
        assert_eq!(r.constraint, Constraint::Range { lo: 0, hi: 5 });
        let s = Predicate::set("Part", "mfgr", vec![0, 1]);
        assert_eq!(s.constraint, Constraint::Set(vec![0, 1]));
    }

    #[test]
    fn weighted_predicate_weight_lookup() {
        let w = WeightedPredicate::new("Date", "year", vec![0.5, 1.0, 0.0]);
        assert!((w.weight(0) - 0.5).abs() < 1e-12);
        assert!((w.weight(1) - 1.0).abs() < 1e-12);
        assert_eq!(w.weight(9), 0.0, "out-of-range codes weigh 0");
    }
}
