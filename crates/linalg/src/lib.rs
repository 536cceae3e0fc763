//! Small dense linear algebra for the DP-starJ reproduction.
//!
//! The Workload Decomposition strategy (paper §5.3, Definition 5.1) expresses
//! a workload predicate matrix `M` as `M = XA` for a strategy matrix `A`,
//! perturbs `A`'s rows with the Predicate Mechanism, and reconstructs
//! `M̂ = (M A⁺) Â`. No external linear-algebra crate is on the offline
//! allowlist, so this crate implements exactly the pieces needed:
//!
//! * [`matrix::Mat`] — a row-major dense matrix with the usual operations;
//! * [`mod@solve`] — Gauss–Jordan inversion and linear solves with partial
//!   pivoting;
//! * [`mod@pinv`] — the Moore–Penrose pseudo-inverse via normal equations;
//! * [`strategy`] — strategy-matrix builders (identity, dyadic ranges) whose
//!   rows stay contiguous so they remain valid PM predicates.

pub mod error;
pub mod matrix;
pub mod pinv;
pub mod solve;
pub mod strategy;

pub use error::LinalgError;
pub use matrix::Mat;
pub use pinv::pinv;
pub use solve::{invert, solve};
pub use strategy::{build_strategy, RangeStrategy, StrategyKind};
