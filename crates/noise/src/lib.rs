//! Differential-privacy noise primitives for the DP-starJ reproduction.
//!
//! This crate is the lowest layer of the workspace and depends on no other
//! crate. It provides:
//!
//! * [`rng::StarRng`] — a seedable, splittable random source so every
//!   experiment in the paper reproduction is deterministic under a seed,
//!   plus the workspace's one mixer ([`rng::splitmix64`]) and hash
//!   ([`rng::fnv1a`]);
//! * [`laplace::Laplace`] — the Laplace mechanism's noise distribution,
//!   calibrated from a sensitivity and a privacy budget;
//! * [`cauchy::GeneralCauchy`] — the general Cauchy distribution with density
//!   proportional to `1 / (1 + |z/s|^γ)` used by smooth-sensitivity
//!   mechanisms (the paper instantiates `γ = 4`, for which the unit-scale
//!   variance is exactly 1);
//! * [`budget::PrivacyBudget`] — `(ε, δ)` bookkeeping with the splitting and
//!   sequential-composition rules the paper's Algorithms 1–4 rely on;
//! * [`smooth`] — closed-form smooth upper bounds on local sensitivity
//!   (Nissim et al.), used by the LS and TM baselines;
//! * [`samplers`] — hand-rolled statistical samplers (exponential, gamma,
//!   normal, Gaussian mixtures, Zipf) used to generate the skewed workloads
//!   of the paper's Figures 7 and 11 without external distribution crates;
//! * [`discrete::DiscreteLaplace`] — the geometric mechanism, the
//!   integer-typed alternative for perturbing predicate constants.
//!
//! # Example
//!
//! ```
//! use starj_noise::{Laplace, PrivacyBudget, StarRng};
//!
//! // Split ε = 1 across three predicates, the paper's ε_i = ε/n rule.
//! let budget = PrivacyBudget::pure(1.0).unwrap();
//! let parts = budget.split_even(3).unwrap();
//! assert!((parts[0].epsilon() - 1.0 / 3.0).abs() < 1e-12);
//!
//! // Calibrate Laplace noise for a domain-size-7 predicate constant.
//! let lap = Laplace::from_sensitivity(7.0, parts[0].epsilon()).unwrap();
//! let mut rng = StarRng::from_seed(42);
//! let noisy_year = 3.0 + lap.sample(&mut rng);
//! assert!(noisy_year.is_finite());
//! ```

pub mod budget;
pub mod cauchy;
pub mod discrete;
pub mod error;
pub mod laplace;
pub mod rng;
pub mod samplers;
pub mod smooth;

pub use budget::{BudgetLedger, PrivacyBudget};
pub use cauchy::GeneralCauchy;
pub use discrete::DiscreteLaplace;
pub use error::NoiseError;
pub use laplace::Laplace;
pub use rng::StarRng;
