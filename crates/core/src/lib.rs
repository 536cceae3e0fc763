//! **DP-starJ** — differentially private star-join queries via the
//! Predicate Mechanism (Fu, Li, Lou & Cui, SIGMOD 2023).
//!
//! The paper's key insight: output-perturbation mechanisms fail on star-join
//! queries because the many foreign-key constraints make both global and
//! (smooth) local sensitivity enormous. DP-starJ instead perturbs the
//! *inputs* — the predicate constants of the query — whose global
//! sensitivity is merely each attribute's domain size. The noisy query is
//! then evaluated exactly.
//!
//! Public surface:
//!
//! * [`privacy::PrivacySpec`] — the `(a,b)`-private scenario taxonomy
//!   (Definition 3.7) and the mechanism-applicability matrix;
//! * [`neighbors`] — constructive neighboring-instance semantics (tuple
//!   deletion with FK cascade) used to validate sensitivity claims;
//! * [`pma`] — Algorithm 2, the Predicate Mechanism for an Attribute;
//! * [`pm`] — Algorithms 1 & 3: DP answers for COUNT / SUM / GROUP BY
//!   star-join and snowflake queries;
//! * [`workload`] — Algorithm 4: Workload Decomposition via strategy
//!   matrices and pseudo-inverse reconstruction;
//! * [`kstar`] — PM applied to k-star counting queries on graphs;
//! * [`theory`] — the variance bounds of Theorems 5.6 and 5.7.
//!
//! # Quick start
//!
//! ```
//! use dp_starj::pm::{pm_answer, PmConfig};
//! use starj_engine::{Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table};
//! use starj_noise::StarRng;
//!
//! // A toy star schema: one dimension, six fact rows.
//! let domain = Domain::numeric("color", 4).unwrap();
//! let dim = Table::new("D", vec![
//!     Column::key("pk", vec![0, 1, 2, 3]),
//!     Column::attr("color", domain, vec![0, 1, 2, 3]),
//! ]).unwrap();
//! let fact = Table::new("F", vec![
//!     Column::key("fk", vec![0, 0, 1, 2, 3, 3]),
//!     Column::measure("qty", vec![1, 2, 3, 4, 5, 6]),
//! ]).unwrap();
//! let schema = StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap();
//!
//! // COUNT(*) WHERE D.color ∈ [1, 2], answered under ε = 1 differential privacy.
//! let query = StarQuery::count("demo").with(Predicate::range("D", "color", 1, 2));
//! let mut rng = StarRng::from_seed(7);
//! let answer = pm_answer(&schema, &query, 1.0, &PmConfig::default(), &mut rng).unwrap();
//! assert!(answer.result.scalar().unwrap() >= 0.0);
//! ```

pub mod error;
pub mod kstar;
pub mod neighbors;
pub mod pm;
pub mod pma;
pub mod privacy;
pub mod theory;
pub mod workload;

pub use error::CoreError;
pub use kstar::pm_kstar;
pub use pm::{pm_answer, PmAnswer, PmConfig};
pub use pma::perturb_constraint;
pub use privacy::PrivacySpec;
pub use workload::{
    pm_workload_answer, wd_answer, wd_reconstruct, workload_axes, PredicateWorkload, WdConfig,
};
