//! Star Schema Benchmark (SSB) substrate.
//!
//! The paper evaluates on SSB (O'Neil et al.), the star-schema variant of
//! TPC-H: a `Lineorder` fact table joined to `Date`, `Customer`, `Supplier`
//! and `Part` dimensions. The official `dbgen` data files are not available
//! offline, so this crate regenerates the benchmark from its published
//! specification (see the README, "Interpretations and substitutions"):
//!
//! * table cardinalities follow the SSB scale-factor formulas;
//! * attribute hierarchies (region → nation → city, mfgr → category → brand,
//!   year → month → day) have the paper's domain sizes (5/25/250, 5/25/1000,
//!   7/12/366);
//! * fact foreign keys and measures can follow Uniform, Exponential, Gamma
//!   or Gaussian-mixture distributions (Figures 7 & 11), and a heavy-hitter
//!   key can be planted to realize a target global sensitivity (Figure 6);
//! * the nine evaluation queries (Qc1–Qc4, Qs2–Qs4, Qg2, Qg4), the
//!   domain-size query family (Figure 8), the workloads W1/W2 (Figure 9) and
//!   the snowflake queries Qtc/Qts (Figure 10) are provided verbatim.
//!
//! # Example
//!
//! ```
//! use starj_ssb::{generate, qc1, SsbConfig};
//! use starj_engine::{execute, to_sql};
//!
//! let schema = generate(&SsbConfig::at_scale(0.001, 42)).unwrap();
//! let count = execute(&schema, &qc1()).unwrap().scalar().unwrap();
//! assert!(count > 0.0, "1993 has orders");
//! assert!(to_sql(&schema, &qc1()).contains("Date.year = '1993'"));
//! ```

pub mod gen;
pub mod labels;
pub mod queries;
pub mod snowflake;
pub mod workload;

pub use gen::{generate, FactDistribution, HotSpot, SsbConfig};
pub use queries::{all_queries, domain_size_queries, qc1, qc2, qc3, qc4, qg2, qg4, qs2, qs3, qs4};
pub use snowflake::{generate_snowflake, qtc, qts};
pub use workload::{w1, w2, Workload, WorkloadQuery, BLOCKS};
