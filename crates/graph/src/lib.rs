//! Graph substrate for the paper's k-star counting experiments.
//!
//! The paper's Table 2 evaluates DP mechanisms on k-star counting queries —
//! `SELECT count(*) FROM Edge R1, Edge R2 [, Edge R3] WHERE R1.from_id =
//! R2.from_id … AND R1.from_id BETWEEN 1 AND n` — over the SNAP Deezer
//! (144k nodes / 847k edges) and Amazon (335k nodes / 926k edges) networks.
//! A k-star is a center node together with k distinct incident edges, so the
//! count is `Σ_v C(deg(v), k)` restricted to centers in the predicate range.
//!
//! The SNAP files are not available offline; [`generate`] provides synthetic
//! stand-ins with the same node/edge counts and a heavy-tailed degree
//! distribution (see the README, "Interpretations and substitutions") — every mechanism's error is a
//! function of the degree sequence only, which preserves the comparison.
//!
//! # Example
//!
//! ```
//! use starj_graph::{kstar_count, Graph, KStarQuery};
//!
//! // A star: node 0 with four neighbors has C(4,2) = 6 two-stars.
//! let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
//! assert_eq!(kstar_count(&g, &KStarQuery::full(2, 5)), 6);
//! // Restricting centers to [1, 4] leaves nothing (leaves have degree 1).
//! assert_eq!(kstar_count(&g, &KStarQuery { k: 2, lo: 1, hi: 4 }), 0);
//! ```

pub mod generate;
pub mod graph;
pub mod kstar;

pub use generate::{amazon_like, deezer_like, powerlaw_graph, GraphSpec};
pub use graph::{Graph, GraphError};
pub use kstar::{binomial, kstar_count, kstar_count_naive, truncated_kstar_count, KStarQuery};
