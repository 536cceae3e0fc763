//! Synthetic network generators standing in for the SNAP datasets.
//!
//! The paper uses Deezer (144,000 nodes, 847,000 edges — a European social
//! network with a heavy-tailed degree distribution) and Amazon (335,000
//! nodes, 926,000 edges — a co-purchasing network with a lighter tail).
//! Neither file is available offline, so we generate Chung-Lu-style graphs:
//! node weights follow a Zipf law and edges sample endpoint pairs from the
//! weight distribution, which yields a power-law-ish degree sequence. All
//! k-star statistics (and hence every mechanism's error) depend only on the
//! degree sequence, so matching size + tail shape preserves the comparison
//! (README, "Interpretations and substitutions").

use crate::graph::{Graph, GraphError};
use starj_noise::samplers::Zipf;
use starj_noise::StarRng;
use std::collections::HashSet;

/// Size/shape specification for a synthetic network.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Number of nodes.
    pub nodes: u32,
    /// Target number of distinct undirected edges.
    pub edges: usize,
    /// Zipf exponent of the node-weight distribution; larger = heavier hubs.
    pub exponent: f64,
}

impl GraphSpec {
    /// The Deezer-like spec (heavy social-network tail).
    pub fn deezer() -> Self {
        GraphSpec { nodes: 144_000, edges: 847_000, exponent: 0.75 }
    }

    /// The Amazon-like spec (flatter co-purchase degrees).
    pub fn amazon() -> Self {
        GraphSpec { nodes: 335_000, edges: 926_000, exponent: 0.45 }
    }

    /// A proportionally scaled-down spec (for tests and quick runs).
    pub fn scaled(&self, fraction: f64) -> Self {
        GraphSpec {
            nodes: ((self.nodes as f64 * fraction) as u32).max(100),
            edges: ((self.edges as f64 * fraction) as usize).max(200),
            exponent: self.exponent,
        }
    }
}

/// Generates a Chung-Lu-style power-law graph for the given spec.
///
/// Endpoints are drawn independently from `Zipf(nodes, exponent)`; node ids
/// are shuffled afterwards so hub ids are spread across the id space (the
/// paper's range predicates span the full id range, so hub placement must
/// not correlate with id). Self-loops and duplicates are rejected; if the
/// spec is too dense to realize, the attempt budget (20× target) caps work
/// and the graph comes out slightly sparser.
pub fn powerlaw_graph(spec: &GraphSpec, seed: u64) -> Result<Graph, GraphError> {
    if spec.nodes == 0 {
        return Err(GraphError::Empty);
    }
    let mut rng = StarRng::from_seed(seed);
    let zipf = Zipf::new(spec.nodes as usize, spec.exponent)
        .expect("spec.nodes > 0 and exponent validated by Zipf");

    // Random relabelling: rank -> node id.
    let mut relabel: Vec<u32> = (0..spec.nodes).collect();
    for i in (1..relabel.len()).rev() {
        let j = rng.index(i + 1);
        relabel.swap(i, j);
    }

    let mut seen: HashSet<u64> = HashSet::with_capacity(spec.edges * 2);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(spec.edges);
    let max_attempts = spec.edges.saturating_mul(20);
    let mut attempts = 0usize;
    while edges.len() < spec.edges && attempts < max_attempts {
        attempts += 1;
        let a = relabel[zipf.sample_index(&mut rng)];
        let b = relabel[zipf.sample_index(&mut rng)];
        if a == b {
            continue;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if seen.insert((u64::from(lo) << 32) | u64::from(hi)) {
            edges.push((lo, hi));
        }
    }
    Graph::from_edges(spec.nodes, &edges)
}

/// The Deezer-like network at a given scale (`1.0` = full 144k/847k).
pub fn deezer_like(fraction: f64, seed: u64) -> Result<Graph, GraphError> {
    powerlaw_graph(&GraphSpec::deezer().scaled(fraction), seed)
}

/// The Amazon-like network at a given scale (`1.0` = full 335k/926k).
pub fn amazon_like(fraction: f64, seed: u64) -> Result<Graph, GraphError> {
    powerlaw_graph(&GraphSpec::amazon().scaled(fraction), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors_match_paper_sizes() {
        let d = GraphSpec::deezer();
        assert_eq!((d.nodes, d.edges), (144_000, 847_000));
        let a = GraphSpec::amazon();
        assert_eq!((a.nodes, a.edges), (335_000, 926_000));
    }

    #[test]
    fn scaled_spec_shrinks() {
        let s = GraphSpec::deezer().scaled(0.01);
        assert_eq!(s.nodes, 1_440);
        assert_eq!(s.edges, 8_470);
        let tiny = GraphSpec::deezer().scaled(1e-9);
        assert!(tiny.nodes >= 100 && tiny.edges >= 200, "floors apply");
    }

    #[test]
    fn generation_hits_target_edge_count() {
        let g = deezer_like(0.01, 1).unwrap();
        assert_eq!(g.num_nodes(), 1_440);
        // Dense specs may fall slightly short; within 5 % is fine.
        assert!(
            g.num_edges() as f64 >= 8_470.0 * 0.95,
            "got {} edges, wanted ≈8470",
            g.num_edges()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = deezer_like(0.005, 9).unwrap();
        let b = deezer_like(0.005, 9).unwrap();
        assert_eq!(a.degrees(), b.degrees());
        let c = deezer_like(0.005, 10).unwrap();
        assert_ne!(a.degrees(), c.degrees());
    }

    #[test]
    fn heavier_exponent_means_heavier_hubs() {
        let flat =
            powerlaw_graph(&GraphSpec { nodes: 2_000, edges: 10_000, exponent: 0.2 }, 3).unwrap();
        let heavy =
            powerlaw_graph(&GraphSpec { nodes: 2_000, edges: 10_000, exponent: 0.9 }, 3).unwrap();
        assert!(
            heavy.max_degree() > flat.max_degree() * 2,
            "heavy {} vs flat {}",
            heavy.max_degree(),
            flat.max_degree()
        );
    }

    #[test]
    fn hubs_are_spread_over_id_space() {
        let g = deezer_like(0.02, 4).unwrap();
        let n = g.num_nodes();
        // The max-degree node should not systematically be node 0: check that
        // the top-10 hubs are not all in the lowest 1% of ids.
        let mut by_degree: Vec<(u32, u32)> = (0..n).map(|v| (g.degree(v), v)).collect();
        by_degree.sort_unstable_by(|a, b| b.cmp(a));
        let low_ids = by_degree[..10].iter().filter(|(_, v)| *v < n / 100).count();
        assert!(low_ids < 10, "hub ids must be shuffled across the id space");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = deezer_like(0.02, 5).unwrap();
        let avg = g.avg_degree();
        let max = g.max_degree() as f64;
        assert!(
            max > 10.0 * avg,
            "power-law graph should have hubs ≫ average: max {max}, avg {avg}"
        );
    }
}
