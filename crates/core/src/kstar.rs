//! The Predicate Mechanism for k-star counting queries (paper §6, Table 2).
//!
//! The k-star query's predicate is a node-id range (`from_id BETWEEN 1 AND
//! n`), so its domain size is the number of vertices. PM perturbs the two
//! range endpoints with `Lap(2·n/ε)` (ε/2 each, per Algorithm 2) and counts
//! k-stars whose centers fall in the noisy range — no truncation, no local
//! sensitivity computation, which is why PM is 40×+ faster than TM/R2T in
//! the paper's timing columns.

use crate::error::CoreError;
use crate::pma::perturb_constraint;
use starj_engine::{Constraint, Domain};
use starj_graph::{kstar_count, Graph, KStarQuery};
use starj_noise::StarRng;

/// Answers a k-star counting query under ε-DP with the Predicate Mechanism.
///
/// Returns the noisy count together with the perturbed range actually
/// counted (for auditability, mirroring [`crate::pm::PmAnswer`]).
pub fn pm_kstar(
    graph: &Graph,
    query: &KStarQuery,
    epsilon: f64,
    rng: &mut StarRng,
) -> Result<(f64, KStarQuery), CoreError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(CoreError::Invalid(format!("epsilon must be positive, got {epsilon}")));
    }
    let n = graph.num_nodes();
    if query.lo > query.hi || query.hi >= n {
        return Err(CoreError::Invalid(format!(
            "query range [{}, {}] invalid for a {n}-node graph",
            query.lo, query.hi
        )));
    }
    let domain = Domain::numeric("node", n)?;
    let constraint = Constraint::Range { lo: query.lo, hi: query.hi };
    let noisy = perturb_constraint(&constraint, &domain, epsilon, rng)?;
    let (lo, hi) = match noisy {
        Constraint::Range { lo, hi } => (lo, hi),
        Constraint::Point(v) => (v, v),
        Constraint::Set(_) => unreachable!("range perturbation returns a range"),
    };
    let noisy_query = KStarQuery { k: query.k, lo, hi };
    Ok((kstar_count(graph, &noisy_query) as f64, noisy_query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_graph::deezer_like;

    fn graph() -> Graph {
        deezer_like(0.01, 31).unwrap()
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = graph();
        let mut rng = StarRng::from_seed(1);
        let q = KStarQuery::full(2, g.num_nodes());
        assert!(pm_kstar(&g, &q, 0.0, &mut rng).is_err());
        let bad = KStarQuery { k: 2, lo: 10, hi: 5 };
        assert!(pm_kstar(&g, &bad, 1.0, &mut rng).is_err());
        let oob = KStarQuery { k: 2, lo: 0, hi: g.num_nodes() + 5 };
        assert!(pm_kstar(&g, &oob, 1.0, &mut rng).is_err());
    }

    #[test]
    fn noisy_range_is_valid() {
        let g = graph();
        let q = KStarQuery::full(2, g.num_nodes());
        for t in 0..200 {
            let mut rng = StarRng::from_seed(2).derive_index(t);
            let (count, noisy) = pm_kstar(&g, &q, 0.1, &mut rng).unwrap();
            assert!(noisy.lo <= noisy.hi);
            assert!(noisy.hi < g.num_nodes());
            assert!(count >= 0.0);
            assert_eq!(noisy.k, 2);
        }
    }

    #[test]
    fn error_shrinks_with_epsilon() {
        let g = graph();
        let q = KStarQuery::full(2, g.num_nodes());
        let truth = kstar_count(&g, &q) as f64;
        let mean_err = |eps: f64| {
            let mut acc = 0.0;
            let n = 80;
            for t in 0..n {
                let mut rng = StarRng::from_seed(3).derive_index(t);
                let (v, _) = pm_kstar(&g, &q, eps, &mut rng).unwrap();
                acc += (v - truth).abs() / truth;
            }
            acc / n as f64
        };
        let loose = mean_err(0.1);
        let tight = mean_err(10.0);
        assert!(tight < loose, "ε=0.1 → {loose:.3}, ε=10 → {tight:.3}");
    }

    #[test]
    fn huge_epsilon_recovers_exact_count() {
        let g = graph();
        let q = KStarQuery::full(3, g.num_nodes());
        let truth = kstar_count(&g, &q) as f64;
        let mut rng = StarRng::from_seed(4);
        let (v, noisy) = pm_kstar(&g, &q, 1e9, &mut rng).unwrap();
        assert_eq!(v, truth);
        assert_eq!((noisy.lo, noisy.hi), (q.lo, q.hi));
    }
}
