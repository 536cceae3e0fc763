//! k-star counting under DP on a social-network-like graph — the paper's
//! Table 2 scenario: compare PM against the R2T and TM baselines on 2-star
//! and 3-star counting.
//!
//! ```text
//! cargo run --release --example kstar_graph
//! ```

use dp_starj_repro::baselines::{kstar_r2t, kstar_tm, KstarTmConfig, R2tConfig};
use dp_starj_repro::core::pm_kstar;
use dp_starj_repro::graph::{binomial, deezer_like, kstar_count, KStarQuery};
use dp_starj_repro::noise::StarRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 1/20-scale Deezer-like network (7,200 nodes, ~42k edges).
    let graph = deezer_like(0.05, 11)?;
    println!(
        "Graph: {} nodes, {} edges, max degree {}, avg degree {:.1}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree(),
        graph.avg_degree()
    );

    let epsilon = 1.0;
    for k in [2u32, 3] {
        let query = KStarQuery::full(k, graph.num_nodes());
        let truth = kstar_count(&graph, &query) as f64;
        println!("\n{} (true count = {truth:.0}):", query.name());

        let mut rng = StarRng::from_seed(1).derive(&query.name());
        let (pm, noisy) = pm_kstar(&graph, &query, epsilon, &mut rng)?;
        println!(
            "  PM : {pm:>16.0}  rel err {:>6.2}%  (noisy center range [{}, {}])",
            (pm - truth).abs() / truth * 100.0,
            noisy.lo,
            noisy.hi
        );

        let gs = binomial(u64::from(graph.max_degree()), k) as f64;
        let r2t_cfg = R2tConfig::new(gs.max(2.0), vec![]);
        let r2t = kstar_r2t(&graph, &query, epsilon, &r2t_cfg, &mut rng)?;
        println!(
            "  R2T: {:>16.0}  rel err {:>6.2}%  (winning τ = {})",
            r2t.value,
            (r2t.value - truth).abs() / truth * 100.0,
            r2t.chosen_tau
        );

        let (tm, theta, _) =
            kstar_tm(&graph, &query, epsilon, &KstarTmConfig::default(), &mut rng)?;
        println!(
            "  TM : {tm:>16.0}  rel err {:>6.2}%  (degree truncation θ = {theta})",
            (tm - truth).abs() / truth * 100.0
        );
    }
    Ok(())
}
