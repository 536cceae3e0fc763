//! The paper's motivating OLAP scenario: an analyst runs the nine SSB
//! star-join queries (COUNT / SUM / GROUP BY) against a generated warehouse
//! and compares exact answers with ε-DP answers from DP-starJ.
//!
//! ```text
//! cargo run --release --example ssb_analytics
//! ```

use dp_starj_repro::core::pm::{pm_answer, PmConfig};
use dp_starj_repro::engine::{execute, QueryResult};
use dp_starj_repro::noise::StarRng;
use dp_starj_repro::ssb::{all_queries, generate, SsbConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SsbConfig::at_scale(0.02, 7);
    println!(
        "Generating SSB instance: {} lineorders, {} customers, {} suppliers, {} parts",
        config.lineorder_rows(),
        config.customer_rows(),
        config.supplier_rows(),
        config.part_rows()
    );
    let schema = generate(&config)?;

    let epsilon = 1.0;
    println!("\n{:<6} {:>14} {:>14} {:>10}", "query", "exact", "dp (ε=1)", "rel err %");
    println!("{}", "-".repeat(50));
    for query in all_queries() {
        let exact = execute(&schema, &query)?;
        let mut rng = StarRng::from_seed(2023).derive(&query.name);
        let noisy = pm_answer(&schema, &query, epsilon, &PmConfig::default(), &mut rng)?;
        let err = noisy.result.positional_relative_error(&exact) * 100.0;
        match (&exact, &noisy.result) {
            (QueryResult::Scalar(e), QueryResult::Scalar(n)) => {
                println!("{:<6} {e:>14.0} {n:>14.0} {err:>10.2}", query.name);
            }
            (QueryResult::Groups(e), QueryResult::Groups(n)) => {
                println!("{:<6} {:>10} grps {:>10} grps {err:>10.2}", query.name, e.len(), n.len());
            }
            _ => unreachable!("shapes always agree"),
        }
    }
    println!(
        "\nGROUP BY rows compare group-count histograms positionally \
         (see the README, \"Interpretations and substitutions\", #8)."
    );
    Ok(())
}
