//! Experiment harness reproducing every table and figure of the DP-starJ
//! evaluation (paper §6).
//!
//! Each binary in `src/bin/` regenerates one table or figure:
//!
//! | binary   | reproduces | what it prints |
//! |----------|------------|----------------|
//! | `table1` | Table 1    | relative error of PM/R2T/LS on the 9 SSB queries, ε ∈ {0.1,0.2,0.5,0.8,1} |
//! | `table2` | Table 2    | relative error + runtime of PM/R2T/TM on Q2*/Q3*, Deezer- and Amazon-like graphs |
//! | `fig4`   | Figure 4   | error + running time of COUNT queries vs data scale |
//! | `fig5`   | Figure 5   | error + running time of SUM queries vs data scale |
//! | `fig6`   | Figure 6   | error vs declared global sensitivity `GS_Q` |
//! | `fig7`   | Figure 7   | error under Uniform/Exponential/Gamma data |
//! | `fig8`   | Figure 8   | error vs predicate domain-size combinations |
//! | `fig9`   | Figure 9   | PM vs Workload Decomposition on W1/W2 |
//! | `fig10`  | Figure 10  | error on snowflake queries Qtc/Qts |
//! | `fig11`  | Figure 11  | error under Gaussian-mixture data |
//! | `ablations` | DESIGN.md §7 | PMA policy / budget-split / strategy / R2T-grid ablations |
//!
//! Environment knobs (all optional): `SSB_SF` (scale factor, default 0.05),
//! `TRIALS` (independent runs per cell, default 10), `GRAPH_FRAC` (graph
//! scale for Table 2, default 0.05), `SEED` (root seed, default 2023).
//!
//! Serving-stack performance (wire, service, durable, kernel) is measured
//! by the standalone `benchmark/` package, not here.

pub mod harness;
pub mod mechanisms;
pub mod scenarios;

pub use harness::{env_f64, stats, TablePrinter};
pub use mechanisms::{ls_rel_err, pm_rel_err, r2t_rel_err, MechOutcome};
pub use scenarios::{graph_frac, private_dims_for, root_seed, ssb_sf, trials_count};
