//! Experiment harness reproducing every table and figure of the DP-starJ
//! evaluation (paper §6).
//!
//! One binary, `paper`, runs the figures named on its command line, or all
//! of them when given none (`paper table1 fig9`). Each figure is one entry
//! of [`figures::FIGURES`]:
//!
//! | name     | reproduces | what it prints |
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
//! | `ablations` | README, "Interpretations and substitutions" | PMA policy / budget-split / strategy / R2T-grid / noise-family ablations |
//!
//! The environment knobs (`SSB_SF`, `TRIALS`, `GRAPH_FRAC`, `SEED`,
//! `TIME_LIMIT_SECS`) are the fields of [`Knobs`]; a set knob that does not
//! parse is an error, not the default.
//!
//! Serving-stack performance (wire, service, durable, kernel) is measured
//! by the standalone `benchmark/` package, not here.

pub mod figures;
mod harness;
mod mechanisms;
mod scenarios;

pub use scenarios::Knobs;
