//! Experiment knobs and the baselines' choice of private dimension.

use crate::harness::env_knob;
use starj_engine::StarQuery;

/// The harness's environment knobs, read once per run.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// `SSB_SF`, default 0.05 (the paper sweeps 0.25–1).
    pub sf: f64,
    /// `TRIALS` per cell, default 10 (the paper's "average of 10 runs").
    pub trials: u64,
    /// `GRAPH_FRAC`, Table 2's fraction of the full graphs, default 0.05.
    pub graph_frac: f64,
    /// `SEED`, the root of every trial's RNG, default 2023.
    pub seed: u64,
    /// `TIME_LIMIT_SECS`, Table 2's per-cell budget, default 120.
    pub time_limit: f64,
}

impl Knobs {
    /// Reads every knob, exiting with status 2 on a malformed value.
    pub fn from_env() -> Self {
        Knobs {
            sf: env_knob("SSB_SF", 0.05),
            trials: env_knob("TRIALS", 10),
            graph_frac: env_knob("GRAPH_FRAC", 0.05),
            seed: env_knob("SEED", 2023),
            time_limit: env_knob("TIME_LIMIT_SECS", 120.0),
        }
    }
}

/// The private dimension(s) the data-dependent baselines protect for a given
/// query: `Customer` when the query touches it (the paper's motivating
/// example), otherwise the first of Supplier/Part/Date carrying a predicate,
/// falling back to Customer (README, "Interpretations and substitutions",
/// #5).
pub fn private_dims_for(query: &StarQuery) -> Vec<String> {
    let tables = query.predicate_tables();
    for preferred in ["Customer", "Supplier", "Part", "Date"] {
        if tables.contains(&preferred) {
            return vec![preferred.to_string()];
        }
    }
    vec!["Customer".to_string()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_ssb::{qc1, qc2, qc3};

    #[test]
    fn private_dim_prefers_customer() {
        assert_eq!(private_dims_for(&qc3()), vec!["Customer".to_string()]);
        // Qc2 touches Part + Supplier + Date(no) — Supplier preferred.
        assert_eq!(private_dims_for(&qc2()), vec!["Supplier".to_string()]);
        // Qc1 touches only Date.
        assert_eq!(private_dims_for(&qc1()), vec!["Date".to_string()]);
    }
}
