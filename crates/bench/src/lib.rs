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
//! | `service_throughput` | — (systems) | queries/sec of the multi-tenant DP service at 1/4/8 tenants; writes `BENCH_service.json` |
//! | `scan_throughput` | — (systems) | row-at-a-time vs bitset vs fused-batch vs parallel scan kernels, median-of-3, with equivalence + fusion-speedup + no-regression self-gates; writes `BENCH_scan.json` |
//! | `coalesce_throughput` | — (systems) | sequential vs group-commit-coalesced single-query qps at 1/4/8/16 clients, cold vs warm W cache, and tracing-on/off A/B at 8 clients, with equivalence + regression + tracing-overhead (`TRACE_GATE`, default < 5%) self-gates; writes `BENCH_coalesce.json` |
//! | `router_throughput` | — (systems) | the same total SSB volume served by 1/2/4 router shards at 8 clients, with a router-vs-standalone lockstep equivalence self-gate and an optional `ROUTER_GATE=1` ≥ 2.5× scaling gate; writes `BENCH_router.json` |
//! | `cost_model` | — (systems) | sampling cost model: reference ≡ static ≡ model bit-identity, kernel-counter agreement, ≥ 90% estimator CI coverage vs an exact-mode oracle, planning A/B, and the fixed-vs-adaptive group-commit window A/B (8-client qps within noise, idle p50 strictly better); writes `BENCH_cost.json` |
//! | `bench_compare` | — (systems) | drift gate between two `BENCH_*.json` files: non-zero exit when a shared regime's qps regressed beyond the noise threshold (default 15%) |
//! | `telemetry_dump` | — (observability) | mixed service + routed-fleet traffic, then the full telemetry surface: request spans, slow-query log, kernel counters, Prometheus exposition (`TELEMETRY_prom.txt`), audit JSONL (`TELEMETRY_audit.jsonl`); self-gates (exit 2) on per-tenant audit ≡ ledger ε bit-equality |
//!
//! Environment knobs (all optional): `SSB_SF` (scale factor, default 0.05),
//! `TRIALS` (independent runs per cell, default 10), `GRAPH_FRAC` (graph
//! scale for Table 2, default 0.05), `SEED` (root seed, default 2023).

pub mod coalesce;
pub mod drift;
pub mod harness;
pub mod mechanisms;
pub mod router;
pub mod scenarios;
pub mod service;

pub use coalesce::{
    dashboard_workload, measure_coalesce, measure_coalesce_adaptive, measure_coalesce_tracing,
    measure_wd_wcache, CoalesceSample, WCacheSample,
};
pub use harness::{env_f64, env_u64, stats, Json, Stats, TablePrinter};
pub use mechanisms::{ls_rel_err, pm_rel_err, r2t_rel_err, MechOutcome};
pub use router::{build_router, measure_router, ssb_slices, RouterSample};
pub use scenarios::{graph_frac, private_dims_for, root_seed, ssb_sf, trials_count};
pub use service::{measure_throughput, query_pool, ThroughputSample};
