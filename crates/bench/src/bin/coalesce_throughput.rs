//! Group-commit coalescer throughput: sequential vs coalesced single-query
//! qps at 1/4/8/16 concurrent clients, and the cold/warm split of the
//! W-histogram cache on repeat workload traffic.
//!
//! ```text
//! SSB_SF=0.05 COALESCE_QUERIES=300 cargo run --release -p starj-bench --bin coalesce_throughput
//! ```
//!
//! Environment knobs: `SSB_SF` (scale factor, default 0.05),
//! `COALESCE_QUERIES` (requests per client, default 300),
//! `COALESCE_WINDOW_US` (group-commit window, default 200), `SEED`,
//! `TRACE_GATE` (allowed tracing overhead fraction, default 0.05; 0
//! disables the tracing gate).
//!
//! The bin self-gates (non-zero exit) on four properties, making it a CI
//! smoke test and not just a reporter:
//!
//! 1. **equivalence** — a lockstep run through the coalescer must produce
//!    bit-identical answers and spending to the sequential path;
//! 2. **fusion** — at 8 clients the coalescer must actually fuse
//!    (`fused_queries_saved > 0` with no explicit batch calls);
//! 3. **no regression** — the median coalesced qps over three 8-client
//!    runs must not fall below 95% of the median sequential qps (the small
//!    allowance absorbs shared-runner noise; a genuine coalescer
//!    regression — e.g. accidental serialization — is far larger);
//! 4. **cheap tracing** — with request-stage tracing on (the default
//!    telemetry config) the 8-client coalesced median must stay within
//!    `TRACE_GATE` (5%) of the tracing-off median, so observability can
//!    stay enabled in production.

use starj_bench::harness::{env_f64, env_u64, Json};
use starj_bench::{measure_coalesce, measure_wd_wcache, query_pool, root_seed, ssb_sf};
use starj_bench::{CoalesceSample, TablePrinter};
use starj_noise::PrivacyBudget;
use starj_service::{Service, ServiceConfig};
use starj_ssb::{generate, SsbConfig};
use std::sync::Arc;
use std::time::Duration;

const CLIENT_COUNTS: [usize; 4] = [1, 4, 8, 16];
const EPSILON: f64 = 0.1;

/// Lockstep equivalence check: same seed, same arrival order — every
/// answer, noisy query, and the final ledger must be bit-identical across
/// the sequential path and the coalesced path.
fn equivalence_check(schema: &Arc<StarSchema>, seed: u64) -> Result<(), String> {
    let sequential =
        Service::new(Arc::clone(schema), ServiceConfig { seed, ..ServiceConfig::default() });
    let coalesced = Service::new(
        Arc::clone(schema),
        ServiceConfig { seed, coalesce: true, ..ServiceConfig::default() },
    );
    for service in [&sequential, &coalesced] {
        service.register_tenant("check", PrivacyBudget::pure(100.0).unwrap()).unwrap();
    }
    for (i, q) in query_pool().iter().take(40).enumerate() {
        let a = sequential.pm_answer("check", q, EPSILON).map_err(|e| e.to_string())?;
        let b = coalesced.pm_answer("check", q, EPSILON).map_err(|e| e.to_string())?;
        if a.result != b.result || a.noisy_query != b.noisy_query {
            return Err(format!("answer {i} diverged: {:?} vs {:?}", a.result, b.result));
        }
    }
    let sa = sequential.tenant_usage("check").unwrap().spent_epsilon;
    let sb = coalesced.tenant_usage("check").unwrap().spent_epsilon;
    if sa.to_bits() != sb.to_bits() {
        return Err(format!("ledger diverged: {sa} vs {sb}"));
    }
    Ok(())
}

use starj_engine::StarSchema;

fn main() {
    let sf = ssb_sf();
    let seed = root_seed();
    let queries_per_client = env_u64("COALESCE_QUERIES", 300) as usize;
    let window = Duration::from_micros(env_u64("COALESCE_WINDOW_US", 200));

    let schema = Arc::new(generate(&SsbConfig::at_scale(sf, seed)).expect("SSB generation"));
    println!(
        "Coalescer throughput (SF={sf}, {} fact rows, {queries_per_client} queries/client, \
         ε={EPSILON}/query, window={}µs)\n",
        schema.fact().num_rows(),
        window.as_micros()
    );

    // Gate 1: equivalence before any timing.
    if let Err(e) = equivalence_check(&schema, seed) {
        eprintln!("EQUIVALENCE CHECK FAILED: coalesced path diverged from sequential: {e}");
        std::process::exit(2);
    }
    println!("equivalence self-check passed: coalesced ≡ sequential (bit-identical)\n");

    let table = TablePrinter::new(
        &["regime", "clients", "requests", "wall s", "queries/s", "scans", "saved"],
        &[10, 8, 9, 8, 10, 8, 8],
    );
    let mut samples: Vec<Json> = Vec::new();
    let mut by_clients: Vec<(usize, CoalesceSample, CoalesceSample)> = Vec::new();
    for &clients in &CLIENT_COUNTS {
        let seq =
            measure_coalesce(&schema, clients, queries_per_client, EPSILON, false, window, seed);
        let coal =
            measure_coalesce(&schema, clients, queries_per_client, EPSILON, true, window, seed);
        for (regime, s) in [("sequential", &seq), ("coalesced", &coal)] {
            table.row(&[
                regime,
                &clients.to_string(),
                &s.requests.to_string(),
                &format!("{:.2}", s.wall_secs),
                &format!("{:.0}", s.qps),
                &s.fact_scans.to_string(),
                &s.fused_queries_saved.to_string(),
            ]);
            samples.push(Json::obj(vec![
                ("regime", Json::Str((*regime).into())),
                ("clients", Json::Num(clients as f64)),
                ("requests", Json::Num(s.requests as f64)),
                ("wall_secs", Json::Num(s.wall_secs)),
                ("queries_per_sec", Json::Num(s.qps)),
                ("fact_scans", Json::Num(s.fact_scans as f64)),
                ("fused_queries_saved", Json::Num(s.fused_queries_saved as f64)),
                ("coalesced_requests", Json::Num(s.coalesced_requests as f64)),
            ]));
        }
        by_clients.push((clients, seq, coal));
        table.rule();
    }

    // The gate medians: the table pass supplied one 8-client pair; two
    // more interleaved pairs give a median each, so one noisy run on a
    // shared box cannot flip the verdict (recorded in the JSON below).
    let (_, seq8, coal8) =
        by_clients.iter().find(|(c, _, _)| *c == 8).expect("8-client point is always measured");
    let mut seq_qps = vec![seq8.qps];
    let mut coal_qps = vec![coal8.qps];
    for _ in 0..2 {
        seq_qps.push(
            measure_coalesce(&schema, 8, queries_per_client, EPSILON, false, window, seed).qps,
        );
        coal_qps.push(
            measure_coalesce(&schema, 8, queries_per_client, EPSILON, true, window, seed).qps,
        );
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite qps"));
        v[v.len() / 2]
    };
    let (seq_med, coal_med) = (median(&mut seq_qps), median(&mut coal_qps));

    // Telemetry A/B at the 8-client coalesced point: the default config
    // (tracing on — the `coal_med` median above) vs a service built with
    // `TelemetryConfig::disabled()` (no span ring, no audit trail, inert
    // trace builders, zero clock reads on the request path). Tracing is
    // supposed to be cheap enough to leave on in production; the gate
    // below holds it to that claim.
    let mut untraced_qps: Vec<f64> = (0..3)
        .map(|_| {
            starj_bench::measure_coalesce_tracing(
                &schema,
                8,
                queries_per_client,
                EPSILON,
                true,
                window,
                seed,
                false,
            )
            .qps
        })
        .collect();
    let untraced_med = median(&mut untraced_qps);
    let trace_overhead = 1.0 - coal_med / untraced_med.max(1e-9);
    println!(
        "\ntracing A/B at 8 coalesced clients: on {coal_med:.0} qps vs off {untraced_med:.0} qps \
         ({:+.1}% overhead)",
        trace_overhead * 100.0
    );

    // Cold vs warm W-histogram cache on repeat workload traffic.
    let wcache = measure_wd_wcache(&schema, 50, EPSILON, seed);
    println!(
        "\nW cache: cold build {:.1} ms, then {} warm repeats at {:.0} req/s \
         ({} W-cache hits, {} fact scans while warm)",
        wcache.cold_secs * 1e3,
        wcache.repeats,
        wcache.warm_qps,
        wcache.w_cache_hits,
        wcache.warm_fact_scans,
    );

    Json::obj(vec![
        ("bench", Json::Str("coalesce_throughput".into())),
        ("scale_factor", Json::Num(sf)),
        ("fact_rows", Json::Num(schema.fact().num_rows() as f64)),
        ("queries_per_client", Json::Num(queries_per_client as f64)),
        ("epsilon", Json::Num(EPSILON)),
        ("window_us", Json::Num(window.as_micros() as f64)),
        ("samples", Json::Arr(samples)),
        (
            "gate_8_clients",
            Json::obj(vec![
                ("sequential_median_qps", Json::Num(seq_med)),
                ("coalesced_median_qps", Json::Num(coal_med)),
            ]),
        ),
        (
            "tracing_ab_8_clients",
            Json::obj(vec![
                ("tracing_on_median_qps", Json::Num(coal_med)),
                ("tracing_off_median_qps", Json::Num(untraced_med)),
                ("overhead_frac", Json::Num(trace_overhead)),
            ]),
        ),
        (
            "w_cache",
            Json::obj(vec![
                ("repeats", Json::Num(wcache.repeats as f64)),
                ("cold_secs", Json::Num(wcache.cold_secs)),
                ("warm_queries_per_sec", Json::Num(wcache.warm_qps)),
                ("w_cache_hits", Json::Num(wcache.w_cache_hits as f64)),
                ("warm_fact_scans", Json::Num(wcache.warm_fact_scans as f64)),
            ]),
        ),
    ])
    .write("BENCH_coalesce.json")
    .expect("write BENCH_coalesce.json");
    println!("wrote BENCH_coalesce.json");

    // Gates 2 + 3 at the 8-client point.
    if coal8.fused_queries_saved == 0 {
        eprintln!("FUSION GATE FAILED: no queries fused at 8 clients");
        std::process::exit(1);
    }
    if coal_med < 0.95 * seq_med {
        eprintln!(
            "REGRESSION GATE FAILED: median coalesced {coal_med:.0} qps < 95% of median \
             sequential {seq_med:.0} qps at 8 clients"
        );
        std::process::exit(1);
    }
    // Gate 4: tracing overhead. `TRACE_GATE` is the allowed fractional qps
    // overhead of tracing-on vs tracing-off (default 5%); `TRACE_GATE=0`
    // disables the gate, mirroring `SCAN_GATE`.
    let trace_gate = env_f64("TRACE_GATE", 0.05);
    if trace_gate > 0.0 && coal_med < (1.0 - trace_gate) * untraced_med {
        eprintln!(
            "TRACING GATE FAILED: tracing-on median {coal_med:.0} qps is more than \
             {:.0}% below tracing-off median {untraced_med:.0} qps at 8 clients",
            trace_gate * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "gates passed: median coalesced {coal_med:.0} qps vs median sequential {seq_med:.0} qps \
         at 8 clients ({} queries fused away, {} vs {} scans in the table pass)",
        coal8.fused_queries_saved, coal8.fact_scans, seq8.fact_scans
    );
}
