//! The mechanisms called as a library, with no serving stack: the paper's
//! own experiment (Table 1 error, Figs 4–5 running time).
//!
//! `mech_sf1` times `dp_starj::pm_answer` at SF 1. Every workload also
//! computes the fixed-seed relative-error table and checks the kernel
//! against the reference executor on its own instance, so utility is
//! drift-checked at three working-set sizes (SF 0.005, 0.1 and 1), as the
//! paper's scale sweep has.

use crate::gen::{Generator, BLOCK};
use crate::layers::{self, Entry};
use crate::load::Slices;
use crate::report::Report;
use crate::stack::{self, DATA_SEED};
use crate::stats;
use crate::trace::Tracer;
use crate::Opts;
use dp_starj::pm::perturb_query;
use dp_starj::workload::{workload_relative_error, WorkloadBlock};
use dp_starj::{pm_answer, wd_answer, PmConfig, PredicateWorkload, WdConfig};
use starj_engine::exec::reference;
use starj_engine::{execute, execute_batch_with, StarQuery, StarSchema};
use starj_noise::StarRng;
use starj_ssb::{all_queries, w1, BLOCKS};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// ε of every timed PM answer.
const TIMED_EPSILON: f64 = 1.0;
/// Fixed-seed trials per (query, ε) cell of the relative-error table.
const TRIALS: u64 = 20;
/// Queries compared against the reference executor.
const REFERENCE_SAMPLE: usize = 64;
/// Set-up answers queries for this long, so the cost model is sampled and
/// the columns are paged in.
const WARMUP: Duration = Duration::from_millis(300);

/// Generator blocks this module draws from.
const PM_BLOCK: u64 = 8;
const REFERENCE_BLOCK: u64 = 10;

/// The paper's workload W1 as the core mechanism's type.
pub fn w1_workload() -> PredicateWorkload {
    let blocks = BLOCKS
        .iter()
        .map(|(t, a, d)| WorkloadBlock { table: (*t).into(), attr: (*a).into(), domain: *d })
        .collect();
    let rows = w1()
        .queries
        .iter()
        .map(|q| vec![q.year.clone(), q.cust_region.clone(), q.supp_region.clone()])
        .collect();
    PredicateWorkload::new(blocks, rows).expect("W1 is well-formed")
}

/// Answers generated queries with `dp_starj::pm_answer`, one after the
/// other, for `slices` slices of `slice` each, continuing at draw `*next`.
/// Returns each slice's nanosecond samples. With a tracer, odd slices also
/// record one span per answer.
fn answer_for(
    schema: &StarSchema,
    gen: &Generator,
    rng: &mut StarRng,
    next: &mut u64,
    (slices, slice): (usize, Duration),
    mut tracer: Option<&mut Tracer>,
) -> Vec<Vec<u64>> {
    let config = PmConfig::default();
    (0..slices)
        .map(|s| {
            let mut tracer = tracer.as_deref_mut().filter(|_| s % 2 == 1);
            let mut samples = Vec::new();
            let start = Instant::now();
            while start.elapsed() < slice {
                let query = gen.query(*next);
                *next += 1;
                let mut answer = || {
                    black_box(pm_answer(schema, &query, TIMED_EPSILON, &config, rng).expect("PM"));
                };
                samples.push(match tracer.as_deref_mut() {
                    Some(t) => t.call(0, *next, "core.pm_answer", answer).1,
                    None => {
                        let began = Instant::now();
                        answer();
                        began.elapsed().as_nanos() as u64
                    }
                });
            }
            samples
        })
        .collect()
}

/// The relative-error table, every seed fixed: median over the 9 SSB
/// queries of the mean positional relative error over [`TRIALS`] PM
/// trials at ε = 0.1 and ε = 1, and the mean relative error of W1 under
/// WD at ε = 1. The trials of one query are perturbed exactly as
/// `dp_starj::pm_answer` perturbs them and answered in one fused scan.
pub fn relative_errors(schema: &StarSchema) -> [f64; 3] {
    let root = StarRng::from_seed(DATA_SEED).derive("benchmark/rel_err");
    let config = PmConfig::default();
    let pm = |epsilon: f64| -> f64 {
        let per_query: Vec<f64> = all_queries()
            .iter()
            .map(|q| {
                let truth = execute(schema, q).expect("exact answer");
                let noisy: Vec<StarQuery> = (0..TRIALS)
                    .map(|t| {
                        let mut rng =
                            root.derive(&format!("pm/{}/{epsilon}", q.name)).derive_index(t);
                        perturb_query(schema, q, epsilon, &config, &mut rng).expect("perturb")
                    })
                    .collect();
                let answers = execute_batch_with(schema, &noisy, config.scan).expect("trials");
                answers.iter().map(|a| a.positional_relative_error(&truth)).sum::<f64>()
                    / TRIALS as f64
            })
            .collect();
        stats::median(&per_query)
    };
    let workload = w1_workload();
    let truth = workload.true_answers(schema).expect("exact W1");
    let wd = (0..TRIALS)
        .map(|t| {
            let mut rng = root.derive("wd/w1").derive_index(t);
            let answers =
                wd_answer(schema, &workload, 1.0, &WdConfig::default(), &mut rng).expect("WD");
            workload_relative_error(&answers, &truth)
        })
        .sum::<f64>()
        / TRIALS as f64;
    [pm(0.1), pm(1.0), wd]
}

/// Checks the scan kernel bit-for-bit against `exec::reference` on
/// [`REFERENCE_SAMPLE`] generated queries.
pub fn check_reference(schema: &StarSchema, gen: &Generator, report: &mut Report) {
    let mismatches: Vec<String> = gen
        .queries(REFERENCE_BLOCK, REFERENCE_SAMPLE)
        .iter()
        .filter_map(|q| {
            let kernel = execute(schema, q).expect("kernel").scalar().expect("scalar");
            let oracle =
                reference::execute(schema, q).expect("reference").scalar().expect("scalar");
            (kernel.to_bits() != oracle.to_bits())
                .then(|| format!("{}: {kernel} vs {oracle}", q.name))
        })
        .collect();
    report.check(
        "kernel_equals_reference",
        mismatches.is_empty(),
        format!("{REFERENCE_SAMPLE} queries, {} differ {mismatches:?}", mismatches.len()),
    );
}

/// What every workload reports about the mechanisms on its own instance:
/// the three relative errors and the reference check.
pub fn report_accuracy(schema: &StarSchema, gen: &Generator, report: &mut Report) {
    let [pm_low, pm_one, wd_one] = relative_errors(schema);
    report.put("rel_err_pm_eps0.1", pm_low);
    report.put("rel_err_pm_eps1", pm_one);
    report.put("rel_err_wd_eps1", wd_one);
    check_reference(schema, gen, report);
}

/// The `mech_sf1` workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("mech_sf1");
    let gen = Generator::new(opts.seed);
    let scale = opts.shrink(1.0);
    let mut rng = StarRng::from_seed(opts.seed).derive("benchmark/mech");
    let mut next = PM_BLOCK * BLOCK;

    let mut gen_rows_per_s = 0.0;
    let (schema, setups) = stack::set_up(|| {
        let start = Instant::now();
        let schema = stack::ssb(scale);
        gen_rows_per_s = schema.fact().num_rows() as f64 / start.elapsed().as_secs_f64();
        answer_for(&schema, &gen, &mut rng, &mut next, (1, WARMUP), None);
        schema
    });
    report.note(format!(
        "mech_sf1: SF {scale} ({} fact rows), one caller thread answering one generated query \
         after the other, {} slices x {:.2} s",
        schema.fact().num_rows(),
        opts.slices(),
        opts.slice().as_secs_f64()
    ));

    let epoch = Instant::now();
    let mut tracer = opts.trace.then(|| Tracer::new(epoch, 0));
    let window = (opts.slices(), opts.slice());
    let answered = answer_for(&schema, &gen, &mut rng, &mut next, window, tracer.as_mut());
    report.attempted = answered.iter().map(|s| s.len() as u64).sum();
    let slices = Slices::of(answered, &vec![opts.slice().as_secs_f64(); opts.slices()]);
    if let Some(mut tracer) = tracer {
        slices.report_traced(&mut report);
        report.put("ssb.gen_rows_per_s", gen_rows_per_s);
        layers::measure(&schema, &gen, opts, Entry::Library, &mut tracer, &mut report);
        layers::write_trace("mech_sf1", tracer, &mut report);
        return report;
    }
    slices.report(&setups, "PM answers", &mut report);
    report_accuracy(&schema, &gen, &mut report);
    report.put("peak_rss_mb", stack::peak_rss_mb());
    report
}
