//! The traced run's per-layer measurements, layer = crate name.
//!
//! After the timed window, the next unused generated inputs are replayed
//! single-threaded through each layer boundary in turn, from outside and
//! through public functions only: frame → parse → canon →
//! `Router::pm_answer` → `Service::pm_answer` → `dp_starj::pm_answer` →
//! `execute_with` → `BudgetWal::append`. Router and service are twins built
//! from the measured server's configuration on journals of their own, so
//! the measured server's ledgers and caches are never touched. A layer's
//! self time is the difference of adjacent medians, so the self times
//! telescope to the wire median.

use crate::gen::Generator;
use crate::mech::w1_workload;
use crate::report::{Report, RESIDUAL_TOLERANCE};
use crate::stack::{self, tenant, token, DATASET, EPSILON, MEASURED_SYNC};
use crate::trace::{self, Tracer};
use crate::{stats, Opts};
use dp_starj::workload::{wd_reconstruct, workload_axes};
use dp_starj::{pm_answer, wd_answer, PmConfig, WdConfig};
use starj_durable::{BudgetWal, JournalRecord, RecordKind, SyncPolicy, WalConfig};
use starj_engine::{
    canonicalize, execute_batch_with, execute_with, fact_scan_count, to_sql, Agg, QueryResult,
    ScanOptions, ScanPlan, StarQuery, StarSchema, WeightHistogram,
};
use starj_gate::wire::{answer_frame, frame_of, read_frame, write_frame};
use starj_gate::{parse_canonical, sql_request, WireRequest};
use starj_linalg::{build_strategy, pinv};
use starj_noise::{DiscreteLaplace, Laplace, PrivacyBudget, StarRng};
use starj_service::{MetricsSnapshot, ServiceAnswer};
use starj_telemetry::{cost_counters, kernel_counters, Json, RequestKind, Stage, TraceOutcome};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator block the replay draws from; no timed loop touches it.
const REPLAY_BLOCK: u64 = 12;
/// Inputs replayed through the boundaries.
const REPLAY_INPUTS: usize = 1_000;
/// The replay stops early once it has used this long (only SF 1 does).
const REPLAY_BUDGET: Duration = Duration::from_secs(5);
/// Budget of each of the engine's other regimes (fused, parallel, histogram).
const REGIME_BUDGET: Duration = Duration::from_millis(800);
/// Queries per fused batch.
const BATCH: usize = 8;
/// Requests whose journal records are flushed, to time and count the flush.
const FLUSHED_REQUESTS: usize = 200;
/// Scans re-run untimed to read the kernel's counters per scan.
const COUNTED_SCANS: usize = 64;
/// Draws timed per noise sampler.
const NOISE_DRAWS: u32 = 1_000_000;
/// Size of the buffer whose sequential read gives `engine.stream_gbps`.
const STREAM_BYTES: usize = 256 << 20;

/// Where a workload's requests enter the stack; every layer below the
/// entry is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Entry {
    /// Over TCP, with the client-observed median of the untraced slices.
    Wire { p50_ns: u64 },
    /// `Service::pm_answer` on the caller's thread, as `durable_churn` calls.
    Service,
    /// `dp_starj::pm_answer`, as `mech_sf1` calls.
    Library,
}

fn median_us(samples: &[u64]) -> f64 {
    stats::median_ns(&mut samples.to_vec()) as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Calls `f` on each input in turn, under one root span, until the inputs
/// or `budget` run out. Returns each call's nanoseconds.
fn repeat<T>(
    tracer: &mut Tracer,
    name: &'static str,
    inputs: &[T],
    budget: Duration,
    mut f: impl FnMut(&T),
) -> Vec<u64> {
    let root = tracer.reserve();
    let start = Instant::now();
    let mut samples = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        samples.push(tracer.call(root, i as u64, name, || f(input)).1);
    }
    tracer.record(root, 0, 0, "regime", start, Instant::now());
    assert!(!samples.is_empty(), "{name}: nothing ran");
    samples
}

/// Shares of the measured server's own counters over the timed window, in
/// which the process scanned the fact table `scans` times.
pub fn served_shares(served: &MetricsSnapshot, scans: u64, report: &mut Report) {
    report.put("service.cache_hit_share", ratio(served.cache_hits, served.queries_served));
    report.put("service.scans_per_req", ratio(scans, served.queries_served));
    report.put("service.batch_mean", ratio(served.coalesced_requests, served.coalesced_batches));
    report.put(
        "service.fused_saved_share",
        ratio(served.fused_queries_saved, served.coalesced_requests),
    );
    report.put("service.refusals", (served.budget_refusals + served.admission_rejections) as f64);
}

fn journal_record(kind: RecordKind, request: u64) -> JournalRecord {
    JournalRecord {
        kind,
        tenant: tenant(0),
        query_hash: request,
        epsilon: EPSILON,
        delta: 0.0,
        data_version: 0,
        request_id: 0,
    }
}

/// Nanoseconds of every boundary call of the replay, in input order.
#[derive(Default)]
struct Boundaries {
    frame: Vec<u64>,
    parse: Vec<u64>,
    canon: Vec<u64>,
    plan: Vec<u64>,
    router: Vec<u64>,
    service: Vec<u64>,
    pm: Vec<u64>,
    exec1: Vec<u64>,
    append: Vec<u64>,
}

/// Measures every layer at or below `entry` and reports its metrics.
pub fn measure(
    schema: &Arc<StarSchema>,
    gen: &Generator,
    opts: &Opts,
    entry: Entry,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let wire = matches!(entry, Entry::Wire { .. });
    let served = entry != Entry::Library;
    let drawn = gen.queries(REPLAY_BLOCK, opts.count(REPLAY_INPUTS));
    // The gate submits the canonical form of what it parsed.
    let queries: Vec<StarQuery> = drawn.iter().map(|q| canonicalize(q).to_query("sql")).collect();
    let options = ScanOptions::default();
    let (token, tenant) = (token(0), tenant(0));
    let cost_before = cost_counters().snapshot();

    // Twins of the measured server, each on a journal of its own, and a
    // scratch journal under the same flush policy.
    let router = wire.then(|| {
        let journal = stack::journal_dir("twin-router");
        (stack::open_router(schema, opts.seed, journal.path()), journal)
    });
    let service = served.then(|| {
        let journal = stack::journal_dir("twin-service");
        (stack::open_service(schema, opts.seed, wire, journal.path(), MEASURED_SYNC), journal)
    });
    let scratch = stack::journal_dir("twin-wal");
    let wal_config = WalConfig { sync: MEASURED_SYNC, ..WalConfig::at(scratch.path()) };
    let wal = served.then(|| BudgetWal::open(wal_config.clone(), None).expect("scratch journal").0);

    // The replay: each input goes through every boundary in turn, under
    // one root span, so the medians that are subtracted saw the same
    // inputs under the same conditions.
    let mut rng = StarRng::from_seed(opts.seed).derive("benchmark/layers");
    let config = PmConfig::default();
    let mut ns = Boundaries::default();
    let mut noisy = Vec::with_capacity(queries.len());
    let start = Instant::now();
    for (i, (query, drawn)) in queries.iter().zip(&drawn).enumerate() {
        if start.elapsed() >= REPLAY_BUDGET {
            break;
        }
        let request = i as u64 + 1;
        let root = tracer.reserve();
        let began = Instant::now();
        if wire {
            let sql = to_sql(schema, drawn);
            // Both frames of a request, on an in-memory buffer: the request
            // as the client sends and the gate decodes it, the answer as
            // the gate renders and the client parses it.
            ns.frame.push(
                tracer
                    .call(root, request, "gate.frame", || {
                        let body = frame_of(&sql_request(request, &token, DATASET, &sql, EPSILON));
                        let mut buffer = Vec::with_capacity(body.len() + 4);
                        write_frame(&mut buffer, &body).expect("write to memory");
                        let body = read_frame(&mut buffer.as_slice(), 1 << 20).expect("read");
                        black_box(WireRequest::decode(&body.expect("one frame")).expect("decodes"));
                        let answer = ServiceAnswer {
                            name: "sql".into(),
                            result: QueryResult::Scalar(request as f64 + 0.5),
                            noisy_query: None,
                            cached: false,
                            cost: Some(PrivacyBudget::pure(EPSILON).expect("valid ε")),
                        };
                        let noisy_sql = Some(to_sql(schema, query));
                        let body = frame_of(&answer_frame(request, &answer, noisy_sql));
                        buffer.clear();
                        write_frame(&mut buffer, &body).expect("write to memory");
                        let body = read_frame(&mut buffer.as_slice(), 1 << 24).expect("read");
                        let text = String::from_utf8(body.expect("one frame")).expect("UTF-8");
                        black_box(Json::parse(&text).expect("reply parses"));
                    })
                    .1,
            );
            ns.parse.push(
                tracer
                    .call(root, request, "gate.parse", || {
                        black_box(parse_canonical(schema, &sql).expect("generated SQL parses"));
                    })
                    .1,
            );
        }
        ns.canon.push(
            tracer.call(root, request, "engine.canonicalize", || black_box(canonicalize(drawn))).1,
        );
        ns.plan.push(
            tracer
                .call(root, request, "engine.plan", || {
                    let mut plan = ScanPlan::with_options(schema, options).expect("plan");
                    plan.add_query(query).expect("planned");
                    black_box(plan.num_queries());
                })
                .1,
        );
        if let Some((router, _)) = &router {
            ns.router.push(
                tracer
                    .call(root, request, "router.pm_answer", || {
                        black_box(
                            router.pm_answer(DATASET, &tenant, query, EPSILON).expect("answer"),
                        );
                    })
                    .1,
            );
        }
        if let Some((service, _)) = &service {
            ns.service.push(
                tracer
                    .call(root, request, "service.pm_answer", || {
                        black_box(service.pm_answer(&tenant, query, EPSILON).expect("answer"));
                    })
                    .1,
            );
        }
        let (answer, pm_ns) = tracer.call(root, request, "core.pm_answer", || {
            pm_answer(schema, query, EPSILON, &config, &mut rng).expect("PM")
        });
        ns.pm.push(pm_ns);
        // The scan of the very query the mechanism perturbed.
        ns.exec1.push(
            tracer
                .call(root, request, "engine.execute", || {
                    black_box(execute_with(schema, &answer.noisy_query, options).expect("scan"));
                })
                .1,
        );
        noisy.push(answer.noisy_query);
        if let Some(wal) = &wal {
            for kind in [RecordKind::Reserve, RecordKind::Commit] {
                let record = journal_record(kind, request);
                ns.append.push(
                    tracer
                        .call(root, request, "durable.append", || {
                            wal.append(&record).expect("append")
                        })
                        .1,
                );
            }
        }
        tracer.record(root, 0, request, "replay", began, Instant::now());
    }
    let replayed = noisy.len();
    assert!(replayed > 0, "nothing replayed");
    report.note(format!("{replayed} inputs replayed through each boundary in turn"));

    // ---- core and engine --------------------------------------------------
    let rows = schema.fact().num_rows() as f64;
    let (pm_us, exec1_us) = (median_us(&ns.pm), median_us(&ns.exec1));
    report.put("core.pm_us", pm_us);
    // Paired: each answer against the scan of the very query it perturbed.
    let perturb: Vec<u64> =
        ns.pm.iter().zip(&ns.exec1).map(|(pm, scan)| pm.saturating_sub(*scan)).collect();
    report.put("core.perturb_us", median_us(&perturb));
    report.put("engine.exec1_ms", exec1_us / 1e3);
    report.put("engine.rows_per_s_1", rows / (exec1_us / 1e6));
    report.put("engine.canon_us", median_us(&ns.canon));
    report.put("engine.plan_us", median_us(&ns.plan));

    // ---- service and durable ----------------------------------------------
    if let (Some((service, journal)), Some(wal)) = (service, wal) {
        // The program's own stage spans, over the requests still in its
        // ring, against the harness's clock on the same requests.
        let spans: Vec<_> = (service.telemetry().spans().into_iter())
            .filter(|s| s.kind == RequestKind::Pm && s.outcome == TraceOutcome::Ok)
            .collect();
        let mut staged_ns = 0.0;
        for stage in Stage::ALL {
            let total: u64 = spans.iter().filter_map(|s| s.stage(stage)).map(|(a, b)| b - a).sum();
            let mean_ns = total as f64 / spans.len().max(1) as f64;
            staged_ns += mean_ns;
            report.put(&format!("service.stage.{}_us", stage.name()), mean_ns / 1e3);
        }
        let last = &ns.service[replayed - spans.len().min(replayed)..];
        let mean_call_ns = last.iter().sum::<u64>() as f64 / last.len().max(1) as f64;
        let stage_residual = (mean_call_ns - staged_ns) / mean_call_ns;
        report.put("trace.residual_stage_share", stage_residual);
        report.note(format!(
            "service.call mean {:.1} us over the last {} requests vs {:.1} us in its own stage \
             spans: residual {:.1} % ({} the {:.0} % tolerance)",
            mean_call_ns / 1e3,
            last.len(),
            staged_ns / 1e3,
            stage_residual * 100.0,
            if stage_residual.abs() <= RESIDUAL_TOLERANCE { "within" } else { "outside" },
            RESIDUAL_TOLERANCE * 100.0,
        ));

        let counters = service.durable_status().expect("journaled twin").counters;
        let records_per_req = counters.records as f64 / replayed as f64;
        report.put("durable.records_per_req", records_per_req);
        report.put("durable.bytes_per_req", counters.bytes as f64 / replayed as f64);
        let (call_us, append_us) = (median_us(&ns.service), median_us(&ns.append));
        report.put("service.call_us", call_us);
        report.put("service.self_us", call_us - pm_us - append_us * records_per_req);
        report.put("durable.append_us", append_us);

        // The same requests again: cache replays.
        let hits =
            repeat(tracer, "service.pm_answer.hit", &queries[..replayed], REPLAY_BUDGET, |q| {
                let answer = service.pm_answer(&tenant, q, EPSILON).expect("replay");
                assert!(answer.cached, "the second answer of a query is a replay");
            });
        report.put("service.hit_us", median_us(&hits));
        drop((service, journal));

        // Replay speed of the scratch journal, unless the workload timed a
        // journal of its own.
        drop(wal);
        if report.get("durable.replay_rec_per_s").is_none() {
            let start = Instant::now();
            let (_, recovery) = BudgetWal::open(wal_config, None).expect("reopen scratch journal");
            report.put(
                "durable.replay_rec_per_s",
                recovery.records as f64 / start.elapsed().as_secs_f64(),
            );
            report.put("durable.segments", recovery.segments as f64);
        }

        // What a flush costs on this box's disk, and how many a request
        // needs: the same records and further requests under group fsync.
        let flushed_dir = stack::journal_dir("twin-wal-group");
        let flushed = WalConfig { sync: SyncPolicy::Group, ..WalConfig::at(flushed_dir.path()) };
        let (flushed_wal, _) = BudgetWal::open(flushed, None).expect("scratch journal");
        let records: Vec<JournalRecord> = (0..opts.count(FLUSHED_REQUESTS) as u64 * 2)
            .map(|i| {
                journal_record(
                    if i % 2 == 0 { RecordKind::Reserve } else { RecordKind::Commit },
                    i / 2,
                )
            })
            .collect();
        let flushed_ns =
            repeat(tracer, "durable.append.group", &records, REPLAY_BUDGET, |record| {
                flushed_wal.append(record).expect("append");
            });
        report.put("durable.fsync_us", median_us(&flushed_ns) - append_us);
        let journal = stack::journal_dir("twin-service-group");
        let flushed_service =
            stack::open_service(schema, opts.seed, wire, journal.path(), SyncPolicy::Group);
        let extra = gen.queries(REPLAY_BLOCK + 1, opts.count(FLUSHED_REQUESTS));
        let ran = repeat(tracer, "service.pm_answer.group", &extra, REPLAY_BUDGET, |q| {
            black_box(flushed_service.pm_answer(&tenant, q, EPSILON).expect("answer"));
        });
        let fsyncs = flushed_service.durable_status().expect("journaled twin").counters.fsyncs;
        report.put("durable.fsyncs_per_req", fsyncs as f64 / ran.len() as f64);
    }

    // ---- gate and router ----------------------------------------------------
    if let Entry::Wire { p50_ns } = entry {
        let (frame_us, parse_us) = (median_us(&ns.frame), median_us(&ns.parse));
        let (router_us, wire_us) = (median_us(&ns.router), p50_ns as f64 / 1e3);
        let value = |name: &str| report.get(name).expect("measured above");
        let (service_us, service_self_us) = (value("service.call_us"), value("service.self_us"));
        let gate_self_us = wire_us - router_us;
        // What the gate's own measured code does not explain: socket, poll
        // interval and flush wait.
        let residual = (gate_self_us - frame_us - parse_us - value("engine.canon_us")) / wire_us;
        let durable_us = service_us - service_self_us - pm_us;
        report.note(format!(
            "wire p50 {wire_us:.1} us = gate.self {gate_self_us:.1} + router.self {:.1} + \
             service.self {service_self_us:.1} + durable {durable_us:.1} + core.pm {pm_us:.1} (of \
             which engine.exec1 {exec1_us:.1}); {:.1} % of the wire p50 is gate time that frame + \
             parse + canon do not explain ({} the {:.0} % tolerance)",
            router_us - service_us,
            residual * 100.0,
            if residual.abs() <= RESIDUAL_TOLERANCE { "within" } else { "outside" },
            RESIDUAL_TOLERANCE * 100.0,
        ));
        report.put("gate.frame_us", frame_us);
        report.put("gate.parse_us", parse_us);
        report.put("gate.self_ms", gate_self_us / 1e3);
        report.put("router.call_us", router_us);
        report.put("router.self_us", router_us - service_us);
        report.put("trace.residual_wire_share", residual);
    }
    drop(router);

    // ---- core, noise and linalg on W1 ---------------------------------------
    let workload = w1_workload();
    let wd_config = WdConfig::default();
    let rounds: Vec<u32> = (0..200).collect();
    let reconstruct = repeat(tracer, "core.wd_reconstruct", &rounds, REGIME_BUDGET, |_| {
        black_box(wd_reconstruct(schema, &workload, 1.0, &wd_config, &mut rng).expect("WD"));
    });
    report.put("core.wd_reconstruct_us", median_us(&reconstruct));
    let answered = repeat(tracer, "core.wd_answer", &rounds, REGIME_BUDGET, |_| {
        black_box(wd_answer(schema, &workload, 1.0, &wd_config, &mut rng).expect("WD"));
    });
    report.put("core.wd_ms", median_us(&answered) / 1e3);
    let strategy = repeat(tracer, "linalg.strategy", &rounds, REGIME_BUDGET, |_| {
        for (kind, block) in workload.choose_strategies().into_iter().zip(&workload.blocks) {
            let strategy = build_strategy(kind, block.domain).expect("strategy");
            black_box(pinv(&strategy.matrix).expect("pseudo-inverse"));
        }
    });
    report.put("linalg.strategy_us", median_us(&strategy));
    let (laplace, discrete) =
        (Laplace::new(1.0).expect("scale"), DiscreteLaplace::new(1.0).expect("scale"));
    let per_draw = |draw: &mut dyn FnMut()| {
        let start = Instant::now();
        (0..NOISE_DRAWS).for_each(|_| draw());
        start.elapsed().as_nanos() as f64 / f64::from(NOISE_DRAWS)
    };
    let laplace_ns = per_draw(&mut || {
        black_box(laplace.sample(&mut rng));
    });
    let discrete_ns = per_draw(&mut || {
        black_box(discrete.sample(&mut rng));
    });
    report.put("noise.laplace_ns", laplace_ns);
    report.put("noise.discrete_ns", discrete_ns);

    // ---- the engine's other regimes -------------------------------------------
    let batches: Vec<&[StarQuery]> = noisy.chunks(BATCH).collect();
    let fused_before = kernel_counters().snapshot();
    let exec8 = repeat(tracer, "engine.execute_batch", &batches, REGIME_BUDGET, |batch| {
        black_box(execute_batch_with(schema, batch, options).expect("fused scan"));
    });
    let fused = kernel_counters().snapshot().since(&fused_before);
    let par2 = repeat(tracer, "engine.execute_batch.par2", &batches, REGIME_BUDGET, |batch| {
        black_box(execute_batch_with(schema, batch, ScanOptions::parallel(2)).expect("fused scan"));
    });
    let axes = workload_axes(&workload);
    let hist = repeat(tracer, "engine.histogram", &rounds[..20], REGIME_BUDGET, |_| {
        black_box(WeightHistogram::build(schema, &axes, &Agg::Count, options).expect("histogram"));
    });
    let exec8_us = median_us(&exec8);
    report.put("engine.exec8_ms", exec8_us / 1e3);
    report.put("engine.exec8_par2_ms", median_us(&par2) / 1e3);
    report.put("engine.hist_ms", median_us(&hist) / 1e3);
    report.put("engine.rows_per_s_8", BATCH as f64 * rows / (exec8_us / 1e6));

    // Roofline. Bytes per fact row are computed from column widths, not
    // measured: a 4-byte key per dimension a query filters on, plus the
    // 8-byte measure a SUM reads.
    let bytes_per_row = noisy
        .iter()
        .map(|q| 4 * q.predicate_tables().len() + if q.agg.is_count() { 0 } else { 8 })
        .sum::<usize>() as f64
        / replayed as f64;
    let stream_gbps = stream_gbps();
    report.put("engine.bytes_per_row", bytes_per_row);
    report.put("engine.stream_gbps", stream_gbps);
    report.put(
        "engine.roofline_share",
        bytes_per_row * rows / (exec1_us / 1e6) / (stream_gbps * 1e9),
    );

    // The kernel's own counters per scan: the first scans again, untimed,
    // with nothing else running.
    let counted = &noisy[..replayed.min(COUNTED_SCANS)];
    let (kernel_before, scans_before) = (kernel_counters().snapshot(), fact_scan_count());
    for q in counted {
        black_box(execute_with(schema, q, options).expect("scan"));
    }
    let kernel = kernel_counters().snapshot().since(&kernel_before);
    let probes = kernel.probe_word + kernel.probe_bytes + kernel.probe_bitset;
    report.put(
        "engine.chunks_per_scan",
        ratio(kernel.chunks_scanned, fact_scan_count() - scans_before),
    );
    report.put(
        "engine.staged_copy_per_chunk",
        ratio(kernel.staged_chunk_copies, kernel.chunks_scanned),
    );
    report.put(
        "engine.staged_gather_share",
        ratio(kernel.staged_gathers, kernel.staged_gathers + kernel.direct_gathers),
    );
    report.put(
        "engine.shared_mask_saved_per_chunk",
        ratio(fused.shared_mask_gathers_saved, fused.chunks_scanned),
    );
    report.put("engine.probe_word_share", ratio(kernel.probe_word, probes));
    report.put("engine.probe_bytes_share", ratio(kernel.probe_bytes, probes));
    report.put("engine.probe_bitset_share", ratio(kernel.probe_bitset, probes));
    let cost = cost_counters().snapshot().since(&cost_before);
    report.put(
        "engine.cost_cache_hit_share",
        ratio(cost.cache_hits, cost.cache_hits + cost.cache_builds),
    );
}

/// Sequential read bandwidth of this box: the best of three summing passes
/// over a [`STREAM_BYTES`] buffer, in GB/s.
fn stream_gbps() -> f64 {
    let buffer: Vec<u64> = (0..(STREAM_BYTES / 8) as u64).collect();
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(buffer.iter().fold(0u64, |sum, &x| sum.wrapping_add(x)));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    STREAM_BYTES as f64 / best / 1e9
}

/// Writes the run's spans to `benchmark/out/trace-<workload>.jsonl`.
pub fn write_trace(workload: &str, tracer: Tracer, report: &mut Report) {
    let path = stack::out_dir().join(format!("trace-{workload}.jsonl"));
    let spans = tracer.spans.len();
    trace::write_jsonl(&path, tracer.spans).expect("write the trace file");
    report.note(format!("{spans} spans written to {}", path.display()));
}
