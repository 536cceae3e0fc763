//! `durable_churn`: the write path. `Service::pm_answer` is called directly
//! — no gate, no router, no coalescer: the request runs on its caller's
//! thread — on an instance so small that a scan costs tens of microseconds,
//! so admission, budget reserve, the two journal records of a request and
//! the commit are what is timed. Then the service is dropped and reopened
//! on its journal.

use crate::gen::{Generator, BLOCK};
use crate::layers::{self, Entry};
use crate::load::{Driven, Slices};
use crate::report::Report;
use crate::stack::{self, tenant, CLIENTS, EPSILON, MEASURED_SYNC};
use crate::trace::Tracer;
use crate::{mech, Opts};
use starj_durable::{BudgetWal, JournalRecord, RecordKind, SyncPolicy, TempDir, WalConfig};
use starj_engine::StarSchema;
use starj_service::Service;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// SSB scale factor: 30 k fact rows.
const SCALE: f64 = 0.005;
/// Warm-up requests per thread, counted in `setup_s`.
const WARMUP: usize = 2_000;
/// Commits in the journal whose recovery the traced run times.
const RECOVERY_COMMITS: usize = 100_000;
/// How long the traced run drives a group-fsync'd twin.
const GROUP_SECONDS: f64 = 2.0;

/// One caller thread's position: how many queries of its generator block
/// it has issued, and how many answers it was charged for.
#[derive(Debug, Default, Clone, Copy)]
struct Caller {
    issued: u64,
    charged: u64,
}

/// Field order is drop order: the service closes its journal before the
/// directory is removed.
struct Stage {
    service: Service,
    schema: Arc<StarSchema>,
    journal: TempDir,
    gen_rows_per_s: f64,
    callers: [Caller; CLIENTS],
}

/// What the closed loops of one phase share.
struct Phase<'a> {
    gen: &'a Generator,
    /// Asked before each request with the number this thread has issued in
    /// the phase; the thread stops at the first `false`.
    open: &'a (dyn Fn(u64) -> bool + Sync),
    /// Window start and slice length: a tracer records requests that start
    /// in an odd slice.
    epoch: Instant,
    slice: Duration,
}

/// One request of `tenant`, whose generator block starts at draw `base`.
fn call(
    service: &Service,
    gen: &Generator,
    tenant: &str,
    base: u64,
    caller: &mut Caller,
) -> Result<(), String> {
    let query = gen.query(base + caller.issued);
    caller.issued += 1;
    let answer = service.pm_answer(tenant, &query, EPSILON).map_err(|e| e.to_string())?;
    match answer.cost {
        Some(cost) if !answer.cached && cost.epsilon().to_bits() == EPSILON.to_bits() => {
            caller.charged += 1;
            Ok(())
        }
        other => Err(format!("a distinct query came back cached={} cost {other:?}", answer.cached)),
    }
}

impl Stage {
    /// Runs one closed loop per caller thread, released together: distinct
    /// queries from the thread's own generator block, each answered before
    /// the next is issued.
    fn drive(&mut self, phase: &Phase, tracers: &mut [Option<Tracer>]) -> Vec<Driven> {
        let barrier = Barrier::new(CLIENTS);
        let service = &self.service;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (self.callers.iter_mut().zip(tracers.iter_mut()))
                .enumerate()
                .map(|(thread, (caller, tracer))| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut out = Driven::default();
                        let (tenant, base) = (tenant(thread), thread as u64 * BLOCK);
                        barrier.wait();
                        for n in 0.. {
                            if !(phase.open)(n) {
                                break;
                            }
                            let request = caller.issued;
                            let start = Instant::now();
                            out.attempted += 1;
                            let result = call(service, phase.gen, &tenant, base, caller);
                            let done = Instant::now();
                            let slice = start.duration_since(phase.epoch).as_nanos()
                                / phase.slice.as_nanos();
                            if let Some(t) = tracer.as_mut().filter(|_| slice % 2 == 1) {
                                let id = t.reserve();
                                t.record(id, 0, request, "service.pm_answer", start, done);
                            }
                            match result {
                                Ok(()) => out
                                    .samples
                                    .push((done, done.duration_since(start).as_nanos() as u64)),
                                Err(why) => out.fail(why),
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
        })
    }

    /// A service on a fresh journal with `sync` as its flush policy,
    /// warmed up with a fixed count of requests per thread.
    fn open(schema: Arc<StarSchema>, sync: SyncPolicy, opts: &Opts, gen: &Generator) -> Stage {
        let journal = stack::journal_dir("durable_churn");
        let service = stack::open_service(&schema, opts.seed, false, journal.path(), sync);
        let callers = [Caller::default(); CLIENTS];
        let mut stage = Stage { service, schema, journal, gen_rows_per_s: 0.0, callers };
        let warmup = opts.count(WARMUP) as u64;
        let phase =
            Phase { gen, open: &|n| n < warmup, epoch: Instant::now(), slice: opts.slice() };
        let warm = stage.drive(&phase, &mut no_tracers());
        assert!(warm.iter().all(|d| d.failed == 0), "warm-up failed: {:?}", warm[0].first_failure);
        stage
    }

    /// Drops the service and opens a new one on the same journal.
    fn reopen(self, seed: u64) -> Stage {
        let Stage { service, schema, journal, gen_rows_per_s, callers } = self;
        drop(service);
        let service = stack::open_service(&schema, seed, false, journal.path(), MEASURED_SYNC);
        Stage { service, schema, journal, gen_rows_per_s, callers }
    }

    /// Every tenant's `(spent ε bits, in-flight ε)`.
    fn ledgers(&self) -> Vec<(u64, f64)> {
        (0..CLIENTS)
            .map(|c| {
                let usage = self.service.tenant_usage(&tenant(c)).expect("tenant usage");
                (usage.spent_epsilon.to_bits(), usage.in_flight_epsilon)
            })
            .collect()
    }
}

/// Times `Service::open` on a journal of exactly [`RECOVERY_COMMITS`]
/// requests (a reserve and a commit record each, written here through
/// `BudgetWal::append`), and checks what it recovered.
fn time_recovery(schema: &Arc<StarSchema>, opts: &Opts, report: &mut Report) {
    let commits = opts.count(RECOVERY_COMMITS) as u64;
    let journal = stack::journal_dir("recovery");
    {
        let config = WalConfig { sync: MEASURED_SYNC, ..WalConfig::at(journal.path()) };
        let (wal, _) = BudgetWal::open(config, None).expect("open the recovery journal");
        for request in 0..commits {
            for kind in [RecordKind::Reserve, RecordKind::Commit] {
                wal.append(&JournalRecord {
                    kind,
                    tenant: tenant(request as usize % CLIENTS),
                    query_hash: request,
                    epsilon: EPSILON,
                    delta: 0.0,
                    data_version: 0,
                    request_id: 0,
                })
                .expect("append");
            }
        }
    }
    let start = Instant::now();
    let service = stack::open_service(schema, opts.seed, false, journal.path(), MEASURED_SYNC);
    let secs = start.elapsed().as_secs_f64();
    let replay = service.durable_status().expect("journaled service").replay;
    let spent: Vec<f64> = (0..CLIENTS)
        .map(|c| service.tenant_usage(&tenant(c)).expect("tenant usage").spent_epsilon)
        .collect();
    report.check(
        "recovery_journal",
        replay.commits == commits && spent.iter().sum::<f64>() == commits as f64 * EPSILON,
        format!("{} of {commits} commits replayed in {secs:.3} s; spent {spent:?}", replay.commits),
    );
    report.put("durable.recovery_s", secs);
    report.put("durable.replay_rec_per_s", replay.records as f64 / secs);
    report.put("durable.segments", replay.segments as f64);
}

fn no_tracers() -> Vec<Option<Tracer>> {
    (0..CLIENTS).map(|_| None).collect()
}

/// Everything before the first timed request: data generation, service
/// open on a fresh journal, tenants, warm-up.
fn setup(opts: &Opts, gen: &Generator) -> Stage {
    let start = Instant::now();
    let schema = stack::ssb(opts.shrink(SCALE));
    let gen_rows_per_s = schema.fact().num_rows() as f64 / start.elapsed().as_secs_f64();
    Stage { gen_rows_per_s, ..Stage::open(schema, MEASURED_SYNC, opts, gen) }
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("durable_churn");
    let gen = Generator::new(opts.seed);

    let (mut stage, setups) = stack::set_up(|| setup(opts, &gen));
    report.note(format!(
        "durable_churn: SF {} ({} fact rows), {CLIENTS} caller threads, closed loop, {} slices x \
         {:.2} s; journal on {}, written and not fsync'd",
        opts.shrink(SCALE),
        stage.schema.fact().num_rows(),
        opts.slices(),
        opts.slice().as_secs_f64(),
        stack::filesystem_of(stage.journal.path()),
    ));

    // The timed window.
    let epoch = Instant::now();
    let deadline = epoch + opts.slice() * opts.slices() as u32;
    let mut tracers: Vec<Option<Tracer>> =
        (0..CLIENTS).map(|c| opts.trace.then(|| Tracer::new(epoch, c as u64 + 1))).collect();
    let timed =
        Phase { gen: &gen, open: &|_| Instant::now() < deadline, epoch, slice: opts.slice() };
    let driven = stage.drive(&timed, &mut tracers);
    Driven::tally(&driven, &mut report);

    // Ledgers are exact, and survive a restart bit for bit.
    let acknowledged: u64 = stage.callers.iter().map(|c| c.charged).sum();
    let before = stage.ledgers();
    let expected: Vec<(u64, f64)> =
        stage.callers.iter().map(|c| ((c.charged as f64 * EPSILON).to_bits(), 0.0)).collect();
    report.check(
        "ledgers_exact",
        before == expected,
        format!("(spent bits, in flight) {before:?}, expected {expected:?}"),
    );
    let stage = stage.reopen(opts.seed);
    let replay = stage.service.durable_status().expect("journaled service").replay;
    report.check(
        "recovered_ledgers",
        stage.ledgers() == before && replay.commits == acknowledged,
        format!("{} commits replayed of {acknowledged} acknowledged", replay.commits),
    );

    let slices = Slices::bin(&driven, epoch, opts.slice(), opts.slices());
    let schema = Arc::clone(&stage.schema);

    if opts.trace {
        report.put("ssb.gen_rows_per_s", stage.gen_rows_per_s);
        drop(stage);
        time_recovery(&schema, opts, &mut report);

        // The same loop against a group-fsync'd journal, briefly: what the
        // flush costs on this box's disk.
        let mut flushed = Stage::open(Arc::clone(&schema), SyncPolicy::Group, opts, &gen);
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(opts.shrink(GROUP_SECONDS));
        let grouped =
            Phase { gen: &gen, open: &|_| Instant::now() < until, epoch, slice: opts.slice() };
        let answers: usize =
            flushed.drive(&grouped, &mut no_tracers()).iter().map(|d| d.samples.len()).sum();
        report.put("durable.group_qps", answers as f64 / start.elapsed().as_secs_f64());
        drop(flushed);
        slices.report_traced(&mut report);
        let mut tracer = Tracer::new(epoch, CLIENTS as u64 + 1);
        layers::measure(&schema, &gen, opts, Entry::Service, &mut tracer, &mut report);
        tracer.spans.extend(tracers.into_iter().flatten().flat_map(|t| t.spans));
        layers::write_trace("durable_churn", tracer, &mut report);
        return report;
    }
    drop(stage);

    slices.report(&setups, "answers", &mut report);
    mech::report_accuracy(&schema, &gen, &mut report);
    report.put("peak_rss_mb", stack::peak_rss_mb());
    report
}
