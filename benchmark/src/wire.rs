//! The three `wire_*` workloads: SQL over TCP through the whole stack —
//! gate → router → coalescing, journaling service → kernel.
//!
//! One generator process, [`CLIENTS`] connections with a tenant each,
//! closed loop: a connection sends its next request only when a reply
//! frees a slot of its pipeline depth. Latency is send → recv on the
//! client, in nanoseconds, per request.

use crate::gen::{Generator, BLOCK};
use crate::layers::{self, Entry};
use crate::load::{Driven, Slices};
use crate::report::Report;
use crate::stack::{self, tenant, token, CLIENTS, DATASET, EPSILON};
use crate::trace::Tracer;
use crate::{mech, Opts};
use starj_durable::TempDir;
use starj_engine::{fact_scan_count, to_sql, StarSchema};
use starj_gate::{sql_request, Gate, GateClient, GateConfig};
use starj_router::Router;
use starj_service::MetricsSnapshot;
use starj_telemetry::Json;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Which wire workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every query distinct, one outstanding request per connection.
    Adhoc,
    /// Every query distinct, [`PIPELINE`] outstanding per connection.
    Burst,
    /// A hot set answered in set-up; every timed request is a replay,
    /// [`PIPELINE`] outstanding per connection.
    Repeat,
}

/// Requests a pipelining connection keeps outstanding. Above the gate's
/// per-connection in-flight cap (32), so replies stream out as the cap
/// forces the oldest one, not in bursts paced by the reader's 5 ms idle
/// poll — at 16 outstanding that pacing made `wire_burst` swing between
/// 1 370 and 1 730 qps from run to run.
const PIPELINE: usize = 48;
/// Hot queries per tenant in `wire_repeat`.
const HOT: usize = 64;
/// SSB scale factor of the served instance: 600 k fact rows, LLC-resident.
const SCALE: f64 = 0.1;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Adhoc => "wire_adhoc",
            Kind::Burst => "wire_burst",
            Kind::Repeat => "wire_repeat",
        }
    }

    fn depth(self) -> usize {
        if self == Kind::Adhoc {
            1
        } else {
            PIPELINE
        }
    }

    /// Warm-up requests per connection, counted in `setup_s`.
    fn warmup(self) -> usize {
        match self {
            Kind::Adhoc => 40,
            Kind::Burst => 640,
            Kind::Repeat => 30_000,
        }
    }

    /// Distinct SQL statements rendered per connection in set-up. A
    /// connection that outruns them renders further ones as it goes.
    fn rendered(self, seconds: f64) -> usize {
        match self {
            Kind::Adhoc => (400.0 * seconds) as usize,
            Kind::Burst => (3_000.0 * seconds) as usize,
            Kind::Repeat => HOT,
        }
    }
}

/// One connection and its tenant's inputs.
struct Client {
    conn: GateClient,
    token: String,
    /// First draw index of this connection's generator block.
    base: u64,
    /// Distinct statements in draw order, or the hot set.
    sql: Vec<String>,
    /// Requests sent so far.
    sent: usize,
    /// Fresh answers received, each charged [`EPSILON`].
    charged: u64,
    /// `wire_repeat`: bits of each hot query's first answer.
    first: Vec<u64>,
}

/// A measured server with its connected clients. Field order is drop
/// order: connections close before the gate joins their threads, and the
/// journal directory goes last.
struct Stage {
    clients: Vec<Client>,
    gate: Gate,
    router: Arc<Router>,
    schema: Arc<StarSchema>,
    journal: TempDir,
    gen_rows_per_s: f64,
}

/// When a connection stops sending.
#[derive(Clone, Copy)]
enum Stop {
    After(usize),
    At(Instant),
}

/// What one run of the closed loop needs besides the client.
struct Loop<'a> {
    kind: Kind,
    schema: &'a StarSchema,
    gen: &'a Generator,
    stop: Stop,
    /// Start of the timed window and slice length; a tracer records spans
    /// in odd slices only.
    epoch: Instant,
    slice: Duration,
}

impl Client {
    /// The statement of request number `n`.
    fn statement(
        &self,
        kind: Kind,
        n: usize,
        schema: &StarSchema,
        gen: &Generator,
    ) -> Cow<'_, str> {
        let rendered = if kind == Kind::Repeat { self.sql.get(n % HOT) } else { self.sql.get(n) };
        match rendered {
            Some(sql) => Cow::Borrowed(sql),
            None => Cow::Owned(to_sql(schema, &gen.query(self.base + n as u64))),
        }
    }

    /// Checks one reply. `hot` is the hot-set slot it replays, if any.
    fn accept(&mut self, reply: &Json, hot: Option<usize>) -> Result<(), String> {
        let num = |key: &str| reply.get(key).and_then(Json::as_f64);
        if num("ok") != Some(1.0) {
            return Err(format!("refused: {}", reply.render()));
        }
        let value = num("value").ok_or("reply carries no scalar value")?;
        let (cached, cost) = (num("cached") == Some(1.0), num("cost_epsilon").unwrap_or(f64::NAN));
        match hot {
            None if cached || cost.to_bits() != EPSILON.to_bits() => {
                Err(format!("a distinct query came back cached={cached} charged {cost}"))
            }
            None => {
                self.charged += 1;
                Ok(())
            }
            Some(slot) if !cached || cost != 0.0 || value.to_bits() != self.first[slot] => Err(
                format!("replay of hot query {slot} came back cached={cached} charged {cost} value {value}"),
            ),
            Some(_) => Ok(()),
        }
    }

    /// Runs the closed loop at the workload's pipeline depth until `stop`,
    /// then drains what is still outstanding.
    fn drive(&mut self, run: &Loop, mut tracer: Option<&mut Tracer>) -> Driven {
        let mut out = Driven::default();
        // (request number, send start, span ids when traced)
        let mut inflight: VecDeque<(usize, Instant, Option<u64>)> = VecDeque::new();
        let started = self.sent;
        loop {
            // Fill the pipeline while the window is open.
            while inflight.len() < run.kind.depth() {
                let open = match run.stop {
                    Stop::After(n) => self.sent - started < n,
                    Stop::At(deadline) => Instant::now() < deadline,
                };
                if !open {
                    break;
                }
                let n = self.sent;
                let sql = self.statement(run.kind, n, run.schema, run.gen);
                let start = Instant::now();
                let traced = tracer.as_deref_mut().filter(|_| {
                    (start.duration_since(run.epoch).as_nanos() / run.slice.as_nanos()) % 2 == 1
                });
                let request = sql_request(0, &self.token, DATASET, &sql, EPSILON);
                if let Err(e) = self.conn.send(request) {
                    out.fail(format!("send failed: {e}"));
                    return out;
                }
                let root = traced.map(|t| {
                    let root = t.reserve();
                    let id = t.reserve();
                    t.record(id, root, n as u64, "gate.send", start, Instant::now());
                    root
                });
                self.sent += 1;
                out.attempted += 1;
                inflight.push_back((n, start, root));
            }
            let Some((n, start, root)) = inflight.pop_front() else { return out };
            let recv_start = Instant::now();
            let reply = self.conn.recv();
            let done = Instant::now();
            if let (Some(root), Some(t)) = (root, tracer.as_deref_mut()) {
                let id = t.reserve();
                t.record(id, root, n as u64, "gate.recv", recv_start, done);
                t.record(root, 0, n as u64, "wire.request", start, done);
            }
            let hot = (run.kind == Kind::Repeat).then_some(n % HOT);
            match reply.map_err(|e| e.to_string()).and_then(|r| self.accept(&r, hot)) {
                Ok(()) => out.samples.push((done, done.duration_since(start).as_nanos() as u64)),
                Err(why) => out.fail(why),
            }
        }
    }
}

/// Runs every client's loop on its own thread, released together.
fn drive_all(clients: &mut [Client], run: &Loop, tracers: &mut [Option<Tracer>]) -> Vec<Driven> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(client, tracer)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client.drive(run, tracer.as_mut())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// Everything before the first timed request: data generation, server open
/// on a fresh journal, tenants, bind and connect, SQL rendering, warm-up.
fn setup(kind: Kind, opts: &Opts, gen: &Generator) -> Stage {
    let start = Instant::now();
    let schema = stack::ssb(opts.shrink(SCALE));
    let gen_rows_per_s = schema.fact().num_rows() as f64 / start.elapsed().as_secs_f64();
    let journal = stack::journal_dir(kind.name());
    let router = stack::open_router(&schema, opts.seed, journal.path());
    let config = GateConfig {
        tokens: (0..CLIENTS).map(|c| (token(c), tenant(c))).collect(),
        ..GateConfig::default()
    };
    let gate = Gate::bind(Arc::clone(&router), config, "127.0.0.1:0").expect("bind the gate");
    let rendered = kind.rendered(opts.seconds);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            conn: GateClient::connect(gate.addr()).expect("connect to the gate"),
            token: token(c),
            base: c as u64 * BLOCK,
            sql: gen.sql(&schema, c as u64, rendered),
            sent: 0,
            charged: 0,
            first: Vec::new(),
        })
        .collect();

    if kind == Kind::Repeat {
        // Answer each tenant's hot set once, pipelined; these are the only
        // requests of the workload that scan, journal and spend.
        for client in &mut clients {
            for sql in &client.sql {
                let request = sql_request(0, &client.token, DATASET, sql, EPSILON);
                client.conn.send(request).expect("send a hot query");
            }
            for _ in 0..HOT {
                let reply = client.conn.recv().expect("hot-set answer");
                let value = reply.get("value").and_then(Json::as_f64).expect("scalar answer");
                client.first.push(value.to_bits());
                client.charged += 1;
            }
        }
    }
    let warm = Loop {
        kind,
        schema: &schema,
        gen,
        stop: Stop::After(opts.count(kind.warmup())),
        epoch: Instant::now(),
        slice: opts.slice(),
    };
    for driven in
        drive_all(&mut clients, &warm, &mut (0..CLIENTS).map(|_| None).collect::<Vec<_>>())
    {
        assert_eq!(driven.failed, 0, "warm-up failed: {:?}", driven.first_failure);
    }
    Stage { clients, gate, router, schema, journal, gen_rows_per_s }
}

pub fn run(kind: Kind, opts: &Opts) -> Report {
    let mut report = Report::new(kind.name());
    let gen = Generator::new(opts.seed);

    let (mut stage, setups) = stack::set_up(|| setup(kind, opts, &gen));
    report.note(format!(
        "{}: SF {} ({} fact rows), {CLIENTS} connections x {} outstanding, closed loop, {} slices \
         x {:.2} s; journal on {}, written and not fsync'd",
        kind.name(),
        opts.shrink(SCALE),
        stage.schema.fact().num_rows(),
        kind.depth(),
        opts.slices(),
        opts.slice().as_secs_f64(),
        stack::filesystem_of(stage.journal.path()),
    ));

    // The timed window.
    let scans_before = fact_scan_count();
    let bytes_before = stack::journal_bytes(stage.journal.path());
    let served_before = stage.router.metrics().aggregate;
    let frames_before = stage.gate.metrics().frames_in.load(Ordering::Relaxed);
    let epoch = Instant::now();
    let window = opts.slice() * opts.slices() as u32;
    let timed = Loop {
        kind,
        schema: &stage.schema,
        gen: &gen,
        stop: Stop::At(epoch + window),
        epoch,
        slice: opts.slice(),
    };
    let mut tracers: Vec<Option<Tracer>> =
        (0..CLIENTS).map(|c| opts.trace.then(|| Tracer::new(epoch, c as u64 + 1))).collect();
    let driven = drive_all(&mut stage.clients, &timed, &mut tracers);
    let scans = fact_scan_count() - scans_before;
    let journaled = stack::journal_bytes(stage.journal.path()) - bytes_before;
    let served = delta(&stage.router.metrics().aggregate, &served_before);

    Driven::tally(&driven, &mut report);
    let outran = stage.clients.iter().filter(|c| kind != Kind::Repeat && c.sent > c.sql.len());
    if outran.count() > 0 {
        report.note(
            "a connection outran its pre-rendered SQL and rendered the rest in its loop".into(),
        );
    }

    // Ledgers: every tenant paid exactly ε per fresh answer, nothing held.
    for (c, client) in stage.clients.iter().enumerate() {
        let usage = stage.router.tenant_usage(DATASET, &tenant(c)).expect("tenant usage");
        let expected = client.charged as f64 * EPSILON;
        report.check(
            &format!("ledger_{}", tenant(c)),
            usage.spent_epsilon.to_bits() == expected.to_bits() && usage.in_flight_epsilon == 0.0,
            format!(
                "spent {} for {} fresh answers (expected {expected}), {} in flight",
                usage.spent_epsilon, client.charged, usage.in_flight_epsilon
            ),
        );
    }
    if kind == Kind::Repeat {
        report.check(
            "replays_bypass_kernel_and_journal",
            scans == 0 && journaled == 0,
            format!("{scans} fact scans and {journaled} journal bytes in the timed window"),
        );
    } else {
        report.check("fresh_queries_scan", scans > 0, format!("{scans} fact scans"));
    }

    let slices = Slices::bin(&driven, epoch, opts.slice(), opts.slices());
    let schema = Arc::clone(&stage.schema);
    if opts.trace {
        let wire_p50_ns = slices.untraced_p50_ns();
        slices.report_traced(&mut report);
        report.put("trace.wire_p50_ms", wire_p50_ns as f64 / 1e6);
        report.put("ssb.gen_rows_per_s", stage.gen_rows_per_s);
        report.put(
            "gate.frames_in",
            (stage.gate.metrics().frames_in.load(Ordering::Relaxed) - frames_before) as f64,
        );
        let refusals: u64 = stage.gate.metrics().refusal_counts().iter().map(|(_, n)| n).sum();
        report.put("gate.refusals", refusals as f64);
        report.put("engine.timed_scans", scans as f64);
        report.put("durable.timed_bytes", journaled as f64);
        layers::served_shares(&served, scans, &mut report);
        drop(stage);
        let mut tracer = Tracer::new(epoch, CLIENTS as u64 + 1);
        layers::measure(
            &schema,
            &gen,
            opts,
            Entry::Wire { p50_ns: wire_p50_ns },
            &mut tracer,
            &mut report,
        );
        tracer.spans.extend(tracers.into_iter().flatten().flat_map(|t| t.spans));
        layers::write_trace(kind.name(), tracer, &mut report);
        return report;
    }
    drop(stage);
    slices.report(&setups, "replies", &mut report);
    mech::report_accuracy(&schema, &gen, &mut report);
    report.put("peak_rss_mb", stack::peak_rss_mb());
    report
}

/// Counter movement of the measured server over the timed window.
fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    d.queries_served -= before.queries_served;
    d.cache_hits -= before.cache_hits;
    d.budget_refusals -= before.budget_refusals;
    d.admission_rejections -= before.admission_rejections;
    d.fused_queries_saved -= before.fused_queries_saved;
    d.coalesced_requests -= before.coalesced_requests;
    d.coalesced_batches -= before.coalesced_batches;
    d
}
