//! The wire listener: a dependency-free blocking-accept front door.
//!
//! [`Gate::bind`] opens a TCP listener and serves the protocol in
//! [`crate::wire`] on the shared [`crate::accept::AcceptLoop`]: one accept
//! thread plus one thread per connection, at most
//! [`crate::accept::MAX_CONNECTIONS`] at once (the next is answered with an
//! `overloaded` refusal and closed) — the same "std threads, no async
//! runtime" shape as the service's coalescer worker pool (the workspace
//! ships no tokio). Per connection:
//!
//! * **auth** — the first thing every request resolves is its token
//!   against [`GateConfig::tokens`]; an unknown token is a structured
//!   `unauthorized` refusal and costs nothing. The operator verbs
//!   (`subscribe`, `explain`) are additionally gated behind
//!   [`GateConfig::admin_tokens`] — event streams span every tenant and
//!   explain reports are un-noised, so a plain tenant token gets a
//!   `forbidden` refusal instead;
//! * **live streaming** — a `subscribe` turns the connection into an
//!   event stream: whenever the reader goes idle (and after each served
//!   frame) the connection drains its bounded per-subscriber ring onto
//!   the wire. A consumer slower than the event rate loses oldest-first
//!   and is told so via `dropped` notice frames; it can never grow the
//!   server's memory or stall the serving path;
//! * **pipelining with FIFO responses** — a client may stream many
//!   requests without waiting; answers come back in request order.
//!   Requests the service parks in its coalescer queue
//!   ([`starj_service::Submitted::Queued`]) ride in a per-connection
//!   FIFO. While a parked answer is at its front, the next read is a
//!   non-blocking probe: a waiting frame is served as usual (so pipelined
//!   submissions keep reaching the coalescer), and an empty socket
//!   blocks on the front answer and writes it, with every ready answer
//!   behind it, the moment it resolves — a wait capped at
//!   [`GateConfig::poll_interval`], after which it probes again. The
//!   socket is non-blocking for that one read only — every write blocks,
//!   so a full send buffer paces the connection instead of failing it.
//!   The FIFO also drains when the peer closes, or …
//! * **backpressure** — … more than [`GateConfig::max_in_flight`] answers
//!   are outstanding: the reader stops pulling frames until the front of
//!   the queue resolves, so a flooding client backs up its own TCP
//!   stream instead of the server's memory, and the fair coalescer queue
//!   sees at most `max_in_flight` of its jobs at a time;
//! * **request-id threading** — each request's wire id is entered into
//!   the ambient [`starj_telemetry::WireRequestScope`] around parse and
//!   submit, so trace spans adopt it as their trace id and every audit
//!   event the request ever produces (including refunds settled later on
//!   a coalescer worker thread) carries it.
//!
//! Dropping the [`Gate`] stops accepting, joins every thread, and
//! resolves all outstanding answers first — no request is abandoned.

use crate::accept::{AcceptLoop, MAX_CONNECTIONS};
use crate::metrics::GateMetrics;
use crate::sql::parse_query;
use crate::wire::{
    answer_frame, frame_of, gate_refusal, refusal, router_code, write_frame, WireRequest,
};
use starj_engine::canonicalize;
use starj_router::Router;
use starj_service::{Answer, Pending, Request, ServiceError, Submitted};
use starj_telemetry::{
    Json, RequestKind, Subscription, Telemetry, TelemetryConfig, TraceContextScope, TraceOutcome,
    WireRequestScope,
};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Ring capacity for a `subscribe` whose request omits `capacity`.
const DEFAULT_SUBSCRIBE_CAPACITY: usize = 256;

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// `(token, tenant)` pairs: the token a client presents and the
    /// tenant id its requests are billed to.
    pub tokens: Vec<(String, String)>,
    /// Tokens allowed to call the admin verbs: `subscribe` and `explain`.
    /// Their output covers **every** tenant (identities, ε/δ spends, query
    /// hashes, timing, plans), so a plain tenant token must not read it —
    /// tenant tokens get a `forbidden` refusal. Empty (the default)
    /// refuses both verbs to every token.
    pub admin_tokens: Vec<String>,
    /// Maximum queued (not yet answered) requests per connection before
    /// the reader stops pulling frames. Clamped to ≥ 1.
    pub max_in_flight: usize,
    /// Maximum frame size in bytes; larger frames close the connection
    /// with a `frame_too_large` refusal.
    pub max_frame: usize,
    /// How often a connection with nothing outstanding wakes from its
    /// blocking read to notice shutdown, pump its subscription and check a
    /// stalled partial frame. Parked answers never wait on it: they are
    /// written as soon as they resolve, and it only caps how long a
    /// connection waits on one before looking for new frames again.
    /// Clamped to ≥ 1 ms.
    pub poll_interval: Duration,
    /// How long a connection may sit **mid-frame** — length prefix or
    /// body partially received — before the gate gives up on it: the
    /// reader answers a `timeout` refusal and closes. This bounds the
    /// lifetime a slowloris-style trickle writer can pin a connection
    /// thread; a client idle *between* frames is never timed out.
    /// `Duration::ZERO` disables the deadline.
    pub read_timeout: Duration,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            tokens: Vec::new(),
            admin_tokens: Vec::new(),
            max_in_flight: 32,
            max_frame: 1 << 20,
            poll_interval: Duration::from_millis(5),
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// State shared by every connection thread of one gate: the config plus
/// the listener's own metrics and (bus-backed) telemetry hub.
#[derive(Debug)]
pub struct GateShared {
    config: GateConfig,
    metrics: GateMetrics,
    /// The gate's telemetry hub. Enabled only when the router carries an
    /// [`starj_telemetry::EventBus`]: its sole job is publishing the
    /// per-request root span (component `gate`) onto the stream, so
    /// without a bus it is fully disabled and request serving skips even
    /// the clock reads.
    telemetry: Telemetry,
}

/// A bound, serving front door. Dropping it shuts the listener down and
/// joins every spawned thread.
#[derive(Debug)]
pub struct Gate {
    accept: AcceptLoop,
    shared: Arc<GateShared>,
}

impl Gate {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `router` behind it.
    pub fn bind(router: Arc<Router>, config: GateConfig, addr: &str) -> std::io::Result<Gate> {
        let listener = TcpListener::bind(addr)?;
        let telemetry = match router.bus() {
            Some(bus) => Telemetry::new(&TelemetryConfig {
                trace_capacity: 256,
                audit_capacity: 0,
                slow_query_us: u64::MAX,
                slow_log_capacity: 0,
                bus: Some(Arc::clone(bus)),
                component: "gate".to_string(),
            }),
            None => Telemetry::disabled(),
        };
        let shared = Arc::new(GateShared {
            config: GateConfig {
                max_in_flight: config.max_in_flight.max(1),
                // A zero read timeout is rejected by the OS and would leave
                // the socket blocking forever, so drop could never join.
                poll_interval: config.poll_interval.max(Duration::from_millis(1)),
                ..config
            },
            metrics: GateMetrics::default(),
            telemetry,
        });
        let serving = Arc::clone(&shared);
        let refusing = Arc::clone(&shared);
        let accept = AcceptLoop::spawn(
            listener,
            "gate",
            move |stream, shutdown| serve_connection(stream, &router, &serving, shutdown),
            move |mut stream| {
                GateMetrics::inc(&refusing.metrics.connections_total);
                let note = refusal(
                    0,
                    "overloaded",
                    &format!("the gate serves at most {MAX_CONNECTIONS} connections; retry later"),
                );
                let _ = send_frame(&mut stream, &refusing.metrics, &note);
            },
        )?;
        Ok(Gate { accept, shared })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// The listener's own counters (connections, frames, verbs, refusals).
    pub fn metrics(&self) -> &GateMetrics {
        &self.shared.metrics
    }
}

// ---- per-connection serving ------------------------------------------------

/// One response slot in the per-connection FIFO.
enum Entry {
    /// Already rendered; waiting its turn behind earlier slots.
    Ready(Json),
    /// Parked in the service's coalescer; resolving blocks.
    InFlight { id: u64, pending: Pending<Answer> },
}

fn resolve(entry: Entry) -> Json {
    match entry {
        Entry::Ready(json) => json,
        Entry::InFlight { id, pending } => match pending.wait() {
            Ok(answer) => answer_frame(id, &answer.into_pm(), None),
            Err(err) => service_refusal(id, &err),
        },
    }
}

fn service_refusal(id: u64, err: &ServiceError) -> Json {
    refusal(id, crate::wire::service_code(err), &err.to_string())
}

/// Decrements `active_connections` on scope exit, whatever the exit path.
struct ActiveGuard<'a>(&'a AtomicU64);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One connection's live `subscribe` stream, at most one per connection.
struct LiveSubscription {
    /// The subscribe request's id; every event frame echoes it.
    id: u64,
    sub: Subscription,
    /// Drops already reported to the client, so each pump only announces
    /// the delta since the previous notice.
    drops_reported: u64,
}

fn serve_connection(
    mut stream: TcpStream,
    router: &Arc<Router>,
    shared: &GateShared,
    shutdown: &AtomicBool,
) {
    let config = &shared.config;
    let metrics = &shared.metrics;
    GateMetrics::inc(&metrics.connections_total);
    GateMetrics::inc(&metrics.active_connections);
    let _active = ActiveGuard(&metrics.active_connections);
    let _ = stream.set_read_timeout(Some(config.poll_interval));
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::default();
    let mut queue: VecDeque<Entry> = VecDeque::new();
    let mut subscription: Option<LiveSubscription> = None;

    loop {
        // After every turn the FIFO is empty or starts with a parked
        // answer. With one parked, read without blocking: a frame already
        // on the socket is served first, and an empty socket means the
        // client is waiting on that answer.
        let parked = !queue.is_empty();
        let event = if parked {
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            let event = reader.step(&mut stream, config.max_frame);
            // O_NONBLOCK is socket-wide: left on, a full send buffer would
            // fail the next write instead of pacing it.
            if stream.set_nonblocking(false).is_err() {
                return;
            }
            event
        } else {
            reader.step(&mut stream, config.max_frame)
        };
        match event {
            Ok(Event::Idle) if parked => {
                // The client is waiting: block on the front answer and write
                // it, with every ready one behind it, the moment it
                // resolves. The wait is capped at one poll interval, so a
                // frame sent meanwhile (say, the one that fills the
                // coalescer's batch) is still read; then probe again.
                let resolved = match queue.front() {
                    Some(Entry::InFlight { pending, .. }) => {
                        pending.ready_within(config.poll_interval)
                    }
                    _ => true,
                };
                let behind = queue.len() - usize::from(resolved);
                if flush(&mut stream, &mut queue, behind, metrics).is_err()
                    || pump_subscription(&mut stream, &mut subscription, metrics).is_err()
                {
                    return;
                }
            }
            Ok(Event::Idle) => {
                // Nothing outstanding: push any queued stream events, then
                // notice shutdown and a stalled partial frame.
                if pump_subscription(&mut stream, &mut subscription, metrics).is_err() {
                    return;
                }
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if reader.stalled(config.read_timeout) {
                    // A half-received frame outlived the read deadline:
                    // the peer is trickling bytes (or wedged). Refuse and
                    // close rather than pin this thread indefinitely.
                    let note = refusal(
                        0,
                        "timeout",
                        &format!(
                            "closed: a partial frame stalled past the {}ms read timeout",
                            config.read_timeout.as_millis()
                        ),
                    );
                    let _ = send_frame(&mut stream, metrics, &note);
                    return;
                }
            }
            Ok(Event::Eof) => {
                let _ = flush(&mut stream, &mut queue, 0, metrics);
                return;
            }
            Ok(Event::Frame(body)) => {
                GateMetrics::inc(&metrics.frames_in);
                match WireRequest::decode(&body) {
                    Err((id, code, message)) => {
                        // Malformed frames refuse but keep the connection:
                        // the framing itself was intact.
                        queue.push_back(Entry::Ready(refusal(id, code, &message)));
                    }
                    Ok(request) => {
                        handle_request(router, shared, request, &mut queue, &mut subscription)
                    }
                }
                // Send whatever is deliverable, then enforce the
                // in-flight cap before reading more.
                if flush_ready(&mut stream, &mut queue, metrics).is_err()
                    || flush(&mut stream, &mut queue, config.max_in_flight, metrics).is_err()
                    || pump_subscription(&mut stream, &mut subscription, metrics).is_err()
                {
                    return;
                }
                // Notice shutdown here too: a client streaming frames
                // back-to-back never yields an Idle event, and the drop
                // path joins this thread — it must not need the client's
                // cooperation to terminate. The request just handled is
                // flushed first, so nothing is abandoned.
                if shutdown.load(Ordering::SeqCst) {
                    let _ = flush(&mut stream, &mut queue, 0, metrics);
                    return;
                }
            }
            Err(FrameError::TooLarge(len)) => {
                // The stream is no longer frame-aligned; refuse and close.
                let _ = flush(&mut stream, &mut queue, 0, metrics);
                let note = refusal(
                    0,
                    "frame_too_large",
                    &format!("frame of {len} bytes exceeds the {}-byte cap", config.max_frame),
                );
                let _ = send_frame(&mut stream, metrics, &note);
                return;
            }
            Err(FrameError::Io) => return,
        }
    }
}

/// The single chokepoint every outbound frame passes through: counts it,
/// and when it is a refusal (`ok` = 0) tallies its stable code.
fn send_frame(stream: &mut TcpStream, metrics: &GateMetrics, json: &Json) -> std::io::Result<()> {
    GateMetrics::inc(&metrics.frames_out);
    if json.get("ok").and_then(Json::as_f64) == Some(0.0) {
        metrics.refusal(json.get("code").and_then(Json::as_str).unwrap_or("unknown"));
    }
    write_frame(stream, &frame_of(json))
}

/// Drains the connection's live subscription (if any) onto the wire:
/// every queued event becomes one frame echoing the subscription's id,
/// and newly dropped events are announced with a `dropped` notice frame
/// so loss is visible to the consumer that caused it.
fn pump_subscription(
    stream: &mut TcpStream,
    subscription: &mut Option<LiveSubscription>,
    metrics: &GateMetrics,
) -> std::io::Result<()> {
    let Some(live) = subscription.as_mut() else { return Ok(()) };
    let dropped = live.sub.dropped();
    if dropped > live.drops_reported {
        let delta = dropped - live.drops_reported;
        GateMetrics::add(&metrics.events_dropped, delta);
        live.drops_reported = dropped;
        let notice = Json::obj(vec![
            ("id", Json::Num(live.id as f64)),
            ("ok", Json::Num(1.0)),
            ("event", Json::Str("dropped".into())),
            ("dropped", Json::Num(delta as f64)),
            ("dropped_total", Json::Num(dropped as f64)),
        ]);
        send_frame(stream, metrics, &notice)?;
    }
    for event in live.sub.drain() {
        let mut json = event.to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.insert(0, ("ok".to_string(), Json::Num(1.0)));
            pairs.insert(0, ("id".to_string(), Json::Num(live.id as f64)));
        }
        GateMetrics::inc(&metrics.events_streamed);
        send_frame(stream, metrics, &json)?;
    }
    Ok(())
}

/// Serves one decoded request, pushing its response (or parked handle)
/// onto the connection's FIFO.
fn handle_request(
    router: &Arc<Router>,
    shared: &GateShared,
    request: WireRequest,
    queue: &mut VecDeque<Entry>,
    subscription: &mut Option<LiveSubscription>,
) {
    let config = &shared.config;
    let id = request.id();
    match request {
        WireRequest::Subscribe { ref token, capacity, .. } => {
            GateMetrics::inc(&shared.metrics.verb_subscribe);
            // The stream interleaves every tenant's audit events and
            // spans: admin tokens only — a tenant token reading it would
            // be cross-tenant disclosure.
            if !is_admin(config, token) {
                queue.push_back(Entry::Ready(admin_refusal(config, id, token, "subscribe")));
                return;
            }
            let Some(bus) = router.bus() else {
                queue.push_back(Entry::Ready(refusal(
                    id,
                    "no_stream",
                    "this router was built without an event bus; nothing to subscribe to",
                )));
                return;
            };
            if subscription.is_some() {
                queue.push_back(Entry::Ready(refusal(
                    id,
                    "already_subscribed",
                    "this connection already carries a subscription",
                )));
                return;
            }
            let sub = bus.subscribe(capacity.unwrap_or(DEFAULT_SUBSCRIBE_CAPACITY));
            queue.push_back(Entry::Ready(Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("ok", Json::Num(1.0)),
                ("kind", Json::Str("subscribed".into())),
                ("capacity", Json::Num(sub.capacity() as f64)),
            ])));
            *subscription = Some(LiveSubscription { id, sub, drops_reported: 0 });
        }
        WireRequest::Explain { ref token, ref dataset, ref sql, profile, .. } => {
            GateMetrics::inc(&shared.metrics.verb_explain);
            // Explain reports carry exact, un-noised plan statistics
            // (sampled selectivities, row counts) — admin only.
            if !is_admin(config, token) {
                queue.push_back(Entry::Ready(admin_refusal(config, id, token, "explain")));
                return;
            }
            let _scope = WireRequestScope::enter(id);
            let schema = match router.dataset_schema(dataset) {
                Ok(schema) => schema,
                Err(err) => {
                    queue.push_back(Entry::Ready(refusal(id, router_code(&err), &err.to_string())));
                    return;
                }
            };
            let query = match parse_query(&schema, sql, "explain") {
                Ok(query) => query,
                Err(err) => {
                    queue.push_back(Entry::Ready(gate_refusal(id, &err)));
                    return;
                }
            };
            match router.explain(dataset, &query, profile) {
                Ok(report) => {
                    let mut json = report.to_json();
                    if let Json::Obj(pairs) = &mut json {
                        pairs.insert(0, ("dataset".to_string(), Json::Str(dataset.clone())));
                        pairs.insert(0, ("kind".to_string(), Json::Str("explain".into())));
                        pairs.insert(0, ("ok".to_string(), Json::Num(1.0)));
                        pairs.insert(0, ("id".to_string(), Json::Num(id as f64)));
                    }
                    queue.push_back(Entry::Ready(json));
                }
                Err(err) => {
                    queue.push_back(Entry::Ready(refusal(id, router_code(&err), &err.to_string())));
                }
            }
        }
        WireRequest::Sql { token, dataset, sql, epsilon, name, .. } => {
            GateMetrics::inc(&shared.metrics.verb_sql);
            let Some(tenant) = authorize(config, &token) else {
                queue.push_back(Entry::Ready(refusal(id, "unauthorized", "unknown auth token")));
                return;
            };
            // The ambient wire id covers parse through submit: trace
            // spans started and audit contexts captured inside the
            // submit path adopt it (and carry it to worker threads).
            let _scope = WireRequestScope::enter(id);
            // The gate's root span. Started *inside* the wire scope so
            // its trace id is the wire id, and entered as the ambient
            // parent so the router fan-out / service spans this request
            // produces all hang off it — one wire id stitches the whole
            // gate → router → shard → worker timeline back together.
            let trace = shared.telemetry.trace_start(RequestKind::Gate, &tenant);
            // Only with tracing on: a disabled builder's child context is
            // all zeros and would clobber the wire-id scope above.
            let _span_scope = shared
                .telemetry
                .tracing_enabled()
                .then(|| TraceContextScope::enter(trace.child_context()));
            let schema = match router.dataset_schema(&dataset) {
                Ok(schema) => schema,
                Err(err) => {
                    queue.push_back(Entry::Ready(refusal(id, router_code(&err), &err.to_string())));
                    return;
                }
            };
            let label = name.as_deref().unwrap_or("sql");
            let query = match parse_query(&schema, &sql, label) {
                // Serve the canonical form so presentation variants hit
                // the same cache entry — except unsatisfiable queries,
                // where `to_query` is lossy (it drops the contradictory
                // predicates); submit those as parsed and let the service
                // detect the contradiction and answer free.
                Ok(query) => {
                    let canon = canonicalize(&query);
                    if canon.unsatisfiable {
                        query
                    } else {
                        canon.to_query(label)
                    }
                }
                Err(err) => {
                    queue.push_back(Entry::Ready(gate_refusal(id, &err)));
                    return;
                }
            };
            match router.submit(&dataset, &tenant, Request::Pm(&query), epsilon) {
                Ok(Submitted::Ready(answer)) => {
                    let answer = answer.into_pm();
                    let outcome = if answer.cached {
                        TraceOutcome::Cached
                    } else if answer.cost.is_none() {
                        TraceOutcome::Free
                    } else {
                        TraceOutcome::Ok
                    };
                    shared.telemetry.trace_finish(trace, outcome);
                    queue.push_back(Entry::Ready(answer_frame(id, &answer, None)));
                }
                Ok(Submitted::Queued(pending)) => {
                    // The root span covers parse + submit; the queued
                    // evaluation gets its own (child) spans on the
                    // coalescer side.
                    shared.telemetry.trace_finish(trace, TraceOutcome::Ok);
                    queue.push_back(Entry::InFlight { id, pending });
                }
                Err(err) => {
                    // Refusals never land in the span ring or the stream —
                    // dropping the builder unfinished is the refusal path.
                    queue.push_back(Entry::Ready(refusal(id, router_code(&err), &err.to_string())));
                }
            }
        }
    }
}

/// True iff `token` may use the admin verbs (`metrics`, `subscribe`,
/// `explain`).
fn is_admin(config: &GateConfig, token: &str) -> bool {
    config.admin_tokens.iter().any(|t| t == token)
}

/// The right refusal for a non-admin token on an admin verb: `forbidden`
/// for a valid tenant token, `unauthorized` for an unknown one.
fn admin_refusal(config: &GateConfig, id: u64, token: &str, verb: &str) -> Json {
    if authorize(config, token).is_some() {
        refusal(id, "forbidden", &format!("the {verb} verb requires an admin token"))
    } else {
        refusal(id, "unauthorized", "unknown auth token")
    }
}

/// Resolves a tenant token to the tenant id it bills to.
fn authorize(config: &GateConfig, token: &str) -> Option<String> {
    config.tokens.iter().find(|(t, _)| t == token).map(|(_, tenant)| tenant.clone())
}

/// Writes queue entries from the front until at most `keep_in_flight`
/// unresolved entries remain (resolving blocks on parked answers).
fn flush(
    stream: &mut TcpStream,
    queue: &mut VecDeque<Entry>,
    keep_in_flight: usize,
    metrics: &GateMetrics,
) -> std::io::Result<()> {
    flush_ready(stream, queue, metrics)?;
    while queue.len() > keep_in_flight {
        let entry = queue.pop_front().expect("len checked");
        let json = resolve(entry);
        send_frame(stream, metrics, &json)?;
        flush_ready(stream, queue, metrics)?;
    }
    Ok(())
}

/// Writes already-rendered entries from the front without blocking on
/// parked ones (FIFO: stops at the first in-flight entry).
fn flush_ready(
    stream: &mut TcpStream,
    queue: &mut VecDeque<Entry>,
    metrics: &GateMetrics,
) -> std::io::Result<()> {
    while matches!(queue.front(), Some(Entry::Ready(_))) {
        let Some(Entry::Ready(json)) = queue.pop_front() else { unreachable!() };
        send_frame(stream, metrics, &json)?;
    }
    Ok(())
}

// ---- frame reading across read timeouts ------------------------------------

enum Event {
    Frame(Vec<u8>),
    Idle,
    Eof,
}

enum FrameError {
    TooLarge(usize),
    Io,
}

/// Accumulates one length-prefixed frame across short read timeouts, so a
/// frame split over many TCP segments survives the poll loop.
#[derive(Default)]
struct FrameReader {
    /// Bytes of the 4-byte length prefix read so far.
    len_buf: [u8; 4],
    len_got: usize,
    /// The frame body being filled once the length is known.
    body: Vec<u8>,
    body_got: usize,
    /// When the first byte of the frame in progress arrived; `None`
    /// between frames. Drives [`GateConfig::read_timeout`].
    partial_since: Option<std::time::Instant>,
}

impl FrameReader {
    /// True when a partially received frame has sat longer than
    /// `timeout` (zero disables the deadline).
    fn stalled(&self, timeout: Duration) -> bool {
        !timeout.is_zero() && self.partial_since.is_some_and(|since| since.elapsed() >= timeout)
    }

    fn step(&mut self, stream: &mut TcpStream, max_frame: usize) -> Result<Event, FrameError> {
        use std::io::Read;
        loop {
            if self.len_got < 4 {
                match stream.read(&mut self.len_buf[self.len_got..]) {
                    Ok(0) => {
                        return if self.len_got == 0 {
                            Ok(Event::Eof)
                        } else {
                            // Mid-prefix EOF: a truncated frame, not clean.
                            Err(FrameError::Io)
                        };
                    }
                    Ok(n) => {
                        if self.partial_since.is_none() {
                            self.partial_since = Some(std::time::Instant::now());
                        }
                        self.len_got += n;
                        if self.len_got == 4 {
                            let len = u32::from_be_bytes(self.len_buf) as usize;
                            if len > max_frame {
                                return Err(FrameError::TooLarge(len));
                            }
                            self.body = vec![0u8; len];
                            self.body_got = 0;
                        }
                    }
                    Err(e) if is_timeout(&e) => return Ok(Event::Idle),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Err(FrameError::Io),
                }
                continue;
            }
            if self.body_got == self.body.len() {
                self.len_got = 0;
                self.partial_since = None;
                return Ok(Event::Frame(std::mem::take(&mut self.body)));
            }
            match stream.read(&mut self.body[self.body_got..]) {
                Ok(0) => return Err(FrameError::Io),
                Ok(n) => self.body_got += n,
                Err(e) if is_timeout(&e) => return Ok(Event::Idle),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(FrameError::Io),
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_frame;

    #[test]
    fn frame_reader_survives_byte_dribble() {
        // Feed a frame one byte at a time through a pair of connected
        // sockets; the reader must reassemble it across timeouts.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            use std::io::Write;
            let mut out = TcpStream::connect(addr).unwrap();
            let mut frame = Vec::new();
            write_frame(&mut std::io::Cursor::new(&mut frame), b"dribble").unwrap();
            for b in frame {
                out.write_all(&[b]).unwrap();
                out.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(2))).unwrap();
        let mut reader = FrameReader::default();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let body = loop {
            match reader.step(&mut stream, 1024) {
                Ok(Event::Frame(body)) => break body,
                Ok(Event::Idle) => assert!(std::time::Instant::now() < deadline, "timed out"),
                Ok(Event::Eof) => panic!("unexpected EOF"),
                Err(_) => panic!("unexpected frame error"),
            }
        };
        assert_eq!(body, b"dribble");
        writer.join().unwrap();
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            use std::io::Write;
            let mut out = TcpStream::connect(addr).unwrap();
            out.write_all(&u32::MAX.to_be_bytes()).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut reader = FrameReader::default();
        loop {
            match reader.step(&mut stream, 1024) {
                Err(FrameError::TooLarge(len)) => {
                    assert_eq!(len, u32::MAX as usize);
                    break;
                }
                Ok(Event::Idle) => {}
                other => panic!(
                    "expected TooLarge, got {:?}",
                    match other {
                        Ok(Event::Frame(_)) => "frame",
                        Ok(Event::Eof) => "eof",
                        Ok(Event::Idle) => "idle",
                        Err(FrameError::Io) => "io",
                        Err(FrameError::TooLarge(_)) => unreachable!(),
                    }
                ),
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn partial_frame_clock_arms_mid_frame_and_clears_on_completion() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            use std::io::Write;
            let mut out = TcpStream::connect(addr).unwrap();
            let mut frame = Vec::new();
            write_frame(&mut std::io::Cursor::new(&mut frame), b"slow").unwrap();
            // Send half the frame, stall, then finish it.
            out.write_all(&frame[..3]).unwrap();
            out.flush().unwrap();
            std::thread::sleep(Duration::from_millis(40));
            out.write_all(&frame[3..]).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(2))).unwrap();
        let mut reader = FrameReader::default();
        assert!(!reader.stalled(Duration::from_millis(1)), "no partial frame yet");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut saw_stall = false;
        loop {
            match reader.step(&mut stream, 1024) {
                Ok(Event::Frame(body)) => {
                    assert_eq!(body, b"slow");
                    break;
                }
                Ok(Event::Idle) => {
                    assert!(std::time::Instant::now() < deadline, "timed out");
                    saw_stall |= reader.stalled(Duration::from_millis(10));
                    // A generous deadline must NOT fire for a brief stall.
                    assert!(!reader.stalled(Duration::from_secs(60)));
                }
                Ok(Event::Eof) => panic!("unexpected EOF"),
                Err(_) => panic!("unexpected frame error"),
            }
        }
        assert!(saw_stall, "the mid-frame stall should have tripped the short deadline");
        assert!(
            !reader.stalled(Duration::from_millis(1)),
            "completing the frame clears the partial clock"
        );
        assert!(!reader.stalled(Duration::ZERO), "zero disables the deadline");
        writer.join().unwrap();
    }

    #[test]
    fn read_frame_is_reexported_for_clients() {
        // Silences the "unused import" the module doc promises about.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        assert_eq!(read_frame(&mut std::io::Cursor::new(buf), 16).unwrap().unwrap(), b"x");
    }
}
