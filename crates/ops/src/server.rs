//! The HTTP exposition endpoint: bind once, point Prometheus at it.
//!
//! [`OpsServer::bind`] opens a TCP listener and serves four `GET` routes
//! off any [`crate::OpsSource`] (a `Router` or a single `Service`):
//!
//! | route      | auth          | body                                   |
//! |------------|---------------|----------------------------------------|
//! | `/healthz` | none          | `ok` — process liveness                |
//! | `/readyz`  | none          | `ready`, or `degraded` with 503        |
//! | `/metrics` | Bearer admin  | Prometheus text format 0.0.4           |
//! | `/audit`   | Bearer admin  | audit JSONL; `?tenant=` filters        |
//!
//! The split follows the gate's privacy posture: the probes leak one bit
//! (the process is up / the budget journal is writable) and stay
//! unauthenticated so orchestrators can use them blind, while `/metrics`
//! and `/audit` span every tenant — identities, ε/δ spends, query hashes,
//! timings — and therefore demand an `Authorization: Bearer` token from
//! [`OpsConfig::admin_tokens`], exactly the credential the gate's
//! `metrics` verb takes. A stock Prometheus scrape config needs only
//! `bearer_token` (or `authorization.credentials`) plus the address.
//!
//! Threading is the gate listener's own [`starj_gate::AcceptLoop`]: one
//! blocking accept thread, one thread per connection up to
//! [`starj_gate::MAX_CONNECTIONS`] (the next gets a `503` and is closed),
//! keep-alive honored per HTTP version, shutdown on drop joins
//! everything. No async runtime, no HTTP library.

use crate::http::{response, HttpError, Request};
use crate::OpsSource;
use starj_gate::AcceptLoop;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Endpoint configuration.
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Bearer tokens allowed to read `/metrics` and `/audit`. Empty
    /// disables both routes (the probes keep working) — the cross-tenant
    /// surfaces fail closed rather than open.
    pub admin_tokens: Vec<String>,
    /// Maximum request-head size in bytes; larger heads get `431`.
    pub max_head: usize,
    /// How long a connection may take to deliver one request head before
    /// the server gives up on it.
    pub read_timeout: Duration,
    /// How often blocked reads wake up to notice shutdown. Clamped to
    /// ≥ 1 ms.
    pub poll_interval: Duration,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            admin_tokens: Vec::new(),
            max_head: 8 * 1024,
            read_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(5),
        }
    }
}

/// A bound, serving exposition endpoint. Dropping it shuts the listener
/// down and joins every spawned thread.
#[derive(Debug)]
pub struct OpsServer {
    accept: AcceptLoop,
}

impl OpsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `source` behind it.
    pub fn bind<S: OpsSource>(
        source: Arc<S>,
        config: OpsConfig,
        addr: &str,
    ) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        // A zero read timeout is rejected by the OS and would leave the
        // socket blocking forever, so drop could never join.
        let config = OpsConfig {
            poll_interval: config.poll_interval.max(Duration::from_millis(1)),
            ..config
        };
        let started = Instant::now();
        let accept = AcceptLoop::spawn(
            listener,
            "ops",
            move |stream, shutdown| serve_connection(stream, &*source, &config, shutdown, started),
            |mut stream| {
                let body = b"too many connections; retry later\n";
                let _ = stream.write_all(&response(
                    503,
                    "Service Unavailable",
                    "text/plain; charset=utf-8",
                    body,
                    false,
                    &[],
                ));
            },
        )?;
        Ok(OpsServer { accept })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }
}

// ---- per-connection serving ------------------------------------------------

/// What reading one request head produced.
enum Head {
    Ok(String),
    /// Clean close, shutdown, or timeout: stop serving this connection.
    Close,
    /// The head outgrew [`OpsConfig::max_head`].
    TooLarge,
}

fn serve_connection(
    mut stream: TcpStream,
    source: &dyn OpsSource,
    config: &OpsConfig,
    shutdown: &AtomicBool,
    started: Instant,
) {
    let _ = stream.set_read_timeout(Some(config.poll_interval));
    let _ = stream.set_nodelay(true);
    loop {
        let head = match read_head(&mut stream, config, shutdown) {
            Head::Ok(head) => head,
            Head::Close => return,
            Head::TooLarge => {
                let body = b"request head too large\n";
                let _ = stream.write_all(&response(
                    431,
                    "Request Header Fields Too Large",
                    "text/plain; charset=utf-8",
                    body,
                    false,
                    &[],
                ));
                return;
            }
        };
        let (bytes, keep_alive) = match Request::parse(&head) {
            Ok(request) => {
                let keep_alive = request.keep_alive() && !shutdown.load(Ordering::SeqCst);
                (respond(source, config, &request, keep_alive, started), keep_alive)
            }
            Err(HttpError::UnsupportedVersion) => (
                response(
                    505,
                    "HTTP Version Not Supported",
                    "text/plain; charset=utf-8",
                    b"only HTTP/1.0 and HTTP/1.1 are served\n",
                    false,
                    &[],
                ),
                false,
            ),
            Err(HttpError::BadRequest) => (
                response(
                    400,
                    "Bad Request",
                    "text/plain; charset=utf-8",
                    b"malformed request\n",
                    false,
                    &[],
                ),
                false,
            ),
        };
        if stream.write_all(&bytes).is_err() || !keep_alive {
            return;
        }
    }
}

/// Accumulates one request head (through the blank line) across poll-loop
/// read timeouts.
fn read_head(stream: &mut TcpStream, config: &OpsConfig, shutdown: &AtomicBool) -> Head {
    let mut buf: Vec<u8> = Vec::new();
    let mut partial_since: Option<Instant> = None;
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_head_end(&buf) {
            // Anything past the terminator would be a pipelined request;
            // the operator plane serves strictly one at a time, so it is
            // dropped (curl and Prometheus never pipeline).
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            return Head::Ok(head);
        }
        if buf.len() > config.max_head {
            return Head::TooLarge;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Head::Close,
            Ok(n) => {
                partial_since.get_or_insert_with(Instant::now);
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) && buf.is_empty() {
                    return Head::Close;
                }
                if partial_since.is_some_and(|since| since.elapsed() >= config.read_timeout) {
                    return Head::Close;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Head::Close,
        }
    }
}

/// The byte offset just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Routes one parsed request to its response bytes.
fn respond(
    source: &dyn OpsSource,
    config: &OpsConfig,
    request: &Request,
    keep_alive: bool,
    started: Instant,
) -> Vec<u8> {
    let text = |status: u16, reason: &str, body: &str| {
        response(status, reason, "text/plain; charset=utf-8", body.as_bytes(), keep_alive, &[])
    };
    if request.method != "GET" {
        return response(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            b"only GET is served\n",
            keep_alive,
            &[("Allow", "GET")],
        );
    }
    match request.path.as_str() {
        // Unauthenticated one-bit probes: liveness, and PR 9's degraded
        // mode (budget journal unwritable → spends refused) as readiness.
        "/healthz" => text(200, "OK", "ok\n"),
        "/readyz" => {
            if source.ready() {
                text(200, "OK", "ready\n")
            } else {
                text(503, "Service Unavailable", "degraded\n")
            }
        }
        // Cross-tenant surfaces: admin bearer token required.
        "/metrics" => match authorized(config, request, keep_alive) {
            Err(refusal) => refusal,
            Ok(()) => {
                let mut body = source.prometheus();
                body.push_str(&endpoint_exposition(started));
                response(
                    200,
                    "OK",
                    // The content type Prometheus' scraper expects for
                    // text format 0.0.4.
                    "text/plain; version=0.0.4; charset=utf-8",
                    body.as_bytes(),
                    keep_alive,
                    &[],
                )
            }
        },
        "/audit" => match authorized(config, request, keep_alive) {
            Err(refusal) => refusal,
            Ok(()) => {
                let body = source.audit_jsonl(request.query_param("tenant"));
                response(
                    200,
                    "OK",
                    "application/jsonl; charset=utf-8",
                    body.as_bytes(),
                    keep_alive,
                    &[],
                )
            }
        },
        _ => text(404, "Not Found", "no such route\n"),
    }
}

/// Checks the Bearer credential against the admin list. `Err` carries the
/// ready-to-send 401 response; an empty admin list refuses everyone.
fn authorized(config: &OpsConfig, request: &Request, keep_alive: bool) -> Result<(), Vec<u8>> {
    match request.bearer_token() {
        Some(token) if config.admin_tokens.iter().any(|t| t == token) => Ok(()),
        _ => Err(response(
            401,
            "Unauthorized",
            "text/plain; charset=utf-8",
            b"this route requires an admin bearer token\n",
            keep_alive,
            &[("WWW-Authenticate", "Bearer")],
        )),
    }
}

/// The endpoint's own two families, appended to every `/metrics` body:
/// build identity and process uptime. Names are disjoint from the
/// service/router/gate families, so the concatenation lints clean.
fn endpoint_exposition(started: Instant) -> String {
    use starj_telemetry::PromText;
    let mut p = PromText::new();
    p.header("starj_ops_build_info", "Build metadata; value is always 1.", "gauge");
    p.sample("starj_ops_build_info", &[("version", env!("CARGO_PKG_VERSION"))], 1.0);
    p.header("starj_ops_uptime_seconds", "Seconds since this exposition endpoint bound.", "gauge");
    p.sample("starj_ops_uptime_seconds", &[], started.elapsed().as_secs_f64());
    p.render()
}
