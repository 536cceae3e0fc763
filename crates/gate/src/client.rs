//! A small blocking client for the gate's wire protocol — what tests, the
//! bench harness, and the example use to talk to a [`crate::Gate`].
//!
//! # Retry safety
//!
//! Reconnecting ([`GateClient::reconnect`]) and resubmitting is safe for
//! requests the client saw **refused**: a structured refusal means the
//! service spent nothing (any budget reservation was refunded), so sending
//! the same request again — with the same or a fresh wire id — cannot
//! double-spend. The dangerous case is a request that was **in flight**
//! when the connection died: the server may have committed its budget
//! charge and lost only the response. Such requests must not be blindly
//! retried; the wire request id the client sent is carried into the
//! server's audit trail, so an operator can check whether the original
//! committed before resubmitting.

use crate::wire::{frame_of, read_frame, write_frame};
use starj_noise::rng::splitmix64;
use starj_telemetry::Json;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Dial policy for [`GateClient::connect_with`] and
/// [`GateClient::reconnect`]: bounded exponential backoff with
/// deterministic, seeded jitter.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Re-dial attempts after the first failure (so `retries + 1` dials
    /// total before [`GateClientError::RetriesExhausted`]).
    pub retries: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff step.
    pub max_backoff: Duration,
    /// Seed for the jitter stream. Jitter is a pure function of
    /// `(jitter_seed, attempt)` — two clients with the same seed back off
    /// identically, and tests can pin the schedule.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retries: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x5354_4152_4a47_4154, // "STARJGAT"
        }
    }
}

impl ClientConfig {
    /// The delay before retry `attempt` (0-based): the capped exponential
    /// step scaled into `[50%, 100%)` by seeded jitter, so a thundering
    /// herd of restarting clients decorrelates without losing the bound.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let step = self.base_backoff.saturating_mul(1u32 << attempt.min(16)).min(self.max_backoff);
        let bits =
            splitmix64(&mut (self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9)));
        let frac = 0.5 + ((bits >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
        step.mul_f64(frac)
    }
}

/// Typed failure from the dialing paths.
#[derive(Debug)]
pub enum GateClientError {
    /// Every dial attempt failed. `attempts` counts dials made; `last`
    /// is the error from the final one.
    RetriesExhausted {
        /// Dial attempts made (`retries + 1`, or 0 if the address never
        /// resolved).
        attempts: u32,
        /// The last underlying IO error.
        last: std::io::Error,
    },
}

impl std::fmt::Display for GateClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gate unreachable after {attempts} dial attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for GateClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GateClientError::RetriesExhausted { last, .. } => Some(last),
        }
    }
}

/// A blocking connection to a gate.
#[derive(Debug)]
pub struct GateClient {
    stream: TcpStream,
    next_id: u64,
    max_frame: usize,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
}

impl GateClient {
    /// Connects to `addr` (anything `TcpStream::connect` accepts) with a
    /// single dial attempt. [`GateClient::reconnect`] on a client made
    /// this way uses the default backoff policy.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<GateClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = match dial(&addrs, 0, &ClientConfig::default()) {
            Ok(stream) => stream,
            Err(GateClientError::RetriesExhausted { last, .. }) => return Err(last),
        };
        Ok(GateClient {
            stream,
            next_id: 1,
            max_frame: 1 << 24,
            addrs,
            config: ClientConfig::default(),
        })
    }

    /// Connects with up to `config.retries` re-dials under bounded
    /// exponential backoff; returns the typed
    /// [`GateClientError::RetriesExhausted`] once the budget is spent.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<GateClient, GateClientError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|last| GateClientError::RetriesExhausted { attempts: 0, last })?
            .collect();
        let stream = dial(&addrs, config.retries, &config)?;
        Ok(GateClient { stream, next_id: 1, max_frame: 1 << 24, addrs, config })
    }

    /// Drops the current connection and re-dials the remembered address
    /// under this client's backoff policy. Wire ids keep counting from
    /// where they left off, so resubmitted-after-refusal requests stay
    /// distinguishable in the server's audit trail (see the module docs
    /// for which retries are safe).
    pub fn reconnect(&mut self) -> Result<(), GateClientError> {
        self.stream = dial(&self.addrs, self.config.retries, &self.config)?;
        Ok(())
    }

    /// Sends a raw request document (adding an `id` if the caller did not
    /// set one) and returns the id it went out with.
    pub fn send(&mut self, mut request: Json) -> std::io::Result<u64> {
        let id = match request.get("id").and_then(Json::as_f64) {
            Some(id) if id >= 1.0 => id as u64,
            _ => {
                let id = self.next_id;
                if let Json::Obj(pairs) = &mut request {
                    pairs.insert(0, ("id".to_string(), Json::Num(id as f64)));
                }
                id
            }
        };
        self.next_id = self.next_id.max(id) + 1;
        write_frame(&mut self.stream, &frame_of(&request))?;
        Ok(id)
    }

    /// Receives the next response frame. Errors on EOF (the server only
    /// closes mid-conversation for frame-layer violations).
    pub fn recv(&mut self) -> std::io::Result<Json> {
        let body = read_frame(&mut self.stream, self.max_frame)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let text = String::from_utf8(body).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "response is not UTF-8")
        })?;
        Json::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends one SQL request and blocks for its response. With pipelined
    /// use (several [`GateClient::send`]s before [`GateClient::recv`]s),
    /// responses come back in send order.
    pub fn sql(
        &mut self,
        token: &str,
        dataset: &str,
        sql: &str,
        epsilon: f64,
    ) -> std::io::Result<Json> {
        self.send(sql_request(0, token, dataset, sql, epsilon))?;
        self.recv()
    }

    /// Sends an explain request (admin token) and blocks for the report.
    /// `profile` additionally executes the plan once — spending no
    /// budget — to capture kernel-counter deltas.
    pub fn explain(
        &mut self,
        token: &str,
        dataset: &str,
        sql: &str,
        profile: bool,
    ) -> std::io::Result<Json> {
        self.send(Json::obj(vec![
            ("verb", Json::Str("explain".into())),
            ("token", Json::Str(token.into())),
            ("dataset", Json::Str(dataset.into())),
            ("sql", Json::Str(sql.into())),
            ("profile", Json::Num(f64::from(u8::from(profile)))),
        ]))?;
        self.recv()
    }

    /// Sends a subscribe request (admin token) and blocks for the ack.
    /// After an `ok` ack, event frames arrive on this connection as the
    /// fleet produces them; read them with [`GateClient::recv`].
    pub fn subscribe(
        &mut self,
        token: &str,
        capacity: Option<usize>,
    ) -> std::io::Result<(u64, Json)> {
        let mut pairs =
            vec![("verb", Json::Str("subscribe".into())), ("token", Json::Str(token.into()))];
        if let Some(capacity) = capacity {
            pairs.push(("capacity", Json::Num(capacity as f64)));
        }
        let id = self.send(Json::obj(pairs))?;
        Ok((id, self.recv()?))
    }
}

/// Dials `addrs` in order, retrying the whole list up to `retries` more
/// times with `config`'s backoff between rounds.
fn dial(
    addrs: &[SocketAddr],
    retries: u32,
    config: &ClientConfig,
) -> Result<TcpStream, GateClientError> {
    let mut last =
        std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "address resolved to nothing");
    for attempt in 0..=retries {
        if attempt > 0 {
            std::thread::sleep(config.backoff(attempt - 1));
        }
        for addr in addrs {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = e,
            }
        }
    }
    Err(GateClientError::RetriesExhausted { attempts: retries + 1, last })
}

/// Builds a `verb: "sql"` request document. `id` 0 lets
/// [`GateClient::send`] assign the next sequential id.
pub fn sql_request(id: u64, token: &str, dataset: &str, sql: &str, epsilon: f64) -> Json {
    let mut pairs = Vec::new();
    if id > 0 {
        pairs.push(("id", Json::Num(id as f64)));
    }
    pairs.extend([
        ("verb", Json::Str("sql".into())),
        ("token", Json::Str(token.into())),
        ("dataset", Json::Str(dataset.into())),
        ("sql", Json::Str(sql.into())),
        ("epsilon", Json::Num(epsilon)),
    ]);
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let config = ClientConfig {
            retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 42,
        };
        let twin = config.clone();
        for attempt in 0..16 {
            let d = config.backoff(attempt);
            assert_eq!(d, twin.backoff(attempt), "same seed, same schedule");
            assert!(d <= config.max_backoff, "attempt {attempt}: {d:?} over the cap");
            // Jitter scales into [50%, 100%) of the capped step.
            let step =
                config.base_backoff.saturating_mul(1u32 << attempt.min(16)).min(config.max_backoff);
            assert!(d >= step / 2, "attempt {attempt}: {d:?} under half the step");
        }
        // Pinned: the jitter stream must not drift between releases.
        let nanos: Vec<u128> = (0..4).map(|a| config.backoff(a).as_nanos()).collect();
        assert_eq!(nanos, [8707824, 18154812, 32525725, 75865712]);
        let other = ClientConfig { jitter_seed: 43, ..config };
        assert_ne!(
            (0..8).map(|a| config.backoff(a)).collect::<Vec<_>>(),
            (0..8).map(|a| other.backoff(a)).collect::<Vec<_>>(),
            "different seeds decorrelate"
        );
    }

    #[test]
    fn retries_exhaust_with_a_typed_error() {
        // Bind-then-drop guarantees a port with no listener.
        let dead = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let config = ClientConfig {
            retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 7,
        };
        let err = GateClient::connect_with(dead, config).expect_err("nobody is listening");
        let GateClientError::RetriesExhausted { attempts, last } = err;
        assert_eq!(attempts, 3, "retries + 1 dials");
        assert!(
            last.kind() == std::io::ErrorKind::ConnectionRefused || last.raw_os_error().is_some()
        );
    }

    #[test]
    fn reconnect_redials_the_remembered_address() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = GateClient::connect_with(
            addr,
            ClientConfig { base_backoff: Duration::from_millis(1), ..ClientConfig::default() },
        )
        .unwrap();
        let (first, _) = listener.accept().unwrap();
        drop(first); // server side hangs up
        client.reconnect().unwrap();
        let (second, _) = listener.accept().unwrap();
        assert_eq!(second.peer_addr().unwrap(), client.stream.local_addr().unwrap());
    }
}
