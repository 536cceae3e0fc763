//! The accept loop both TCP front doors run: the wire [`crate::Gate`] and
//! the operator plane's HTTP endpoint.
//!
//! One blocking accept thread spawns one thread per connection, reaps the
//! finished ones on every accept, and refuses a connection instead of
//! serving it when [`MAX_CONNECTIONS`] are already live or the thread
//! cannot be spawned. Dropping the [`AcceptLoop`] raises the shutdown flag
//! every connection thread watches, wakes the accept, and joins every
//! thread.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Most connections one listener serves at once. The next one is refused
/// with the listener's overload answer and closed, so a connection flood
/// costs the accept thread a write, not a thread and its stack.
pub const MAX_CONNECTIONS: usize = 256;

/// A running accept loop; dropping it shuts it down and joins every thread.
#[derive(Debug)]
pub struct AcceptLoop {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl AcceptLoop {
    /// Starts accepting on `listener`. Each connection runs `serve` on its
    /// own thread (`starj-{name}-conn-{n}`), handed the shutdown flag it
    /// must poll. A connection past [`MAX_CONNECTIONS`], or one that cannot
    /// get a thread, goes to `refuse` on the accept thread instead, which
    /// should write one short answer at most.
    pub fn spawn<S, R>(
        listener: TcpListener,
        name: &str,
        serve: S,
        refuse: R,
    ) -> std::io::Result<AcceptLoop>
    where
        S: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
        R: Fn(TcpStream) + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (shutdown, conns) = (Arc::clone(&shutdown), Arc::clone(&conns));
            let serve = Arc::new(serve);
            let name = name.to_string();
            std::thread::Builder::new().name(format!("starj-{name}-accept")).spawn(move || {
                let mut next_conn = 0u64;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let mut held = conns.lock().unwrap_or_else(|e| e.into_inner());
                    // Reap finished connections so the handle list (and the
                    // cap) counts live connections, not total served.
                    let (done, live): (Vec<_>, Vec<_>) =
                        held.drain(..).partition(|h| h.is_finished());
                    for h in done {
                        let _ = h.join();
                    }
                    *held = live;
                    // A second handle to the socket, so a failed spawn —
                    // which drops the closure and the stream in it — can
                    // still be answered.
                    let spare =
                        if held.len() < MAX_CONNECTIONS { stream.try_clone().ok() } else { None };
                    let Some(spare) = spare else {
                        turn_away(&refuse, stream);
                        continue;
                    };
                    let (serve, shutdown) = (Arc::clone(&serve), Arc::clone(&shutdown));
                    let spawned = std::thread::Builder::new()
                        .name(format!("starj-{name}-conn-{next_conn}"))
                        .spawn(move || serve(stream, &shutdown));
                    next_conn += 1;
                    match spawned {
                        Ok(handle) => held.push(handle),
                        Err(_) => turn_away(&refuse, spare),
                    }
                }
            })?
        };
        Ok(AcceptLoop { addr, shutdown, accept: Some(accept), conns })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Hands a connection that will not be served to `refuse`, non-blocking so
/// a peer that never reads cannot stall the accept thread.
fn turn_away(refuse: &impl Fn(TcpStream), stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    refuse(stream);
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut held = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            held.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}
