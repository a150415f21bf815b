//! The TCP server: a bounded accept/worker layer over the [`Router`].
//!
//! One *accept* thread pushes connections into a bounded queue; a small pool
//! of *HTTP threads* pops them, reads one request each (incrementally, under
//! [`HttpLimits`]), routes it, writes the response and closes.  The analysis
//! itself never runs on an HTTP thread — the router only enqueues jobs on the
//! service's own worker pool — so slow aggregations never starve the wire.
//!
//! Backpressure is layered and always explicit:
//!
//! 1. connection queue full → immediate `503` at accept time;
//! 2. job registry full → `429` from the router;
//! 3. socket timeouts ([`HttpLimits::read_timeout`]) → the connection is
//!    dropped and counted, never parked forever.
//!
//! Graceful shutdown (`POST /shutdown`, or [`Server::shutdown`]): the accept
//! loop closes, already-accepted connections are still served, then
//! [`Registry::drain`](crate::registry::Registry::drain) blocks until every
//! accepted job has delivered — with a store configured this is what
//! guarantees in-flight work is persisted for the next process — and
//! [`Server::join`] returns.

use crate::http::{self, HttpLimits};
use crate::metrics::bump;
use crate::router::Router;
use dft::json::Json;
use dft_core::service::{AnalysisService, ServiceOptions};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// Most bytes read off a refused request before its connection is closed.
const DRAIN_CAP: usize = 64 * 1024;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Number of HTTP threads (connection readers/writers — *not* analysis
    /// workers; those are [`ServiceOptions::workers`]).
    pub http_threads: usize,
    /// Accepted connections waiting for an HTTP thread beyond this are
    /// refused with `503`.
    pub queue_depth: usize,
    /// In-flight jobs beyond this are refused with `429`.
    pub max_jobs: usize,
    /// Finished reports retained for `GET /result` (oldest evicted first).
    pub max_done: usize,
    /// Byte/time limits on each connection.
    pub limits: HttpLimits,
    /// Options of the backing [`AnalysisService`] (worker count, cache
    /// capacity, shared store directory).
    pub service: ServiceOptions,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:0".to_owned(),
            http_threads: 4,
            queue_depth: 64,
            max_jobs: 256,
            max_done: 1024,
            limits: HttpLimits::default(),
            service: ServiceOptions::default(),
        }
    }
}

/// State shared by the accept thread and the HTTP threads.
#[derive(Debug)]
struct Shared {
    router: Router,
    limits: HttpLimits,
    queue_depth: usize,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Flags shutdown (idempotently), wakes the HTTP threads and unblocks
    /// the accept loop with a self-connection.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.available.notify_all();
        // The accept thread sits in a blocking accept(); a throwaway
        // connection is the dependency-free way to wake it.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server; see the [module docs](self).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: thread::JoinHandle<()>,
    http_threads: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept thread and the HTTP threads, and returns.
    /// The analysis pool spawns lazily on the first submission, as always.
    ///
    /// # Errors
    ///
    /// Propagates binding failures.
    pub fn start(options: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let service = AnalysisService::new(options.service.clone());
        let shared = Arc::new(Shared {
            router: Router::new(service, options.max_jobs, options.max_done),
            limits: options.limits.clone(),
            queue_depth: options.queue_depth.max(1),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            addr,
        });

        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("dftmc-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let http_threads = (0..options.http_threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("dftmc-serve-http-{i}"))
                    .spawn(move || http_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(Server {
            shared,
            addr,
            accept,
            http_threads,
        })
    }

    /// The bound address (the OS-chosen port when the options said port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router (for in-process inspection in tests and the loadgen).
    pub fn router(&self) -> &Router {
        &self.shared.router
    }

    /// Begins a graceful shutdown, exactly like `POST /shutdown`.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server has shut down (via `POST /shutdown` or
    /// [`shutdown`](Self::shutdown)), drains the job registry — every
    /// accepted job completes, and persists when a store is configured —
    /// and returns how many in-flight jobs the drain waited for.
    pub fn join(self) -> usize {
        let _ = self.accept.join();
        for t in self.http_threads {
            let _ = t.join();
        }
        let drained = self.shared.router.registry().drain();
        // Dropping `shared` here drops the router and with it the service:
        // its own drop-drain joins the analysis workers deterministically.
        drained
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a raced late client); the
                    // listener closes when this loop returns.
                    return;
                }
                bump(&shared.router.http_counters().connections);
                let mut queue = shared.queue.lock().expect("connection queue lock");
                if queue.len() >= shared.queue_depth {
                    drop(queue);
                    bump(&shared.router.http_counters().rejected_connections);
                    refuse(stream, shared);
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.available.notify_one();
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept errors (EMFILE, aborted handshakes) must
                // not kill the listener.
            }
        }
    }
}

/// Writes an immediate `503` — the bounded-queue overflow path.  Best-effort:
/// the client may already be gone.
fn refuse(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.limits.read_timeout));
    let body = Json::obj([("error", "server is at capacity; retry later".into())]).render();
    let _ = stream.write_all(&http::response(503, &body));
}

fn http_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("connection queue lock");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                // Keep serving queued connections through a drain; exit only
                // once the queue is empty *and* shutdown is flagged.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("connection queue lock");
            }
        };
        let Some(stream) = stream else { return };
        if serve_connection(shared, stream) {
            shared.begin_shutdown();
        }
    }
}

/// Serves one connection (one request, one response, close).  Returns `true`
/// when the routed request asked for shutdown.
fn serve_connection(shared: &Shared, mut stream: TcpStream) -> bool {
    let limits = &shared.limits;
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.read_timeout));

    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let (response, shutdown, refused) = loop {
        match http::parse_request(&buffer, limits) {
            Ok(Some(request)) => {
                let reply = shared.router.handle(&request);
                break (
                    http::response(reply.status, &reply.body),
                    reply.shutdown,
                    false,
                );
            }
            Err(e) => {
                // The request never reached the router; count it here.
                bump(&shared.router.http_counters().bad_requests);
                let body = Json::obj([("error", Json::Str(e.to_string()))]).render();
                break (http::response(e.status(), &body), false, true);
            }
            Ok(None) => match stream.read(&mut chunk) {
                Ok(0) | Err(_) => {
                    // EOF or timeout before a complete request arrived.
                    bump(&shared.router.http_counters().dropped_connections);
                    return false;
                }
                Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            },
        }
    };
    if stream
        .write_all(&response)
        .and_then(|()| stream.flush())
        .is_err()
    {
        bump(&shared.router.http_counters().dropped_connections);
    } else if refused {
        drain(&mut stream, limits);
    }
    shutdown
}

/// Half-closes a refused connection, then reads what the client still sends,
/// up to [`DRAIN_CAP`] bytes and for at most [`HttpLimits::read_timeout`].
/// Closing a socket with unread request bytes makes the kernel send a reset,
/// which can destroy the error response before the client reads it.
fn drain(stream: &mut TcpStream, limits: &HttpLimits) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + limits.read_timeout;
    let mut chunk = [0u8; 4096];
    let mut drained = 0;
    while drained < DRAIN_CAP {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}
