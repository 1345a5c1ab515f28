//! The multi-threaded TCP server.
//!
//! Thread model: [`Server::serve`] blocks the caller and runs the
//! accept loop there; `workers` connection workers run on scoped
//! threads obtained through [`maly_par::Executor::run_workers`] — the
//! workspace's one sanctioned thread source. Accepted connections park
//! in a bounded queue; when it is full the server answers `overloaded`
//! and closes instead of queueing without bound (backpressure the
//! client can see and retry on).
//!
//! Shared state is the process-wide [`maly_model::EvalContext`]: the
//! `OnceLock`-fit calibration artifacts plus the warm surface-tile
//! cache, so a repeated `surface_tile` query answers without
//! re-evaluating a single grid cell no matter which worker picks it up.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] raises a flag,
//! wakes the accept loop with a throwaway self-connection, and wakes
//! idle workers; in-flight connections drain before their workers exit.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use maly_model::{Error, EvalContext};
use maly_par::Executor;

use crate::config::ServeConfig;
use crate::protocol;

/// Connections accepted (diagnostic: depends on client behavior).
pub static CONNECTIONS: maly_obs::Counter = maly_obs::Counter::diag("serve.connections");
/// Connections refused because the parked queue was full (answered
/// `overloaded` and closed — backpressure the client can observe).
pub static REFUSED: maly_obs::Counter = maly_obs::Counter::diag("serve.refused");
/// Request lines refused for exceeding the size bound.
pub static REJECTED_OVERSIZE: maly_obs::Counter =
    maly_obs::Counter::diag("serve.rejected_oversize");
/// Accepted connections parked waiting for a worker, right now.
pub static QUEUE_DEPTH: maly_obs::Gauge = maly_obs::Gauge::new("serve.queue_depth");
/// Connections currently being served by a worker.
pub static INFLIGHT: maly_obs::Gauge = maly_obs::Gauge::new("serve.inflight");

/// State shared between the accept loop, the workers, and handles.
#[derive(Debug)]
struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// A bound, not-yet-serving query server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    shared: Arc<Shared>,
}

/// A cloneable remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop: the accept loop exits, idle workers
    /// wake and exit, and in-flight connections drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop may be blocked in `accept`; a throwaway
        // self-connection gets it to re-check the flag.
        drop(TcpStream::connect(self.addr));
        self.shared.ready.notify_all();
    }
}

impl Server {
    /// Binds the configured address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server, Error> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            config,
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The actually-bound address (resolves `:0` to the picked port).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, Error> {
        Ok(self.listener.local_addr()?)
    }

    /// A remote control usable from other threads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the socket cannot report its address.
    pub fn handle(&self) -> Result<ServerHandle, Error> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Serves until [`ServerHandle::shutdown`] is called, blocking the
    /// caller (which doubles as the accept loop).
    ///
    /// Each request evaluates serially on its connection worker (the
    /// workers are the server's parallelism) against the process-wide
    /// [`EvalContext`], so every worker shares one warm tile cache and
    /// results are bit-identical at every worker count.
    pub fn serve(&self) {
        let _span = maly_obs::span("serve.run");
        let workers = Executor::with_threads(self.config.workers.max(1) + 1);
        workers.run_workers(|w| {
            if w == 0 {
                self.accept_loop();
            } else {
                self.worker_loop();
            }
        });
    }

    fn accept_loop(&self) {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Responses are small single lines; leaving Nagle on would
            // trade up to a delayed-ACK interval (~40 ms) of latency
            // for batching we never benefit from.
            drop(stream.set_nodelay(true));
            CONNECTIONS.incr();
            let rejected = {
                let Ok(mut queue) = self.shared.queue.lock() else {
                    break;
                };
                if queue.len() >= self.config.queue_capacity {
                    Some(stream)
                } else {
                    queue.push_back(stream);
                    QUEUE_DEPTH.incr();
                    None
                }
            };
            match rejected {
                None => self.shared.ready.notify_one(),
                Some(mut stream) => {
                    // Backpressure the client can see: answer
                    // `overloaded` and close instead of queueing
                    // without bound.
                    REFUSED.incr();
                    let line = protocol::error_line(&Error::Overloaded);
                    drop(write_line(&mut stream, &line));
                }
            }
        }
        // Unblock every parked worker so they can observe the flag.
        self.shared.ready.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let stream = {
                let Ok(mut queue) = self.shared.queue.lock() else {
                    return;
                };
                loop {
                    if let Some(stream) = queue.pop_front() {
                        QUEUE_DEPTH.decr();
                        break Some(stream);
                    }
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    match self.shared.ready.wait(queue) {
                        Ok(guard) => queue = guard,
                        Err(_) => break None,
                    }
                }
            };
            let Some(stream) = stream else { return };
            INFLIGHT.incr();
            handle_connection(stream, self.config.max_line_bytes);
            INFLIGHT.decr();
        }
    }
}

/// Serves one connection until EOF or a fatal protocol violation.
fn handle_connection(stream: TcpStream, max_line_bytes: usize) {
    let _span = maly_obs::span("serve.connection");
    let ctx = EvalContext::process();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        // Bound the read: one byte of headroom distinguishes "exactly
        // at the limit" from "exceeds it".
        let bound = (max_line_bytes as u64).saturating_add(1);
        let n = match (&mut reader).take(bound).read_until(b'\n', &mut buf) {
            Ok(n) => n,
            Err(_) => return,
        };
        if n == 0 {
            return; // EOF: client is done.
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() as u64 >= bound {
            REJECTED_OVERSIZE.incr();
            // Best-effort id echo: the full line never arrives, but the
            // `id` key conventionally leads the request object, so its
            // bytes usually sit inside the retained prefix.
            let id = protocol::recover_id(&String::from_utf8_lossy(&buf));
            let line = protocol::error_line_with_id(
                &id,
                &Error::PayloadTooLarge {
                    limit: max_line_bytes,
                },
            );
            drop(write_line(&mut writer, &line));
            return; // The rest of the oversized line is unrecoverable.
        }
        let text = String::from_utf8_lossy(&buf);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = protocol::handle_line(ctx, trimmed);
        if write_line(&mut writer, &response).is_err() {
            return;
        }
    }
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}
