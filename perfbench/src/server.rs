//! The server under test as a separate `maly-cli serve` process, and
//! the benchmark's closed-loop clients against it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use maly_model::json::Json;
use maly_model::Query;
use maly_par::Executor;
use maly_serve::client;

use crate::gen::Line;
use crate::trace::Tracer;

/// A running `maly-cli serve --addr 127.0.0.1:0 --threads 2` process.
/// Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

/// A probe request and the exact bytes it must be answered with.
pub struct Probe {
    pub line: String,
    pub expected: String,
}

impl Server {
    /// Spawns the server and waits for the first correct answer to
    /// `probe`. Returns the server and the seconds from spawn to that
    /// answer — the serve workloads' `setup_s`. `obs` switches on the
    /// program's own span collection (`MALY_OBS=1`), which feeds the
    /// `serve.*_ns` histograms that `server_stats` reports.
    pub fn start(bin: &Path, obs: bool, probe: &Probe) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut command = Command::new(bin);
        command
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .env_remove("MALY_OBS_OUT")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if obs {
            command.env("MALY_OBS", "1");
        } else {
            command.env_remove("MALY_OBS");
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not captured")?;
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        // "serving on 127.0.0.1:PORT with 2 worker threads (…)"
        let mut banner = String::new();
        server
            ._stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading server banner: {e}"))?;
        server.addr = banner
            .split_whitespace()
            .nth(2)
            .filter(|a| banner.starts_with("serving on ") && a.contains(':'))
            .ok_or_else(|| format!("unexpected server banner: {banner:?}"))?
            .to_string();
        let mut conn = Conn::open(&server.addr)?;
        let reply = conn.round_trip(&with_newline(&probe.line))?;
        if reply != probe.expected {
            return Err(format!("setup probe answered {reply:?}"));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// A snapshot of the server's metrics registry via `server_stats`.
    pub fn stats(&self) -> Result<Stats, String> {
        let v = client::query_one(&self.addr, &Query::ServerStats).map_err(|e| e.to_string())?;
        let section = |name: &str| -> BTreeMap<String, f64> {
            match v.get(name) {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .filter_map(|(k, n)| n.as_f64().map(|n| (k.clone(), n)))
                    .collect(),
                _ => BTreeMap::new(),
            }
        };
        let mut p50_ns = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = v.get("latency") {
            for (name, h) in pairs {
                if let Some(p50) = h.get("p50_ns").and_then(Json::as_f64) {
                    p50_ns.insert(name.clone(), p50);
                }
            }
        }
        Ok(Stats {
            work: section("work"),
            diag: section("diag"),
            p50_ns,
        })
    }

    /// Peak resident set of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of process `pid` from `/proc/<pid>/status`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Counter totals and histogram medians (since the server started)
/// from one `server_stats` reply. Counters that never moved are absent
/// and read as zero.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub work: BTreeMap<String, f64>,
    pub diag: BTreeMap<String, f64>,
    pub p50_ns: BTreeMap<String, f64>,
}

impl Stats {
    /// `name`'s growth from `before` to `self` (Work or Diag).
    pub fn delta(&self, before: &Stats, name: &str) -> f64 {
        let read = |s: &Stats| {
            s.work
                .get(name)
                .or_else(|| s.diag.get(name))
                .copied()
                .unwrap_or(0.0)
        };
        read(self) - read(before)
    }

    /// Adds every counter's growth from `before` to `after` into `self`,
    /// so that several servers' deltas are checked together.
    pub fn add_deltas(&mut self, before: &Stats, after: &Stats) {
        for (total, was, now) in [
            (&mut self.work, &before.work, &after.work),
            (&mut self.diag, &before.diag, &after.diag),
        ] {
            for (name, v) in now {
                *total.entry(name.clone()).or_default() +=
                    v - was.get(name).copied().unwrap_or(0.0);
            }
        }
    }

    /// Every Work counter's growth from `before`, by name.
    pub fn work_deltas(&self, before: &Stats) -> BTreeMap<String, f64> {
        self.work
            .keys()
            .map(|k| (k.clone(), self.delta(before, k)))
            .collect()
    }
}

pub fn with_newline(line: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    bytes
}

/// One client connection: write a line, then read its one reply line.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            reply: String::new(),
        })
    }

    fn send(&mut self, line: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(line)
            .map_err(|e| format!("write: {e}"))
    }

    fn receive(&mut self) -> Result<&str, String> {
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end_matches('\n')),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn round_trip(&mut self, line: &[u8]) -> Result<&str, String> {
        self.send(line)?;
        self.receive()
    }
}

/// A connection's request pool with the expected reply for each line.
pub struct Pool {
    pub lines: Vec<Line>,
    pub wire: Vec<Vec<u8>>,
    pub expected: Vec<String>,
}

impl Pool {
    pub fn new(lines: Vec<Line>, expected: Vec<String>) -> Pool {
        let wire = lines.iter().map(|l| with_newline(&l.text)).collect();
        Pool {
            lines,
            wire,
            expected,
        }
    }
}

/// One timed request line.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_ns: u64,
    pub kind: u8,
}

/// What a client phase saw.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub errors: Vec<String>,
}

impl Outcome {
    fn note_failure(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Deterministic pass: sends `lines` lines per pool, one request in
/// flight at a time, alternating connections in a fixed order. The
/// server then sees the same request sequence on every run, so its
/// counter deltas repeat exactly for a seed.
pub fn lockstep(addr: &str, pools: &[Pool], lines: usize) -> Result<Outcome, String> {
    let mut conns = pools
        .iter()
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Outcome::default();
    for i in 0..lines {
        for (conn, pool) in conns.iter_mut().zip(pools) {
            let k = i % pool.lines.len();
            out.attempted += 1;
            let sent = Instant::now();
            match conn.round_trip(&pool.wire[k]) {
                Ok(reply) => {
                    let latency_ns = elapsed_ns(sent);
                    if reply != pool.expected[k] {
                        out.note_failure(format!("wrong answer to line {k}"));
                    }
                    out.samples.push(Sample {
                        latency_ns,
                        kind: pool.lines[k].kind.index() as u8,
                    });
                }
                Err(e) => {
                    out.note_failure(e);
                    return Ok(out);
                }
            }
        }
    }
    Ok(out)
}

/// Closed loop: one client thread per pool (from
/// `Executor::run_workers`), each sending its next line only after the
/// previous reply arrived, cycling through its pool until `duration`
/// has passed. Every reply is compared byte for byte.
pub fn closed_loop(
    addr: &str,
    pools: &[Pool],
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let epoch = Instant::now();
    let deadline = epoch + duration;
    let span_epoch = tracer.as_deref().map(Tracer::epoch);
    let results: Mutex<Vec<(Outcome, Option<Tracer>)>> = Mutex::new(Vec::new());
    Executor::with_threads(pools.len()).run_workers(|c| {
        let pool = &pools[c];
        let mut out = Outcome::default();
        let mut spans = span_epoch.map(|e| Tracer::new(e, c as u64 + 1));
        match Conn::open(addr) {
            Err(e) => out.note_failure(e),
            Ok(mut conn) => {
                let mut i = 0usize;
                while Instant::now() < deadline {
                    let k = i % pool.lines.len();
                    // The pool line's id, shared with its model spans.
                    let trace_id = ((c as u64 + 1) << 32) | k as u64;
                    out.attempted += 1;
                    let sent = Instant::now();
                    let result = match spans.as_mut() {
                        None => conn
                            .round_trip(&pool.wire[k])
                            .map(|reply| reply == pool.expected[k]),
                        Some(t) => traced_exchange(t, &mut conn, pool, k, trace_id),
                    };
                    let latency_ns = elapsed_ns(sent);
                    match result {
                        Ok(ok) => {
                            if !ok {
                                out.note_failure(format!("wrong answer to line {k}"));
                            }
                            out.samples.push(Sample {
                                latency_ns,
                                kind: pool.lines[k].kind.index() as u8,
                            });
                        }
                        Err(e) => {
                            out.note_failure(e);
                            break;
                        }
                    }
                    i += 1;
                }
            }
        }
        if let Ok(mut slot) = results.lock() {
            slot.push((out, spans));
        }
    });
    let mut total = Outcome::default();
    for (out, spans) in results.into_inner().unwrap_or_default() {
        total.absorb(out);
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), spans) {
            t.absorb(s);
        }
    }
    total.elapsed_s = epoch.elapsed().as_secs_f64();
    total
}

/// One traced request: `client.line` with `client.write` and
/// `client.wait` children, all under the line's id.
fn traced_exchange(
    t: &mut Tracer,
    conn: &mut Conn,
    pool: &Pool,
    k: usize,
    trace: u64,
) -> Result<bool, String> {
    let line = t.open("client.line", trace, 0);
    let (sent, _) = t.time("client.write", trace, line, || conn.send(&pool.wire[k]));
    let result = match sent {
        Err(e) => Err(e),
        Ok(()) => {
            let wait = t.open("client.wait", trace, line);
            let received = conn.receive();
            t.close(wait);
            received.map(|reply| reply == pool.expected[k])
        }
    };
    t.close(line);
    result
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
