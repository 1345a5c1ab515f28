//! `perfbench` — the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload serve_light|serve_heavy|repro_studies --seed N
//!           --seconds S --trace 0|1 --server-bin PATH
//! perfbench --selftest --server-bin PATH [--seed N]
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced
//! runs print the per-layer metrics and write their spans under
//! `perfbench/out/`. The last line of standard output is always the JSON
//! result. See `README.md` next to this crate for the metrics.

mod answers;
mod gen;
mod layers;
mod report;
mod server;
mod studies;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use maly_par::Executor;

use crate::answers::{Contexts, ModelTimes};
use crate::gen::{Kind, Line, Study};
use crate::report::{fnv_bytes, median, percentile, Metrics, FNV_OFFSET};
use crate::server::{Outcome, Pool, Probe, Server, Stats};
use crate::studies::{Calibration, Reference, StudyTimes};
use crate::trace::Tracer;

/// `repro_studies` process starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Segments an untraced run is split into; metrics are medians over
/// segments.
const SEGMENTS: usize = 48;
/// Segments dropped from the medians when the hypervisor stole more
/// than this share of the CPU during them...
const MAX_STEAL: f64 = 0.05;
/// ...as long as this many segments remain.
const MIN_SEGMENTS: usize = 24;
/// Longest traced (and matching untraced) workload phase, in seconds.
const TRACED_PHASE_S: u64 = 2;
/// Untraced/traced alternations the two phases are split into.
const TRACE_ROUNDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeLight,
    ServeHeavy,
    ReproStudies,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "serve_light" => Ok(Workload::ServeLight),
            "serve_heavy" => Ok(Workload::ServeHeavy),
            "repro_studies" => Ok(Workload::ReproStudies),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeLight => "serve_light",
            Workload::ServeHeavy => "serve_heavy",
            Workload::ReproStudies => "repro_studies",
        }
    }

    /// The two connections' request lines (none for the serve-free
    /// `repro_studies`).
    fn lines(self, seed: u64) -> Vec<Vec<Line>> {
        let make = match self {
            Workload::ServeLight => gen::light,
            Workload::ServeHeavy => gen::heavy,
            Workload::ReproStudies => return Vec::new(),
        };
        (0..2).map(|c| make(seed, c)).collect()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} expects a whole number"))
    };
    let args = Args {
        workload: Workload::parse(get("--workload")?)?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other}")),
        },
        server_bin: PathBuf::from(get("--server-bin")?),
    };
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--server-bin",
    ];
    if let Some(unknown) = flags.keys().find(|k| !known.contains(k)) {
        return Err(format!("unknown flag {unknown}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--setup-probe"] {
        // A fresh process deriving the shared calibration: what
        // `repro_studies` pays before its first study.
        std::hint::black_box(maly_model::context::shared());
        return ExitCode::SUCCESS;
    }
    let result = if argv.first().map(String::as_str) == Some("--selftest") {
        selftest(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match result {
        Ok((text, ok)) => {
            print!("{text}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let epoch = Instant::now();
    // Must be the process's first touch of the shared context.
    let context_s = {
        let start = Instant::now();
        std::hint::black_box(maly_model::context::shared());
        start.elapsed().as_secs_f64()
    };
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut text = format!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        maly_par::default_parallelism()
    );
    if args.trace {
        let mut tracer = Tracer::new(epoch, 0);
        m.layer("repro.context_s", context_s, "s");
        traced(args, &mut tracer, &mut m, &mut tally)?;
        let path = Path::new("perfbench/out").join(format!(
            "trace-{}-seed{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        tracer.write_ndjson(&path)?;
        text.push_str(&format!(
            "spans {} written to {}\n",
            tracer.len(),
            path.display()
        ));
    } else if args.workload == Workload::ReproStudies {
        repro_untraced(args, &mut m, &mut tally)?;
    } else {
        serve_untraced(args, &mut m, &mut tally)?;
    }
    for e in &tally.errors {
        text.push_str(&format!("error {e}\n"));
    }
    let correct = tally.failed == 0 && tally.errors.is_empty();
    text.push_str(&m.render(args.trace, correct, tally.attempted.max(1), tally.failed)?);
    Ok((text, correct))
}

/// Ops attempted and failed across a run's phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.errors.extend(out.errors.iter().cloned());
    }

    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// The `error_rate` line with both of its counts, and the number of
    /// timed samples.
    fn report(&self, samples: usize, m: &mut Metrics) {
        m.info(
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        m.info("attempted", self.attempted as f64, "count");
        m.info("failed", self.failed as f64, "count");
        m.info("samples", samples as f64, "count");
    }
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

/// The setup probe: Table 3 row 1, which forces the server's shared
/// calibration (fits and the Fig 8 surface).
fn probe() -> Result<Probe, String> {
    let line = "{\"id\": 0, \"query\": {\"type\": \"table3_row\", \"id\": 1}}".to_string();
    let (expected, _) = answers::expected(&line, &Contexts::new(), None, 0)?;
    Ok(Probe { line, expected })
}

/// Expected replies for every pool line, computed in-process (timed
/// per model call when traced).
fn build_pools(
    lines: Vec<Vec<Line>>,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Vec<Pool>, Vec<ModelTimes>), String> {
    let ctxs = Contexts::new();
    let mut times = Vec::new();
    let mut pools = Vec::new();
    for (c, conn_lines) in lines.into_iter().enumerate() {
        let mut expected = Vec::with_capacity(conn_lines.len());
        for (i, line) in conn_lines.iter().enumerate() {
            let trace_id = ((c as u64 + 1) << 32) | i as u64;
            let (bytes, t) = answers::expected(&line.text, &ctxs, tracer.as_deref_mut(), trace_id)?;
            expected.push(bytes);
            times.push(t);
        }
        pools.push(Pool::new(conn_lines, expected));
    }
    Ok((pools, times))
}

/// FNV-1a over every request byte of one lockstep pass: equal digests
/// mean identical request bytes.
fn request_digest(pools: &[Pool], lines: usize) -> u64 {
    (0..lines).fold(FNV_OFFSET, |h, i| {
        pools
            .iter()
            .fold(h, |h, pool| fnv_bytes(h, &pool.wire[i % pool.wire.len()]))
    })
}

fn pass_lines(pools: &[Pool]) -> usize {
    pools.iter().map(|p| p.lines.len()).max().unwrap_or(0)
}

fn kind_count(out: &Outcome, kind: Kind) -> f64 {
    out.samples
        .iter()
        .filter(|s| s.kind as usize == kind.index())
        .count() as f64
}

/// Fails the run when a workload stops exercising what it claims.
/// `exact` phases (the lockstep pass) also pin the flush evidence.
fn bypass_check(
    workload: Workload,
    before: &Stats,
    after: &Stats,
    out: &Outcome,
    exact: bool,
) -> Result<(), String> {
    let d = |name: &str| after.delta(before, name);
    let fail = |what: String| Err(format!("{} bypass self-check: {what}", workload.name()));
    match workload {
        Workload::ServeLight => {
            for name in [
                "plan.nodes_requested",
                "model.tile_hits",
                "model.tile_misses",
                "eq1.cells",
            ] {
                if d(name) != 0.0 {
                    return fail(format!("{name} moved by {}", d(name)));
                }
            }
            // chiplet_cost prices exactly one partition per line; any
            // more would mean a sweep ran.
            let singles = kind_count(out, Kind::ChipletCost);
            if d("chiplet.partitions") != singles {
                return fail(format!(
                    "chiplet.partitions moved by {} for {singles} chiplet_cost lines",
                    d("chiplet.partitions")
                ));
            }
        }
        Workload::ServeHeavy => {
            for name in [
                "model.tile_hits",
                "model.tile_misses",
                "plan.fused_dispatches",
                "chiplet.partitions",
            ] {
                if d(name) <= 0.0 {
                    return fail(format!("{name} did not move"));
                }
            }
            // More misses than the 64-tile cache holds: it flushed.
            if exact && d("model.tile_misses") <= 64.0 {
                return fail(format!(
                    "only {} tile misses, so the tile cache never flushed",
                    d("model.tile_misses")
                ));
            }
        }
        Workload::ReproStudies => {}
    }
    Ok(())
}

fn kind_p50s(out: &Outcome, m: &mut Metrics) {
    for kind in Kind::ALL {
        let lat: Vec<f64> = out
            .samples
            .iter()
            .filter(|s| s.kind as usize == kind.index())
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect();
        if !lat.is_empty() {
            m.info(&format!("{}_p50_us", kind.name()), median(&lat), "us");
        }
    }
}

fn latencies_us(out: &Outcome) -> Vec<f64> {
    out.samples
        .iter()
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect()
}

fn serve_untraced(args: &Args, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let (pools, _) = build_pools(args.workload.lines(args.seed), None)?;
    let probe = probe()?;
    let lines = pass_lines(&pools);
    // Each segment gets a fresh server and fresh client threads, so
    // one unlucky thread placement moves one segment, not the run. Each
    // server start is a `setup_s` sample.
    let length = Duration::from_secs_f64(args.seconds as f64 / SEGMENTS as f64);
    let mut setups = Vec::with_capacity(SEGMENTS);
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut rss = Vec::with_capacity(SEGMENTS);
    let mut all = Outcome::default();
    // The closed-loop segments' counter deltas, checked once per run: a
    // segment stalled by a neighbour may be too short to send every kind.
    let mut moved = Stats::default();
    for seg in 0..SEGMENTS {
        let (server, secs) = Server::start(&args.server_bin, false, &probe)?;
        setups.push(secs);
        if seg == 0 {
            // One lockstep pass per run gives the seed's exact counter
            // deltas.
            let s0 = server.stats()?;
            let pass = server::lockstep(&server.addr, &pools, lines)?;
            let s1 = server.stats()?;
            tally.add(&pass);
            tally.check(bypass_check(args.workload, &s0, &s1, &pass, true));
            pass_evidence(&pools, lines, &s0, &s1, m);
        }
        let s1 = server.stats()?;
        let clock = StealClock::start();
        let run = server::closed_loop(&server.addr, &pools, length, None);
        let steal = clock.share();
        moved.add_deltas(&s1, &server.stats()?);
        tally.add(&run);
        rss.push(server.peak_rss_mb()?);
        let lat = latencies_us(&run);
        segments.push(Segment::new(run.samples.len(), run.elapsed_s, &lat, steal));
        all.samples.extend(run.samples);
    }
    let none = Stats::default();
    tally.check(bypass_check(args.workload, &none, &moved, &all, false));
    tally.attempted += setups.len() as u64;
    m.e2e("setup_s", median(&setups), "s");
    let per_s = report_segments(&segments, m);
    m.e2e("peak_rss_mb", median(&rss), "MiB");
    m.info("lines_per_s", per_s, "1/s");
    tally.report(all.samples.len(), m);
    kind_p50s(&all, m);
    Ok(())
}

/// Share of all CPU time the hypervisor stole (`/proc/stat`) over an
/// interval; 0 where the kernel does not report it.
struct StealClock {
    start: (f64, f64),
}

impl StealClock {
    fn read() -> (f64, f64) {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
    }

    fn start() -> Self {
        Self {
            start: Self::read(),
        }
    }

    fn share(&self) -> f64 {
        let (steal, total) = Self::read();
        let total = total - self.start.1;
        if total > 0.0 {
            (steal - self.start.0) / total
        } else {
            0.0
        }
    }
}

/// One measured segment's headline numbers.
struct Segment {
    per_s: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    steal: f64,
}

impl Segment {
    fn new(ops: usize, elapsed_s: f64, latency_us: &[f64], steal: f64) -> Segment {
        Segment {
            per_s: ops as f64 / elapsed_s.max(1e-9),
            p50: percentile(latency_us, 0.5),
            p90: percentile(latency_us, 0.9),
            p99: percentile(latency_us, 0.99),
            steal,
        }
    }
}

/// Reports medians over the segments the hypervisor stole at most
/// `MAX_STEAL` of the CPU from (at least `MIN_SEGMENTS`, least-stolen
/// first), so a neighbour's burst on a shared host drops a segment
/// instead of moving the result.
fn report_segments(segments: &[Segment], m: &mut Metrics) -> f64 {
    let mut order: Vec<&Segment> = segments.iter().collect();
    order.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let clean = order.iter().filter(|s| s.steal <= MAX_STEAL).count();
    let kept = &order[..clean.max(MIN_SEGMENTS).min(order.len())];
    let med = |f: fn(&Segment) -> f64| median(&kept.iter().map(|s| f(s)).collect::<Vec<_>>());
    let per_s = med(|s| s.per_s);
    m.e2e("ops_per_s", per_s, "1/s");
    m.e2e("latency_p50_us", med(|s| s.p50), "us");
    m.e2e("latency_p90_us", med(|s| s.p90), "us");
    m.info("latency_p99_us", med(|s| s.p99), "us");
    m.info("segments_kept", kept.len() as f64, "count");
    m.note(format!(
        "segments ops_per_s {:.0?} latency_p50_us {:.1?} steal {:.3?}",
        segments.iter().map(|s| s.per_s).collect::<Vec<_>>(),
        segments.iter().map(|s| s.p50).collect::<Vec<_>>(),
        segments.iter().map(|s| s.steal).collect::<Vec<_>>()
    ));
    per_s
}

/// Prints the lockstep pass's request digest and Work deltas: two runs
/// with one seed must print the same values.
fn pass_evidence(pools: &[Pool], lines: usize, before: &Stats, after: &Stats, m: &mut Metrics) {
    m.note(format!(
        "pass.request_digest {:016x}",
        request_digest(pools, lines)
    ));
    for (name, delta) in after.work_deltas(before) {
        m.info(&format!("pass.work.{name}"), delta, "count");
    }
}

// ---------------------------------------------------------------------
// repro_studies
// ---------------------------------------------------------------------

/// The study pool with its serial references and the expected
/// `all_experiments()` output; checks the reproduction's goldens.
struct StudySet {
    pool: Vec<Study>,
    refs: Vec<Reference>,
    reports: Vec<maly_repro::ExperimentReport>,
    cal: Calibration,
}

impl StudySet {
    fn new(seed: u64) -> Result<StudySet, String> {
        studies::check_goldens()?;
        let cal = Calibration::paper();
        let pool = gen::studies(seed);
        let refs = pool
            .iter()
            .map(|s| Reference::compute(s, &cal))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StudySet {
            pool,
            refs,
            reports: maly_repro::all_experiments(),
            cal,
        })
    }
}

#[derive(Default)]
struct StudyOutcome {
    times: Vec<StudyTimes>,
    out: Outcome,
    /// Where the next loop continues in the pool.
    next: usize,
}

/// Runs studies round-robin over the pool for `duration`, from the
/// `first`-th on, checking each iteration against its reference.
fn study_loop(
    set: &StudySet,
    duration: Duration,
    first: usize,
    mut tracer: Option<&mut Tracer>,
) -> StudyOutcome {
    let exec = Executor::from_env();
    let start = Instant::now();
    let mut so = StudyOutcome::default();
    let mut i = first;
    while start.elapsed() < duration {
        let k = i % set.pool.len();
        so.out.attempted += 1;
        match studies::run(
            &set.pool[k],
            &set.cal,
            &exec,
            tracer.as_deref_mut(),
            i as u64,
        )
        .and_then(|(result, t)| set.refs[k].check(&result, &set.reports).map(|()| t))
        {
            Ok(t) => so.times.push(t),
            Err(e) => {
                so.out.failed += 1;
                if so.out.errors.len() < 8 {
                    so.out.errors.push(format!("study {k}: {e}"));
                }
            }
        }
        i += 1;
    }
    so.out.elapsed_s = start.elapsed().as_secs_f64();
    so.next = i;
    so
}

/// Seconds from spawning a fresh benchmark process to its shared
/// calibration being ready (`--setup-probe`).
fn probe_setup() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let start = Instant::now();
    let status = Command::new(&exe)
        .arg("--setup-probe")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("running setup probe: {e}"))?;
    if !status.success() {
        return Err(format!("setup probe exited with {status}"));
    }
    Ok(start.elapsed().as_secs_f64())
}

fn repro_untraced(args: &Args, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let setups = (0..SETUP_REPEATS)
        .map(|_| probe_setup())
        .collect::<Result<Vec<_>, _>>()?;
    let set = StudySet::new(args.seed)?;
    let before = [
        layers::counter("eq1.cells"),
        layers::counter("chiplet.partitions"),
        layers::counter("mc.replications"),
        layers::counter("par.parallel_maps"),
    ];
    let length = Duration::from_secs_f64(args.seconds as f64 / SEGMENTS as f64);
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut times = Vec::new();
    let mut next = 0;
    for _ in 0..SEGMENTS {
        let clock = StealClock::start();
        let so = study_loop(&set, length, next, None);
        let steal = clock.share();
        next = so.next;
        tally.add(&so.out);
        let lat: Vec<f64> = so.times.iter().map(|t| t.total() as f64 / 1e3).collect();
        let busy_s = lat.iter().sum::<f64>() / 1e6;
        segments.push(Segment::new(lat.len(), busy_s, &lat, steal));
        times.extend(so.times);
    }
    let n = times.len() as f64;
    let grid = (gen::STUDY_LAMBDA.2 * gen::STUDY_MAX_CHIPLETS * (gen::STUDY_MAX_SPARES + 1)) as f64;
    let moved = |i: usize, name: &str| layers::counter(name) - before[i];
    if moved(0, "eq1.cells") <= 0.0
        || moved(1, "chiplet.partitions") < n * grid
        || moved(2, "mc.replications") < n * gen::MC_REPLICATIONS as f64
    {
        tally
            .errors
            .push("repro_studies bypass self-check: a study layer did no work".to_string());
    }
    if Executor::from_env().threads() > 1 && moved(3, "par.parallel_maps") <= 0.0 {
        tally
            .errors
            .push("repro_studies bypass self-check: par never fanned out".to_string());
    }
    let repro_all: Vec<f64> = times.iter().map(|t| t.repro_all as f64 / 1e6).collect();
    m.e2e("setup_s", median(&setups), "s");
    let per_s = report_segments(&segments, m);
    m.e2e(
        "peak_rss_mb",
        server::peak_rss_mb(std::process::id())?,
        "MiB",
    );
    m.info("studies_per_s", per_s, "1/s");
    m.info("repro_all_ms", median(&repro_all), "ms");
    tally.report(times.len(), m);
    Ok(())
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

/// The traced run: the workload's own layers (below), then the layer
/// panel on the seed's study inputs.
fn traced(
    args: &Args,
    tracer: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    // Traced and untraced phases run equally long; two seconds bound
    // the span buffers (serve_light answers ~60k lines/s).
    let phase = Duration::from_secs(args.seconds.div_ceil(2).min(TRACED_PHASE_S));
    let pool = if args.workload == Workload::ReproStudies {
        let set = StudySet::new(args.seed)?;
        no_request_lines(m);
        overhead(phase, m, |length, traced| {
            let so = study_loop(&set, length, 0, traced.then_some(&mut *tracer));
            tally.add(&so.out);
            let busy_ns: u64 = so.times.iter().map(StudyTimes::total).sum();
            (so.times.len() as f64, busy_ns as f64 / 1e9)
        });
        set.pool
    } else {
        traced_serve(args, phase, tracer, m, tally)?;
        gen::studies(args.seed)
    };
    layers::panel(args.seed, &pool, tracer, m)
}

/// The serve and model layers of a serve workload: model calls timed
/// while computing the expected replies; counter ratios from a lockstep
/// pass against an untraced server, which then runs the workload
/// untraced and traced for the overhead; and the server's own
/// `serve.request_ns` from a lockstep pass against a `MALY_OBS=1`
/// server.
fn traced_serve(
    args: &Args,
    phase: Duration,
    tracer: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let (pools, model) = build_pools(args.workload.lines(args.seed), Some(&mut *tracer))?;
    let med = |f: fn(&ModelTimes) -> u64| {
        median(&model.iter().map(|t| f(t) as f64 / 1e3).collect::<Vec<_>>())
    };
    m.layer("model.json_parse_us", med(|t| t.parse_ns), "us");
    m.layer("model.query_decode_us", med(|t| t.decode_ns), "us");
    m.layer("model.eval_us", med(|t| t.eval_ns), "us");
    m.layer("model.batch_eval_us", med(|t| t.batch_eval_ns), "us");
    m.layer("model.json_write_us", med(|t| t.write_ns), "us");

    let probe = probe()?;
    let lines = pass_lines(&pools);
    let (server, _) = Server::start(&args.server_bin, false, &probe)?;
    let s0 = server.stats()?;
    let pass = server::lockstep(&server.addr, &pools, lines)?;
    let s1 = server.stats()?;
    tally.add(&pass);
    tally.check(bypass_check(args.workload, &s0, &s1, &pass, true));
    let d = |name: &str| s1.delta(&s0, name);
    let lookups = d("model.tile_hits") + d("model.tile_misses");
    m.ratio("model.tile_hit_ratio", d("model.tile_hits"), lookups);
    m.ratio(
        "plan.nodes_evaluated_ratio",
        d("plan.nodes_evaluated"),
        d("plan.nodes_requested"),
    );
    m.layer("plan.fused_dispatches", d("plan.fused_dispatches"), "count");
    m.ratio(
        "par.chunks_per_line",
        d("par.chunks"),
        pass.attempted as f64,
    );
    pass_evidence(&pools, lines, &s0, &s1, m);
    overhead(phase, m, |length, traced| {
        let run = server::closed_loop(&server.addr, &pools, length, traced.then_some(&mut *tracer));
        tally.add(&run);
        (run.samples.len() as f64, run.elapsed_s)
    });
    drop(server);

    // The program's own request histogram fills only under MALY_OBS=1,
    // so this server answers the lockstep pass and nothing else.
    let (server, _) = Server::start(&args.server_bin, true, &probe)?;
    let pass = server::lockstep(&server.addr, &pools, lines)?;
    let stats = server.stats()?;
    drop(server);
    tally.add(&pass);
    let request_us = stats.p50_ns.get("serve.request_ns").copied().unwrap_or(0.0) / 1e3;
    let client_us = percentile(&latencies_us(&pass), 0.5);
    m.layer("serve.request_us", request_us, "us");
    m.layer("serve.transport_us", client_us - request_us, "us");
    m.base(
        "serve.transport_us",
        format!("client p50 {client_us:.1} us minus serve.request_us, one line in flight"),
    );
    Ok(())
}

/// `repro_studies` sends no request lines, so its serve and model
/// layers read 0 with a 0 base.
fn no_request_lines(m: &mut Metrics) {
    for name in [
        "model.json_parse_us",
        "model.query_decode_us",
        "model.eval_us",
        "model.batch_eval_us",
        "model.json_write_us",
        "serve.request_us",
        "serve.transport_us",
    ] {
        m.layer(name, 0.0, "us");
    }
    m.layer("plan.fused_dispatches", 0.0, "count");
    for name in [
        "model.tile_hit_ratio",
        "plan.nodes_evaluated_ratio",
        "par.chunks_per_line",
    ] {
        m.ratio(name, 0.0, 0.0);
    }
}

/// `trace.overhead_pct`: how much slower the workload ran traced than
/// untraced over equally long phases. `run(length, traced)` runs one
/// phase and returns its ops and seconds; the phases alternate in
/// ABBA order, so warm-up, drift and going second hit both alike.
fn overhead(phase: Duration, m: &mut Metrics, mut run: impl FnMut(Duration, bool) -> (f64, f64)) {
    let mut totals = [(0.0, 0.0); 2];
    for round in 0..TRACE_ROUNDS {
        for traced in [round % 2 == 1, round % 2 == 0] {
            let (ops, secs) = run(phase / TRACE_ROUNDS, traced);
            totals[usize::from(traced)].0 += ops;
            totals[usize::from(traced)].1 += secs;
        }
    }
    let [untraced_per_s, traced_per_s] = totals.map(|(ops, secs)| ops / secs.max(1e-9));
    m.layer(
        "trace.overhead_pct",
        (untraced_per_s / traced_per_s.max(1e-9) - 1.0) * 100.0,
        "%",
    );
    m.base(
        "trace.overhead_pct",
        format!("{untraced_per_s:.1}/s untraced vs {traced_per_s:.1}/s traced"),
    );
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

/// Determinism and bypass self-test: generators are pure; two
/// same-seed lockstep passes against fresh servers send identical
/// bytes and produce identical Work deltas; a second seed is accepted.
fn selftest(argv: &[String]) -> Result<(String, bool), String> {
    let mut bin = None;
    let mut seed = 1u64;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--server-bin" => bin = Some(PathBuf::from(value)),
            "--seed" => seed = value.parse().map_err(|_| "--seed expects a whole number")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let bin = bin.ok_or("missing --server-bin")?;
    let mut text = String::new();
    let mut ok = true;
    let mut verdict = |name: &str, pass: bool, text: &mut String| {
        text.push_str(&format!("{} {name}\n", if pass { "ok  " } else { "FAIL" }));
        ok &= pass;
    };
    let pure = gen::light(seed, 0) == gen::light(seed, 0)
        && gen::heavy(seed, 1) == gen::heavy(seed, 1)
        && gen::studies(seed) == gen::studies(seed)
        && gen::light(seed, 0) != gen::light(seed + 1, 0);
    verdict(
        "generators are pure functions of (seed, connection)",
        pure,
        &mut text,
    );
    for workload in [
        Workload::ServeLight,
        Workload::ServeHeavy,
        Workload::ReproStudies,
    ] {
        let fingerprint = |seed| match workload {
            Workload::ReproStudies => study_fingerprint(seed),
            _ => pass_fingerprint(&bin, workload, seed),
        };
        let (a, b, c) = (
            fingerprint(seed)?,
            fingerprint(seed)?,
            fingerprint(seed + 1)?,
        );
        let name = workload.name();
        verdict(
            &format!("{name}: same-seed passes send identical inputs"),
            a.0 == b.0,
            &mut text,
        );
        verdict(
            &format!("{name}: same-seed passes give identical counter deltas"),
            a.1 == b.1 && a.1.values().any(|&v| v > 0.0),
            &mut text,
        );
        verdict(
            &format!("{name}: seed {} differs and passes", seed + 1),
            c.0 != a.0 && c.2.is_ok(),
            &mut text,
        );
        verdict(
            &format!("{name}: answers and bypass self-check"),
            a.2.is_ok() && b.2.is_ok(),
            &mut text,
        );
        for e in [&a.2, &c.2].into_iter().filter_map(|r| r.as_ref().err()) {
            text.push_str(&format!("     {e}\n"));
        }
    }
    Ok((text, ok))
}

type Fingerprint = (u64, BTreeMap<String, f64>, Result<(), String>);

/// One lockstep pass against a fresh server: the request digest, the
/// Work deltas plus the tile-cache Diag deltas, and the checks.
fn pass_fingerprint(bin: &Path, workload: Workload, seed: u64) -> Result<Fingerprint, String> {
    let (pools, _) = build_pools(workload.lines(seed), None)?;
    let lines = pass_lines(&pools);
    let (server, _) = Server::start(bin, false, &probe()?)?;
    let s0 = server.stats()?;
    let pass = server::lockstep(&server.addr, &pools, lines)?;
    let s1 = server.stats()?;
    let mut deltas = s1.work_deltas(&s0);
    for name in ["model.tile_hits", "model.tile_misses"] {
        deltas.insert(name.to_string(), s1.delta(&s0, name));
    }
    let checks = if pass.failed > 0 {
        Err(format!(
            "{} wrong or missing answers: {:?}",
            pass.failed, pass.errors
        ))
    } else {
        bypass_check(workload, &s0, &s1, &pass, true)
    };
    Ok((request_digest(&pools, lines), deltas, checks))
}

/// One in-process pass over the seed's study pool, after `StudySet::new`
/// has warmed every shared cache: a digest of the generated study
/// inputs, the Work-counter deltas (`maly_obs::counters_snapshot()`),
/// and the checks against the serial references.
fn study_fingerprint(seed: u64) -> Result<Fingerprint, String> {
    let set = StudySet::new(seed)?;
    let work = || -> BTreeMap<String, f64> {
        maly_obs::counters_snapshot()
            .into_iter()
            .filter(|c| c.kind == maly_obs::CounterKind::Work)
            .map(|c| (c.name.to_string(), c.value as f64))
            .collect()
    };
    let exec = Executor::from_env();
    let before = work();
    let checks = set
        .pool
        .iter()
        .zip(&set.refs)
        .try_for_each(|(study, reference)| {
            let (result, _) = studies::run(study, &set.cal, &exec, None, 0)?;
            reference.check(&result, &set.reports)
        });
    let deltas = work()
        .into_iter()
        .map(|(name, v)| {
            let moved = v - before.get(&name).copied().unwrap_or(0.0);
            (name, moved)
        })
        .collect();
    let digest = fnv_bytes(FNV_OFFSET, format!("{:?}", set.pool).as_bytes());
    Ok((digest, deltas, checks))
}
