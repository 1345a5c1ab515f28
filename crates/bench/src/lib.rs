//! Benchmark crate: shared fixtures and a std-only timing harness.
//!
//! The benches live in `benches/sweeps.rs` (serial vs parallel sweep
//! hot paths, an owned eq. (4) memo cold and warm, and a cold tile
//! batch against its per-query oracle).
//! Run with `cargo bench -p maly-bench --bench sweeps`; add
//! `-- --json <path>` to write a machine-readable baseline like
//! `BENCH_sweeps.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use maly_cost_model::product::ProductScenario;
use maly_units::{Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount};

pub mod harness {
    //! Minimal timing harness (the workspace builds offline with no
    //! external crates, so Criterion is not available).
    //!
    //! Auto-calibrates an iteration count per benchmark, takes several
    //! samples, and reports the median per-iteration latency. Paired
    //! comparisons (serial vs parallel, fused vs unfused) should use
    //! [`bench_pair`], which interleaves the two sides' samples so CPU
    //! throttle drift cannot fabricate a speedup or regression. Every
    //! result is also recorded in memory; when a bench binary is run
    //! with `--json <path>` (after the `--` separator under `cargo
    //! bench`), [`write_json_if_requested`] dumps the records as a
    //! machine-readable baseline.

    use std::sync::{Mutex, PoisonError};
    use std::time::{Duration, Instant};

    const MIN_SAMPLE_TIME: Duration = Duration::from_millis(10);
    const SAMPLES: usize = 7;

    /// One recorded measurement.
    #[derive(Debug, Clone)]
    struct Record {
        group: String,
        name: String,
        median_ns: f64,
        iters: u64,
    }

    /// One recorded serial-vs-parallel comparison.
    #[derive(Debug, Clone)]
    struct Speedup {
        group: String,
        name: String,
        serial_ns: f64,
        parallel_ns: f64,
    }

    /// One recorded work counter (e.g. eq. (1) evaluation counts).
    #[derive(Debug, Clone)]
    struct Counter {
        group: String,
        name: String,
        value: u64,
    }

    #[derive(Default)]
    struct Recorder {
        current_group: String,
        records: Vec<Record>,
        speedups: Vec<Speedup>,
        counters: Vec<Counter>,
    }

    static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

    fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
        let mut guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
        f(guard.get_or_insert_with(Recorder::default))
    }

    /// Prints a group header, mirroring Criterion's benchmark groups.
    pub fn group(name: &str) {
        with_recorder(|r| r.current_group = name.to_string());
        println!("\n== {name} ==");
    }

    /// Doubles the iteration count until one sample of `f` takes at
    /// least [`MIN_SAMPLE_TIME`].
    fn calibrate(f: &mut impl FnMut()) -> u64 {
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            if start.elapsed() >= MIN_SAMPLE_TIME || iters >= 1 << 24 {
                return iters;
            }
            iters = iters.saturating_mul(2);
        }
    }

    /// One timed sample: seconds per iteration over `iters` runs.
    fn sample(f: &mut impl FnMut(), iters: u64) -> f64 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() / iters as f64
    }

    /// Reduces per-iteration samples to their median, prints the
    /// result line and records it for [`write_json_if_requested`].
    fn report(name: &str, mut per_iter: Vec<f64>, iters: u64) -> f64 {
        per_iter.sort_by(f64::total_cmp);
        let median_seconds = per_iter[per_iter.len() / 2];
        let median = format_seconds(median_seconds);
        println!("{name:<36} {median:>12}/iter   ({iters} iters/sample)");
        let median_ns = median_seconds * 1e9;
        with_recorder(|r| {
            let group = r.current_group.clone();
            r.records.push(Record {
                group,
                name: name.to_string(),
                median_ns,
                iters,
            });
        });
        median_ns
    }

    /// Times `f`, printing the median per-iteration latency and
    /// recording it for [`write_json_if_requested`]. Returns the
    /// median in nanoseconds so callers can derive speedups.
    pub fn bench(name: &str, mut f: impl FnMut()) -> f64 {
        let iters = calibrate(&mut f);
        let per_iter: Vec<f64> = (0..SAMPLES).map(|_| sample(&mut f, iters)).collect();
        report(name, per_iter, iters)
    }

    /// Sub-blocks per side per sample in [`bench_pair`]. Finer
    /// interleaving couples the two sides to the same machine-speed
    /// phases; 8 keeps each block long enough (milliseconds) that the
    /// two `Instant` reads around it are free.
    const INTERLEAVE_BLOCKS: u64 = 8;

    /// Runs `n` iterations of `f`, returning the elapsed seconds.
    fn timed_block(f: &mut impl FnMut(), n: u64) -> f64 {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        start.elapsed().as_secs_f64()
    }

    /// Times two related workloads with their iterations **interleaved**
    /// in sub-sample blocks: every sample alternates a block of `a` with
    /// a block of `b`, so machine-speed swings (thermal throttling,
    /// noisy neighbours) hit both sides alike and the ratio of the
    /// returned medians stays honest. Timing the sides in separate
    /// [`bench`](fn@bench) calls instead leaves them seconds apart, where a
    /// throttle step lands entirely on one side and fabricates a
    /// spurious speedup or regression.
    ///
    /// Prints and records each side exactly like [`bench`](fn@bench); returns
    /// `(median_a_ns, median_b_ns)`.
    pub fn bench_pair(
        name_a: &str,
        mut a: impl FnMut(),
        name_b: &str,
        mut b: impl FnMut(),
    ) -> (f64, f64) {
        let iters_a = calibrate(&mut a);
        let iters_b = calibrate(&mut b);
        let block_a = iters_a.div_ceil(INTERLEAVE_BLOCKS);
        let block_b = iters_b.div_ceil(INTERLEAVE_BLOCKS);
        let mut per_a = Vec::with_capacity(SAMPLES);
        let mut per_b = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let (mut left_a, mut left_b) = (iters_a, iters_b);
            let (mut secs_a, mut secs_b) = (0.0f64, 0.0f64);
            while left_a > 0 || left_b > 0 {
                let run_a = block_a.min(left_a);
                if run_a > 0 {
                    secs_a += timed_block(&mut a, run_a);
                    left_a -= run_a;
                }
                let run_b = block_b.min(left_b);
                if run_b > 0 {
                    secs_b += timed_block(&mut b, run_b);
                    left_b -= run_b;
                }
            }
            per_a.push(secs_a / iters_a as f64);
            per_b.push(secs_b / iters_b as f64);
        }
        (
            report(name_a, per_a, iters_a),
            report(name_b, per_b, iters_b),
        )
    }

    /// Records a serial-vs-parallel comparison (both in ns/iter) and
    /// prints the ratio.
    pub fn record_speedup(name: &str, serial_ns: f64, parallel_ns: f64) {
        let ratio = if parallel_ns > 0.0 {
            serial_ns / parallel_ns
        } else {
            f64::INFINITY
        };
        println!("{name:<36} {ratio:>11.2}x  (serial / parallel)");
        with_recorder(|r| {
            let group = r.current_group.clone();
            r.speedups.push(Speedup {
                group,
                name: name.to_string(),
                serial_ns,
                parallel_ns,
            });
        });
    }

    /// Name of the derived per-evaluation group written by
    /// [`record_per_eval`]; `xtask bench-check` asserts the group is
    /// present and gates its values like any other timing record.
    pub const PER_EVAL_GROUP: &str = "per_eval";

    /// Records a derived per-evaluation latency — a group's median
    /// divided by its matching work counter — as a regular timing
    /// record in the dedicated [`PER_EVAL_GROUP`] group (regardless of
    /// the current group). Gating these alongside the raw medians keeps
    /// per-eval cost honest even when a sweep's evaluation *count* also
    /// changes: a "faster" sweep that merely evaluates fewer points
    /// cannot hide a per-point regression.
    pub fn record_per_eval(name: &str, total_ns: f64, evals: u64) {
        let per_eval_ns = if evals == 0 {
            0.0
        } else {
            total_ns / evals as f64
        };
        println!("{name:<36} {per_eval_ns:>11.1} ns/eval ({evals} evals)");
        with_recorder(|r| {
            r.records.push(Record {
                group: PER_EVAL_GROUP.to_string(),
                name: name.to_string(),
                median_ns: per_eval_ns,
                iters: evals,
            });
        });
    }

    /// Records a named work counter (e.g. "eq1_evaluations") under the
    /// current group and prints it; counters land in the JSON baseline
    /// alongside the timings so work reductions are auditable, not just
    /// wall-clock ones.
    pub fn record_counter(name: &str, value: u64) {
        println!("{name:<36} {value:>12}  (count)");
        with_recorder(|r| {
            let group = r.current_group.clone();
            r.counters.push(Counter {
                group,
                name: name.to_string(),
                value,
            });
        });
    }

    /// Writes the recorded results as JSON when the process arguments
    /// contain `--json <path>`; call it at the end of every bench
    /// `main`. Other arguments (Cargo's bench filters) are ignored.
    ///
    /// # Panics
    ///
    /// Panics when `--json` has no following path or the file cannot
    /// be written — a baseline silently not written is worse than a
    /// failed run.
    pub fn write_json_if_requested() {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(arg) = args.next() {
            if arg == "--json" {
                // Cargo appends its own `--bench` flag after user args,
                // so a flag-shaped operand means the path was omitted.
                let operand = args.next().filter(|a| !a.starts_with("--"));
                // audit:allow(panic): CLI contract — a missing operand
                // must abort the run, not skip the baseline.
                path = Some(operand.expect("--json needs a file path"));
            }
        }
        let Some(path) = path else {
            return;
        };
        // Cargo runs bench binaries with CWD = the package root, but
        // callers (ci.sh, the README) write paths relative to the
        // workspace root — resolve against it so both agree.
        let path = {
            let p = std::path::PathBuf::from(&path);
            if p.is_absolute() {
                p
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .ancestors()
                    .nth(2)
                    .unwrap_or(std::path::Path::new("."))
                    .join(p)
            }
        };
        let json = render_json();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                // audit:allow(panic): a baseline silently not written
                // is worse than a failed bench run.
                .unwrap_or_else(|e| panic!("creating {}: {e}", parent.display()));
        }
        // audit:allow(panic): a baseline silently not written is worse
        // than a failed bench run.
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }

    fn render_json() -> String {
        let threads_env = std::env::var(maly_par::THREADS_ENV_VAR).ok();
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            maly_par::default_parallelism()
        ));
        out.push_str(&format!(
            "  \"maly_par_threads\": {},\n",
            threads_env.map_or_else(|| "null".to_string(), |t| format!("\"{}\"", escape(&t)))
        ));
        with_recorder(|r| {
            out.push_str("  \"benches\": [\n");
            for (i, rec) in r.records.iter().enumerate() {
                let comma = if i + 1 < r.records.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns\": {:.1}, \
                     \"iters\": {}}}{comma}\n",
                    escape(&rec.group),
                    escape(&rec.name),
                    rec.median_ns,
                    rec.iters,
                ));
            }
            out.push_str("  ],\n  \"speedups\": [\n");
            for (i, s) in r.speedups.iter().enumerate() {
                let comma = if i + 1 < r.speedups.len() { "," } else { "" };
                let ratio = if s.parallel_ns > 0.0 {
                    s.serial_ns / s.parallel_ns
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "    {{\"group\": \"{}\", \"name\": \"{}\", \"serial_ns\": {:.1}, \
                     \"parallel_ns\": {:.1}, \"speedup\": {ratio:.3}}}{comma}\n",
                    escape(&s.group),
                    escape(&s.name),
                    s.serial_ns,
                    s.parallel_ns,
                ));
            }
            out.push_str("  ],\n  \"counters\": [\n");
            for (i, c) in r.counters.iter().enumerate() {
                let comma = if i + 1 < r.counters.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"group\": \"{}\", \"name\": \"{}\", \"value\": {}}}{comma}\n",
                    escape(&c.group),
                    escape(&c.name),
                    c.value,
                ));
            }
            out.push_str("  ]\n}\n");
        });
        out
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn format_seconds(seconds: f64) -> String {
        if seconds < 1e-6 {
            format!("{:.1} ns", seconds * 1e9)
        } else if seconds < 1e-3 {
            format!("{:.2} µs", seconds * 1e6)
        } else if seconds < 1.0 {
            format!("{:.2} ms", seconds * 1e3)
        } else {
            format!("{seconds:.3} s")
        }
    }
}

/// Builds the Table 3 row-2 scenario, the benches' standard workload
/// (3.1 M transistors at 0.8 µm, Y₀ = 70%, X = 1.8).
///
/// # Panics
///
/// Never — inputs are the printed constants.
#[must_use]
pub fn standard_product() -> ProductScenario {
    ProductScenario::builder("bench µP")
        .transistors(TransistorCount::new(3.1e6).expect("valid"))
        .feature_size(Microns::new(0.8).expect("valid"))
        .design_density(DesignDensity::new(150.0).expect("valid"))
        .wafer_radius(Centimeters::new(7.5).expect("valid"))
        .reference_yield(Probability::new(0.7).expect("valid"))
        .reference_wafer_cost(Dollars::new(700.0).expect("valid"))
        .cost_escalation(1.8)
        .expect("valid")
        .build()
        .expect("valid")
}

#[cfg(test)]
mod tests {
    #[test]
    fn standard_product_evaluates() {
        let cost = super::standard_product().evaluate().unwrap();
        assert!(cost.cost_per_transistor.value() > 0.0);
    }
}
