//! `xtask bench-check` — diffs a freshly measured bench baseline
//! against the committed `BENCH_sweeps.json` and fails on per-group
//! median regressions.
//!
//! The comparison is throttle-aware: shared CI boxes (and laptops) can
//! run uniformly slower than the machine that recorded the baseline,
//! which says nothing about the code. Each benchmark's
//! `candidate / baseline` ratio is therefore normalized by the
//! workspace-wide **median** ratio (the machine-speed factor) before
//! the per-group verdict; a genuine regression moves a group away from
//! the rest of the workspace, a throttled run moves everything
//! together. Absolute work counters and the serial-vs-parallel
//! speedups recorded next to the medians stay un-normalized guards.
//!
//! Work counters (`"counters"` records) are compared **exactly**: they
//! count model evaluations, not nanoseconds, so they are deterministic
//! for a given configuration and any drift is an algorithmic change
//! that must be acknowledged by refreshing the baseline.
//!
//! Baselines that carry `p99_ns` next to their medians (the serve-side
//! `BENCH_serve.json` recorded by `maly-loadgen`) additionally gate
//! tail latency: the p99 ratio is normalized by the same machine-speed
//! factor as the medians but allowed a far looser drift bound
//! ([`MAX_P99_REGRESSION`]), because tail percentiles at loadgen
//! sample counts are scheduler noise several-× wide — the tail gate
//! catches catastrophic stalls, the median gate catches regressions.
//!
//! The parallel speedup gate applies only to gated groups the
//! **baseline** actually covers: a serve-latency baseline knows nothing
//! about the sweep benchmarks, so checking a candidate against it must
//! not demand sweep speedup records.
//!
//! The parser is deliberately narrow: it reads the line-per-record JSON
//! that `maly-bench`'s harness writes (see `render_json` there), not
//! arbitrary JSON — the workspace builds offline with no external
//! crates.

use std::fmt::Write as _;

/// A benchmark group's median may drift up to this fraction above the
/// baseline (after machine-speed normalization) before `bench-check`
/// fails.
pub const MAX_MEDIAN_REGRESSION: f64 = 0.15;

/// A benchmark group's p99 tail latency may drift up to this fraction
/// above the baseline (after machine-speed normalization) before
/// `bench-check` fails. Deliberately a catastrophe detector, not a
/// fine-grained ratchet: at loadgen sample counts on a small CI box the
/// p99 is scheduler jitter several-× wide run to run (identical-config
/// reruns were measured drifting past 4×), while the bug class this
/// gate exists for — delayed-ACK stalls, lock convoys, queueing
/// collapse — lands tails 15×+ above baseline. Medians, which are
/// stable, carry the fine-grained 15 % duty.
pub const MAX_P99_REGRESSION: f64 = 7.0;

/// Minimum serial→parallel speedup each parallel-gated group must
/// demonstrate when the candidate run's machine has more than one
/// core. On a single-core machine (`available_parallelism == 1`) the
/// gate is inactive — a speedup of ≈1 there is physics, not a
/// regression.
pub const MIN_PARALLEL_SPEEDUP: f64 = 1.1;

/// Groups whose parallel path must actually pay off on multi-core
/// machines. The gate keys on the **best** eligible speedup record per
/// group (names containing `_vs_` compare engines, not thread counts,
/// and are excluded): small workloads may legitimately stay on the
/// executor's serial path, but each of these groups carries at
/// least one workload big enough to scale.
pub const PARALLEL_GATED_GROUPS: &[&str] = &["sweeps/fig8_surface", "sweeps/contours", "sweeps/mc"];

/// One `benches` record from a harness baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark group (e.g. `sweeps/fig8_surface`).
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Median per-iteration latency in nanoseconds.
    pub median_ns: f64,
    /// 99th-percentile latency in nanoseconds, when the record carries
    /// one (loadgen latency records do; harness iteration records
    /// don't).
    pub p99_ns: Option<f64>,
}

/// One `counters` record from a harness baseline file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRecord {
    /// Benchmark group the counter was recorded under.
    pub group: String,
    /// Counter name (e.g. `surface_56x48/eq1_mesh_evals`).
    pub name: String,
    /// Absolute count.
    pub value: u64,
}

/// A work counter whose candidate value differs from the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDiff {
    /// Benchmark group.
    pub group: String,
    /// Counter name.
    pub name: String,
    /// Committed baseline value.
    pub baseline: u64,
    /// Candidate value, or `None` when the candidate run dropped the
    /// counter entirely.
    pub candidate: Option<u64>,
}

/// One `speedups` record from a harness baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRecord {
    /// Benchmark group the speedup was recorded under.
    pub group: String,
    /// Comparison name (e.g. `surface_112x96`).
    pub name: String,
    /// `serial_ns / parallel_ns` as recorded by the harness.
    pub speedup: f64,
}

/// Parallel-speedup verdict for one gated group.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupVerdict {
    /// The gated group.
    pub group: String,
    /// Best eligible `(name, speedup)` in the candidate run, or `None`
    /// when the group recorded no eligible speedup at all.
    pub best: Option<(String, f64)>,
}

/// Per-group comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupVerdict {
    /// Benchmark group.
    pub group: String,
    /// Median normalized `candidate / baseline` ratio over the group's
    /// benchmarks (1.0 = exactly the baseline, adjusted for machine
    /// speed).
    pub normalized_ratio: f64,
    /// Median normalized p99 `candidate / baseline` ratio over the
    /// group's records that carry `p99_ns`, or `None` when none do.
    pub p99_ratio: Option<f64>,
    /// Number of benchmarks compared in this group.
    pub benches: usize,
}

/// The full bench-check result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Workspace-wide median `candidate / baseline` ratio attributed to
    /// machine speed.
    pub machine_factor: f64,
    /// Per-group verdicts, sorted by group name.
    pub groups: Vec<GroupVerdict>,
    /// Work counters compared exactly against the baseline.
    pub counters: usize,
    /// Counters whose values drifted (or vanished) in the candidate.
    pub counter_diffs: Vec<CounterDiff>,
    /// `available_parallelism` reported by the candidate run (1 when
    /// the file predates the field).
    pub cores: u64,
    /// Parallel-speedup verdicts for [`PARALLEL_GATED_GROUPS`], from
    /// the candidate run.
    pub speedup_gate: Vec<SpeedupVerdict>,
}

impl BenchReport {
    /// True when every group stays within [`MAX_MEDIAN_REGRESSION`],
    /// every baseline work counter matches exactly, and (on a
    /// multi-core candidate machine) every gated group demonstrates at
    /// least [`MIN_PARALLEL_SPEEDUP`].
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.counter_diffs.is_empty()
            && self.speedup_failures().is_empty()
            && self.groups.iter().all(|g| {
                g.normalized_ratio <= 1.0 + MAX_MEDIAN_REGRESSION
                    && g.p99_ratio.map_or(true, |r| r <= 1.0 + MAX_P99_REGRESSION)
            })
    }

    /// Gated groups whose best eligible speedup falls short of
    /// [`MIN_PARALLEL_SPEEDUP`] (or that recorded none). Empty on a
    /// single-core candidate, where the gate is inactive.
    #[must_use]
    pub fn speedup_failures(&self) -> Vec<&SpeedupVerdict> {
        if self.cores <= 1 {
            return Vec::new();
        }
        self.speedup_gate
            .iter()
            .filter(|v| {
                !v.best
                    .as_ref()
                    .is_some_and(|&(_, s)| s >= MIN_PARALLEL_SPEEDUP)
            })
            .collect()
    }

    /// Renders the human-readable verdict table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench-check: machine-speed factor {:.3}× (workspace median)",
            self.machine_factor
        );
        for g in &self.groups {
            let marker = if g.normalized_ratio > 1.0 + MAX_MEDIAN_REGRESSION {
                "  REGRESSED"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>7.3}x over {} bench(es){marker}",
                g.group, g.normalized_ratio, g.benches
            );
            if let Some(p99) = g.p99_ratio {
                let marker = if p99 > 1.0 + MAX_P99_REGRESSION {
                    "  TAIL REGRESSED"
                } else {
                    ""
                };
                let _ = writeln!(out, "  {:<28} {p99:>7.3}x p99 tail{marker}", g.group);
            }
        }
        if self.counter_diffs.is_empty() {
            let _ = writeln!(
                out,
                "  {} work counter(s) match the baseline",
                self.counters
            );
        } else {
            for d in &self.counter_diffs {
                let cand = d
                    .candidate
                    .map_or_else(|| "missing".to_string(), |v| v.to_string());
                let _ = writeln!(
                    out,
                    "  counter {} / {}: baseline {} != candidate {cand}  DRIFTED",
                    d.group, d.name, d.baseline
                );
            }
        }
        if self.cores <= 1 {
            let _ = writeln!(
                out,
                "  parallel gate inactive (candidate ran on {} core)",
                self.cores.max(1)
            );
        } else {
            for v in &self.speedup_gate {
                match &v.best {
                    Some((name, s)) => {
                        let marker = if *s >= MIN_PARALLEL_SPEEDUP {
                            ""
                        } else {
                            "  TOO SLOW"
                        };
                        let _ = writeln!(
                            out,
                            "  parallel {:<21} {s:>7.2}x best ({name}){marker}",
                            v.group
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "  parallel {:<21} no eligible speedup record  MISSING",
                            v.group
                        );
                    }
                }
            }
        }
        if self.is_ok() {
            let _ = writeln!(
                out,
                "bench-check: OK — no group regressed beyond {:.0}%",
                MAX_MEDIAN_REGRESSION * 100.0
            );
        } else {
            let _ = writeln!(
                out,
                "bench-check: FAIL — group median beyond {:.0}% of baseline, \
                 p99 tail beyond {:.0}%, work counters drifted, or a \
                 parallel speedup fell below {MIN_PARALLEL_SPEEDUP}x",
                MAX_MEDIAN_REGRESSION * 100.0,
                MAX_P99_REGRESSION * 100.0
            );
        }
        out
    }
}

/// Extracts a string field (`"key": "value"`) from one record line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extracts a numeric field (`"key": 123.4`) from one record line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    digits.parse().ok()
}

/// Parses the `benches` records out of a harness baseline file.
///
/// # Errors
///
/// Returns a message when the text holds no parsable bench records —
/// an empty baseline would make every comparison vacuously pass.
pub fn parse_baseline(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(group), Some(name), Some(median_ns)) = (
            str_field(line, "group"),
            str_field(line, "name"),
            num_field(line, "median_ns"),
        ) else {
            continue;
        };
        out.push(BenchRecord {
            group: group.to_string(),
            name: name.to_string(),
            median_ns,
            p99_ns: num_field(line, "p99_ns"),
        });
    }
    if out.is_empty() {
        return Err("no bench records found (is this a harness --json baseline?)".to_string());
    }
    Ok(out)
}

/// Parses the `counters` records out of a harness baseline file. An
/// empty list is fine — counters are an optional layer over the
/// timings.
#[must_use]
pub fn parse_counters(text: &str) -> Vec<CounterRecord> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(group), Some(name), Some(value)) = (
            str_field(line, "group"),
            str_field(line, "name"),
            num_field(line, "value"),
        ) else {
            continue;
        };
        out.push(CounterRecord {
            group: group.to_string(),
            name: name.to_string(),
            value: value as u64,
        });
    }
    out
}

/// Parses the `speedups` records out of a harness baseline file. An
/// empty list is fine for pre-gate baselines; the gate then reports the
/// gated groups as missing on multi-core machines.
#[must_use]
pub fn parse_speedups(text: &str) -> Vec<SpeedupRecord> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(group), Some(name), Some(speedup)) = (
            str_field(line, "group"),
            str_field(line, "name"),
            num_field(line, "speedup"),
        ) else {
            continue;
        };
        out.push(SpeedupRecord {
            group: group.to_string(),
            name: name.to_string(),
            speedup,
        });
    }
    out
}

/// Reads the top-level `available_parallelism` field of a harness
/// baseline file; `None` when the file predates it.
#[must_use]
pub fn parse_parallelism(text: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.contains("\"available_parallelism\""))
        .and_then(|l| num_field(l, "available_parallelism"))
        .map(|v| v as u64)
}

/// The per-group parallel-gate verdicts over a candidate run's speedup
/// records: for each of [`PARALLEL_GATED_GROUPS`], the best recorded
/// serial→parallel ratio, excluding `_vs_` comparisons (which compare
/// engines, not thread counts).
#[must_use]
pub fn speedup_verdicts(candidate: &[SpeedupRecord]) -> Vec<SpeedupVerdict> {
    PARALLEL_GATED_GROUPS
        .iter()
        .map(|&group| {
            let best = candidate
                .iter()
                .filter(|s| s.group == group && !s.name.contains("_vs_"))
                .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
                .map(|s| (s.name.clone(), s.speedup));
            SpeedupVerdict {
                group: group.to_string(),
                best,
            }
        })
        .collect()
}

/// Exact comparison of baseline work counters against the candidate.
/// Counters the candidate adds are ignored (they enter the contract at
/// the next baseline refresh); counters it drops or changes are diffs.
#[must_use]
pub fn diff_counters(baseline: &[CounterRecord], candidate: &[CounterRecord]) -> Vec<CounterDiff> {
    baseline
        .iter()
        .filter_map(|b| {
            let cand = candidate
                .iter()
                .find(|c| c.group == b.group && c.name == b.name)
                .map(|c| c.value);
            if cand == Some(b.value) {
                None
            } else {
                Some(CounterDiff {
                    group: b.group.clone(),
                    name: b.name.clone(),
                    baseline: b.value,
                    candidate: cand,
                })
            }
        })
        .collect()
}

/// Median of a non-empty slice (sorted in place, NaN-total order).
/// Even-length slices average the middle pair: serve-latency groups
/// carry exactly two records each, and taking the upper element there
/// would bias every group verdict toward its noisier record.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 0 {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Compares a candidate run against the committed baseline.
///
/// # Errors
///
/// Returns a message when a baseline benchmark is missing from the
/// candidate (coverage must never silently shrink) or a baseline
/// median is non-positive.
pub fn compare(baseline: &[BenchRecord], candidate: &[BenchRecord]) -> Result<BenchReport, String> {
    let mut ratios: Vec<(String, f64)> = Vec::with_capacity(baseline.len());
    let mut p99_ratios: Vec<(String, f64)> = Vec::new();
    for b in baseline {
        let Some(c) = candidate
            .iter()
            .find(|c| c.group == b.group && c.name == b.name)
        else {
            return Err(format!(
                "candidate run is missing `{}` / `{}` — bench coverage must not shrink",
                b.group, b.name
            ));
        };
        if b.median_ns <= 0.0 {
            return Err(format!(
                "baseline median for `{}` / `{}` is not positive",
                b.group, b.name
            ));
        }
        ratios.push((b.group.clone(), c.median_ns / b.median_ns));
        if let Some(bp) = b.p99_ns {
            if bp <= 0.0 {
                return Err(format!(
                    "baseline p99 for `{}` / `{}` is not positive",
                    b.group, b.name
                ));
            }
            let Some(cp) = c.p99_ns else {
                return Err(format!(
                    "candidate run dropped `p99_ns` for `{}` / `{}` — tail \
                     coverage must not shrink",
                    b.group, b.name
                ));
            };
            p99_ratios.push((b.group.clone(), cp / bp));
        }
    }
    let mut all: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
    let machine_factor = median(&mut all).max(f64::MIN_POSITIVE);

    let mut groups: Vec<String> = ratios.iter().map(|(g, _)| g.clone()).collect();
    groups.sort();
    groups.dedup();
    let verdicts = groups
        .into_iter()
        .map(|group| {
            let mut rs: Vec<f64> = ratios
                .iter()
                .filter(|(g, _)| *g == group)
                .map(|(_, r)| r / machine_factor)
                .collect();
            let benches = rs.len();
            let mut tails: Vec<f64> = p99_ratios
                .iter()
                .filter(|(g, _)| *g == group)
                .map(|(_, r)| r / machine_factor)
                .collect();
            GroupVerdict {
                group,
                normalized_ratio: median(&mut rs),
                p99_ratio: if tails.is_empty() {
                    None
                } else {
                    Some(median(&mut tails))
                },
                benches,
            }
        })
        .collect();
    Ok(BenchReport {
        machine_factor,
        groups: verdicts,
        counters: 0,
        counter_diffs: Vec::new(),
        cores: 1,
        speedup_gate: Vec::new(),
    })
}

/// File-level entry point: reads both baselines and compares them.
///
/// # Errors
///
/// Returns a message on unreadable files, unparsable baselines, or
/// shrunk coverage; the caller turns the message into a non-zero exit.
pub fn run_bench_check(baseline_path: &str, candidate_path: &str) -> Result<BenchReport, String> {
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    let candidate = std::fs::read_to_string(candidate_path)
        .map_err(|e| format!("reading {candidate_path}: {e}"))?;
    let base_records = parse_baseline(&baseline)?;
    let mut report = compare(&base_records, &parse_baseline(&candidate)?)?;
    let base_counters = parse_counters(&baseline);
    report.counters = base_counters.len();
    report.counter_diffs = diff_counters(&base_counters, &parse_counters(&candidate));
    report.cores = parse_parallelism(&candidate).unwrap_or(1);
    // The speedup gate only binds where the baseline has coverage:
    // checking a serve-latency baseline must not demand sweep speedup
    // records.
    report.speedup_gate = speedup_verdicts(&parse_speedups(&candidate))
        .into_iter()
        .filter(|v| base_records.iter().any(|b| b.group == v.group))
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(group: &str, name: &str, median_ns: f64) -> BenchRecord {
        BenchRecord {
            group: group.to_string(),
            name: name.to_string(),
            median_ns,
            p99_ns: None,
        }
    }

    fn tail_record(group: &str, name: &str, median_ns: f64, p99_ns: f64) -> BenchRecord {
        BenchRecord {
            p99_ns: Some(p99_ns),
            ..record(group, name, median_ns)
        }
    }

    #[test]
    fn parses_harness_json_lines() {
        let text = concat!(
            "{\n  \"benches\": [\n",
            "    {\"group\": \"sweeps/a\", \"name\": \"x/serial\", \"median_ns\": 1200.5, \"iters\": 64},\n",
            "    {\"group\": \"sweeps/a\", \"name\": \"x/parallel\", \"median_ns\": 800.0, \"iters\": 64}\n",
            "  ],\n  \"speedups\": []\n}\n",
        );
        let records = parse_baseline(text).expect("parses");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], record("sweeps/a", "x/serial", 1200.5));
    }

    #[test]
    fn uniform_slowdown_is_attributed_to_the_machine() {
        let base = vec![record("g1", "a", 100.0), record("g2", "b", 200.0)];
        let cand = vec![record("g1", "a", 180.0), record("g2", "b", 360.0)];
        let report = compare(&base, &cand).expect("compares");
        assert!(report.is_ok(), "{}", report.render());
        assert!((report.machine_factor - 1.8).abs() < 1e-12);
    }

    #[test]
    fn single_group_regression_fails() {
        let base = vec![
            record("g1", "a", 100.0),
            record("g2", "b", 100.0),
            record("g3", "c", 100.0),
        ];
        // g3 runs 2× slower while the rest of the workspace holds, so
        // the machine factor stays ~1 and g3 is a real regression.
        let cand = vec![
            record("g1", "a", 101.0),
            record("g2", "b", 99.0),
            record("g3", "c", 200.0),
        ];
        let report = compare(&base, &cand).expect("compares");
        assert!(!report.is_ok(), "{}", report.render());
    }

    #[test]
    fn parses_p99_when_the_record_carries_one() {
        let text = concat!(
            "    {\"group\": \"serve/single\", \"name\": \"product\", \"median_ns\": 1200.5, ",
            "\"p90_ns\": 2000.0, \"p99_ns\": 3500.2, \"p999_ns\": 4000.0, \"samples\": 93}\n",
        );
        let records = parse_baseline(text).expect("parses");
        assert_eq!(records[0].p99_ns, Some(3500.2));
        assert_eq!(records[0].median_ns, 1200.5);
    }

    #[test]
    fn p99_tail_regression_fails_while_medians_hold() {
        let base = vec![
            tail_record("g1", "a", 100.0, 200.0),
            record("g2", "b", 100.0),
            record("g3", "c", 100.0),
        ];
        // Medians all hold, so the machine factor is 1; only the tail
        // of g1 blows past the catastrophe allowance (a delayed-ACK
        // style stall: tail an order of magnitude out, median intact).
        let cand = vec![
            tail_record("g1", "a", 100.0, 1800.0),
            record("g2", "b", 100.0),
            record("g3", "c", 100.0),
        ];
        let report = compare(&base, &cand).expect("compares");
        assert_eq!(report.groups[0].p99_ratio, Some(9.0));
        assert!(!report.is_ok(), "{}", report.render());
        assert!(report.render().contains("TAIL REGRESSED"));
        // Scheduler-jitter-scale tail drift passes.
        let cand = vec![
            tail_record("g1", "a", 100.0, 400.0),
            record("g2", "b", 100.0),
            record("g3", "c", 100.0),
        ];
        let report = compare(&base, &cand).expect("compares");
        assert!(report.is_ok(), "{}", report.render());
    }

    #[test]
    fn p99_tail_is_machine_speed_normalized() {
        // Everything — medians and tails — runs 2× slower: a throttled
        // machine, not a regression.
        let base = vec![
            tail_record("g1", "a", 100.0, 200.0),
            tail_record("g2", "b", 100.0, 300.0),
        ];
        let cand = vec![
            tail_record("g1", "a", 200.0, 400.0),
            tail_record("g2", "b", 200.0, 600.0),
        ];
        let report = compare(&base, &cand).expect("compares");
        assert!(report.is_ok(), "{}", report.render());
        assert_eq!(report.groups[0].p99_ratio, Some(1.0));
    }

    #[test]
    fn dropping_p99_coverage_is_an_error() {
        let base = vec![tail_record("g1", "a", 100.0, 200.0)];
        let cand = vec![record("g1", "a", 100.0)];
        let err = compare(&base, &cand).expect_err("must refuse");
        assert!(err.contains("p99_ns"), "{err}");
    }

    #[test]
    fn missing_candidate_bench_is_an_error() {
        let base = vec![record("g1", "a", 100.0)];
        assert!(compare(&base, &[]).is_err());
    }

    #[test]
    fn empty_baseline_is_an_error() {
        assert!(parse_baseline("{}\n").is_err());
    }

    fn counter(group: &str, name: &str, value: u64) -> CounterRecord {
        CounterRecord {
            group: group.to_string(),
            name: name.to_string(),
            value,
        }
    }

    #[test]
    fn parses_counter_records() {
        let text = concat!(
            "  \"counters\": [\n",
            "    {\"group\": \"obs/work\", \"name\": \"obs/adaptive.mesh_evals\", \"value\": 518}\n",
            "  ]\n",
        );
        assert_eq!(
            parse_counters(text),
            vec![counter("obs/work", "obs/adaptive.mesh_evals", 518)]
        );
        // Bench lines (median_ns, no value) are not counters.
        assert!(parse_counters(
            "{\"group\": \"g\", \"name\": \"n\", \"median_ns\": 10.0, \"iters\": 4}\n"
        )
        .is_empty());
    }

    #[test]
    fn counter_drift_and_disappearance_are_diffs() {
        let base = vec![counter("g", "a", 10), counter("g", "b", 20)];
        let same = diff_counters(&base, &base);
        assert!(same.is_empty());
        let drifted = diff_counters(&base, &[counter("g", "a", 11)]);
        assert_eq!(drifted.len(), 2);
        assert_eq!(drifted[0].candidate, Some(11));
        assert_eq!(drifted[1].candidate, None);
        // Extra candidate counters are not diffs.
        let extra = diff_counters(
            &base,
            &[
                counter("g", "a", 10),
                counter("g", "b", 20),
                counter("g", "c", 1),
            ],
        );
        assert!(extra.is_empty());
    }

    fn speedup(group: &str, name: &str, ratio: f64) -> SpeedupRecord {
        SpeedupRecord {
            group: group.to_string(),
            name: name.to_string(),
            speedup: ratio,
        }
    }

    /// All three gated groups with the given ratio on their eligible
    /// record, plus a `_vs_` decoy that must be ignored.
    fn gated_speedups(ratio: f64) -> Vec<SpeedupRecord> {
        vec![
            speedup("sweeps/fig8_surface", "surface_112x96", ratio),
            speedup(
                "sweeps/fig8_surface",
                "surface_56x48_dense_vs_adaptive",
                9.0,
            ),
            speedup("sweeps/contours", "contours_5_levels", ratio),
            speedup("sweeps/mc", "mc_yield_64", ratio),
        ]
    }

    #[test]
    fn parses_speedup_records_and_parallelism() {
        let text = concat!(
            "{\n  \"available_parallelism\": 8,\n",
            "  \"speedups\": [\n",
            "    {\"group\": \"sweeps/mc\", \"name\": \"mc_yield_64\", \"serial_ns\": 200.0, ",
            "\"parallel_ns\": 100.0, \"speedup\": 2.000}\n",
            "  ]\n}\n",
        );
        assert_eq!(parse_parallelism(text), Some(8));
        assert_eq!(
            parse_speedups(text),
            vec![speedup("sweeps/mc", "mc_yield_64", 2.0)]
        );
    }

    #[test]
    fn multi_core_candidate_below_gate_fails() {
        let base = vec![record("g1", "a", 100.0)];
        let mut report = compare(&base, &base).expect("compares");
        report.cores = 8;
        report.speedup_gate = speedup_verdicts(&gated_speedups(1.05));
        assert_eq!(report.speedup_failures().len(), 3);
        assert!(!report.is_ok(), "{}", report.render());
        assert!(report.render().contains("TOO SLOW"));
    }

    #[test]
    fn multi_core_candidate_above_gate_passes() {
        let base = vec![record("g1", "a", 100.0)];
        let mut report = compare(&base, &base).expect("compares");
        report.cores = 8;
        report.speedup_gate = speedup_verdicts(&gated_speedups(1.5));
        assert!(report.speedup_failures().is_empty());
        assert!(report.is_ok(), "{}", report.render());
    }

    #[test]
    fn vs_comparisons_do_not_satisfy_the_gate() {
        // Only the `_vs_` decoy scores well: the gate must not count it.
        let mut records = gated_speedups(1.02);
        records.retain(|s| s.name.contains("_vs_"));
        let verdicts = speedup_verdicts(&records);
        assert!(verdicts.iter().all(|v| v.best.is_none()));
        let base = vec![record("g1", "a", 100.0)];
        let mut report = compare(&base, &base).expect("compares");
        report.cores = 4;
        report.speedup_gate = verdicts;
        assert!(!report.is_ok());
        assert!(report.render().contains("MISSING"));
    }

    #[test]
    fn single_core_candidate_disables_the_gate() {
        let base = vec![record("g1", "a", 100.0)];
        let mut report = compare(&base, &base).expect("compares");
        report.cores = 1;
        report.speedup_gate = speedup_verdicts(&gated_speedups(0.9));
        assert!(report.speedup_failures().is_empty());
        assert!(report.is_ok(), "{}", report.render());
        assert!(report.render().contains("parallel gate inactive"));
    }

    #[test]
    fn speedup_gates_bind_only_to_baseline_covered_groups() {
        // A serve-only baseline: no sweeps groups, so the parallel
        // gate may not demand their records.
        let dir = std::env::temp_dir();
        let base_path = dir.join(format!("bench_gate_base_{}.json", std::process::id()));
        let cand_path = dir.join(format!("bench_gate_cand_{}.json", std::process::id()));
        let serve_record = concat!(
            "{\"group\": \"serve/single\", \"name\": \"product\", ",
            "\"median_ns\": 1000.0, \"p99_ns\": 2000.0, \"samples\": 10}\n"
        );
        std::fs::write(&base_path, serve_record).expect("write baseline");
        std::fs::write(
            &cand_path,
            format!("\"available_parallelism\": 8\n{serve_record}"),
        )
        .expect("write candidate");
        let report = run_bench_check(
            base_path.to_str().expect("utf8 path"),
            cand_path.to_str().expect("utf8 path"),
        )
        .expect("checks");
        assert!(report.speedup_gate.is_empty());
        assert!(report.is_ok(), "{}", report.render());
        drop(std::fs::remove_file(&base_path));
        drop(std::fs::remove_file(&cand_path));
    }

    #[test]
    fn counter_diffs_fail_the_report() {
        let base = vec![record("g1", "a", 100.0)];
        let mut report = compare(&base, &base).expect("compares");
        assert!(report.is_ok());
        report.counter_diffs = diff_counters(&[counter("g", "n", 5)], &[counter("g", "n", 6)]);
        assert!(!report.is_ok(), "{}", report.render());
        assert!(report.render().contains("DRIFTED"));
    }
}
