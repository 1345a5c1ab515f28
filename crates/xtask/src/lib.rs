//! maly-audit — the workspace's self-contained static analysis pass.
//!
//! Run as `cargo run -p xtask -- lint`. Since v2 the analyzer is built
//! on a lossless Rust token lexer ([`lexer`]) and a per-file symbol
//! index ([`index`]) instead of per-line heuristics: string contents
//! are masked, comments are routed out of code, and rules can reason
//! about declared types. The rule families keep the numeric core
//! honest:
//!
//! 1. **panic-freedom** — no `unwrap`/`expect`/`panic!` family calls in
//!    non-test library code, ratcheted by per-crate budgets so legacy
//!    sites cannot grow;
//! 2. **unit-safety** — public signatures in the dimensioned crates
//!    must not pass bare `f64` where a `maly-units` newtype exists;
//! 3. **NaN-safety** — no `partial_cmp().unwrap()`, no float ordering
//!    via `partial_cmp`, no float-literal `==`;
//! 4. **crate hygiene** — workspace-inherited metadata, `[lints]`
//!    inheritance, `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]`
//!    crate roots, no wildcard versions or placeholder URLs, no
//!    `maly-*` dependency that no source of the crate names;
//! 5. **raw-thread containment** — no raw `std::thread::spawn` outside
//!    `crates/par`, so every parallel path stays deterministic and
//!    honors `MALY_PAR_THREADS`;
//! 6. **tracked-artifact hygiene** — no build artifacts in version
//!    control (`target/` trees, cargo fingerprints, stray `--flag`
//!    files); checked against `git ls-files` when git is available;
//! 7. **raw-timing containment** — no ad-hoc `Instant::now()` /
//!    `eprintln!` timing outside `crates/obs`, `crates/bench`, and
//!    `crates/xtask`; instrumentation flows through `maly-obs`;
//! 8. **determinism** ([`determinism`]) — no hash-order iteration,
//!    randomized hasher state, wall-clock reads, thread identity, or
//!    relaxed atomic reads on result paths; `maly-obs` counter statics
//!    are exempt through the symbol index ("counters are Diag, results
//!    are Work"), not through per-line escapes;
//! 9. **lock-order** ([`locks`]) — the acquisition graph over every
//!    indexed `Mutex`/`RwLock` must be cycle-free, and no lock may be
//!    held across blocking I/O;
//! 10. **escape hygiene** ([`escapes`]) — every `audit:allow(...)` tag
//!     must suppress a live violation; stale or unknown tags are
//!     themselves violations, so the escape ratchet only tightens;
//! 11. **lane purity** — no per-element `exp`/`ln`/`powf`/`sqrt` inside
//!     batch-kernel bodies (`*_batch`, `*_for_slice`, `*_for_points`);
//!     transcendental math in those functions routes through
//!     `maly_lanes` slice ops so batching stays real.
//!
//! `cargo run -p xtask -- lint --json <path>` additionally writes the
//! machine-readable report (schema `maly-audit/v2`) for CI archiving
//! and diffing; `lint --explain <rule>` prints a rule's rationale and
//! escape syntax. `bench-check` and `trace-check` are separate
//! subcommands (see [`bench`](mod@bench), [`trace`]).
//!
//! Escape hatches are inline comments: `audit:allow(<tag>): <why>` on
//! the offending line or the comment block above it. The linter is
//! std-only: it works in fully offline builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod determinism;
pub mod escapes;
pub mod index;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod scan;
pub mod trace;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Rule, Violation};

/// Panic ratchet budgets: the number of tolerated panic sites per
/// crate. These only go DOWN — new code must be panic-free, and paying
/// down a crate's legacy sites lowers its line here.
pub const PANIC_BUDGETS: &[(&str, usize)] = &[
    ("maly-bench", 8),
    ("maly-chiplet", 0),
    ("maly-cli", 0),
    ("maly-cost-model", 0),
    ("maly-cost-optim", 0),
    ("maly-fabline-sim", 8),
    ("maly-lanes", 0),
    ("maly-loadgen", 0),
    ("maly-model", 0),
    ("maly-obs", 0),
    ("maly-paper-data", 0),
    ("maly-par", 0),
    ("maly-repro", 53),
    ("maly-serve", 0),
    ("maly-tech-trend", 0),
    ("maly-test-economics", 2),
    ("maly-units", 3),
    ("maly-viz", 1),
    ("maly-wafer-geom", 8),
    ("maly-yield-model", 0),
    ("silicon-cost", 0),
    ("xtask", 0),
];

/// Crates whose public APIs are dimension-checked by the unit-safety
/// rule (they sit on the Eq. (1)–(9) numeric path).
pub const UNIT_SAFETY_CRATES: &[&str] = &[
    "maly-chiplet",
    "maly-cost-model",
    "maly-yield-model",
    "maly-wafer-geom",
    "maly-test-economics",
];

/// Unit-safety escape ratchet: tolerated `audit:allow(bare-f64)` tags
/// per dimension-checked crate. Like [`PANIC_BUDGETS`] these only go
/// DOWN — new public API takes newtypes instead of new escape tags.
/// The one surviving site is wafer-geom's saw-street boundary, where
/// zero is a legitimate sentinel no positive newtype can carry.
pub const UNIT_ESCAPE_BUDGETS: &[(&str, usize)] = &[
    ("maly-chiplet", 0),
    ("maly-cost-model", 0),
    ("maly-test-economics", 0),
    ("maly-wafer-geom", 1),
    ("maly-yield-model", 0),
];

/// Crates sanctioned to read the clock and write to stderr directly:
/// the observability layer itself, the timing harness, the load
/// generator (whose product *is* client-side timing), and this linter.
/// Everywhere else the raw-timing rule applies. The determinism family
/// exempts the same set (see [`determinism::EXEMPT_CRATES`]): their
/// output is diagnostic, not result data.
pub const RAW_TIMING_CRATES: &[&str] = &["maly-bench", "maly-loadgen", "maly-obs", "xtask"];

/// Per-crate panic accounting for the rendered report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateStats {
    /// Crate name from its manifest.
    pub name: String,
    /// Non-allowed panic sites found in non-test library code.
    pub panic_sites: usize,
    /// The ratchet budget for this crate.
    pub budget: usize,
}

/// The full lint result: findings plus the panic-budget table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All rule findings, in deterministic (crate, file) order; global
    /// findings (lock cycles, stale escapes, artifacts) follow.
    pub violations: Vec<Violation>,
    /// Per-crate panic accounting, sorted by crate name.
    pub stats: Vec<CrateStats>,
}

impl Report {
    /// True when the tree passes: no findings and every crate within
    /// its panic budget.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "maly-audit: panic sites per crate (sites / budget)");
        for s in &self.stats {
            let marker = if s.panic_sites > s.budget {
                "  OVER"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<22} {:>3} / {:<3}{marker}",
                s.name, s.panic_sites, s.budget
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "maly-audit: OK — no violations");
        } else {
            let _ = writeln!(out, "maly-audit: {} violation(s)", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  {v}");
            }
        }
        out
    }

    /// Renders the machine-readable report (schema `maly-audit/v2`):
    /// one JSON object with the schema tag, the clean flag, every
    /// violation, and the per-crate panic stats. CI archives this and
    /// diffs it like `bench-check` baselines.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"maly-audit/v2\",\n");
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let comma = if i + 1 < self.violations.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{comma}",
                json_escape(&v.file),
                v.line,
                v.rule.as_str(),
                json_escape(&v.message)
            );
        }
        out.push_str("  ],\n  \"stats\": [\n");
        for (i, s) in self.stats.iter().enumerate() {
            let comma = if i + 1 < self.stats.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"crate\": \"{}\", \"panic_sites\": {}, \"budget\": {}}}{comma}",
                json_escape(&s.name),
                s.panic_sites,
                s.budget
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The rationale and escape syntax for a rule family, for
/// `lint --explain <rule>`. `None` for unknown rule names.
#[must_use]
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "panic" | "panic-budget" => {
            "panic / panic-budget\n\
             Library code must not unwrap/expect/panic!: the cost model is a library\n\
             first, and a panic in a worker thread poisons locks and kills batch\n\
             sweeps. Return Result instead. Per-crate budgets (PANIC_BUDGETS) hold\n\
             legacy sites frozen and only ratchet down.\n\
             Escape: `// audit:allow(panic): <why this site cannot fail>`."
        }
        "bare-f64" => {
            "bare-f64 (unit-safety)\n\
             Public APIs in the dimensioned crates must carry maly-units newtypes\n\
             (Cm, Cm2, Dollars, …) instead of bare f64, so unit errors are type\n\
             errors. Dimensionless knobs can be allowlisted in DIMENSIONLESS_NAMES.\n\
             Escape: `// audit:allow(bare-f64): <why no newtype fits>` (ratcheted\n\
             per crate by UNIT_ESCAPE_BUDGETS)."
        }
        "nan" | "float-cmp" => {
            "nan / float-cmp (NaN-safety)\n\
             partial_cmp().unwrap() panics on NaN and partial_cmp-based ordering is\n\
             NaN-unstable; use f64::total_cmp. Float-literal `==` is\n\
             exact-comparison fragile; compare with a tolerance.\n\
             Escapes: `// audit:allow(nan): …` / `// audit:allow(float-cmp): …`."
        }
        "hygiene" => {
            "hygiene\n\
             Manifests inherit workspace version/edition/license and [lints], carry\n\
             a description, and pin dependency versions; crate roots carry\n\
             #![forbid(unsafe_code)] and #![warn(missing_docs)]. A maly-* entry\n\
             under [dependencies] must be named (as maly_foo) by some .rs file\n\
             under the crate's src/, tests/, benches/ or examples/: a dead edge\n\
             still builds the dependency first. No escape."
        }
        "raw-thread" => {
            "raw-thread\n\
             All parallelism flows through maly_par::Executor so determinism and\n\
             the MALY_PAR_THREADS knob stay centralized; raw thread::spawn is\n\
             confined to crates/par.\n\
             Escape: `// audit:allow(raw-thread): <why the executor cannot serve>`."
        }
        "artifact" => {
            "artifact\n\
             Build artifacts (target/ trees, cargo fingerprints, stray --flag\n\
             files) must not be tracked by git. Fix with `git rm --cached`. No\n\
             escape."
        }
        "raw-timing" => {
            "raw-timing\n\
             Instant::now() and eprintln! outside obs/bench/xtask scatter timing\n\
             and diagnostics that never reach exported traces; instrument through\n\
             maly-obs spans and histograms instead.\n\
             Escape: `// audit:allow(raw-timing): <why this must print/time raw>`."
        }
        "determinism" => {
            "determinism\n\
             The workspace contract is bit-identical output across thread counts\n\
             and transports (DESIGN.md §7/§10). HashMap/HashSet iteration order,\n\
             RandomState, SystemTime/UNIX_EPOCH reads, thread identity, and\n\
             Ordering::Relaxed loads all vary run-to-run, so none may feed a\n\
             result path. maly-obs Counter statics are exempt via the symbol\n\
             index: counters are Diag, results are Work. obs/bench/xtask are\n\
             exempt wholesale (diagnostic output).\n\
             Escape: `// audit:allow(determinism): <why this value never reaches\n\
             a result>`."
        }
        "lock-order" => {
            "lock-order\n\
             Every Mutex/RwLock field and static joins a global acquisition graph;\n\
             a cycle means two paths can deadlock by acquiring the same locks in\n\
             opposite orders, and a guard held across blocking I/O stalls every\n\
             thread queued on that lock behind a slow peer. Acquire locks in one\n\
             global order and drop guards before I/O.\n\
             Escape: `// audit:allow(lock-order): <why this ordering is safe>` on\n\
             the acquisition or I/O line."
        }
        "lane-purity" => {
            "lane-purity\n\
             Batch kernels (`*_batch`, `*_for_slice`, `*_for_points`) exist so the\n\
             hot loops pay transcendental math once per lane, not once per\n\
             element; a per-element .exp()/.ln()/.powf()/.sqrt() inside one\n\
             silently undoes the batching. Route exp through\n\
             maly_lanes::exp_slice and hoist per-axis powf/ln out of the element\n\
             loop (as Eq1Kernel does once per λ row).\n\
             Escape: `// audit:allow(lane-purity): <why this site is genuinely\n\
             scalar — per-row setup, reference path, …>`."
        }
        "stale-escape" => {
            "stale-escape\n\
             An audit:allow(...) tag that no longer suppresses any violation is\n\
             dead weight that could silently cover a future regression; delete it.\n\
             Tags in #[cfg(test)] code are always stale (rules skip test code).\n\
             There is deliberately no escape for this rule."
        }
        _ => return None,
    })
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic reports.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extracts the `name = "…"` value from a manifest.
fn package_name(manifest: &str) -> Option<String> {
    manifest.lines().find_map(|l| {
        l.trim()
            .strip_prefix("name = \"")
            .and_then(|rest| rest.strip_suffix('"'))
            .map(str::to_string)
    })
}

/// Workspace-relative display path.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// The tracked-file list from `git ls-files`, or `None` when git (or a
/// repository) is unavailable — the artifact rule then has nothing to
/// check, which keeps the lint usable on exported source trees.
fn tracked_files(root: &Path) -> Option<Vec<String>> {
    let output = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .arg("ls-files")
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().map(str::to_string).collect())
}

/// Runs the full lint over the workspace rooted at `root`: the root
/// package plus every crate under `crates/`. Per-file rules share one
/// [`escapes::Escapes`] registry per file so escape-staleness
/// accounting spans all families; lock-cycle detection runs globally
/// over the merged acquisition graph after every file is scanned.
///
/// # Errors
///
/// Propagates I/O failures reading the workspace layout; unreadable
/// individual files are reported as hygiene violations instead.
pub fn run_lint(root: &Path) -> io::Result<Report> {
    let mut crate_dirs = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        members.sort();
        crate_dirs.extend(members);
    }

    let mut report = Report::default();
    let mut all_edges: Vec<locks::LockEdge> = Vec::new();
    let mut file_escapes: Vec<(String, escapes::Escapes)> = Vec::new();
    for dir in &crate_dirs {
        let manifest_path = dir.join("Cargo.toml");
        let manifest_rel = rel(root, &manifest_path);
        let Ok(manifest) = fs::read_to_string(&manifest_path) else {
            report.violations.push(Violation {
                file: manifest_rel,
                line: 1,
                rule: Rule::Hygiene,
                message: "unreadable manifest".to_string(),
            });
            continue;
        };
        let name = package_name(&manifest).unwrap_or_else(|| manifest_rel.clone());
        report
            .violations
            .extend(rules::check_manifest(&manifest_rel, &manifest));

        // Crate-root source: lib.rs when present, else main.rs.
        let lib = dir.join("src/lib.rs");
        let main = dir.join("src/main.rs");
        let crate_root = if lib.is_file() {
            Some(lib)
        } else if main.is_file() {
            Some(main)
        } else {
            None
        };
        if let Some(crate_root) = crate_root {
            if let Ok(text) = fs::read_to_string(&crate_root) {
                report.violations.extend(rules::check_crate_root_source(
                    &rel(root, &crate_root),
                    &text,
                ));
            }
        }

        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        let mut crate_files = files.clone();
        for sub in ["tests", "benches", "examples"] {
            rust_files(&dir.join(sub), &mut crate_files);
        }
        let sources: Vec<String> = crate_files
            .iter()
            .filter_map(|f| fs::read_to_string(f).ok())
            .collect();
        report
            .violations
            .extend(rules::dead_dependencies(&manifest_rel, &manifest, &sources));
        let mut panic_sites = Vec::new();
        let mut unit_escapes = 0usize;
        for file in &files {
            let file_rel = rel(root, file);
            let Ok(source) = fs::read_to_string(file) else {
                continue;
            };
            let lines = scan::classify(&source);
            let file_index = index::index_file(&source);
            let mut esc = escapes::Escapes::collect(&lines);

            panic_sites.extend(rules::panic_freedom_in(&file_rel, &lines, &mut esc));
            if UNIT_SAFETY_CRATES.contains(&name.as_str()) {
                report
                    .violations
                    .extend(rules::unit_safety_in(&file_rel, &lines, &mut esc));
                unit_escapes += esc.count("bare-f64");
            }
            report
                .violations
                .extend(rules::nan_safety_in(&file_rel, &lines, &mut esc));
            // `maly-par` is the one crate sanctioned to touch raw
            // threads; everything else must go through its Executor.
            if name != "maly-par" {
                report
                    .violations
                    .extend(rules::raw_thread_in(&file_rel, &lines, &mut esc));
            }
            // The lane crate implements the batch primitives, so its
            // own internals are the one place per-element math inside
            // batch-named functions is the point, not a regression.
            if name != "maly-lanes" {
                report
                    .violations
                    .extend(rules::lane_purity_in(&file_rel, &lines, &mut esc));
            }
            // Timing lives in the obs layer and the measurement
            // harnesses; everywhere else must instrument, not clock.
            if !RAW_TIMING_CRATES.contains(&name.as_str()) {
                report
                    .violations
                    .extend(rules::raw_timing_in(&file_rel, &lines, &mut esc));
            }
            // Diagnostic crates are exempt from the determinism family
            // wholesale; everywhere else nondeterministic values must
            // stay off result paths.
            if !determinism::EXEMPT_CRATES.contains(&name.as_str()) {
                report.violations.extend(determinism::determinism_in(
                    &file_rel,
                    &lines,
                    &file_index,
                    &mut esc,
                ));
            }
            let lock = locks::analyze_file(&file_rel, &lines, &file_index, &mut esc);
            report.violations.extend(lock.violations);
            all_edges.extend(lock.edges);
            file_escapes.push((file_rel, esc));
        }

        let budget = PANIC_BUDGETS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, b)| *b);
        if panic_sites.len() > budget {
            let sites: Vec<String> = panic_sites
                .iter()
                .map(|v| format!("{}:{}", v.file, v.line))
                .collect();
            report.violations.push(Violation {
                file: rel(root, dir),
                line: 1,
                rule: Rule::PanicBudget,
                message: format!(
                    "crate `{name}` has {} panic site(s), budget {budget}: {}",
                    sites.len(),
                    sites.join(", ")
                ),
            });
        }
        if UNIT_SAFETY_CRATES.contains(&name.as_str()) {
            let escape_budget = UNIT_ESCAPE_BUDGETS
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, b)| *b);
            if unit_escapes > escape_budget {
                report.violations.push(Violation {
                    file: rel(root, dir),
                    line: 1,
                    rule: Rule::UnitSafety,
                    message: format!(
                        "crate `{name}` has {unit_escapes} audit:allow(bare-f64) escape(s), \
                         budget {escape_budget}; migrate the API to maly-units newtypes"
                    ),
                });
            }
        }
        report.stats.push(CrateStats {
            name,
            panic_sites: panic_sites.len(),
            budget,
        });
    }

    // Lock-order cycles are a whole-workspace property: merge every
    // file's acquisition edges, then detect.
    let (cycles, vetted) = locks::cycle_violations(&all_edges);
    report.violations.extend(cycles);
    for (file, site) in vetted {
        if let Some((_, esc)) = file_escapes.iter_mut().find(|(f, _)| *f == file) {
            esc.mark_used(site);
        }
    }
    // Escape hygiene runs last: only now is "suppresses nothing" known.
    for (file, esc) in &file_escapes {
        report.violations.extend(esc.stale(file));
    }

    if let Some(tracked) = tracked_files(root) {
        report.violations.extend(rules::tracked_artifacts(&tracked));
    }
    report.stats.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(report)
}
