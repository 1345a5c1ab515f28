//! The lint rule families: panic-freedom, unit-safety, NaN-safety,
//! crate hygiene, raw-thread containment, tracked-artifact hygiene,
//! raw-timing containment — plus the v2 families that live in their own
//! modules: determinism ([`crate::determinism`]), lock-order
//! ([`crate::locks`]), and escape hygiene ([`crate::escapes`]).
//!
//! Every rule honors inline escape comments of the form
//! `// audit:allow(<rule>): <justification>` placed on the offending
//! line or the comment block directly above it; suppression routes
//! through [`Escapes`], so a tag that stops suppressing anything is
//! itself reported stale. Since v2 the scanner is lexer-based
//! ([`crate::scan`]): string literal contents are masked and comments
//! are split off before any needle matching, so the rules cannot fire
//! on text inside strings and the linter's own sources stay self-clean
//! without `concat!` tricks (kept in a few needles anyway, for the
//! benefit of plain `grep`).

use crate::escapes::Escapes;
use crate::scan::{classify, Line};

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule family fired.
    pub rule: Rule,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.as_str(),
            self.message
        )
    }
}

/// The rule families maly-audit enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Panicking call in non-test library code.
    Panic,
    /// A crate exceeded its panic ratchet budget.
    PanicBudget,
    /// Bare `f64` crossing a public API where a newtype exists.
    UnitSafety,
    /// NaN-hazardous float comparison or ordering.
    NanSafety,
    /// Manifest or crate-root hygiene problem.
    Hygiene,
    /// Raw `std::thread::spawn` outside the sanctioned executor crate.
    RawThread,
    /// A build artifact tracked by version control.
    Artifact,
    /// Ad-hoc `Instant::now()` / `eprintln!` timing outside the
    /// sanctioned observability and harness crates.
    RawTiming,
    /// Nondeterministic value (map iteration order, wall clock, thread
    /// identity, relaxed atomic read) on a result path.
    Determinism,
    /// Inconsistent lock-acquisition order or a lock held across
    /// blocking I/O.
    LockOrder,
    /// An `audit:allow(...)` escape that no longer suppresses anything.
    StaleEscape,
    /// Per-element transcendental math inside a batch/lane kernel body.
    LanePurity,
}

impl Rule {
    /// Short identifier used in rendered reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::PanicBudget => "panic-budget",
            Rule::UnitSafety => "bare-f64",
            Rule::NanSafety => "nan",
            Rule::Hygiene => "hygiene",
            Rule::RawThread => "raw-thread",
            Rule::Artifact => "artifact",
            Rule::RawTiming => "raw-timing",
            Rule::Determinism => "determinism",
            Rule::LockOrder => "lock-order",
            Rule::StaleEscape => "stale-escape",
            Rule::LanePurity => "lane-purity",
        }
    }
}

// ---------------------------------------------------------------------
// Rule 1: panic-freedom
// ---------------------------------------------------------------------

/// Finds panicking calls (`unwrap`, `expect`, `panic!`, `unreachable!`,
/// `todo!`, `unimplemented!`) in non-test code, skipping sites tagged
/// `audit:allow(panic)`.
#[must_use]
pub fn panic_freedom(file: &str, source: &str) -> Vec<Violation> {
    let lines = classify(source);
    let mut escapes = Escapes::collect(&lines);
    panic_freedom_in(file, &lines, &mut escapes)
}

/// [`panic_freedom`] over pre-classified lines with a shared escape
/// registry (so staleness accounting spans all rule families).
#[must_use]
pub fn panic_freedom_in(file: &str, lines: &[Line], escapes: &mut Escapes) -> Vec<Violation> {
    let needles: [(&str, &str); 6] = [
        (concat!(".un", "wrap()"), "unwrap"),
        (concat!(".ex", "pect("), "expect"),
        (concat!("pa", "nic!("), "panic!"),
        (concat!("unre", "achable!("), "unreachable!"),
        (concat!("to", "do!("), "todo!"),
        (concat!("unimpl", "emented!("), "unimplemented!"),
    ];
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test || line.code.trim().is_empty() {
            continue;
        }
        for (needle, label) in needles {
            if line.code.contains(needle) {
                if escapes.allowed(lines, i, "panic") {
                    continue;
                }
                out.push(Violation {
                    file: file.to_string(),
                    line: line.number,
                    rule: Rule::Panic,
                    message: format!(
                        "`{label}` in library code; return a Result or tag audit:allow(panic)"
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 2: unit-safety
// ---------------------------------------------------------------------

/// Parameter names that legitimately stay `f64`: exponents, fractions,
/// coordinates, and other dimensionless model knobs.
pub const DIMENSIONLESS_NAMES: &[&str] = &[
    "x",
    "y",
    "z",
    "p",
    "q",
    "k",
    "c",
    "t",
    "alpha",
    "beta",
    "step",
    "steps",
    "tol",
    "fraction",
    "ratio",
    "aspect_ratio",
    "coverage",
    "months",
    "year",
    "years",
    "mean",
    "shape",
    "scale",
    "level",
    "levels",
    "exponent",
    "kill_fraction",
    "support_fraction",
    "vectors_per_second",
    "samples",
    "tau_months",
    "sigma",
    "spec_low",
    "spec_high",
    "area_overhead",
    "tester_time_factor",
    "smart_rework_discount",
];

/// Function-name suffixes that promise a unit; returning bare `f64`
/// from these is a violation (the newtype should carry the unit).
const UNIT_RETURN_SUFFIXES: &[&str] = &["_cm", "_cm2", "_mm", "_um", "_dollars", "_micro_dollars"];

/// Flags `pub fn` signatures that take or return bare `f64` where a
/// maly-units newtype exists, honoring `audit:allow(bare-f64)` and the
/// [`DIMENSIONLESS_NAMES`] parameter allowlist. String literals and
/// comments inside the signature are pre-masked by the lexer, so an
/// `f64` mentioned in a doc string or commented-out parameter cannot
/// fire.
#[must_use]
pub fn unit_safety(file: &str, source: &str) -> Vec<Violation> {
    let lines = classify(source);
    let mut escapes = Escapes::collect(&lines);
    unit_safety_in(file, &lines, &mut escapes)
}

/// [`unit_safety`] over pre-classified lines with a shared escape
/// registry.
#[must_use]
pub fn unit_safety_in(file: &str, lines: &[Line], escapes: &mut Escapes) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        let trimmed = line.code.trim_start();
        let is_pub_fn = !line.in_test
            && (trimmed.starts_with("pub fn ") || trimmed.starts_with("pub const fn "));
        if !is_pub_fn {
            i += 1;
            continue;
        }
        // Accumulate the signature until the body `{` or a trailing `;`.
        let mut sig = String::new();
        let mut j = i;
        while let Some(l) = lines.get(j) {
            if j >= i + 16 {
                break;
            }
            if let Some(pos) = l.code.find('{') {
                sig.push_str(&l.code[..pos]);
                break;
            }
            sig.push_str(&l.code);
            sig.push(' ');
            if l.code.trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        let mut found = Vec::new();
        analyze_signature(file, line.number, &sig, &mut found);
        if !found.is_empty() && !escapes.allowed_span(lines, i, j, "bare-f64") {
            out.extend(found);
        }
        i = j + 1;
    }
    out
}

/// Counts `audit:allow(bare-f64)` escape tags in non-test code — the
/// input to the per-crate unit-escape ratchet, which forbids *new*
/// escapes the same way the panic ratchet forbids new panic sites.
#[must_use]
pub fn count_unit_escapes(source: &str) -> usize {
    Escapes::collect(&classify(source)).count("bare-f64")
}

/// Splits a parameter list on top-level commas (parens, brackets, and
/// angle brackets protect nested commas).
fn split_top_level(params: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0;
    for (idx, ch) in params.char_indices() {
        match ch {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '<' => angle += 1,
            '>' => angle = (angle - 1).max(0),
            ',' if depth == 0 && angle == 0 => {
                out.push(&params[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
    }
    out.push(&params[start..]);
    out
}

/// Checks one accumulated `pub fn` signature for bare-`f64` crossings.
fn analyze_signature(file: &str, line: usize, sig: &str, out: &mut Vec<Violation>) {
    let Some(fn_pos) = sig.find("fn ") else {
        return;
    };
    let rest = &sig[fn_pos + 3..];
    let Some(paren) = rest.find('(') else {
        return;
    };
    let raw_name = rest[..paren].trim();
    let fn_name = raw_name.split('<').next().unwrap_or(raw_name).trim();
    let params_src = &rest[paren + 1..];
    let mut depth = 1i32;
    let mut close = None;
    for (idx, ch) in params_src.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(idx);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(close) = close else {
        return;
    };
    for param in split_top_level(&params_src[..close]) {
        let p = param.trim();
        if p.is_empty() || p.ends_with("self") || p.starts_with('(') {
            continue;
        }
        let Some((pat, ty)) = p.split_once(':') else {
            continue;
        };
        let name = pat.trim().trim_start_matches("mut ").trim();
        if ty.trim() == "f64" && !DIMENSIONLESS_NAMES.contains(&name) {
            out.push(Violation {
                file: file.to_string(),
                line,
                rule: Rule::UnitSafety,
                message: format!(
                    "`{fn_name}` takes bare `f64` parameter `{name}`; use a maly-units \
                     newtype, add it to DIMENSIONLESS_NAMES, or tag audit:allow(bare-f64)"
                ),
            });
        }
    }
    let after = params_src[close + 1..].trim_start();
    if let Some(ret) = after.strip_prefix("->") {
        let ret = ret.trim();
        if ret == "f64"
            && UNIT_RETURN_SUFFIXES
                .iter()
                .any(|suffix| fn_name.ends_with(suffix))
        {
            out.push(Violation {
                file: file.to_string(),
                line,
                rule: Rule::UnitSafety,
                message: format!(
                    "`{fn_name}` promises a unit in its name but returns bare `f64`; \
                     return the maly-units newtype or tag audit:allow(bare-f64)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: NaN-safety
// ---------------------------------------------------------------------

/// Flags NaN-hazardous float handling: `partial_cmp(..).unwrap()`,
/// `sort_by`/`min_by`/`max_by` closures built on `partial_cmp`, and
/// `==` against float literals. `total_cmp` is the sanctioned fix; the
/// escape tags are `audit:allow(nan)` and `audit:allow(float-cmp)`.
#[must_use]
pub fn nan_safety(file: &str, source: &str) -> Vec<Violation> {
    let lines = classify(source);
    let mut escapes = Escapes::collect(&lines);
    nan_safety_in(file, &lines, &mut escapes)
}

/// [`nan_safety`] over pre-classified lines with a shared escape
/// registry.
#[must_use]
pub fn nan_safety_in(file: &str, lines: &[Line], escapes: &mut Escapes) -> Vec<Violation> {
    let partial = concat!(".partial_", "cmp(");
    let unwrap = concat!(".un", "wrap()");
    let order_by = [
        concat!("sort_", "by("),
        concat!("min_", "by("),
        concat!("max_", "by("),
    ];
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test || line.code.trim().is_empty() {
            continue;
        }
        if line.code.contains(partial) && line.code.contains(unwrap) {
            if !escapes.allowed(lines, i, "nan") {
                out.push(Violation {
                    file: file.to_string(),
                    line: line.number,
                    rule: Rule::NanSafety,
                    message: "unwrapped partial_cmp panics on NaN; use f64::total_cmp".to_string(),
                });
            }
        }
        if order_by.iter().any(|needle| line.code.contains(needle)) {
            let window: String = lines[i..lines.len().min(i + 4)]
                .iter()
                .map(|l| l.code.as_str())
                .collect();
            if window.contains(partial) && !escapes.allowed(lines, i, "nan") {
                out.push(Violation {
                    file: file.to_string(),
                    line: line.number,
                    rule: Rule::NanSafety,
                    message: "ordering floats via partial_cmp is NaN-unstable; \
                              use f64::total_cmp"
                        .to_string(),
                });
            }
        }
        for pair in float_eq_sites(&line.code) {
            if escapes.allowed(lines, i, "float-cmp") {
                continue;
            }
            out.push(Violation {
                file: file.to_string(),
                line: line.number,
                rule: Rule::NanSafety,
                message: format!(
                    "float literal equality `{pair}` is exact-comparison fragile; \
                     compare with a tolerance or tag audit:allow(float-cmp)"
                ),
            });
        }
    }
    out
}

/// True for tokens that look like float literals (`0.0`, `1.5e3`).
fn is_float_literal(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    !t.is_empty()
        && t.starts_with(|c: char| c.is_ascii_digit())
        && t.contains('.')
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'))
}

/// Extracts `lhs == rhs` token pairs where either side is a float
/// literal.
fn float_eq_sites(code: &str) -> Vec<String> {
    let token_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_');
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("==") {
        let abs = from + pos;
        let left: String = code[..abs]
            .trim_end()
            .chars()
            .rev()
            .take_while(|&c| token_char(c))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let right: String = code[abs + 2..]
            .trim_start()
            .chars()
            .take_while(|&c| token_char(c))
            .collect();
        if is_float_literal(&left) || is_float_literal(&right) {
            found.push(format!("{left} == {right}"));
        }
        from = abs + 2;
    }
    found
}

// ---------------------------------------------------------------------
// Rule 4: crate hygiene
// ---------------------------------------------------------------------

/// Substrings that mark a placeholder `repository` URL.
const REPOSITORY_PLACEHOLDERS: &[&str] = &["example.com", "TODO", "CHANGEME", "your-org"];

/// Checks one `Cargo.toml` for workspace-inheritance hygiene: inherited
/// version/edition/license, a non-empty description, `[lints]`
/// inheritance, no wildcard dependency versions, and no placeholder
/// repository URL.
#[must_use]
pub fn check_manifest(file: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |line: usize, message: String| {
        out.push(Violation {
            file: file.to_string(),
            line,
            rule: Rule::Hygiene,
            message,
        });
    };

    for key in ["version", "edition", "license"] {
        let inherited = text.contains(&format!("{key}.workspace = true"))
            || text.contains(&format!("{key} = {{ workspace = true }}"));
        if !inherited {
            push(1, format!("manifest does not inherit workspace `{key}`"));
        }
    }

    let has_description = text.lines().any(|l| {
        let t = l.trim();
        t.strip_prefix("description = \"")
            .is_some_and(|rest| rest.trim_end_matches('"').len() > 1)
    });
    if !has_description {
        push(1, "manifest has no `description`".to_string());
    }

    let mut lints_ok = false;
    let mut in_lints = false;
    for l in text.lines() {
        let t = l.trim();
        if t.starts_with('[') {
            in_lints = t == "[lints]";
        } else if in_lints && t == "workspace = true" {
            lints_ok = true;
        }
    }
    if !lints_ok {
        push(
            1,
            "manifest does not inherit `[lints] workspace = true`".to_string(),
        );
    }

    for (idx, l) in text.lines().enumerate() {
        let t = l.trim();
        if t.contains("= \"*\"") || t.contains("version = \"*\"") {
            push(idx + 1, "wildcard dependency version".to_string());
        }
        if t.starts_with("repository = \"") && REPOSITORY_PLACEHOLDERS.iter().any(|p| t.contains(p))
        {
            push(idx + 1, "placeholder `repository` URL".to_string());
        }
    }
    out
}

/// Flags each `maly-*` entry under a manifest's `[dependencies]` whose
/// Rust identifier (`maly-foo` → `maly_foo`) no file in `sources` names
/// as a whole word: a dead edge still builds the dependency first and
/// ties the crate to it.
#[must_use]
pub fn dead_dependencies(file: &str, manifest: &str, sources: &[String]) -> Vec<Violation> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let names = |source: &str, ident: &str| {
        source.match_indices(ident).any(|(at, _)| {
            !source[..at].ends_with(is_ident) && !source[at + ident.len()..].starts_with(is_ident)
        })
    };
    let mut out = Vec::new();
    let mut in_dependencies = false;
    for (idx, l) in manifest.lines().enumerate() {
        let t = l.trim();
        if t.starts_with('[') {
            in_dependencies = t == "[dependencies]";
            continue;
        }
        let name = t.split(['.', '=', ' ']).next().unwrap_or(t);
        if !in_dependencies || !name.starts_with("maly-") {
            continue;
        }
        let ident = name.replace('-', "_");
        if !sources.iter().any(|s| names(s, &ident)) {
            out.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: Rule::Hygiene,
                message: format!("dependency `{name}` is unused: no source names `{ident}`"),
            });
        }
    }
    out
}

/// Checks a crate-root source file for the mandatory lint headers.
#[must_use]
pub fn check_crate_root_source(file: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
        if !text.contains(attr) {
            out.push(Violation {
                file: file.to_string(),
                line: 1,
                rule: Rule::Hygiene,
                message: format!("crate root is missing `{attr}`"),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 6: tracked-artifact hygiene
// ---------------------------------------------------------------------

/// Flags version-controlled paths that are build artifacts and should
/// never be committed: anything under a `target/` directory, cargo
/// `.fingerprint` data, and option-shaped file names (a stray `--bench`
/// file is what a mistyped `cargo bench -- --bench` leaves behind).
/// `paths` is the tracked-file list (one workspace-relative path per
/// entry, as `git ls-files` prints it).
#[must_use]
pub fn tracked_artifacts(paths: &[String]) -> Vec<Violation> {
    let mut out = Vec::new();
    for path in paths {
        let components: Vec<&str> = path.split('/').collect();
        let reason = if components.first().copied() == Some("target")
            || components.iter().any(|c| *c == ".fingerprint")
        {
            Some("cargo build output")
        } else if components.last().is_some_and(|name| name.starts_with("--")) {
            Some("option-shaped file name (stray CLI flag)")
        } else {
            None
        };
        if let Some(reason) = reason {
            out.push(Violation {
                file: path.clone(),
                line: 1,
                rule: Rule::Artifact,
                message: format!("tracked build artifact ({reason}); git rm --cached it"),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 5: raw-thread containment
// ---------------------------------------------------------------------

/// Flags raw `thread::spawn` calls in non-test code. All workspace
/// parallelism flows through `maly_par::Executor` so determinism (and
/// the `MALY_PAR_THREADS` knob) stay centralized; `maly-par` itself is
/// exempted by the caller, and one-off cases can tag
/// `audit:allow(raw-thread)`.
#[must_use]
pub fn raw_thread(file: &str, source: &str) -> Vec<Violation> {
    let lines = classify(source);
    let mut escapes = Escapes::collect(&lines);
    raw_thread_in(file, &lines, &mut escapes)
}

/// [`raw_thread`] over pre-classified lines with a shared escape
/// registry.
#[must_use]
pub fn raw_thread_in(file: &str, lines: &[Line], escapes: &mut Escapes) -> Vec<Violation> {
    let needle = concat!("thread::", "spawn(");
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test || line.code.trim().is_empty() {
            continue;
        }
        if line.code.contains(needle) && !escapes.allowed(lines, i, "raw-thread") {
            out.push(Violation {
                file: file.to_string(),
                line: line.number,
                rule: Rule::RawThread,
                message: "raw thread spawn; route work through maly_par::Executor \
                          or tag audit:allow(raw-thread)"
                    .to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 8: lane purity
// ---------------------------------------------------------------------

/// Function-name suffixes that mark a batch/lane kernel: the function
/// promises to amortize math over the whole slice, so per-element
/// transcendentals inside it silently undo the batching.
pub const LANE_KERNEL_SUFFIXES: &[&str] = &["_batch", "_for_slice", "_for_points"];

/// The kernel name when `code` begins a lane-kernel `fn` definition
/// (any visibility), `None` otherwise.
fn lane_kernel_name(code: &str) -> Option<&str> {
    let trimmed = code.trim_start();
    let rest = trimmed
        .strip_prefix("pub(crate) fn ")
        .or_else(|| trimmed.strip_prefix("pub(super) fn "))
        .or_else(|| trimmed.strip_prefix("pub fn "))
        .or_else(|| trimmed.strip_prefix("fn "))?;
    let name = rest.split(['(', '<']).next()?.trim();
    LANE_KERNEL_SUFFIXES
        .iter()
        .any(|suffix| name.ends_with(suffix))
        .then_some(name)
}

/// Flags per-element `exp`/`ln`/`powf`/`sqrt` calls inside the body of
/// a batch kernel (a `fn` whose name ends in one of
/// [`LANE_KERNEL_SUFFIXES`]). Those functions exist so the hot loops
/// pay transcendental math per lane, not per element — the math should
/// route through `maly_lanes` slice ops. Sites that are genuinely
/// scalar (setup work hoisted out of the per-element loop, reference
/// paths) tag `audit:allow(lane-purity)`.
#[must_use]
pub fn lane_purity(file: &str, source: &str) -> Vec<Violation> {
    let lines = classify(source);
    let mut escapes = Escapes::collect(&lines);
    lane_purity_in(file, &lines, &mut escapes)
}

/// [`lane_purity`] over pre-classified lines with a shared escape
/// registry.
#[must_use]
pub fn lane_purity_in(file: &str, lines: &[Line], escapes: &mut Escapes) -> Vec<Violation> {
    let needles: [(&str, &str); 4] = [
        (".exp()", "exp"),
        (".ln()", "ln"),
        (".powf(", "powf"),
        (".sqrt()", "sqrt"),
    ];
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let Some(name) = lane_kernel_name(&lines[i].code) else {
            i += 1;
            continue;
        };
        if lines[i].in_test {
            i += 1;
            continue;
        }
        let kernel = name.to_string();
        // Walk the kernel body by brace depth over masked code; stop
        // early on a `;`-terminated signature (bodyless trait method).
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        while let Some(line) = lines.get(j) {
            if !opened && !line.code.contains('{') && line.code.trim_end().ends_with(';') {
                break;
            }
            for (needle, label) in needles {
                if line.code.contains(needle)
                    && !line.in_test
                    && !escapes.allowed(lines, j, "lane-purity")
                {
                    out.push(Violation {
                        file: file.to_string(),
                        line: line.number,
                        rule: Rule::LanePurity,
                        message: format!(
                            "per-element `{label}` inside lane kernel `{kernel}`; \
                             batch it through maly_lanes slice ops or tag \
                             audit:allow(lane-purity)"
                        ),
                    });
                }
            }
            for ch in line.code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    out
}

// ---------------------------------------------------------------------
// Rule 7: raw-timing containment
// ---------------------------------------------------------------------

/// Flags ad-hoc timing and stderr diagnostics — `Instant::now()` and
/// `eprintln!` — in non-test code. Timing belongs to `maly-obs` spans
/// and histograms (so it lands in exported traces and respects the
/// disabled-cost contract) and to the measurement harnesses; the
/// caller exempts `maly-obs`, `maly-bench`, and `xtask`, and genuine
/// user-facing stderr output can tag `audit:allow(raw-timing)`.
#[must_use]
pub fn raw_timing(file: &str, source: &str) -> Vec<Violation> {
    let lines = classify(source);
    let mut escapes = Escapes::collect(&lines);
    raw_timing_in(file, &lines, &mut escapes)
}

/// [`raw_timing`] over pre-classified lines with a shared escape
/// registry.
#[must_use]
pub fn raw_timing_in(file: &str, lines: &[Line], escapes: &mut Escapes) -> Vec<Violation> {
    let needles: [(&str, &str); 2] = [
        (concat!("Instant::", "now("), "Instant::now()"),
        (concat!("eprint", "ln!("), "eprintln!"),
    ];
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test || line.code.trim().is_empty() {
            continue;
        }
        for (needle, label) in needles {
            if line.code.contains(needle) {
                if escapes.allowed(lines, i, "raw-timing") {
                    continue;
                }
                out.push(Violation {
                    file: file.to_string(),
                    line: line.number,
                    rule: Rule::RawTiming,
                    message: format!(
                        "`{label}` outside the obs/bench/xtask crates; time through \
                         maly-obs spans/histograms or tag audit:allow(raw-timing)"
                    ),
                });
            }
        }
    }
    out
}
