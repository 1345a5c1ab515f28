//! Fixture tests for the maly-audit rule families: each rule must fire
//! on a crafted violation and stay silent on the matching clean (or
//! escape-tagged) variant.

use xtask::rules;
use xtask::Rule;

// ---------------------------------------------------------------------
// Rule 1: panic-freedom
// ---------------------------------------------------------------------

#[test]
fn panic_rule_flags_unwrap_in_library_code() {
    let src = "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    let found = rules::panic_freedom("fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::Panic);
    assert_eq!(found[0].line, 2);
}

#[test]
fn panic_rule_flags_every_family_member() {
    let src = concat!(
        "fn a() { x.unwrap() }\n",
        "fn b() { x.expect(\"msg\") }\n",
        "fn c() { panic!(\"boom\") }\n",
        "fn d() { unreachable!() }\n",
    );
    // `unreachable!()` without arguments lacks the `(`-suffixed needle
    // only when written bare; the fixture uses the call form.
    let src = src.replace("unreachable!()", "unreachable!(\"no\")");
    let found = rules::panic_freedom("fixture.rs", &src);
    assert_eq!(found.len(), 4);
}

#[test]
fn panic_rule_honors_allow_comment_above_and_inline() {
    let above = "// audit:allow(panic): fixture justification\nfn f() { x.unwrap() }\n";
    assert!(rules::panic_freedom("fixture.rs", above).is_empty());
    let inline = "fn f() { x.unwrap() } // audit:allow(panic): fixture\n";
    assert!(rules::panic_freedom("fixture.rs", inline).is_empty());
}

#[test]
fn panic_rule_allow_comment_spans_a_comment_block() {
    let src =
        "// audit:allow(panic): the index is\n// provably in range here.\nfn f() { x.unwrap() }\n";
    assert!(rules::panic_freedom("fixture.rs", src).is_empty());
}

#[test]
fn panic_rule_skips_cfg_test_blocks_and_doc_comments() {
    let src = concat!(
        "/// Example: `x.unwrap()` is fine in docs.\n",
        "pub fn lib() {}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { Some(1).unwrap(); }\n",
        "}\n",
    );
    assert!(rules::panic_freedom("fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------------
// Rule 2: unit-safety
// ---------------------------------------------------------------------

#[test]
fn unit_rule_flags_bare_f64_parameter() {
    let src = "pub fn wafer_cost(lambda_um: f64) -> Dollars {\n";
    let found = rules::unit_safety("fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::UnitSafety);
    assert!(found[0].message.contains("lambda_um"));
}

#[test]
fn unit_rule_handles_multiline_signatures() {
    let src =
        "pub fn evaluate(\n    &self,\n    die_area: f64,\n    steps: usize,\n) -> Dollars {\n";
    let found = rules::unit_safety("fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("die_area"));
}

#[test]
fn unit_rule_allows_dimensionless_names_and_newtypes() {
    let src = concat!(
        "pub fn escalate(x: f64, alpha: f64) -> Dollars {\n",
        "pub fn priced(cost: Dollars, lambda: Microns) -> Dollars {\n",
    );
    assert!(rules::unit_safety("fixture.rs", src).is_empty());
}

#[test]
fn unit_rule_honors_allow_tag() {
    let src =
        "// audit:allow(bare-f64): fixture boundary\npub fn parse(raw_cost: f64) -> Dollars {\n";
    assert!(rules::unit_safety("fixture.rs", src).is_empty());
}

#[test]
fn unit_escape_counter_skips_tests_and_other_tags() {
    let src = concat!(
        "// audit:allow(bare-f64): fixture boundary\n",
        "pub fn parse(raw_cost: f64) -> Dollars {}\n",
        "// audit:allow(panic): different tag\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    // audit:allow(bare-f64): test-only, not counted\n",
        "    fn helper(raw: f64) {}\n",
        "}\n",
    );
    assert_eq!(rules::count_unit_escapes(src), 1);
    assert_eq!(rules::count_unit_escapes("pub fn clean() {}\n"), 0);
}

#[test]
fn unit_rule_flags_unit_suffixed_f64_returns() {
    let src = "pub fn width_cm(&self) -> f64 {\n";
    let found = rules::unit_safety("fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("width_cm"));
    // A dimensionless-named accessor returning f64 is fine.
    assert!(rules::unit_safety("fixture.rs", "pub fn ratio(&self) -> f64 {\n").is_empty());
}

// ---------------------------------------------------------------------
// Rule 3: NaN-safety
// ---------------------------------------------------------------------

#[test]
fn nan_rule_flags_unwrapped_partial_cmp() {
    let src = "fn f() { let o = a.partial_cmp(&b).unwrap(); }\n";
    let found = rules::nan_safety("fixture.rs", src);
    assert!(found.iter().any(|v| v.rule == Rule::NanSafety));
}

#[test]
fn nan_rule_flags_float_ordering_via_partial_cmp() {
    let src = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| {\n        a.partial_cmp(b).into()\n    });\n}\n";
    let found = rules::nan_safety("fixture.rs", src);
    assert_eq!(found.len(), 1);
}

#[test]
fn nan_rule_accepts_total_cmp_ordering() {
    let src = "fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n";
    assert!(rules::nan_safety("fixture.rs", src).is_empty());
}

#[test]
fn nan_rule_flags_float_literal_equality() {
    let src = "fn f(x: f64) -> bool { x == 1.5 }\n";
    let found = rules::nan_safety("fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("1.5"));
}

#[test]
fn nan_rule_float_equality_honors_allow_tag() {
    let src = "// audit:allow(float-cmp): exact sentinel\nfn f(x: f64) -> bool { x == 0.0 }\n";
    assert!(rules::nan_safety("fixture.rs", src).is_empty());
}

#[test]
fn nan_rule_ignores_integer_equality() {
    let src = "fn f(n: usize) -> bool { n == 15 }\n";
    assert!(rules::nan_safety("fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------------
// Rule 4: crate hygiene
// ---------------------------------------------------------------------

const CLEAN_MANIFEST: &str = concat!(
    "[package]\n",
    "name = \"fixture\"\n",
    "version.workspace = true\n",
    "edition.workspace = true\n",
    "license.workspace = true\n",
    "description = \"a fixture crate\"\n",
    "\n",
    "[lints]\n",
    "workspace = true\n",
);

#[test]
fn hygiene_accepts_clean_manifest() {
    assert!(rules::check_manifest("Cargo.toml", CLEAN_MANIFEST).is_empty());
}

#[test]
fn hygiene_flags_missing_inheritance_and_description() {
    let manifest = "[package]\nname = \"fixture\"\nversion = \"0.1.0\"\n";
    let found = rules::check_manifest("Cargo.toml", manifest);
    // version/edition/license not inherited, no description, no [lints].
    assert_eq!(found.len(), 5);
    assert!(found.iter().all(|v| v.rule == Rule::Hygiene));
}

#[test]
fn hygiene_flags_wildcard_versions_and_placeholder_repository() {
    let manifest = format!(
        "{CLEAN_MANIFEST}repository = \"https://example.com/TODO\"\n\n[dependencies]\nserde = \"*\"\n"
    );
    let found = rules::check_manifest("Cargo.toml", &manifest);
    assert_eq!(found.len(), 2);
}

const DEPENDENCIES: &str = concat!(
    "[dependencies]\n",
    "maly-units.workspace = true\n",
    "maly-wafer-geom = { path = \"../wafer-geom\" }\n",
    "\n",
    "[dev-dependencies]\n",
    "maly-par.workspace = true\n",
);

#[test]
fn hygiene_flags_a_dependency_no_source_names() {
    // `maly_wafer_geometry` and a `maly-wafer-geom` string are not the
    // identifier; a dev-dependency is out of the rule's scope.
    let sources = vec![
        "use maly_units::Dollars;\n".to_string(),
        "// maly_wafer_geometry, \"maly-wafer-geom\"\n".to_string(),
    ];
    let found = rules::dead_dependencies("crates/fixture/Cargo.toml", DEPENDENCIES, &sources);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::Hygiene);
    assert_eq!(found[0].line, 3);
    assert!(found[0].message.contains("`maly-wafer-geom`"));
}

#[test]
fn hygiene_accepts_dependencies_a_source_names() {
    let sources = vec![
        "use maly_units::Dollars;\n".to_string(),
        "fn f() { maly_wafer_geom::maly::dies_per_wafer(w, d); }\n".to_string(),
    ];
    assert!(rules::dead_dependencies("Cargo.toml", DEPENDENCIES, &sources).is_empty());
}

#[test]
fn hygiene_requires_crate_root_headers() {
    let clean = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
    assert!(rules::check_crate_root_source("src/lib.rs", clean).is_empty());
    let bare = "//! Docs.\npub fn f() {}\n";
    assert_eq!(rules::check_crate_root_source("src/lib.rs", bare).len(), 2);
}

// ---------------------------------------------------------------------
// Rule 5: raw-thread containment
// ---------------------------------------------------------------------

#[test]
fn raw_thread_rule_flags_spawn_in_library_code() {
    let src = "fn f() {\n    let h = std::thread::spawn(|| 1);\n    h.join();\n}\n";
    let found = rules::raw_thread("fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::RawThread);
    assert_eq!(found[0].line, 2);
    assert!(found[0].message.contains("maly_par::Executor"));
    // The `use`-imported form is the same needle.
    let short = "fn f() { thread::spawn(|| 1); }\n";
    assert_eq!(rules::raw_thread("fixture.rs", short).len(), 1);
}

#[test]
fn raw_thread_rule_accepts_scoped_executor_idiom() {
    // `std::thread::scope` + `scope.spawn` is what maly-par uses; the
    // rule only targets the free-threaded spawn entry point.
    let src = "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| 1);\n    });\n}\n";
    assert!(rules::raw_thread("fixture.rs", src).is_empty());
}

#[test]
fn raw_thread_rule_honors_allow_tag_and_test_code() {
    let above = "// audit:allow(raw-thread): fixture justification\n\
                 fn f() { std::thread::spawn(|| 1); }\n";
    assert!(rules::raw_thread("fixture.rs", above).is_empty());
    let inline = "fn f() { std::thread::spawn(|| 1); } // audit:allow(raw-thread): fixture\n";
    assert!(rules::raw_thread("fixture.rs", inline).is_empty());
    let test_only = concat!(
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { std::thread::spawn(|| 1).join().unwrap(); }\n",
        "}\n",
    );
    assert!(rules::raw_thread("fixture.rs", test_only).is_empty());
}

// ---------------------------------------------------------------------
// Rule 7: raw-timing containment
// ---------------------------------------------------------------------

#[test]
fn raw_timing_rule_flags_instant_and_eprintln() {
    let src = concat!(
        "fn f() {\n",
        "    let t0 = std::time::Instant::now();\n",
        "    work();\n",
        "    eprintln!(\"took {:?}\", t0.elapsed());\n",
        "}\n",
    );
    let found = rules::raw_timing("fixture.rs", src);
    assert_eq!(found.len(), 2);
    assert!(found.iter().all(|v| v.rule == Rule::RawTiming));
    assert_eq!(found[0].line, 2);
    assert_eq!(found[1].line, 4);
    assert!(found[0].message.contains("maly-obs"));
}

#[test]
fn raw_timing_rule_honors_allow_tag_and_test_code() {
    let above = "// audit:allow(raw-timing): fixture justification\n\
                 fn f() { let t = Instant::now(); }\n";
    assert!(rules::raw_timing("fixture.rs", above).is_empty());
    let inline = "fn f() { eprintln!(\"x\"); } // audit:allow(raw-timing): fixture\n";
    assert!(rules::raw_timing("fixture.rs", inline).is_empty());
    let test_only = concat!(
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { let t = std::time::Instant::now(); }\n",
        "}\n",
    );
    assert!(rules::raw_timing("fixture.rs", test_only).is_empty());
}

#[test]
fn raw_timing_rule_accepts_obs_instrumentation() {
    // Spans and histograms are the sanctioned way to time things.
    let src = "fn f() {\n    let _span = maly_obs::span(\"sweep\");\n    work();\n}\n";
    assert!(rules::raw_timing("fixture.rs", src).is_empty());
    // Plain println! output is not the rule's business.
    assert!(rules::raw_timing("fixture.rs", "fn f() { println!(\"ok\"); }\n").is_empty());
}

// ---------------------------------------------------------------------
// Rule 6: tracked-artifact hygiene
// ---------------------------------------------------------------------

#[test]
fn artifact_rule_flags_target_trees_fingerprints_and_flag_files() {
    let tracked: Vec<String> = [
        "target/debug/deps/libmaly.rlib",
        "target/.rustc_info.json",
        "crates/bench/--bench",
        "some/nested/.fingerprint/dep-lib",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let found = rules::tracked_artifacts(&tracked);
    assert_eq!(found.len(), 4);
    assert!(found.iter().all(|v| v.rule == Rule::Artifact));
}

#[test]
fn artifact_rule_accepts_sources_and_target_like_names() {
    let tracked: Vec<String> = [
        "crates/par/src/lib.rs",
        "BENCH_sweeps.json",
        "docs/target_market.md",
        "crates/viz/src/target.rs",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    assert!(rules::tracked_artifacts(&tracked).is_empty());
}

// ---------------------------------------------------------------------
// Rule 2 regressions: lexer-masked strings and comments in signatures
// ---------------------------------------------------------------------

#[test]
fn unit_rule_ignores_f64_inside_multiline_string_literals() {
    // The old line-based scanner treated the interior of a multi-line
    // string as code, so the `pub fn … f64` text inside this constant
    // used to fire a bare-f64 violation.
    let src = concat!(
        "pub const USAGE: &str = \"\n",
        "pub fn area(width_cm: f64,\n",
        "            height_cm: f64) -> f64 {\n",
        "\";\n",
    );
    assert!(rules::unit_safety("fixture.rs", src).is_empty());
}

#[test]
fn unit_rule_ignores_f64_inside_signature_comments() {
    // A commented-out parameter inside a multi-line signature used to
    // parse as a real `name: f64` parameter.
    let src = concat!(
        "pub fn scale(\n",
        "    /* legacy_gain: f64, */\n",
        "    // retired_knob: f64,\n",
        "    factor: Dollars,\n",
        ") -> Dollars {\n",
    );
    assert!(rules::unit_safety("fixture.rs", src).is_empty());
}

#[test]
fn unit_rule_still_fires_on_real_params_next_to_string_literals() {
    let src = concat!(
        "pub fn label(\n",
        "    width_raw: f64,\n",
        ") -> String {\n",
        "    format!(\"w={width_raw}\")\n",
        "}\n",
    );
    let found = rules::unit_safety("fixture.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("width_raw"));
}

// ---------------------------------------------------------------------
// Rule 8: determinism
// ---------------------------------------------------------------------

#[test]
fn determinism_rule_flags_hashmap_iteration_on_result_paths() {
    let src = concat!(
        "use std::collections::HashMap;\n",
        "pub fn report() -> Vec<(u8, f64)> {\n",
        "    let totals: HashMap<u8, f64> = HashMap::new();\n",
        "    let mut out = Vec::new();\n",
        "    for (k, v) in &totals {\n",
        "        out.push((*k, *v));\n",
        "    }\n",
        "    out\n",
        "}\n",
    );
    let found = xtask::determinism::determinism("fixture.rs", src);
    assert_eq!(found.len(), 1, "got: {found:?}");
    assert_eq!(found[0].rule, Rule::Determinism);
    assert_eq!(found[0].line, 5);
}

#[test]
fn determinism_rule_flags_wall_clock_and_thread_identity() {
    let src = concat!(
        "pub fn stamp() -> u64 {\n",
        "    let t = std::time::SystemTime::now();\n",
        "    let id = std::thread::current().id();\n",
        "    0\n",
        "}\n",
    );
    let found = xtask::determinism::determinism("fixture.rs", src);
    assert_eq!(found.len(), 2, "got: {found:?}");
}

#[test]
fn determinism_rule_accepts_btreemap_and_keyed_lookups() {
    let src = concat!(
        "use std::collections::{BTreeMap, HashMap};\n",
        "pub fn run() -> f64 {\n",
        "    let sorted: BTreeMap<u8, f64> = BTreeMap::new();\n",
        "    for (_k, v) in &sorted { let _ = v; }\n",
        "    let m: HashMap<u8, f64> = HashMap::new();\n",
        "    m.get(&1).copied().unwrap_or(0.0)\n",
        "}\n",
    );
    assert!(xtask::determinism::determinism("fixture.rs", src).is_empty());
}

#[test]
fn determinism_rule_honors_escape_tag() {
    let src = concat!(
        "use std::collections::HashMap;\n",
        "pub fn debug_dump(m: &HashMap<u8, f64>) {\n",
        "    let snapshot: HashMap<u8, f64> = m.clone();\n",
        "    // audit:allow(determinism): stderr debug dump, not result data.\n",
        "    for (k, v) in &snapshot { let _ = (k, v); }\n",
        "}\n",
    );
    assert!(xtask::determinism::determinism("fixture.rs", src).is_empty());
}

#[test]
fn determinism_rule_exempts_counter_statics_via_index() {
    let src = concat!(
        "use std::sync::atomic::Ordering;\n",
        "static HITS: maly_obs::Counter = maly_obs::Counter::diag(\"hits\");\n",
        "pub fn snapshot() -> u64 {\n",
        "    HITS.load(Ordering::Relaxed)\n",
        "}\n",
    );
    assert!(xtask::determinism::determinism("fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------------
// Rule 9: lock-order
// ---------------------------------------------------------------------

#[test]
fn lock_rule_flags_opposite_order_acquisition() {
    let src = concat!(
        "use std::sync::Mutex;\n",
        "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n",
        "impl S {\n",
        "    pub fn ab(&self) {\n",
        "        let ga = self.a.lock();\n",
        "        let gb = self.b.lock();\n",
        "        let _ = (ga, gb);\n",
        "    }\n",
        "    pub fn ba(&self) {\n",
        "        let gb = self.b.lock();\n",
        "        let ga = self.a.lock();\n",
        "        let _ = (ga, gb);\n",
        "    }\n",
        "}\n",
    );
    let found = xtask::locks::lock_order("fixture.rs", src);
    assert_eq!(found.len(), 1, "got: {found:?}");
    assert_eq!(found[0].rule, Rule::LockOrder);
    assert!(found[0].message.contains("cycle"));
}

#[test]
fn lock_rule_flags_blocking_io_under_guard() {
    let src = concat!(
        "use std::sync::Mutex;\n",
        "pub struct Q { queue: Mutex<Vec<u8>> }\n",
        "impl Q {\n",
        "    pub fn drain(&self, out: &mut impl std::io::Write) {\n",
        "        let g = self.queue.lock();\n",
        "        let _ = out.write_all(b\"x\");\n",
        "        let _ = g;\n",
        "    }\n",
        "}\n",
    );
    let found = xtask::locks::lock_order("fixture.rs", src);
    assert_eq!(found.len(), 1, "got: {found:?}");
    assert!(found[0].message.contains("blocking I/O"));
}

#[test]
fn lock_rule_accepts_consistent_order_and_scoped_guards() {
    let src = concat!(
        "use std::sync::Mutex;\n",
        "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n",
        "impl S {\n",
        "    pub fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); let _ = (g, h); }\n",
        "    pub fn two(&self, out: &mut impl std::io::Write) {\n",
        "        {\n",
        "            let g = self.a.lock();\n",
        "            let h = self.b.lock();\n",
        "            let _ = (g, h);\n",
        "        }\n",
        "        let _ = out.write_all(b\"x\");\n",
        "    }\n",
        "}\n",
    );
    assert!(xtask::locks::lock_order("fixture.rs", src).is_empty());
}

#[test]
fn lock_rule_honors_escape_tag_on_io_line() {
    let src = concat!(
        "use std::sync::Mutex;\n",
        "pub struct Q { queue: Mutex<Vec<u8>> }\n",
        "impl Q {\n",
        "    pub fn drain(&self, out: &mut impl std::io::Write) {\n",
        "        let g = self.queue.lock();\n",
        "        // audit:allow(lock-order): out is an in-memory Vec in this build.\n",
        "        let _ = out.write_all(b\"x\");\n",
        "        let _ = g;\n",
        "    }\n",
        "}\n",
    );
    assert!(xtask::locks::lock_order("fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------------
// Rule 10: escape hygiene
// ---------------------------------------------------------------------

#[test]
fn stale_escape_rule_flags_unused_and_unknown_tags() {
    let src = concat!(
        "// audit:allow(panic): nothing panics below anymore.\n",
        "pub fn safe() -> u8 { 0 }\n",
        "// audit:allow(pancake): typo of a tag.\n",
        "pub fn also_safe() -> u8 { 1 }\n",
    );
    let lines = xtask::scan::classify(src);
    let mut escapes = xtask::escapes::Escapes::collect(&lines);
    let fired = rules::panic_freedom_in("fixture.rs", &lines, &mut escapes);
    assert!(fired.is_empty());
    let stale = escapes.stale("fixture.rs");
    assert_eq!(stale.len(), 2, "got: {stale:?}");
    assert!(stale.iter().all(|v| v.rule == Rule::StaleEscape));
    assert!(stale[1].message.contains("unknown escape tag"));
}

#[test]
fn used_escape_is_not_stale() {
    let src = "// audit:allow(panic): fixture.\npub fn f() { x.unwrap() }\n";
    let lines = xtask::scan::classify(src);
    let mut escapes = xtask::escapes::Escapes::collect(&lines);
    let fired = rules::panic_freedom_in("fixture.rs", &lines, &mut escapes);
    assert!(fired.is_empty());
    assert!(escapes.stale("fixture.rs").is_empty());
}

#[test]
fn test_side_escape_is_always_stale() {
    let src = concat!(
        "pub fn lib() {}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    // audit:allow(panic): tests may panic freely anyway.\n",
        "    fn t() { Some(1).unwrap(); }\n",
        "}\n",
    );
    let lines = xtask::scan::classify(src);
    let mut escapes = xtask::escapes::Escapes::collect(&lines);
    let fired = rules::panic_freedom_in("fixture.rs", &lines, &mut escapes);
    assert!(fired.is_empty());
    let stale = escapes.stale("fixture.rs");
    assert_eq!(stale.len(), 1);
    assert!(stale[0].message.contains("#[cfg(test)]"));
}

// ---------------------------------------------------------------------
// The tree itself must lint clean — this is the enforcement test.
// ---------------------------------------------------------------------

#[test]
fn workspace_tree_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root");
    let report = xtask::run_lint(root).expect("workspace is readable");
    assert!(
        report.is_clean(),
        "maly-audit found violations:\n{}",
        report.render()
    );
    // Every crate the budgets table names was actually scanned.
    assert_eq!(report.stats.len(), xtask::PANIC_BUDGETS.len());
    // Budgets are ratcheted to actuals: every crate sits exactly at
    // its budget, so any new panic site fails and any paydown forces a
    // budget cut in the same change.
    for s in &report.stats {
        assert_eq!(
            s.panic_sites, s.budget,
            "crate `{}` is below its panic budget ({} sites, budget {}); \
             ratchet PANIC_BUDGETS down",
            s.name, s.panic_sites, s.budget
        );
    }
    // The machine-readable report carries the v2 schema tag and the
    // clean flag CI keys on.
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"maly-audit/v2\""));
    assert!(json.contains("\"clean\": true"));
}

// ---------------------------------------------------------------------
// Rule 11: lane purity
// ---------------------------------------------------------------------

#[test]
fn lane_purity_flags_per_element_transcendentals_in_kernels() {
    let src = concat!(
        "pub fn yields_for_slice(d: f64, p: f64, out: &mut [f64]) {\n",
        "    for y in out.iter_mut() {\n",
        "        *y = (-d / y.powf(p)).exp();\n",
        "    }\n",
        "}\n",
    );
    let found = rules::lane_purity("fixture.rs", src);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|v| v.rule == Rule::LanePurity));
    assert!(found[0].message.contains("yields_for_slice"));
}

#[test]
fn lane_purity_covers_every_kernel_suffix_and_needle() {
    let src = concat!(
        "pub(crate) fn dies_per_wafer_batch(xs: &mut [f64]) {\n",
        "    for x in xs.iter_mut() { *x = x.sqrt(); }\n",
        "}\n",
        "fn costs_for_points(xs: &mut [f64]) {\n",
        "    for x in xs.iter_mut() { *x = x.ln(); }\n",
        "}\n",
    );
    let found = rules::lane_purity("fixture.rs", src);
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn lane_purity_ignores_non_kernel_functions_and_lane_routed_kernels() {
    let src = concat!(
        "pub fn cost_at(d: f64) -> f64 {\n",
        "    d.exp()\n",
        "}\n",
        "pub fn exp_for_slice(xs: &mut [f64]) {\n",
        "    maly_lanes::exp_slice(xs);\n",
        "}\n",
    );
    assert!(rules::lane_purity("fixture.rs", src).is_empty());
}

#[test]
fn lane_purity_honors_allow_tag_above_and_inline() {
    let above = concat!(
        "pub fn setup_for_slice(d: f64, out: &mut [f64]) {\n",
        "    // audit:allow(lane-purity): per-row setup, paid once per row.\n",
        "    let hoisted = d.powf(2.0);\n",
        "    out[0] = hoisted;\n",
        "}\n",
    );
    assert!(rules::lane_purity("fixture.rs", above).is_empty());
    let inline = concat!(
        "pub fn setup_for_slice(d: f64, out: &mut [f64]) {\n",
        "    out[0] = d.sqrt(); // audit:allow(lane-purity): scalar setup\n",
        "}\n",
    );
    assert!(rules::lane_purity("fixture.rs", inline).is_empty());
}

#[test]
fn lane_purity_skips_test_code_and_bodyless_declarations() {
    let src = concat!(
        "pub trait Kernel {\n",
        "    fn eval_for_slice(&self, xs: &mut [f64]);\n",
        "}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() {\n",
        "        fn ref_for_slice(xs: &mut [f64]) {\n",
        "            for x in xs.iter_mut() { *x = x.exp(); }\n",
        "        }\n",
        "        ref_for_slice(&mut [0.0]);\n",
        "    }\n",
        "}\n",
    );
    assert!(rules::lane_purity("fixture.rs", src).is_empty());
}

#[test]
fn lane_purity_stops_at_the_kernel_body_end() {
    // The transcendental sits *after* the kernel body closes.
    let src = concat!(
        "pub fn scale_for_slice(xs: &mut [f64]) {\n",
        "    for x in xs.iter_mut() { *x *= 2.0; }\n",
        "}\n",
        "pub fn scalar(d: f64) -> f64 { d.exp() }\n",
    );
    assert!(rules::lane_purity("fixture.rs", src).is_empty());
}
