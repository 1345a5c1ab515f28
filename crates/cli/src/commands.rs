//! Subcommand implementations (pure: return strings, no printing).
//!
//! Every model evaluation goes through [`maly_model::Query`] — the
//! workspace's one sanctioned entry point — rather than wiring the CLI
//! to individual model crates. The `wafer` command is the exception:
//! it is pure geometry (die placement), not a cost-model evaluation,
//! and stays on `maly-wafer-geom` directly.

use maly_model::json::Json;
use maly_model::query::{ProductSpec, Query, QueryResponse};
use maly_model::EvalContext;
use maly_par::Executor;
use maly_serve::{client, protocol, ServeConfig, Server};
use maly_units::{Centimeters, SquareCentimeters};
use maly_viz::lineplot::LinePlot;
use maly_viz::table::{Alignment, TextTable};
use maly_viz::wafermap::{render_wafer, DieRect};
use maly_wafer_geom::{approx, maly, raster::RasterPlacement, DieDimensions, Wafer};

use crate::args::Flags;

/// Usage text.
#[must_use]
pub fn usage() -> String {
    "\
silicon-cost — transistor cost modeling after Maly, DAC 1994

USAGE:
  silicon-cost cost     --transistors N --lambda UM --density DD \\
                        --yield Y0 --c0 DOLLARS --x X [--radius CM]
  silicon-cost sweep    <cost flags> [--from UM] [--to UM] [--steps N]
  silicon-cost optimize <cost flags> [--from UM] [--to UM]
  silicon-cost wafer    --die-area CM2 [--radius CM] [--map]
  silicon-cost mix      [--products N] [--volume WAFERS] [--mono-volume WAFERS]
  silicon-cost chiplet  --transistors N [--volume SYSTEMS] [--from UM] [--to UM] \\
                        [--steps N] [--max-chiplets N] [--max-spares N]
  silicon-cost roadmap  [--from YEAR] [--to YEAR]
  silicon-cost table3
  silicon-cost serve    [--addr HOST:PORT] [--threads N]
  silicon-cost query    --file REQ.JSONL [--addr HOST:PORT]
  silicon-cost stats    --addr HOST:PORT
  silicon-cost help

serve answers line-delimited JSON queries over TCP (see DESIGN.md §10);
query sends the request lines in a file to a server — or, without
--addr, evaluates them in-process — and prints one response line each.
stats asks a live server for its metrics snapshot (work/diag counters,
gauges, latency percentiles) and prints it as one stats ndjson record,
appendable to a trace file for `xtask trace-check`.
chiplet searches multi-die partitions of an N-transistor system (die
size × chiplet count × spares over a λ window) for the cheapest
$/system on the fig8 MCM calibration (see DESIGN.md §15).
Every command also accepts --trace-out FILE: enable maly-obs and write
an ndjson trace (spans, counters, histograms) of the run to FILE.
Batched queries (JSON-array lines, sweep, query --file) compile to an
evaluation plan that dedups and fuses shared grid work across requests;
set MALY_PLAN=0 to evaluate each query independently (bit-identical
output either way).
All dollars are 1994 dollars; λ is the minimum feature size in µm."
        .to_string()
}

/// Dispatches a full argv (without the program name).
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((command, rest)) = argv.split_first() else {
        return Err("no command given".to_string());
    };
    let flags = Flags::parse(rest)?;
    let trace_out = flags.str_opt("trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        maly_obs::set_enabled(true);
    }
    let output = {
        let _span = maly_obs::span(command_span_name(command));
        match command.as_str() {
            "cost" => cost(&flags),
            "sweep" => sweep(&flags),
            "optimize" => optimize(&flags),
            "wafer" => wafer(&flags),
            "mix" => mix(&flags),
            "chiplet" => chiplet(&flags),
            "roadmap" => roadmap(&flags),
            "table3" => table3(),
            "serve" => serve(&flags),
            "query" => query(&flags),
            "stats" => stats(&flags),
            "help" | "--help" | "-h" => Ok(usage()),
            other => Err(format!("unknown command `{other}`")),
        }
    };
    match trace_out {
        Some(path) => maly_obs::write_trace(&path)
            .map_err(|e| format!("writing trace {}: {e}", path.display()))?,
        None => {
            // No flag: still honor MALY_OBS_OUT for env-driven tracing.
            maly_obs::write_trace_if_requested().map_err(|e| format!("writing trace: {e}"))?;
        }
    }
    output
}

/// Static span name for the top-level command (span names are
/// `&'static str` by design — no per-run allocation).
fn command_span_name(command: &str) -> &'static str {
    match command {
        "cost" => "cli.cost",
        "sweep" => "cli.sweep",
        "optimize" => "cli.optimize",
        "wafer" => "cli.wafer",
        "mix" => "cli.mix",
        "chiplet" => "cli.chiplet",
        "roadmap" => "cli.roadmap",
        "table3" => "cli.table3",
        "serve" => "cli.serve",
        "query" => "cli.query",
        "stats" => "cli.stats",
        _ => "cli.run",
    }
}

fn spec_from(flags: &Flags) -> Result<ProductSpec, String> {
    Ok(ProductSpec {
        name: "cli".to_string(),
        transistors: flags.require_f64("transistors")?,
        lambda_um: flags.require_f64("lambda")?,
        density: flags.require_f64("density")?,
        radius_cm: flags.f64_or("radius", 7.5)?,
        yield0: flags.require_f64("yield")?,
        c0: flags.require_f64("c0")?,
        x: flags.require_f64("x")?,
    })
}

fn evaluate(query: &Query) -> Result<QueryResponse, String> {
    query.evaluate().map_err(|e| e.to_string())
}

fn cost(flags: &Flags) -> Result<String, String> {
    let QueryResponse::Product(r) = evaluate(&Query::Product(spec_from(flags)?))? else {
        return Err("unexpected response kind".to_string());
    };
    let mut t = TextTable::new(vec!["quantity", "value"]);
    t.align(1, Alignment::Right);
    t.row(vec![
        "die area".into(),
        format!("{:.3} cm²", r.die_area_cm2),
    ]);
    t.row(vec![
        "wafer cost C_w".into(),
        format!("{:.0} $", r.wafer_cost),
    ]);
    t.row(vec![
        "dies per wafer N_ch".into(),
        format!("{}", r.dies_per_wafer),
    ]);
    t.row(vec![
        "die yield Y".into(),
        format!("{:.1}%", r.die_yield * 100.0),
    ]);
    t.row(vec![
        "good dies per wafer".into(),
        format!("{:.1}", r.good_dies_per_wafer),
    ]);
    t.row(vec![
        "cost per good die".into(),
        format!("{:.2} $", r.cost_per_good_die),
    ]);
    t.row(vec![
        "cost per transistor".into(),
        format!("{:.2} µ$", r.cost_per_transistor_micro),
    ]);
    Ok(t.render())
}

fn sweep(flags: &Flags) -> Result<String, String> {
    let spec = spec_from(flags)?;
    let from = flags.f64_or("from", 0.3)?;
    let to = flags.f64_or("to", 1.2)?;
    let steps = flags.usize_or("steps", 40)?;
    if !(from > 0.0 && from < to) || steps < 2 {
        return Err(format!("bad sweep window {from}..{to} ({steps} steps)"));
    }
    // One Product query per node, batched across the executor exactly
    // like a wire-protocol batch line. Infeasible nodes (die too large,
    // yield collapsed) drop out of the plot rather than failing it.
    let queries: Vec<Query> = (0..steps)
        .map(|i| {
            let l = from + (to - from) * i as f64 / (steps - 1) as f64;
            Query::Product(ProductSpec {
                lambda_um: l,
                ..spec.clone()
            })
        })
        .collect();
    let results = Query::evaluate_batch(&Executor::from_env(), EvalContext::process(), &queries);
    let series: Vec<(f64, f64)> = queries
        .iter()
        .zip(results)
        .filter_map(|(q, r)| match (q, r) {
            (Query::Product(spec), Ok(QueryResponse::Product(p))) => {
                Some((spec.lambda_um, p.cost_per_transistor_micro))
            }
            _ => None,
        })
        .collect();
    if series.is_empty() {
        return Err("no feasible point in the sweep window".to_string());
    }
    Ok(LinePlot::new("cost per transistor vs feature size")
        .with_series("C_tr [µ$]", &series)
        .with_labels("λ [µm]", "µ$")
        .log_y()
        .render(76, 22))
}

fn optimize(flags: &Flags) -> Result<String, String> {
    let spec = spec_from(flags)?;
    let from = flags.f64_or("from", 0.3)?;
    let to = flags.f64_or("to", 1.2)?;
    let QueryResponse::OptimalLambda(best) = evaluate(&Query::OptimalLambda {
        spec,
        lambda_min: from,
        lambda_max: to,
        steps: 481,
    })?
    else {
        return Err("unexpected response kind".to_string());
    };
    let best = best.ok_or("no feasible feature size in the window")?;
    Ok(format!(
        "optimal feature size: {:.3} µm  (C_tr = {:.2} µ$)",
        best.lambda_um,
        best.cost_per_transistor * 1.0e6
    ))
}

fn wafer(flags: &Flags) -> Result<String, String> {
    let area = SquareCentimeters::new(flags.require_f64("die-area")?).map_err(|e| e.to_string())?;
    let radius = Centimeters::new(flags.f64_or("radius", 7.5)?).map_err(|e| e.to_string())?;
    let wafer = Wafer::with_radius(radius);
    let die = DieDimensions::square_with_area(area);
    let eq4 = maly::dies_per_wafer(&wafer, die);
    let map = RasterPlacement::default().place(&wafer, die);
    let mut t = TextTable::new(vec!["method", "dies per wafer"]);
    t.align(1, Alignment::Right);
    t.row(vec![
        "eq. (4) row packing".into(),
        format!("{}", eq4.value()),
    ]);
    t.row(vec![
        "rigid raster (optimized)".into(),
        format!("{}", map.count().value()),
    ]);
    t.row(vec![
        "gross bound πR²/A".into(),
        format!("{:.1}", approx::gross_estimate(&wafer, die)),
    ]);
    t.row(vec![
        "edge-corrected estimate".into(),
        format!("{:.1}", approx::edge_corrected_estimate(&wafer, die)),
    ]);
    t.row(vec![
        "silicon utilization".into(),
        format!("{:.1}%", map.utilization() * 100.0),
    ]);
    let mut out = t.render();
    if flags.has_switch("map") {
        let dies: Vec<DieRect> = map
            .sites()
            .iter()
            .map(|s| DieRect {
                center_x: s.center_x,
                center_y: s.center_y,
                width: die.width().value(),
                height: die.height().value(),
            })
            .collect();
        out.push_str("\n\n");
        out.push_str(&render_wafer(radius.value(), &dies, 60));
    }
    Ok(out)
}

fn mix(flags: &Flags) -> Result<String, String> {
    let QueryResponse::ProductMix(study) = evaluate(&Query::ProductMix {
        products: flags.usize_or("products", 8)?,
        volume_each: flags.f64_or("volume", 1_000.0)?,
        mono_volume: flags.f64_or("mono-volume", 100_000.0)?,
    })?
    else {
        return Err("unexpected response kind".to_string());
    };
    let mut t = TextTable::new(vec!["quantity", "value"]);
    t.align(1, Alignment::Right);
    t.row(vec![
        "mono-product wafer cost".into(),
        format!("{:.0} $", study.mono_cost),
    ]);
    t.row(vec![
        "multi-product wafer cost".into(),
        format!("{:.0} $", study.multi_cost),
    ]);
    t.row(vec![
        "penalty ratio".into(),
        format!("{:.2}×", study.cost_ratio),
    ]);
    t.row(vec![
        "mono productive utilization".into(),
        format!("{:.0}%", study.mono_utilization * 100.0),
    ]);
    t.row(vec![
        "multi productive utilization".into(),
        format!("{:.0}%", study.multi_utilization * 100.0),
    ]);
    Ok(t.render())
}

fn chiplet(flags: &Flags) -> Result<String, String> {
    let QueryResponse::ChipletSweep(sweep) = evaluate(&Query::ChipletPartitionSweep {
        transistors: flags.require_f64("transistors")?,
        volume: flags.usize_or("volume", 100_000)? as u64,
        lambda_min: flags.f64_or("from", 0.5)?,
        lambda_max: flags.f64_or("to", 1.2)?,
        lambda_steps: flags.usize_or("steps", 15)?,
        max_chiplets: flags.usize_or("max-chiplets", 8)?,
        max_spares: flags.usize_or("max-spares", 1)?,
    })?
    else {
        return Err("unexpected response kind".to_string());
    };
    let mut t = TextTable::new(vec![
        "chiplets",
        "spares",
        "λ [µm]",
        "N_tr/die",
        "KGD die [$]",
        "Y_sys",
        "$/system",
    ]);
    for col in 1..7 {
        t.align(col, Alignment::Right);
    }
    for r in &sweep.per_chiplet_count {
        t.row(vec![
            format!("{}", r.chiplets),
            format!("{}", r.spares),
            format!("{:.3}", r.lambda_um),
            format!("{:.2e}", r.transistors_per_chiplet),
            format!("{:.2}", r.known_good_die_cost),
            format!("{:.3}", r.system_yield),
            format!("{:.2}", r.cost_per_system),
        ]);
    }
    let best = &sweep.best;
    let mut out = t.render();
    out.push_str(&format!(
        "\n\nbest partition: {} chiplet(s) + {} spare(s) at λ = {:.3} µm \
         → {:.2} $/system  ({} of {} candidates feasible)",
        best.chiplets,
        best.spares,
        best.lambda_um,
        best.cost_per_system,
        sweep.feasible,
        sweep.evaluated,
    ));
    Ok(out)
}

fn roadmap(flags: &Flags) -> Result<String, String> {
    let from = flags.usize_or("from", 1986)? as u32;
    let to = flags.usize_or("to", 2002)? as u32;
    let QueryResponse::Roadmap(rows) = evaluate(&Query::Roadmap { from, to })? else {
        return Err("unexpected response kind".to_string());
    };
    let mut t = TextTable::new(vec![
        "year",
        "λ [µm]",
        "Scenario #1 [µ$/tr]",
        "Scenario #2 [µ$/tr]",
    ]);
    for col in 1..4 {
        t.align(col, Alignment::Right);
    }
    for r in &rows {
        t.row(vec![
            format!("{:.0}", r.year),
            format!("{:.2}", r.lambda_um),
            format!("{:.3}", r.optimistic_micro),
            format!("{:.2}", r.realistic_micro),
        ]);
    }
    let mut out = t.render();
    if let Some(year) = maly_model::shared()
        .roadmap
        .realistic_turning_year(from, to)
        .map_err(|e| e.to_string())?
    {
        out.push_str(&format!(
            "\n\nScenario #2 cost bottoms out around {year} and rises afterwards."
        ));
    }
    Ok(out)
}

fn table3() -> Result<String, String> {
    let QueryResponse::Table3(rows) = evaluate(&Query::Table3)? else {
        return Err("unexpected response kind".to_string());
    };
    let mut t = TextTable::new(vec!["#", "IC type", "paper [µ$]", "model [µ$]"]);
    t.align(2, Alignment::Right);
    t.align(3, Alignment::Right);
    for r in &rows {
        t.row(vec![
            format!("{}", r.id),
            r.name.clone(),
            format!("{:.2}", r.paper_micro_dollars),
            format!("{:.2}", r.model_micro_dollars),
        ]);
    }
    Ok(t.render())
}

fn serve(flags: &Flags) -> Result<String, String> {
    let addr = flags.str_opt("addr").unwrap_or("127.0.0.1:7878");
    let threads = flags.usize_or("threads", 2)?;
    let server =
        Server::bind(ServeConfig::bind(addr).workers(threads)).map_err(|e| e.to_string())?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    // Announce the bound address before blocking — with `:0` the picked
    // port is unknowable otherwise.
    println!("serving on {bound} with {threads} worker threads (ctrl-c to stop)");
    server.serve();
    Ok(format!("server on {bound} stopped"))
}

fn query(flags: &Flags) -> Result<String, String> {
    let path = flags
        .str_opt("file")
        .ok_or("missing required flag --file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        return Err(format!("no request lines in {path}"));
    }
    let responses = match flags.str_opt("addr") {
        Some(addr) => client::query_lines(addr, &lines).map_err(|e| e.to_string())?,
        None => {
            // No server: evaluate in-process through the same protocol
            // path, so offline output is byte-identical to served output.
            let ctx = EvalContext::process();
            lines
                .iter()
                .map(|l| protocol::handle_line(ctx, l))
                .collect()
        }
    };
    Ok(responses.join("\n"))
}

fn stats(flags: &Flags) -> Result<String, String> {
    let addr = flags
        .str_opt("addr")
        .ok_or("missing required flag --addr")?;
    let response = client::query_one(addr, &Query::ServerStats).map_err(|e| e.to_string())?;
    let Json::Obj(pairs) = response else {
        return Err("malformed server_stats payload".to_string());
    };
    // Retag the payload as a `stats` trace record: the same
    // sorted-key sections, printable on its own or appendable to an
    // ndjson trace file for `xtask trace-check`.
    let mut record = vec![("type".to_string(), Json::Str("stats".to_string()))];
    record.extend(pairs.into_iter().filter(|(k, _)| k != "kind"));
    Ok(Json::Obj(record).write())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cost_command_reproduces_table3_row1() {
        let out = run(&argv(
            "cost --transistors 3.1e6 --lambda 0.8 --density 150 --yield 0.9 --c0 700 --x 1.4",
        ))
        .unwrap();
        assert!(out.contains("9.40 µ$"), "{out}");
        assert!(out.contains("46"));
    }

    #[test]
    fn sweep_renders_a_plot() {
        let out = run(&argv(
            "sweep --transistors 1e6 --lambda 0.8 --density 150 --yield 0.7 --c0 700 --x 1.8 \
             --from 0.4 --to 1.0 --steps 12",
        ))
        .unwrap();
        assert!(out.contains("C_tr [µ$]"));
    }

    #[test]
    fn optimize_reports_a_node() {
        let out = run(&argv(
            "optimize --transistors 1e6 --lambda 0.8 --density 150 --yield 0.7 --c0 700 --x 1.8",
        ))
        .unwrap();
        assert!(out.contains("optimal feature size"));
    }

    #[test]
    fn wafer_command_counts_dies() {
        let out = run(&argv("wafer --die-area 2.976")).unwrap();
        assert!(out.contains("46"));
        assert!(out.contains("utilization"));
    }

    #[test]
    fn wafer_map_switch_draws() {
        let out = run(&argv("wafer --die-area 2.976 --map")).unwrap();
        assert!(out.contains('#'));
    }

    #[test]
    fn table3_command_lists_all_rows() {
        let out = run(&argv("table3")).unwrap();
        assert!(out.contains("PLD"));
        assert!(out.contains("240.00"));
    }

    #[test]
    fn mix_command_reports_penalty() {
        let out = run(&argv("mix --products 10 --volume 500")).unwrap();
        assert!(out.contains("penalty ratio"));
        assert!(out.contains('×'));
    }

    #[test]
    fn chiplet_command_reports_the_reference_optimum() {
        let out = run(&argv("chiplet --transistors 2e6 --volume 50000")).unwrap();
        assert!(
            out.contains("best partition: 4 chiplet(s) + 0 spare(s)"),
            "{out}"
        );
        assert!(out.contains("64.95"), "{out}");
        assert!(out.contains("240 of 240 candidates feasible"), "{out}");
    }

    #[test]
    fn chiplet_command_requires_transistors_and_validates() {
        assert!(run(&argv("chiplet")).unwrap_err().contains("--transistors"));
        let err = run(&argv("chiplet --transistors 2e6 --max-chiplets 0")).unwrap_err();
        assert!(err.contains("chiplets"), "{err}");
    }

    #[test]
    fn roadmap_command_projects_years() {
        let out = run(&argv("roadmap --from 1990 --to 1998")).unwrap();
        assert!(out.contains("1990"));
        assert!(out.contains("1998"));
        assert!(out.contains("Scenario #2"));
        assert!(run(&argv("roadmap --from 2000 --to 1990")).is_err());
    }

    #[test]
    fn query_command_evaluates_a_request_file_offline() {
        let path = std::env::temp_dir().join("maly_cli_query_test.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"id\": 1, \"query\": {\"type\": \"table3_row\", \"id\": 1}}\n",
                "\n",
                "[{\"id\": 2, \"query\": {\"type\": \"table3_row\", \"id\": 2}},",
                " {\"id\": 3, \"query\": {\"type\": \"nonsense\"}}]\n",
            ),
        )
        .unwrap();
        let arg = format!("query --file {}", path.display());
        let out = run(&argv(&arg)).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains("\"ok\""));
        assert!(lines[1].contains("\"ok\"") && lines[1].contains("unsupported-query"));
    }

    #[test]
    fn query_command_requires_a_readable_file() {
        assert!(run(&argv("query")).unwrap_err().contains("--file"));
        assert!(run(&argv("query --file /nonexistent/req.jsonl")).is_err());
    }

    #[test]
    fn serve_command_rejects_unbindable_addresses() {
        let err = run(&argv("serve --addr 256.256.256.256:1")).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn query_command_talks_to_a_live_server() {
        // A real loopback round trip through the CLI's own serve path:
        // bind on a private port, detach the blocking serve call, then
        // drive it with `query --addr`.
        let config = ServeConfig::bind("127.0.0.1:0").workers(2);
        let server = Server::bind(config).unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr().to_string();
        let join = std::thread::spawn(move || server.serve());
        let path = std::env::temp_dir().join("maly_cli_live_query_test.jsonl");
        std::fs::write(
            &path,
            "{\"id\": 1, \"query\": {\"type\": \"table3_row\", \"id\": 1}}\n",
        )
        .unwrap();
        let arg = format!("query --file {} --addr {addr}", path.display());
        let out = run(&argv(&arg)).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(out.contains("\"ok\""), "{out}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn stats_command_reports_a_live_servers_metrics() {
        let config = ServeConfig::bind("127.0.0.1:0").workers(1);
        let server = Server::bind(config).unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr().to_string();
        let join = std::thread::spawn(move || server.serve());
        // Put some traffic on the ledger before asking for the snapshot.
        let warm = client::query_lines(
            &addr,
            &["{\"id\": 1, \"query\": {\"type\": \"table3_row\", \"id\": 1}}".to_string()],
        )
        .unwrap();
        assert!(warm[0].contains("\"ok\""), "{warm:?}");
        let out = run(&argv(&format!("stats --addr {addr}"))).unwrap();
        assert!(out.starts_with("{\"type\":\"stats\",\"work\":{"), "{out}");
        assert!(out.contains("\"serve.request_lines\""), "{out}");
        assert!(out.contains("\"gauges\":{"), "{out}");
        assert!(out.contains("\"latency\":{"), "{out}");
        assert!(!out.contains("\"kind\""), "{out}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn stats_command_requires_an_addr() {
        assert!(run(&argv("stats")).unwrap_err().contains("--addr"));
    }

    #[test]
    fn trace_out_flag_writes_an_ndjson_trace() {
        let path = std::env::temp_dir().join("maly_cli_trace_test.ndjson");
        let arg = format!("wafer --die-area 2.976 --trace-out {}", path.display());
        run(&argv(&arg)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("\"name\":\"cli.wafer\""), "{text}");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
        assert!(run(&argv("bogus")).is_err());
        assert!(run(&[]).is_err());
        let err = run(&argv("cost --lambda 0.8")).unwrap_err();
        assert!(err.contains("--transistors"));
    }
}
