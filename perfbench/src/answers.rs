//! The bytes the server must answer with, computed in-process through
//! the model layer's public API before any timed phase. Traced runs
//! also time each model call per line (the `model.*` layer metrics).

use maly_model::json::{self, Json};
use maly_model::{EvalContext, Query};
use maly_par::Executor;
use maly_serve::{client, protocol};

use crate::trace::{self, Tracer};

/// Per-line model-layer timings (all zero in untraced runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelTimes {
    pub parse_ns: u64,
    pub decode_ns: u64,
    pub eval_ns: u64,
    pub batch_eval_ns: u64,
    pub write_ns: u64,
}

/// Contexts the in-process evaluation runs against: one for
/// per-query `evaluate_with`, one for `evaluate_batch`, so each path
/// sees its own tile-cache history, like a fresh server would.
pub struct Contexts {
    eval: EvalContext,
    batch: EvalContext,
}

impl Contexts {
    pub fn new() -> Self {
        Self {
            eval: EvalContext::new(),
            batch: EvalContext::new(),
        }
    }
}

fn decode(element: &Json) -> Result<(Json, Query), String> {
    let id = element.get("id").cloned().unwrap_or(Json::Null);
    let query = element
        .get("query")
        .ok_or("generated element has no query")
        .and_then(|q| Query::from_json(q).map_err(|_| "generated query does not decode"))?;
    Ok((id, query))
}

/// The expected response line for `line`. Single-object lines answer
/// through `Query::evaluate_with`, array lines through
/// `Query::evaluate_batch`, exactly as the server does. With a tracer,
/// both paths run (each timed) and must agree byte for byte.
pub fn expected(
    line: &str,
    ctxs: &Contexts,
    mut tracer: Option<&mut Tracer>,
    trace_id: u64,
) -> Result<(String, ModelTimes), String> {
    let exec = Executor::serial();
    let mut times = ModelTimes::default();
    let root = match tracer.as_deref_mut() {
        Some(t) => t.open("model.line", trace_id, 0),
        None => 0,
    };
    let (parsed, ns) = trace::maybe(&mut tracer, "model.json_parse", trace_id, root, || {
        json::parse(line)
    });
    times.parse_ns = ns;
    let parsed = parsed.map_err(|e| format!("generated line does not parse: {e}"))?;
    let (batched, elements) = match &parsed {
        Json::Arr(items) => (true, items.iter().collect::<Vec<_>>()),
        obj => (false, vec![obj]),
    };
    let (decoded, ns) = trace::maybe(&mut tracer, "model.query_decode", trace_id, root, || {
        elements
            .iter()
            .map(|e| decode(e))
            .collect::<Result<Vec<_>, _>>()
    });
    times.decode_ns = ns;
    let decoded = decoded?;
    let queries: Vec<Query> = decoded.iter().map(|(_, q)| q.clone()).collect();

    let run_eval = tracer.is_some() || !batched;
    let run_batch = tracer.is_some() || batched;
    let eval_results = if run_eval {
        let (r, ns) = trace::maybe(&mut tracer, "model.eval", trace_id, root, || {
            queries
                .iter()
                .map(|q| q.evaluate_with(&exec, &ctxs.eval))
                .collect::<Vec<_>>()
        });
        times.eval_ns = ns;
        Some(r)
    } else {
        None
    };
    let batch_results = if run_batch {
        let (r, ns) = trace::maybe(&mut tracer, "model.batch_eval", trace_id, root, || {
            Query::evaluate_batch(&exec, &ctxs.batch, &queries)
        });
        times.batch_eval_ns = ns;
        Some(r)
    } else {
        None
    };

    let render = |results: &[Result<maly_model::QueryResponse, maly_model::Error>]| {
        if batched {
            let items = decoded
                .iter()
                .zip(results)
                .map(|((id, _), r)| protocol::response_json(id, r))
                .collect();
            Json::Arr(items).write()
        } else {
            client::expected_line(&decoded[0].0, &results[0])
        }
    };
    let served = if batched {
        batch_results.as_deref()
    } else {
        eval_results.as_deref()
    }
    .ok_or("no evaluation path ran")?;
    if let Some(err) = served.iter().find_map(|r| r.as_ref().err()) {
        return Err(format!("generated query fails in-process: {err}"));
    }
    let (bytes, ns) = trace::maybe(&mut tracer, "model.json_write", trace_id, root, || {
        render(served)
    });
    times.write_ns = ns;
    if let (Some(e), Some(b)) = (&eval_results, &batch_results) {
        if render(e) != render(b) {
            return Err(format!(
                "evaluate_with and evaluate_batch disagree on {line}"
            ));
        }
    }
    if let Some(t) = tracer {
        t.close(root);
    }
    Ok((bytes, times))
}
