//! The line-delimited JSON wire protocol.
//!
//! One request per line. A line holding a JSON *object* is a single
//! request:
//!
//! ```text
//! {"v": 1, "id": 7, "query": {"type": "table3_row", "id": 1}}
//! ```
//!
//! A line holding a JSON *array* of such objects is a batch: the server
//! evaluates its queries together through the evaluation planner and
//! answers with one JSON array line, element `i` answering request `i`.
//!
//! The envelope is versioned: `v` names the protocol version, and an
//! absent `v` means version 1, so every pre-envelope client (and every
//! committed golden) keeps its exact bytes. A version this server does
//! not speak is rejected with the stable `unsupported-version` error
//! kind; a `query.type` it does not know with `unsupported-query` (tag
//! echoed) — so old servers degrade gracefully under new clients.
//!
//! Every response carries the request's `id` back verbatim (or `null`
//! when the request was unparseable):
//!
//! ```text
//! {"id": 7, "ok": {"kind": "table3", ...}}
//! {"id": 7, "error": {"kind": "invalid-field", "message": "..."}}
//! ```
//!
//! Every request evaluates on [`Executor::serial`]: a server's
//! parallelism comes from its connection workers, which already hold
//! the cores, so fanning one request out into more threads only adds
//! spawn cost and contention.
//!
//! Serialization is deterministic — the same request against the same
//! context produces the same bytes at every worker count — which is
//! what lets the loopback tests compare served output against direct
//! in-process evaluation bit for bit.

use maly_model::json::{self, Json};
use maly_model::{Error, EvalContext, Query, QueryResponse};
use maly_par::Executor;

/// Request lines answered (single lines and batch lines each count
/// once). Work counter: invariant under worker and executor width for
/// a fixed client workload.
pub static REQUEST_LINES: maly_obs::Counter = maly_obs::Counter::work("serve.request_lines");
/// Individual queries evaluated out of batch (array) lines.
pub static BATCHED_QUERIES: maly_obs::Counter = maly_obs::Counter::work("serve.batched_queries");

/// End-to-end request latency (parse through serialized response),
/// attached to the `serve.request` span.
pub static REQUEST_NS: maly_obs::Histogram =
    maly_obs::Histogram::high_resolution("serve.request_ns");
/// Request-line JSON parse latency (`serve.parse` span).
pub static PARSE_NS: maly_obs::Histogram = maly_obs::Histogram::high_resolution("serve.parse_ns");
/// Evaluation latency for the line's queries (`serve.evaluate` span).
pub static EVALUATE_NS: maly_obs::Histogram =
    maly_obs::Histogram::high_resolution("serve.evaluate_ns");
/// Response serialization latency (`serve.write` span).
pub static WRITE_NS: maly_obs::Histogram = maly_obs::Histogram::high_resolution("serve.write_ns");

/// The response object for one evaluated request.
#[must_use]
pub fn response_json(id: &Json, result: &Result<QueryResponse, Error>) -> Json {
    match result {
        Ok(response) => Json::obj(vec![("id", id.clone()), ("ok", response.to_json())]),
        Err(e) => error_json(id, e),
    }
}

/// The response object for a failed request.
#[must_use]
pub fn error_json(id: &Json, error: &Error) -> Json {
    Json::obj(vec![
        ("id", id.clone()),
        (
            "error",
            Json::obj(vec![
                ("kind", Json::Str(error.kind().to_string())),
                ("message", Json::Str(error.to_string())),
            ]),
        ),
    ])
}

/// The serialized response line (no trailing newline) for one request.
#[must_use]
pub fn response_line(id: &Json, result: &Result<QueryResponse, Error>) -> String {
    response_json(id, result).write()
}

/// The serialized response line for a transport-level failure.
#[must_use]
pub fn error_line(error: &Error) -> String {
    error_json(&Json::Null, error).write()
}

/// The serialized response line for a transport-level failure where
/// some request `id` could still be attributed (e.g. recovered from an
/// oversized line's prefix via [`recover_id`]).
#[must_use]
pub fn error_line_with_id(id: &Json, error: &Error) -> String {
    error_json(id, error).write()
}

/// Best-effort recovery of the request `id` from a possibly-truncated
/// line prefix.
///
/// An oversized request line is rejected before it fully arrives, so it
/// cannot be parsed as JSON — but clients conventionally put the `id`
/// first, so its bytes are almost always inside the retained prefix.
/// This scans for the first `"id"` key and reads the JSON scalar after
/// the colon (number, string, boolean, or `null`). Anything
/// unrecognized or itself truncated degrades to `null`, exactly what
/// the rejection would have carried anyway.
#[must_use]
pub fn recover_id(prefix: &str) -> Json {
    let bytes = prefix.as_bytes();
    let Some(key) = prefix.find("\"id\"") else {
        return Json::Null;
    };
    let mut i = key + 4;
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    if bytes.get(i) != Some(&b':') {
        return Json::Null;
    }
    i += 1;
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    let rest = &prefix[i.min(prefix.len())..];
    match rest.as_bytes().first() {
        Some(b'"') => {
            // A string id: take up to the closing unescaped quote; a
            // truncated string never closes and degrades to null.
            let inner = &rest[1..];
            let mut out = String::new();
            let mut chars = inner.chars();
            while let Some(c) = chars.next() {
                match c {
                    '"' => return Json::Str(out),
                    '\\' => match chars.next() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some(other) => {
                            out.push('\\');
                            out.push(other);
                        }
                        None => return Json::Null,
                    },
                    c => out.push(c),
                }
            }
            Json::Null
        }
        Some(b'n') if rest.starts_with("null") => Json::Null,
        Some(b't') if rest.starts_with("true") => Json::Bool(true),
        Some(b'f') if rest.starts_with("false") => Json::Bool(false),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let end = rest
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().map_or(Json::Null, Json::Num)
        }
        _ => Json::Null,
    }
}

/// The one protocol version this server speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Validates the optional envelope version field: absent means
/// [`PROTOCOL_VERSION`], any other value is a typed rejection.
fn check_version(v: &Json) -> Result<(), Error> {
    match v.get("v") {
        None => Ok(()),
        Some(Json::Num(n)) => {
            // audit:allow(float-cmp): exact integrality test — versions
            // are small integers, not measurements.
            if n.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(n) {
                let version = *n as u64;
                if version == PROTOCOL_VERSION {
                    Ok(())
                } else {
                    Err(Error::UnsupportedVersion { version })
                }
            } else {
                Err(Error::InvalidField {
                    field: "v",
                    message: format!("expected a non-negative integer version, got {n}"),
                })
            }
        }
        Some(_) => Err(Error::InvalidField {
            field: "v",
            message: "expected a number".to_string(),
        }),
    }
}

/// Splits a request object into its echoed `id` and parsed query,
/// enforcing the envelope version first (each element of a batch line
/// carries its own envelope).
fn parse_request(v: &Json) -> (Json, Result<Query, Error>) {
    let id = v.get("id").cloned().unwrap_or(Json::Null);
    let query = match check_version(v) {
        Err(e) => Err(e),
        Ok(()) => match v.get("query") {
            Some(q) => Query::from_json(q),
            None => Err(Error::MissingField { field: "query" }),
        },
    };
    (id, query)
}

/// Answers one request line: parse, evaluate on [`Executor::serial`],
/// serialize. Always returns exactly one line of
/// output (no trailing newline) — transport errors aside, a client can
/// match responses to requests by line position alone.
///
/// Array lines go through [`Query::evaluate_batch`], so byte-identical
/// queries in one line are answered once and fanned back out, and
/// overlapping surface tiles fuse their shared grid work
/// (`maly_model::plan`); the served bytes are identical either way.
#[must_use]
pub fn handle_line(ctx: &EvalContext, line: &str) -> String {
    let exec = &Executor::serial();
    let _span = maly_obs::span("serve.request").with_histogram(&REQUEST_NS);
    REQUEST_LINES.incr();
    let parsed = {
        let _parse = maly_obs::span("serve.parse").with_histogram(&PARSE_NS);
        json::parse(line)
    };
    let parsed = match parsed {
        Ok(v) => v,
        Err(message) => return error_line(&Error::Parse { message }),
    };
    match parsed {
        Json::Arr(items) => {
            let requests: Vec<(Json, Result<Query, Error>)> =
                items.iter().map(parse_request).collect();
            let queries: Vec<Query> = requests
                .iter()
                .filter_map(|(_, q)| q.as_ref().ok().cloned())
                .collect();
            BATCHED_QUERIES.add(queries.len() as u64);
            let mut results = {
                let _eval = maly_obs::span("serve.evaluate").with_histogram(&EVALUATE_NS);
                Query::evaluate_batch(exec, ctx, &queries)
            }
            .into_iter();
            let _write = maly_obs::span("serve.write").with_histogram(&WRITE_NS);
            let responses: Vec<Json> = requests
                .into_iter()
                .map(|(id, q)| match q {
                    Ok(_) => {
                        let result = results
                            .next()
                            .unwrap_or(Err(Error::Io("batch result missing".to_string())));
                        response_json(&id, &result)
                    }
                    Err(e) => error_json(&id, &e),
                })
                .collect();
            Json::Arr(responses).write()
        }
        obj => {
            let (id, query) = parse_request(&obj);
            match query {
                Ok(q) => {
                    let result = {
                        let _eval = maly_obs::span("serve.evaluate").with_histogram(&EVALUATE_NS);
                        q.evaluate_with(exec, ctx)
                    };
                    let _write = maly_obs::span("serve.write").with_histogram(&WRITE_NS);
                    response_line(&id, &result)
                }
                Err(e) => error_json(&id, &e).write(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_request_round_trips() {
        let ctx = EvalContext::new();
        let out = handle_line(
            &ctx,
            "{\"id\": 7, \"query\": {\"type\": \"table3_row\", \"id\": 1}}",
        );
        let v = json::parse(&out).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(7.0));
        assert!(v.get("ok").is_some(), "{out}");
        assert!(v.get("error").is_none());
    }

    #[test]
    fn batch_line_answers_in_order_with_per_element_errors() {
        let ctx = EvalContext::new();
        let out = handle_line(
            &ctx,
            concat!(
                "[{\"id\": 1, \"query\": {\"type\": \"table3_row\", \"id\": 2}},",
                " {\"id\": 2, \"query\": {\"type\": \"nonsense\"}},",
                " {\"id\": 3, \"query\": {\"type\": \"product_mix\"}}]",
            ),
        );
        let v = json::parse(&out).unwrap();
        let items = v.as_arr().expect("batch in, batch out");
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("id").and_then(Json::as_f64), Some(1.0));
        assert!(items[0].get("ok").is_some());
        assert_eq!(
            items[1]
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unsupported-query")
        );
        assert!(
            items[1]
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .is_some_and(|m| m.contains("nonsense")),
            "the offending tag must be echoed"
        );
        assert_eq!(items[2].get("id").and_then(Json::as_f64), Some(3.0));
        assert!(items[2].get("ok").is_some());
    }

    #[test]
    fn malformed_line_is_a_parse_error_with_null_id() {
        let ctx = EvalContext::new();
        for bad in ["not json", "{\"id\": 1", "{} trailing", ""] {
            let out = handle_line(&ctx, bad);
            let v = json::parse(&out).unwrap();
            assert!(matches!(v.get("id"), Some(Json::Null)), "{bad:?} -> {out}");
            assert_eq!(
                v.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("parse"),
                "{bad:?} -> {out}"
            );
        }
    }

    #[test]
    fn missing_query_field_is_typed() {
        let ctx = EvalContext::new();
        let out = handle_line(&ctx, "{\"id\": 4}");
        let v = json::parse(&out).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("missing-field")
        );
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn id_recovery_reads_scalars_from_truncated_prefixes() {
        assert_eq!(recover_id("{\"id\": 7, \"query\": {\"type"), Json::Num(7.0));
        assert_eq!(recover_id("{\"id\":-2.5e3,\"query"), Json::Num(-2500.0));
        assert_eq!(
            recover_id("{\"id\": \"req-9\", \"query"),
            Json::Str("req-9".to_string())
        );
        assert_eq!(
            recover_id("{\"id\": \"a\\\"b\", \"query"),
            Json::Str("a\"b".to_string())
        );
        assert_eq!(recover_id("{\"id\": true,"), Json::Bool(true));
        assert_eq!(recover_id("{\"id\": null,"), Json::Null);
        // Unrecoverable prefixes degrade to null: no id key at all, a
        // string id cut mid-way, or a non-scalar value.
        assert_eq!(recover_id("{\"query\": {\"type\": \"table3\""), Json::Null);
        assert_eq!(recover_id("{\"id\": \"trunca"), Json::Null);
        assert_eq!(recover_id("{\"id\": [1,"), Json::Null);
        assert_eq!(recover_id(""), Json::Null);
    }

    #[test]
    fn explicit_version_1_is_byte_identical_to_versionless() {
        let ctx = EvalContext::new();
        let versionless = handle_line(
            &ctx,
            "{\"id\": 7, \"query\": {\"type\": \"table3_row\", \"id\": 1}}",
        );
        let versioned = handle_line(
            &ctx,
            "{\"v\": 1, \"id\": 7, \"query\": {\"type\": \"table3_row\", \"id\": 1}}",
        );
        assert_eq!(versionless, versioned);
    }

    #[test]
    fn unknown_versions_are_rejected_with_a_stable_kind() {
        let ctx = EvalContext::new();
        let out = handle_line(
            &ctx,
            "{\"v\": 2, \"id\": 9, \"query\": {\"type\": \"table3\"}}",
        );
        let v = json::parse(&out).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(9.0));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unsupported-version")
        );
        // Non-integer and non-numeric versions are malformed fields,
        // not version negotiations.
        for bad in [
            "{\"v\": 1.5, \"id\": 1, \"query\": {\"type\": \"table3\"}}",
            "{\"v\": \"1\", \"id\": 1, \"query\": {\"type\": \"table3\"}}",
            "{\"v\": -1, \"id\": 1, \"query\": {\"type\": \"table3\"}}",
        ] {
            let out = handle_line(&ctx, bad);
            let v = json::parse(&out).unwrap();
            assert_eq!(
                v.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some("invalid-field"),
                "{bad}"
            );
        }
        // Batch elements carry their own envelopes: one bad version
        // fails only its element.
        let out = handle_line(
            &ctx,
            concat!(
                "[{\"v\": 1, \"id\": 1, \"query\": {\"type\": \"table3_row\", \"id\": 1}},",
                " {\"v\": 3, \"id\": 2, \"query\": {\"type\": \"table3_row\", \"id\": 1}}]",
            ),
        );
        let v = json::parse(&out).unwrap();
        let items = v.as_arr().expect("batch in, batch out");
        assert!(items[0].get("ok").is_some());
        assert_eq!(
            items[1]
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("unsupported-version")
        );
    }

    #[test]
    fn responses_are_bit_identical_across_executor_widths() {
        // The server evaluates serially; direct evaluation on any
        // executor width must serialize to the same bytes.
        let line = concat!(
            "[{\"id\": 1, \"query\": {\"type\": \"scenario2_sweep\", \"x\": 2.4}},",
            " {\"id\": 2, \"query\": {\"type\": \"table3\"}}]",
        );
        let served = handle_line(&EvalContext::new(), line);
        let queries = [
            Query::from_json(&json::parse("{\"type\": \"scenario2_sweep\", \"x\": 2.4}").unwrap())
                .unwrap(),
            Query::Table3,
        ];
        for threads in [1, 2, 8] {
            let results = Query::evaluate_batch(
                &Executor::with_threads(threads),
                &EvalContext::new(),
                &queries,
            );
            let direct = Json::Arr(
                results
                    .iter()
                    .enumerate()
                    .map(|(i, r)| response_json(&Json::Num(i as f64 + 1.0), r))
                    .collect(),
            )
            .write();
            assert_eq!(served, direct, "threads = {threads}");
        }
    }
}
