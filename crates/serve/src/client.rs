//! A minimal blocking client for the wire protocol.
//!
//! Used by the CLI's `query` subcommand and the loopback integration
//! tests. One connection, line-in/line-out: responses come back in
//! request order, so [`query_lines`] pairs them by position.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use maly_model::json::{self, Json};
use maly_model::{Error, Query, QueryResponse};

/// Connects to `addr`, retrying while the server finishes binding.
/// Retries are capped (~2 s total) so a dead server fails fast.
///
/// # Errors
///
/// Returns [`Error::Io`] when every attempt is refused.
pub fn connect(addr: &str) -> Result<TcpStream, Error> {
    let mut last = None;
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                // Request lines are small; Nagle would stall pipelined
                // writers for a delayed-ACK interval per line.
                drop(stream.set_nodelay(true));
                return Ok(stream);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(last.map_or(Error::Io("unreachable".to_string()), Error::from))
}

/// Sends each request line and collects one response line per request,
/// in order.
///
/// # Errors
///
/// Returns [`Error::Io`] on connect/write failures or when the server
/// closes the connection before answering every line (which it does
/// after rejecting an oversized payload).
pub fn query_lines(addr: &str, lines: &[String]) -> Result<Vec<String>, Error> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    let mut request = String::new();
    for line in lines {
        // One write per line, newline included (see `server::write_line`).
        request.clear();
        request.push_str(line);
        request.push('\n');
        writer.write_all(request.as_bytes())?;
        writer.flush()?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err(Error::Io("server closed the connection".to_string()));
        }
        responses.push(response.trim_end().to_string());
    }
    Ok(responses)
}

/// Sends one typed query and decodes the typed outcome: the evaluation
/// result on `ok`, the server's reported error otherwise.
///
/// # Errors
///
/// Returns transport errors, the server's reported error, or
/// [`Error::Parse`] when the response line is not valid protocol JSON.
pub fn query_one(addr: &str, query: &Query) -> Result<Json, Error> {
    let request = Json::obj(vec![("id", Json::Num(0.0)), ("query", query.to_json())]);
    let responses = query_lines(addr, &[request.write()])?;
    let line = responses
        .first()
        .ok_or_else(|| Error::Io("no response".to_string()))?;
    decode_response(line)
}

/// Splits a response line into its `ok` payload or typed error.
///
/// # Errors
///
/// Returns the server's error verbatim (as [`Error::Io`] wrapping the
/// reported kind and message for kinds that only the transport layer
/// produces), or [`Error::Parse`] for malformed protocol lines.
pub fn decode_response(line: &str) -> Result<Json, Error> {
    let v = json::parse(line)?;
    if let Some(ok) = v.get("ok") {
        return Ok(ok.clone());
    }
    let Some(error) = v.get("error") else {
        return Err(Error::Parse {
            message: "response carries neither `ok` nor `error`".to_string(),
        });
    };
    let kind = error.get("kind").and_then(Json::as_str).unwrap_or("io");
    let message = error
        .get("message")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    Err(match kind {
        "overloaded" => Error::Overloaded,
        "parse" => Error::Parse { message },
        _ => Error::Io(format!("server error [{kind}]: {message}")),
    })
}

/// The response line the server would produce for `query` evaluated
/// directly in-process, as [`crate::protocol::response_line`] writes it.
/// No workspace crate calls it; perfbench's answer check does, so it
/// stays until that benchmark moves to `response_line`.
#[must_use]
pub fn expected_line(id: &Json, result: &Result<QueryResponse, Error>) -> String {
    crate::protocol::response_line(id, result)
}
