//! A minimal, std-only JSON value: recursive-descent parser and
//! deterministic writer.
//!
//! The workspace is intentionally dependency-free, so the wire format
//! of the query API is implemented here rather than pulled from a
//! crates.io parser. The subset is full JSON with two deliberate
//! choices:
//!
//! * numbers are `f64` (the model is an `f64` calculation end to end;
//!   integers up to 2⁵³ round-trip exactly);
//! * objects preserve insertion order (`Vec<(String, Json)>`), so a
//!   response serializes identically on every run and at every thread
//!   count — the loopback determinism tests compare raw bytes.
//!
//! Numbers are written by the crate's own shortest-round-trip
//! formatter (a Ryu port, `shortest.rs`): the parsed value is
//! bit-identical to the written one, which is what lets a served
//! response be compared bit-for-bit against a direct library
//! evaluation. Its output is byte-identical to `f64`'s `Display`, which
//! it replaces for speed only; `format!("{v}")` stays as the test
//! oracle (`tests/f64_format.rs`). Non-finite numbers have no JSON
//! spelling and serialize as `null`.
//!
//! The parser is strict RFC 8259 and linear in the input: a string is
//! copied a run at a time up to its next quote or escape. Errors are a
//! typed [`ParseError`] carrying the byte offset.
//!
//! [`Json::Raw`] is a write-only value: text that is already
//! serialized JSON (a cached surface-tile body), copied verbatim into
//! the output. The parser never produces it.

use std::fmt::Write as _;
use std::sync::Arc;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
    /// Already-serialized JSON text, written verbatim. Never produced
    /// by [`parse`]; [`Json::get`] and the `as_*` accessors return
    /// `None` on it.
    Raw(Arc<str>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys and
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serializes to compact JSON (no whitespace), deterministically.
    #[must_use]
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => push_num(out, *v),
            Json::Str(s) => write_string(s, out),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a number as [`Json::write`] does: shortest round-trip text,
/// so parsing it back yields the same bits, and `null` for the
/// non-finite values JSON cannot spell.
pub(crate) fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        crate::shortest::push_f64(out, v);
    } else {
        out.push_str("null");
    }
}

/// Writes a JSON string literal with the mandatory escapes.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a line is not one JSON document, and the byte offset where the
/// parser gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub kind: ParseErrorKind,
}

/// The kinds of [`ParseError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A complete value is followed by more than whitespace.
    TrailingData,
    /// Arrays and objects nest deeper than 64 levels.
    TooDeep,
    /// A byte that cannot start a value.
    UnexpectedByte,
    /// A bareword that is not `true`, `false` or `null`.
    InvalidLiteral,
    /// A number outside the JSON grammar (`+1`, `.5`, `1.`, `01`, …).
    InvalidNumber,
    /// A well-formed number too large for an `f64` (`1e400`).
    NumberOutOfRange,
    /// A raw control character (below U+0020) inside a string.
    ControlCharacter,
    /// A backslash escape JSON does not define, or a short `\u`.
    InvalidEscape,
    /// The input ended inside a string.
    UnterminatedString,
    /// An array element is followed by neither `,` nor `]`.
    ExpectedCommaOrBracket,
    /// An object member is followed by neither `,` nor `}`.
    ExpectedCommaOrBrace,
    /// An object member does not start with a string key.
    ExpectedKey,
    /// An object key is not followed by `:`.
    ExpectedColon,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            ParseErrorKind::UnexpectedEnd => "unexpected end of input",
            ParseErrorKind::TrailingData => "trailing data",
            ParseErrorKind::TooDeep => "nesting deeper than 64",
            ParseErrorKind::UnexpectedByte => "unexpected byte",
            ParseErrorKind::InvalidLiteral => "invalid literal",
            ParseErrorKind::InvalidNumber => "invalid number",
            ParseErrorKind::NumberOutOfRange => "number out of f64 range",
            ParseErrorKind::ControlCharacter => "raw control character in string",
            ParseErrorKind::InvalidEscape => "invalid escape",
            ParseErrorKind::UnterminatedString => "unterminated string",
            ParseErrorKind::ExpectedCommaOrBracket => "expected `,` or `]`",
            ParseErrorKind::ExpectedCommaOrBrace => "expected `,` or `}`",
            ParseErrorKind::ExpectedKey => "expected object key",
            ParseErrorKind::ExpectedColon => "expected `:`",
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document. Trailing non-whitespace is an error —
/// the wire protocol is strictly one value per line.
///
/// The grammar is strict RFC 8259: numbers are
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` and must fit an
/// `f64`, and strings may not hold raw control characters.
///
/// # Errors
///
/// Returns the first syntax error and its byte offset.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src: input, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.error(ParseErrorKind::TrailingData));
    }
    Ok(value)
}

/// Nesting depth bound: a malicious request cannot blow the stack of a
/// server worker thread. [`ParseErrorKind::TooDeep`] names it.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            offset: self.pos,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error(ParseErrorKind::TooDeep));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.error(ParseErrorKind::UnexpectedEnd)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error(ParseErrorKind::UnexpectedByte)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(ParseErrorKind::InvalidLiteral))
        }
    }

    /// Consumes ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let invalid = |pos| ParseError {
            offset: pos,
            kind: ParseErrorKind::InvalidNumber,
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    return Err(invalid(start)); // leading zero
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid(start)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(invalid(start));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid(start));
            }
        }
        let text = self.src.get(start..self.pos).ok_or(invalid(start))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(ParseError {
                offset: start,
                kind: ParseErrorKind::NumberOutOfRange,
            }),
            Err(_) => Err(invalid(start)),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        // Caller guarantees the current byte is `"`.
        self.pos += 1;
        let bytes = self.src.as_bytes();
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go. Those bytes are ASCII, so the run ends on
            // a char boundary of the (already valid UTF-8) input.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(bytes.len(), |n| self.pos + n);
            if let Some(text) = self.src.get(self.pos..run) {
                out.push_str(text);
            }
            self.pos = run;
            match self.peek() {
                None => return Err(self.error(ParseErrorKind::UnterminatedString)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error(ParseErrorKind::ControlCharacter)),
            }
        }
    }

    /// Decodes the escape after a backslash (the current byte).
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .src
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or(self.error(ParseErrorKind::InvalidEscape))?;
                self.pos += 4;
                // Surrogates and other unpaired code points fold to the
                // replacement character; the protocol never emits them.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.error(ParseErrorKind::InvalidEscape)),
        };
        out.push(ch);
        self.pos += 1;
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error(ParseErrorKind::ExpectedCommaOrBracket)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error(ParseErrorKind::ExpectedKey));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error(ParseErrorKind::ExpectedColon));
            }
            self.pos += 1;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error(ParseErrorKind::ExpectedCommaOrBrace)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-1.5", "1e3", "\"hi\""] {
            let v = parse(text).unwrap();
            let back = parse(&v.write()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.1, 1.0 / 3.0, 9.4e-6, f64::MAX, 5e-324] {
            let text = Json::Num(v).write();
            let Json::Num(back) = parse(&text).unwrap() else {
                panic!("not a number: {text}");
            };
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = parse("{\"b\":1,\"a\":2}").unwrap();
        assert_eq!(v.write(), "{\"b\":1,\"a\":2}");
        assert_eq!(v.get("a"), Some(&Json::Num(2.0)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(" [1, {\"k\": [true, null]}, \"s\"] ").unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 3);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote \" backslash \\ newline \n tab \t unicode µ";
        let text = Json::Str(original.to_string()).write();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), original);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"k\" 1}",
            "tru",
            "1.2.3",
            "[1] x",
            "nan",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
    }

    fn error_of(text: &str) -> ParseError {
        match parse(text) {
            Ok(v) => panic!("{text:?} parsed as {v:?}"),
            Err(e) => e,
        }
    }

    #[test]
    fn rejects_leading_plus() {
        let e = error_of("[+1]");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::UnexpectedByte, 1));
    }

    #[test]
    fn rejects_bare_fraction() {
        let e = error_of("[.5]");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::UnexpectedByte, 1));
    }

    #[test]
    fn rejects_trailing_decimal_point() {
        let e = error_of("{\"x\":1.}");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::InvalidNumber, 5));
    }

    #[test]
    fn rejects_leading_zero() {
        let e = error_of("[0, 01]");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::InvalidNumber, 4));
        let e = error_of("-01");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::InvalidNumber, 0));
    }

    #[test]
    fn rejects_overflowing_numbers() {
        let e = error_of("[1, 1e400]");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::NumberOutOfRange, 4));
        let e = error_of("-1e400");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::NumberOutOfRange, 0));
        // Underflow is not an error: the nearest double is zero.
        assert_eq!(parse("1e-400").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        let e = error_of("[\"a\tb\"]");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::ControlCharacter, 3));
        let e = error_of("\"\u{1f}\"");
        assert_eq!((e.kind, e.offset), (ParseErrorKind::ControlCharacter, 1));
        // The escaped spelling is fine.
        assert_eq!(parse("\"a\\tb\"").unwrap(), Json::Str("a\tb".into()));
    }

    #[test]
    fn accepts_every_number_production() {
        for (text, v) in [
            ("0", 0.0_f64),
            ("-0", -0.0),
            ("12", 12.0),
            ("-3.25", -3.25),
            ("1e3", 1e3),
            ("1E+3", 1e3),
            ("25e-1", 2.5),
            ("0.5e0", 0.5),
        ] {
            let Json::Num(got) = parse(text).unwrap() else {
                panic!("{text} is not a number");
            };
            assert_eq!(got.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn errors_display_their_offset() {
        let e = error_of("[1] x");
        assert_eq!(e.to_string(), "trailing data at byte 4");
        assert_eq!(
            error_of("").to_string(),
            "unexpected end of input at byte 0"
        );
    }

    #[test]
    fn multibyte_utf8_round_trips_with_every_escape() {
        let text = r#""µm é \u00e9 \n \" \\ \/ \t \r \b \f \u00b5 ∑ 😀""#;
        let expected = "µm é é \n \" \\ / \t \r \u{8} \u{c} µ ∑ 😀";
        let v = parse(text).unwrap();
        assert_eq!(v.as_str(), Some(expected));
        assert_eq!(parse(&v.write()).unwrap(), v);
        let key = parse(r#"{"é\u00e9µ": "x"}"#).unwrap();
        assert_eq!(key.get("ééµ"), Some(&Json::Str("x".into())));
    }

    #[test]
    fn long_mixed_string_parses_exactly() {
        // 256 KiB of ASCII runs broken by multi-byte characters and
        // escapes: pins the run-copy path (and stays linear).
        let unit = r#"abcdefgh µ é ∑ 😀 \\ \"q\" \u00e9\n"#;
        let decoded = "abcdefgh µ é ∑ 😀 \\ \"q\" é\n";
        let reps = (256 * 1024) / unit.len() + 1;
        let text = format!("\"{}\"", unit.repeat(reps));
        assert!(text.len() >= 256 * 1024);
        assert_eq!(parse(&text).unwrap(), Json::Str(decoded.repeat(reps)));
    }

    #[test]
    fn rejects_bad_escapes() {
        for (text, offset) in [("\"\\x\"", 2), ("\"\\u12\"", 2), ("\"\\u+123\"", 2)] {
            let e = error_of(text);
            assert_eq!(
                (e.kind, e.offset),
                (ParseErrorKind::InvalidEscape, offset),
                "{text}"
            );
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn raw_is_written_verbatim_inside_arrays_and_objects() {
        let raw = Json::Raw(Arc::from("{\"kind\":\"surface\",\"v\":[1,null]}"));
        let v = Json::obj(vec![
            ("id", Json::Num(4.0)),
            ("ok", raw.clone()),
            ("all", Json::Arr(vec![raw.clone(), Json::Null, raw])),
        ]);
        assert_eq!(
            v.write(),
            "{\"id\":4,\"ok\":{\"kind\":\"surface\",\"v\":[1,null]},\
             \"all\":[{\"kind\":\"surface\",\"v\":[1,null]},null,\
             {\"kind\":\"surface\",\"v\":[1,null]}]}"
        );
    }

    #[test]
    fn raw_is_opaque_to_the_accessors() {
        for text in ["{\"kind\":\"surface\"}", "[1,2]", "3", "\"s\""] {
            let raw = Json::Raw(Arc::from(text));
            assert_eq!(raw.get("kind"), None, "{text}");
            assert_eq!(raw.as_f64(), None, "{text}");
            assert_eq!(raw.as_str(), None, "{text}");
            assert_eq!(raw.as_arr(), None, "{text}");
        }
    }

    /// Whether `v` holds a `Raw` anywhere in its tree.
    fn contains_raw(v: &Json) -> bool {
        match v {
            Json::Raw(_) => true,
            Json::Arr(items) => items.iter().any(contains_raw),
            Json::Obj(pairs) => pairs.iter().any(|(_, v)| contains_raw(v)),
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => false,
        }
    }

    #[test]
    fn parse_never_produces_raw() {
        for text in [
            "null",
            "1.5",
            "\"raw\"",
            "[1, [2, {\"a\": null}], \"x\"]",
            "{\"kind\":\"surface\",\"values\":[[0.000015,null]],\"global_minimum\":null}",
        ] {
            let v = parse(text).unwrap();
            assert!(!contains_raw(&v), "{text} parsed to {v:?}");
            // And writing a spliced copy reparses to the plain tree.
            let spliced = Json::Arr(vec![Json::Raw(Arc::from(text))]).write();
            assert_eq!(parse(&spliced).unwrap(), Json::Arr(vec![v]), "{text}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).write(), "null");
        assert_eq!(Json::Num(f64::INFINITY).write(), "null");
    }
}
