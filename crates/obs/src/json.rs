//! Minimal JSON support: string escaping for writers and a small
//! recursive-descent parser for offline validation.
//!
//! The workspace has no serialization dependency: the exporters build
//! JSON by hand and the tests/`check-trace` command parse it back with
//! this module.
//!
//! [`JsonValue::parse`] runs in time linear in the input: a string's
//! plain characters are copied a run at a time, up to the next quote
//! or backslash. It accepts only what RFC 8259 allows for strings and
//! numbers — no raw control characters in strings, `\u` followed by
//! exactly four hex digits, no leading zeros, and digits on both sides
//! of a decimal point — so a document that passes here also loads in
//! Perfetto or `jq`. Every error carries the byte offset of the
//! offending input.

use std::collections::BTreeMap;
use std::fmt;

/// Escape a string for embedding in a JSON string literal (without the
/// surrounding quotes).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved (sorted map) — validation
    /// does not need it.
    Object(BTreeMap<String, JsonValue>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parse a complete JSON document. Trailing whitespace is allowed;
    /// trailing garbage, nesting deeper than 256 levels and numbers
    /// that overflow `f64` are errors.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an
    /// exact `u64` representation.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer field `key` ([`JsonValue::as_u64`] of [`JsonValue::get`]).
    #[must_use]
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// The number field `key`.
    #[must_use]
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// The string field `key`.
    #[must_use]
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// The array field `key`.
    #[must_use]
    pub fn get_array(&self, key: &str) -> Option<&[JsonValue]> {
        self.get(key).and_then(JsonValue::as_array)
    }
}

/// The first test of every artifact checker: the document's `schema`
/// tag is `expected`.
pub(crate) fn check_schema(doc: &JsonValue, expected: &str) -> Result<(), String> {
    match doc.get_str("schema") {
        Some(s) if s == expected => Ok(()),
        schema => Err(format!("schema {schema:?}, expected {expected:?}")),
    }
}

/// The deepest array/object nesting [`JsonValue::parse`] accepts. The
/// parser recurses once per level, so the cap keeps hostile input from
/// overflowing the stack; every artifact this workspace writes nests
/// only a handful of levels.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash in one step. Both are ASCII and every UTF-8
            // continuation byte is >= 0x80, so the run ends on a char
            // boundary.
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                match b {
                    b'"' | b'\\' => break,
                    0x00..=0x1f => return Err(self.err("unescaped control character in string")),
                    _ => self.pos += 1,
                }
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// Decodes the escape after a backslash, leaving `pos` past it.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                let mut code = 0;
                for _ in 0..4 {
                    self.pos += 1;
                    let digit = self
                        .peek()
                        .and_then(|b| char::from(b).to_digit(16))
                        .ok_or_else(|| self.err("\\u escape needs 4 hex digits"))?;
                    code = code * 16 + digit;
                }
                // Surrogates are not needed for our ASCII exporters;
                // map them to the replacement char.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Advances past a run of ASCII digits, erroring if there is none.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(&format!("expected a digit {what}")));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits("in number")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("after decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("in exponent")?;
        }
        // Every text the grammar above admits is valid `f64` syntax, so
        // the one failure left is overflow to infinity.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => Err(JsonError {
                offset: start,
                message: format!("number '{text}' is out of range"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{perfetto_trace, Event, FaultClass, ResourceKind};
    use gms_units::{Duration, NodeId, SimTime};
    use proptest::prelude::*;

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"k\":\"{}\"}}", escape_json(nasty));
        let v = JsonValue::parse(&doc).expect("parse");
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"
            {"traceEvents": [
                {"ph": "X", "ts": 0.5, "dur": 12, "pid": 0, "tid": 3},
                {"ph": "i", "name": "fault", "s": "t"}
            ],
            "ok": true, "none": null, "neg": -3.25e2}
        "#;
        let v = JsonValue::parse(doc).expect("parse");
        let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(JsonValue::as_u64), Some(12));
        assert_eq!(events[0].get("ts").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(v.get("neg").and_then(JsonValue::as_f64), Some(-325.0));
        assert_eq!(v.get("neg").and_then(JsonValue::as_u64), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} x").is_err());
        assert!(JsonValue::parse("nul").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let e = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        assert!(JsonValue::parse(&"[".repeat(200_000)).is_err());
        assert!(JsonValue::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for text in ["1e400", "-1e400", "{\"ts\":1e400}"] {
            let e = JsonValue::parse(text).unwrap_err();
            assert!(e.message.contains("out of range"), "{text}: {e}");
        }
        assert_eq!(JsonValue::parse("1e300").unwrap().as_f64(), Some(1e300));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(
            JsonValue::parse(" { } ").unwrap(),
            JsonValue::Object(BTreeMap::new())
        );
    }

    /// The offset and message of the error `text` fails with.
    fn rejection(text: &str) -> (usize, String) {
        let e = JsonValue::parse(text).expect_err(text);
        (e.offset, e.message)
    }

    #[test]
    fn unicode_escape_needs_four_hex_digits() {
        let (offset, message) = rejection(r#""\u+041""#);
        assert_eq!(offset, 3, "{message}");
        assert!(message.contains("4 hex digits"), "{message}");
        assert_eq!(rejection(r#""\u00g1""#).0, 5);
        assert_eq!(rejection(r#""\u12"#).0, 5);
        assert_eq!(
            JsonValue::parse(r#""\u00e9\u00C9\u20aC""#).unwrap(),
            JsonValue::String("éÉ€".to_string())
        );
    }

    #[test]
    fn raw_tab_in_string_is_rejected() {
        let (offset, message) = rejection("\"a\tb\"");
        assert_eq!(offset, 2);
        assert!(message.contains("control character"), "{message}");
    }

    #[test]
    fn raw_control_byte_in_string_is_rejected() {
        let (offset, message) = rejection("{\"k\u{1}\":1}");
        assert_eq!(offset, 3);
        assert!(message.contains("control character"), "{message}");
        // DEL is not a control character to JSON.
        assert!(JsonValue::parse("\"\u{7f}\"").is_ok());
    }

    #[test]
    fn leading_zero_is_rejected() {
        let (offset, message) = rejection("01");
        assert_eq!(offset, 1);
        assert!(message.contains("leading zero"), "{message}");
        assert_eq!(rejection("[-00]").0, 3);
    }

    #[test]
    fn number_without_integer_digits_is_rejected() {
        let (offset, message) = rejection("-.5");
        assert_eq!(offset, 1);
        assert!(message.contains("expected a digit"), "{message}");
        assert_eq!(rejection("-").0, 1);
    }

    #[test]
    fn number_without_fraction_digits_is_rejected() {
        let (offset, message) = rejection("1.");
        assert_eq!(offset, 2);
        assert!(message.contains("after decimal point"), "{message}");
        assert_eq!(rejection("[1.e5]").0, 3);
        assert_eq!(rejection("1e+").0, 3);
    }

    #[test]
    fn rfc_8259_numbers_parse() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("-1.25e-2", -0.0125),
            ("1E+3", 1000.0),
            ("10e0", 10.0),
            ("1234567.125", 1_234_567.125),
        ] {
            assert_eq!(
                JsonValue::parse(text).unwrap().as_f64(),
                Some(value),
                "{text}"
            );
        }
    }

    #[test]
    fn large_documents_parse() {
        let unit = "é€😀 plain \"quoted\" \\ ";
        let big = unit.repeat((4 << 20) / unit.len() + 1);
        assert!(big.len() >= 4 << 20);
        let doc = format!("\"{}\"", escape_json(&big));
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str(), Some(big.as_str()));

        let keys = 200_000;
        let mut doc = String::from("{");
        for i in 0..keys {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("\"k{i}\":{i}"));
        }
        doc.push('}');
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.as_object().map(BTreeMap::len), Some(keys));
        assert_eq!(v.get("k199999").and_then(JsonValue::as_u64), Some(199_999));
    }

    /// Code points weighted toward what escaping must get right:
    /// multi-byte scalars, quotes, backslashes and control characters.
    fn arb_string() -> impl Strategy<Value = String> {
        let scalar = prop_oneof![
            4 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            3 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            2 => prop_oneof![
                Just('"'),
                Just('\\'),
                Just('/'),
                Just('\u{7f}'),
                Just('é'),
                Just('€'),
                Just('😀'),
                Just('\u{2028}'),
            ],
            1 => (0u32..=0x10_ffff).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ];
        prop::collection::vec(scalar, 0..48).prop_map(|cs| cs.into_iter().collect())
    }

    /// A small but real Perfetto document with every record shape and
    /// a multi-byte span name.
    fn sample_trace() -> String {
        let node = NodeId::new(0);
        perfetto_trace(&[
            Event::Fault {
                node,
                page: 3,
                subpage: 2,
                class: FaultClass::Remote,
                at_ref: 77,
                at: SimTime::from_nanos(100),
            },
            Event::Occupancy {
                node: NodeId::new(1),
                resource: ResourceKind::WireIn,
                what: "dàta€",
                ready: SimTime::from_nanos(250),
                start: SimTime::from_nanos(300),
                end: SimTime::from_nanos(5_300),
            },
            Event::Restart {
                node,
                page: 3,
                at: SimTime::from_nanos(5_300),
                wait: Duration::from_nanos(5_200),
            },
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever `escape_json` writes, the parser reads back as the
        /// original string, both as a value and as an object key.
        #[test]
        fn escaped_strings_round_trip(s in arb_string()) {
            let value = JsonValue::parse(&format!("\"{}\"", escape_json(&s)));
            prop_assert_eq!(value, Ok(JsonValue::String(s.clone())));
            let object = JsonValue::parse(&format!("{{\"{}\":0}}", escape_json(&s))).unwrap();
            prop_assert_eq!(object.get(&s), Some(&JsonValue::Number(0.0)));
        }

        /// Truncating, deleting, duplicating or flipping bytes of a
        /// real trace yields `Ok` or `Err`, never a panic.
        #[test]
        fn mutated_trace_never_panics(
            edits in prop::collection::vec((0u8..4, 0usize..4096, 0usize..64, 1u8..=255), 1..4),
        ) {
            let mut bytes = sample_trace().into_bytes();
            for (kind, at, len, mask) in edits {
                let at = at % (bytes.len() + 1);
                let end = (at + len).min(bytes.len());
                match kind {
                    0 => bytes.truncate(at),
                    1 => {
                        bytes.drain(at..end);
                    }
                    2 => {
                        let copy = bytes[at..end].to_vec();
                        bytes.splice(at..at, copy);
                    }
                    _ => {
                        if let Some(b) = bytes.get_mut(at) {
                            *b ^= mask;
                        }
                    }
                }
            }
            let _ = JsonValue::parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
