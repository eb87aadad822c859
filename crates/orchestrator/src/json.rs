//! A minimal JSON value model, writer and parser: the text layer under
//! every document this crate writes or reads — worker and daemon frames,
//! plans, requests, reports, persisted summaries and the cache manifest.
//! How typed values map onto it is the `codec` module's business.
//!
//! The real `serde`/`serde_json` stack is unavailable in this hermetic build
//! (the workspace's `serde` is an API stub), so the orchestrator carries its
//! own value model, writer, and parser. Numbers are kept as `i128` — wide
//! enough to round-trip every `u64` bit-vector constant and every signed
//! packet offset exactly, which `f64`-based JSON numbers would not.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (this codec never emits fractions or exponents).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps serialisation deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an integer value from anything convertible to `i128`.
    pub fn int(v: impl Into<i128>) -> Json {
        Json::Int(v.into())
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer as `u64`, if this is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|v| u64::try_from(v).ok())
    }

    /// The integer as `i64`, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_int().and_then(|v| i64::try_from(v).ok())
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Look up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Serialise to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Parse JSON text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::at(parser.pos, "trailing characters"));
        }
        Ok(value)
    }
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level and its input is whatever a peer sent, so the depth must be bounded
/// well inside the smallest stack it runs on (a session thread's); the
/// documents this crate writes nest 7 deep at most.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                self.pos,
                format!("expected '{}'", byte as char),
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::at(
                self.pos,
                format!("nested deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(JsonError::at(
                self.pos,
                "fractional numbers are not part of this codec",
            ));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<i128>().ok())
            .map(Json::Int)
            .ok_or_else(|| JsonError::at(start, "invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is one run: one
            // UTF-8 check and one copy each, so a string costs time linear
            // in its length (both stop bytes are ASCII, so a run never
            // splits a character).
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|e| JsonError::at(start + e.valid_up_to(), "invalid UTF-8"))?;
            out.push_str(text);
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the
    /// backslash and ends just past the escape.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                // Exactly four hex digits: no sign, no shorter form.
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|digits| {
                        digits.iter().try_fold(0u32, |code, &digit| {
                            Some(code * 16 + char::from(digit).to_digit(16)?)
                        })
                    })
                    .ok_or_else(|| JsonError::at(self.pos, "bad \\u escape"))?;
                // Surrogate pairs are not emitted by this codec's writer;
                // reject rather than mis-decode.
                let c = char::from_u32(hex)
                    .ok_or_else(|| JsonError::at(self.pos, "bad \\u code point"))?;
                self.pos += 4;
                c
            }
            _ => return Err(JsonError::at(self.pos, "bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
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
                    return Ok(Json::Obj(map));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj([
            ("null", Json::Null),
            ("flag", Json::Bool(true)),
            ("max", Json::int(u64::MAX)),
            ("neg", Json::int(-42)),
            ("text", Json::str("line\n\"quoted\" \\slash\u{1f}")),
            (
                "arr",
                Json::Arr(vec![Json::int(1), Json::str("two"), Json::Bool(false)]),
            ),
        ]);
        let text = v.to_text();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_constants_survive_exactly() {
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let text = Json::int(v).to_text();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1.5").is_err());
        assert_eq!(Json::parse("\"open").unwrap_err().offset, 5);
        assert!(Json::parse("true false").is_err());
        // A `\u` escape is exactly four hex digits: no sign, no shorter form.
        for bad in ["\\u+041", "\\u-041", "\\u041", "\\u 041", "\\u004g", "\\u"] {
            let text = format!("\"{bad}\"");
            assert!(Json::parse(&text).is_err(), "{text} must not decode");
        }
    }

    #[test]
    fn long_strings_round_trip_in_one_pass() {
        // ≈ 4 MiB mixing multi-byte characters, quotes, backslashes and
        // control characters. A parser that re-reads the rest of its input
        // per character needs minutes here; one pass needs well under a
        // second even unoptimised.
        let unit = "añ\"€\\b\u{1}\n𝄞\t\u{1f}plain text ";
        let text = unit.repeat((4 << 20) / unit.len());
        let doc = Json::Arr(vec![
            Json::str(text.as_str()),
            Json::obj([("k", Json::str(unit))]),
        ]);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc.to_text()).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed, doc);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "a 4 MiB round trip took {elapsed:?}"
        );
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Unclosed, as a hostile peer would send it: an error, not a stack
        // overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = Json::parse("{\"a\": [1, -2], \"s\": \"x\", \"b\": false}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_i64(), Some(-2));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("s").unwrap().as_int(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
    }
}
