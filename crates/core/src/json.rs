//! Minimal JSON reading and writing for checkpoint files.
//!
//! The workspace is offline and dependency-free, so checkpoint
//! serialization cannot lean on `serde`. This module implements exactly
//! the JSON subset the [`crate::checkpoint`] format needs — objects,
//! arrays, strings, integers, booleans, null — with a recursive-descent
//! parser and a deterministic writer (object keys are emitted in insertion
//! order, integers only, no floats), so a checkpoint written twice from
//! the same state is byte-identical.
//!
//! The parser reads untrusted bytes (serve frames, audit lines, checkpoint
//! and ingest files), so its recursion is bounded: arrays and objects
//! nested deeper than [`MAX_DEPTH`] are an error, not a stack overflow.

use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Numbers are restricted to `i128` — every quantity a checkpoint stores
/// (indices, fingerprints, [`crate::value::V`] values) is an integer, and
/// avoiding floats keeps serialization deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON number without fraction or exponent).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i128`, if it is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integer in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_int().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to a compact, deterministic string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string literal with the mandatory escapes.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// The deepest nesting of arrays and objects [`parse`] accepts. Every
/// document the workspace writes stays within a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Returns a description of the first error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (checkpoints use integers only)"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid utf-8 in number at byte {start}"))?;
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not needed for checkpoint
                            // payloads; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid utf-8 at byte {}", self.pos))?;
                    if let Some(c) = text.chars().next() {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = Json::Obj(vec![
            ("total".to_string(), Json::Int(1000)),
            ("done".to_string(), Json::Bool(false)),
            (
                "classes".to_string(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Int(-3), Json::Int(7)]),
                    Json::Null,
                ]),
            ),
            (
                "note".to_string(),
                Json::Str("a \"quoted\"\nline".to_string()),
            ),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).as_ref(), Ok(&v));
        // Deterministic: render is a pure function of the value.
        assert_eq!(parse(&text).map(|p| p.render()), Ok(text));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 3, "b": "x", "c": [1, 2]}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1.5",
            "1e3",
            "\"unterminated",
            "nul",
            "{} trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(parse(&format!("{{\"a\":{}}}", nest(MAX_DEPTH - 1))).is_ok());
        assert!(parse(&format!("{{\"a\":{}}}", nest(MAX_DEPTH))).is_err());
        // Far past the bound: an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("\u{1}tab\there".to_string());
        let text = v.render();
        assert_eq!(text, "\"\\u0001tab\\there\"");
        assert_eq!(parse(&text), Ok(v));
    }
}
