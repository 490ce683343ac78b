//! Minimal hand-rolled JSON: a builder for responses and a flat-object
//! parser for requests.
//!
//! The daemon's wire format is line-delimited JSON, but this repository
//! builds offline — no `serde`. Responses are assembled with
//! [`JsonObj`]/[`list`]; requests are parsed with [`parse_object`],
//! which accepts exactly the shape the query front end sends: one
//! non-nested object of string / integer / boolean / null fields.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string into a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// An in-order JSON object builder.
#[derive(Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonObj {
        self.fields.push((key.to_string(), escape(value)));
        self
    }

    /// Adds an optional string field (omitted when `None`).
    pub fn opt_str(self, key: &str, value: Option<&str>) -> JsonObj {
        match value {
            Some(v) => self.str(key, v),
            None => self,
        }
    }

    /// Adds an integer field.
    pub fn num(mut self, key: &str, value: impl Into<i128>) -> JsonObj {
        self.fields
            .push((key.to_string(), value.into().to_string()));
        self
    }

    /// Adds an optional integer field (omitted when `None`).
    pub fn opt_num(self, key: &str, value: Option<impl Into<i128>>) -> JsonObj {
        match value {
            Some(v) => self.num(key, v),
            None => self,
        }
    }

    /// Adds a float field (for rates; rendered with 3 decimals).
    pub fn float(mut self, key: &str, value: f64) -> JsonObj {
        self.fields.push((key.to_string(), format!("{value:.3}")));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> JsonObj {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a pre-rendered JSON value (object, list…).
    pub fn raw(mut self, key: &str, value: String) -> JsonObj {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(k));
            out.push(':');
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// Renders a list of pre-rendered JSON values.
pub fn list(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// A parsed request field value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A string.
    Str(String),
    /// An integer (the request vocabulary has no floats).
    Num(i64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonVal {
    /// The string payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Num(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", char::from(other))),
                    }
                }
                b if b < 0x80 => out.push(char::from(b)),
                _ => {
                    // Multi-byte UTF-8: find the full scalar.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonVal, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonVal::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonVal::Bool(true)),
            Some(b'f') => self.literal("false", JsonVal::Bool(false)),
            Some(b'n') => self.literal("null", JsonVal::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                if self.bytes[self.pos] == b'-' {
                    self.pos += 1;
                }
                while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
                s.parse::<i64>()
                    .map(JsonVal::Num)
                    .map_err(|_| format!("integer out of range: {s}"))
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal(&mut self, word: &str, val: JsonVal) -> Result<JsonVal, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(format!("expected `{word}`"))
        }
    }
}

/// Parses one flat JSON object (string / integer / boolean / null
/// values only — the request vocabulary).
///
/// # Errors
///
/// A human-readable description of the first syntax problem.
pub fn parse_object(input: &str) -> Result<BTreeMap<String, JsonVal>, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let mut out = BTreeMap::new();
    p.expect(b'{')?;
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            let val = p.value()?;
            out.insert(key, val);
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_renders_in_order() {
        let s = JsonObj::new()
            .str("op", "query")
            .num("session", 7)
            .bool("ok", true)
            .opt_str("missing", None)
            .raw("items", list(vec!["1".to_string(), "2".to_string()]))
            .build();
        assert_eq!(s, r#"{"op":"query","session":7,"ok":true,"items":[1,2]}"#);
    }

    #[test]
    fn parser_round_trips_builder_output() {
        let s = JsonObj::new()
            .str("tenant", "acme \"prod\"\n")
            .num("limit", 42)
            .bool("sampled", false)
            .build();
        let obj = parse_object(&s).unwrap();
        assert_eq!(obj["tenant"], JsonVal::Str("acme \"prod\"\n".to_string()));
        assert_eq!(obj["limit"].as_u64(), Some(42));
        assert_eq!(obj["sampled"], JsonVal::Bool(false));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a":}"#).is_err());
        assert!(parse_object(r#"{"a":1} extra"#).is_err());
        assert!(parse_object(r#"{"a":99999999999999999999}"#).is_err());
    }

    #[test]
    fn parser_handles_unicode_escapes() {
        let obj = parse_object(r#"{"s":"aéb","u":"naïve"}"#).unwrap();
        assert_eq!(obj["s"], JsonVal::Str("aéb".to_string()));
        assert_eq!(obj["u"], JsonVal::Str("naïve".to_string()));
    }
}
