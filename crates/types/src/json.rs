//! Minimal JSON reader/writer: the workspace's one JSON implementation.
//!
//! The workspace builds with no external crates, so it carries its own
//! JSON support: a value model, a recursive-descent parser, and a compact
//! writer. Everything that reads or writes JSON uses it — the result
//! store and run manifests (`secpref-exp`), the recorder's summary
//! artifact (`secpref-obs`) and the span traces and their validator
//! (`secpref-telemetry`). Scope is exactly what those need — UTF-8
//! strings, `u64` counters kept exact (never routed through `f64`), and
//! round-trippable `f64` via Rust's shortest-representation formatting.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer (kept exact — counters must not lose bits).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as an ordered field list (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert losslessly when possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
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
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
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
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes compactly (no whitespace), deterministically.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Writes an `f64` so that parsing it back returns the identical bits
/// (Rust's default float formatting is shortest-round-trip).
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v:?}");
        out.push_str(&s);
    } else {
        // JSON has no NaN/inf; encode as null and let decoders treat it
        // as 0 — simulation outputs are always finite, so this is a
        // belt-and-braces path, not an expected one.
        out.push_str("null");
    }
}

/// Writes a JSON string literal with escaping.
fn write_escaped(out: &mut String, s: &str) {
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

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset on malformed input or trailing
/// garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// this workspace writes, a result-store line, nests five levels; the
/// bound turns hostile input (`[[[[…`) into an `Err` instead of a stack
/// overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
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
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
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
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next delimiter at
                    // once. Both delimiters are ASCII, so in valid UTF-8
                    // they never fall inside a scalar: the run's ends are
                    // char boundaries and checking it alone is enough.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|_| "invalid utf-8")?;
                    s.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float && !tok.starts_with('-') {
            if let Ok(v) = tok.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        tok.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number `{tok}` at byte {start}"))
    }
}

/// Convenience: builds an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "18446744073709551615",
            "\"hi\"",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_string(), src);
        }
    }

    #[test]
    fn u64_counters_stay_exact() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for x in [0.1, 1.0 / 3.0, 2.5e-9, 123456.789, f64::MIN_POSITIVE] {
            let s = Json::Float(x).to_string();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let src = r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":true},"e":"q\"uo\\te"}"#;
        let v = parse(src).unwrap();
        let re = parse(&v.to_string()).unwrap();
        assert_eq!(v, re);
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\ttab \"quoted\" back\\slash \u{1}";
        let v = Json::Str(s.to_string());
        assert_eq!(parse(&v.to_string()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn runs_and_escapes_alternate_without_losing_a_byte() {
        // Multi-byte scalars (2, 3 and 4 bytes) sit directly against every
        // escape the parser knows, so each run boundary falls next to one.
        let src = r#""é\"\\€\/𝄞\b\fñ\n\r\tü\u00e9\u0001ß""#;
        let want = "é\"\\€/𝄞\u{8}\u{c}ñ\n\r\tüé\u{1}ß";
        assert_eq!(parse(src).unwrap().as_str(), Some(want));
        // And back out through the writer.
        let v = Json::Str(want.to_string());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // A run that ends the input is an unterminated string, not a panic.
        assert!(parse("\"é€").is_err());
    }

    #[test]
    fn truncated_unicode_escape_is_an_error() {
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\u12"#).is_err());
        assert!(parse(r#""\u"#).is_err());
        assert!(parse(r#""\"#).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow the stack if the parser recursed.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&nest("[{\"a\":", "}]", 100_000)).is_err());
        // Depth is released on the way out: siblings do not add up.
        let wide = format!("[{}]", vec![nest("[", "]", MAX_DEPTH - 1); 8].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
    }
}
