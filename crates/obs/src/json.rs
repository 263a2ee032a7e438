//! Minimal JSON value model, writer, and recursive-descent parser.
//!
//! The vendored `serde` is an API stub, so trace records and exporter
//! output are encoded by hand. This module is the shared mechanism: a
//! small `Value` tree, lossless `f64` formatting (Rust's shortest
//! round-trip `Display`), and a strict parser used for trace validation.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (integers up to 2^53 survive the f64 round trip).
    Num(f64),
    /// String with escapes resolved.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it survives the f64 round
    /// trip without truncation (JSON integers up to 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Serialize this value as a compact JSON document. Numbers use the
    /// same shortest round-trip formatting as [`write_f64`], so
    /// `parse(v.to_json()) == v` for any finite tree.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append this value's JSON encoding to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_f64(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
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

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Append a JSON string literal (with escaping) to `out`. Runs of bytes
/// that need no escape are copied as one slice.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Every byte escaped here is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Format an `f64` so it parses back bit-identically (shortest
/// round-trip `Display`); non-finite values become `null` per JSON.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Parse a complete JSON document (RFC 8259). Trailing non-whitespace is
/// an error. Time is linear in the input length.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

/// Recursive-descent parser over already-validated UTF-8. It only ever
/// stops on ASCII bytes, so every `pos` it slices at is a char boundary.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
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
            Err(format!(
                "expected '{}' at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// Consume one or more ASCII digits; false if there were none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — checked
    /// here because `f64::from_str` also takes `+1`, `.5`, `1.` and `01`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = |p: &Self| {
            let end = (p.pos + 1).min(p.bytes.len());
            let text = String::from_utf8_lossy(&p.bytes[start..end]);
            format!("invalid number {text:?} at offset {start}")
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad(self)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(bad(self));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(bad(self));
            }
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>().map(Value::Num).map_err(|_| bad(self))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => {
                    return Err(format!(
                        "raw control character in string at offset {}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// Decode the escape at `pos` (which holds the backslash) into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let at = self.pos;
        self.pos += 1;
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
                self.pos += 1;
                let mut code = self.hex4()?;
                // A high surrogate followed by a low one is one scalar.
                if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
                    let resume = self.pos;
                    self.pos += 2;
                    match self.hex4() {
                        Ok(lo) if (0xDC00..0xE000).contains(&lo) => {
                            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                        }
                        _ => self.pos = resume,
                    }
                }
                // A lone surrogate has no scalar value.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                return Ok(());
            }
            _ => return Err(format!("bad escape at offset {at}")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// Four hex digits — exactly four, no sign.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash\\ unicode: ≈ \u{1}";
        let mut enc = String::new();
        write_escaped(&mut enc, original);
        let back = parse(&enc).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn value_writer_round_trips() {
        let v = Value::Obj(vec![
            ("op".into(), Value::Str("query".into())),
            ("n".into(), Value::Num(2.5)),
            ("flags".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("esc".into(), Value::Str("a\"b\nc".into())),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let enc = v.to_json();
        assert_eq!(parse(&enc).unwrap(), v);
        assert!(enc.starts_with("{\"op\":\"query\""), "{enc}");
        assert_eq!(Value::from(3u64).as_u64(), Some(3));
        assert_eq!(Value::Num(2.5).as_u64(), None);
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn rejects_number_with_plus_sign() {
        assert!(parse("+1").is_err());
        assert!(parse("[+1]").is_err());
    }

    #[test]
    fn rejects_number_without_integer_digits() {
        assert!(parse(".5").is_err());
        assert!(parse("-.5").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn rejects_number_with_empty_fraction() {
        assert!(parse("1.").is_err());
        assert!(parse("1.e3").is_err());
    }

    #[test]
    fn rejects_number_with_leading_zero() {
        assert!(parse("01").is_err());
        assert!(parse("[-01]").is_err());
    }

    #[test]
    fn rejects_number_with_empty_exponent() {
        assert!(parse("1e").is_err());
        assert!(parse("1e+").is_err());
        assert!(parse("{\"a\":2E-}").is_err());
    }

    #[test]
    fn accepts_every_rfc_number_form() {
        let cases: [(&str, f64); 9] = [
            ("0", 0.0),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12.5", -12.5),
            ("0.25", 0.25),
            ("1e3", 1e3),
            ("1E+2", 1e2),
            ("25e-1", 2.5),
            ("-0.5E-1", -0.05),
        ];
        for (text, want) in cases {
            let got = parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
    }

    #[test]
    fn rejects_signed_unicode_escape() {
        assert!(parse(r#""\u+12a""#).is_err());
        assert!(parse(r#""\u-12a""#).is_err());
        assert!(parse(r#""\u12g4""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        for b in 0u8..0x20 {
            let doc = format!("\"a{}b\"", char::from(b));
            assert!(parse(&doc).is_err(), "raw U+{b:04X} accepted");
        }
        assert_eq!(parse("\"a\u{7f}b\"").unwrap().as_str(), Some("a\u{7f}b"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // `u(&[..])` spells a JSON string of `\uXXXX` escapes.
        let u = |units: &[&str]| {
            format!(
                "\"{}\"",
                units.iter().map(|h| format!("\\u{h}")).collect::<String>()
            )
        };
        assert_eq!(
            parse(&u(&["d83d", "de00"])).unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert_eq!(
            parse(&u(&["D834", "DD1E"])).unwrap().as_str(),
            Some("\u{1D11E}")
        );
        // Lone or mismatched surrogates have no scalar value.
        assert_eq!(parse(&u(&["d83d"])).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(
            parse(&u(&["de00", "d83d"])).unwrap().as_str(),
            Some("\u{fffd}\u{fffd}")
        );
        assert_eq!(
            parse(&u(&["d83d", "0041"])).unwrap().as_str(),
            Some("\u{fffd}A")
        );
    }

    #[test]
    fn decodes_a_mebibyte_string_in_linear_time() {
        // The shape of a `dump` or `metrics` response: one large string.
        let line = "{\"trace_id\":\"aqp-1\",\"stage\":\"≈ scan\"}\n";
        let text = line.repeat((1 << 20) / line.len() + 1);
        let mut doc = String::from("{\"status\":\"ok\",\"dump\":");
        write_escaped(&mut doc, &text);
        doc.push('}');
        assert!(doc.len() >= 1 << 20);
        let t = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = t.elapsed();
        assert_eq!(v.get("dump").and_then(Value::as_str), Some(text.as_str()));
        // A quadratic decode takes minutes here; linear takes milliseconds.
        assert!(took.as_secs_f64() < 2.0, "1 MiB string took {took:?}");
    }

    #[test]
    fn random_escape_heavy_strings_round_trip() {
        const PIECES: [&str; 13] = [
            "\"", "\\", "\u{1}", "\u{1f}", "\n", "\t", "é", "≈", "😀", "a", "\\\"", "\u{0}", "/",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let len = (next() % 24) as usize;
            let original: String = (0..len).map(|_| PIECES[(next() % 13) as usize]).collect();
            let mut enc = String::new();
            write_escaped(&mut enc, &original);
            assert_eq!(
                parse(&enc).unwrap().as_str(),
                Some(original.as_str()),
                "{enc}"
            );
            // Escaped forms the writer never emits decode the same way.
            let mut alt = String::from("\"");
            for ch in original.chars() {
                match ch {
                    '"' => alt.push_str("\\u0022"),
                    '\\' => alt.push_str("\\u005C"),
                    '/' => alt.push_str("\\/"),
                    c if (c as u32) < 0x20 => alt.push_str(&format!("\\u{:04X}", c as u32)),
                    c if (c as u32) > 0xffff => {
                        let mut units = [0u16; 2];
                        for u in c.encode_utf16(&mut units) {
                            alt.push_str(&format!("\\u{u:04x}"));
                        }
                    }
                    c => alt.push(c),
                }
            }
            alt.push('"');
            assert_eq!(
                parse(&alt).unwrap().as_str(),
                Some(original.as_str()),
                "{alt}"
            );
        }
    }

    #[test]
    fn f64_shortest_display_round_trips() {
        for v in [0.0, 1.5, 0.1, 123456.789, 1e-9, f64::MAX, 2.2250738585072014e-308] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s} -> {back}");
        }
    }
}
