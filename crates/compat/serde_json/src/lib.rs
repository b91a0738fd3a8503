//! Offline stand-in for `serde_json`: renders the serde shim's
//! [`Value`] tree as JSON text, and parses JSON text back into a [`Value`]
//! tree (the subset the `bench-diff` report comparator needs).

pub use serde::Value;

use serde::Serialize;

/// Error type kept for signature compatibility; serialization through the
/// shim's value model cannot actually fail.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Convenience result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Deepest array/object nesting [`from_str`] accepts (upstream serde_json's
/// default recursion limit). The parser recurses once per level, so the
/// limit keeps hostile input like 200 000 `[` from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree.
///
/// Numbers parse as `UInt`/`Int` when integral and in range, `Float`
/// otherwise, matching what the serializer emits.
///
/// # Errors
///
/// Returns a descriptive [`Error`] on malformed input, trailing data, or
/// nesting deeper than [`MAX_DEPTH`].
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object one nesting level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the shim's
                            // serializer (it emits raw UTF-8); reject them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans are ASCII");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

/// Serializes a value as compact JSON.
///
/// Serializing a tree that already is a [`Value`] renders it by reference
/// (no deep copy — see [`Serialize::to_value_cow`]), so protocol envelopes
/// assembled as `Value`s cost nothing extra to print.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value_cow(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value as human-readable, two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value_cow(), &mut out, Some(2), 0);
    Ok(out)
}

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
}

/// JSON has no NaN/Infinity; mirror serde_json by emitting `null`.
fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        if f == f.trunc() && f.abs() < 1e15 {
            // Keep integral floats readable ("3.0" rather than "3").
            out.push_str(&format!("{f:.1}"));
        } else {
            out.push_str(&f.to_string());
        }
    } else {
        out.push_str("null");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".into(), Value::Str("x\"y".into())),
        ]);
        assert_eq!(
            to_string(&ValueWrap(v)).unwrap(),
            r#"{"a":1,"b":[true,null],"c":"x\"y"}"#
        );
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = Value::Object(vec![("a".into(), Value::UInt(1))]);
        let text = to_string_pretty(&ValueWrap(v)).unwrap();
        assert_eq!(text, "{\n  \"a\": 1\n}");
    }

    #[test]
    fn floats_render_readably() {
        let mut out = String::new();
        write_float(3.0, &mut out);
        assert_eq!(out, "3.0");
        out.clear();
        write_float(0.25, &mut out);
        assert_eq!(out, "0.25");
        out.clear();
        write_float(f64::NAN, &mut out);
        assert_eq!(out, "null");
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("fig10 \"quick\"\n".into())),
            ("count".into(), Value::UInt(34)),
            ("delta".into(), Value::Int(-3)),
            ("ratio".into(), Value::Float(0.375)),
            (
                "flags".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("empty_arr".into(), Value::Array(vec![])),
            ("empty_obj".into(), Value::Object(vec![])),
        ]);
        for text in [
            to_string(&ValueWrap(v.clone())).unwrap(),
            to_string_pretty(&ValueWrap(v.clone())).unwrap(),
        ] {
            let parsed = from_str(&text).unwrap();
            // Floats serialized as "3.0"-style parse back as floats; the
            // original integral variants survive untouched.
            assert_eq!(parsed, v);
        }
    }

    #[test]
    fn parse_numbers_pick_natural_variants() {
        assert_eq!(from_str("7").unwrap(), Value::UInt(7));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_str("7.5").unwrap(), Value::Float(7.5));
        assert_eq!(from_str("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(from_str("  42  ").unwrap(), Value::UInt(42));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\\x\"",
            "{1: 2}",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str(&nest(MAX_DEPTH)).is_ok());
        let err = from_str(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(from_str(&objects).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str(&objects).is_err());
        // Hostile depth errors instead of overflowing the stack.
        assert!(from_str(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn value_accessors_navigate_parsed_trees() {
        let v = from_str(r#"{"rows":[{"latency":120,"s":"Line"}],"wall":1.5}"#).unwrap();
        let rows = v.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows[0].get("latency").and_then(Value::as_u64), Some(120));
        assert_eq!(rows[0].get("s").and_then(Value::as_str), Some("Line"));
        assert_eq!(v.get("wall").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
    }

    /// Test helper: a pre-built value that serializes to itself.
    struct ValueWrap(Value);
    impl Serialize for ValueWrap {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
}
