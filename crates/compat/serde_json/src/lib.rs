//! Offline `serde_json` shim: JSON text over the vendored serde facade's
//! [`Value`] data model.
//!
//! Matches the serde_json conventions the workspace relies on:
//!
//! * floats always render with a fraction or exponent (`3.0`, not `3`),
//!   via Rust's shortest-roundtrip `{:?}` formatting,
//! * non-finite floats render as `null` (JSON has no NaN/inf),
//! * `from_str` requires the whole input to be one JSON document,
//! * errors carry a byte offset for malformed documents,
//! * arrays and objects nest at most [`MAX_DEPTH`] levels deep (the
//!   parser recurses once per level, so an unbounded document could
//!   overflow the stack and abort the process).

pub use serde::Value;

/// Deepest array/object nesting [`parse`] accepts; deeper documents are
/// a parse error. Matches upstream serde_json's default recursion limit.
pub const MAX_DEPTH: usize = 128;

/// Encode or decode failure.
#[derive(Clone, Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }

    fn at(message: impl std::fmt::Display, pos: usize) -> Error {
        Error::new(format!("{message} at byte {pos}"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Serialize a value to compact JSON.
///
/// # Errors
/// Never fails for tree-shaped data; the `Result` mirrors serde_json's
/// signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out);
    Ok(out)
}

/// Serialize a value to 2-space-indented JSON.
///
/// # Errors
/// Never fails for tree-shaped data.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&value.serialize(), &mut out, 0);
    Ok(out)
}

/// Convert a value into the facade's [`Value`] tree.
///
/// # Errors
/// Never fails; mirrors serde_json's signature.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.serialize())
}

/// Rebuild a typed value from a [`Value`] tree.
///
/// # Errors
/// Propagates facade deserialization errors.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    T::deserialize(value).map_err(|e| Error::new(e.to_string()))
}

/// Parse one JSON document into a typed value.
///
/// # Errors
/// Malformed JSON, trailing garbage, or a shape mismatch with `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    from_value(&value)
}

/// Parse one JSON document into a raw [`Value`].
///
/// # Errors
/// Malformed JSON, trailing garbage, or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at("trailing characters", p.pos));
    }
    Ok(v)
}

// ----------------------------------------------------------------- writer

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(*x, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(v: &Value, out: &mut String, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // `{:?}` is Rust's shortest roundtrip form and always keeps a
    // fraction or exponent for floats (`3.0`, `1e300`), like serde_json.
    out.push_str(&format!("{x:?}"));
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::at(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(Error::at(
                format!("unexpected character `{}`", c as char),
                self.pos,
            )),
            None => Err(Error::at("unexpected end of input", self.pos)),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::at(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a clean UTF-8 run without escapes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::at("invalid UTF-8", start))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(Error::at("control character in string", self.pos)),
                None => return Err(Error::at("unterminated string", self.pos)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = self
            .peek()
            .ok_or_else(|| Error::at("unterminated escape", self.pos))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect a low surrogate escape next.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(Error::at("invalid low surrogate", self.pos));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(Error::at("unpaired surrogate", self.pos));
                    }
                } else {
                    hi
                };
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| Error::at("invalid unicode escape", self.pos))?,
                );
            }
            other => {
                return Err(Error::at(
                    format!("invalid escape `\\{}`", other as char),
                    self.pos,
                ))
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| Error::at("truncated \\u escape", self.pos))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(Error::at("invalid hex digit", self.pos)),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::at("invalid number", start))?;
        if !is_float {
            if let Ok(x) = text.parse::<i64>() {
                return Ok(Value::I64(x));
            }
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Value::U64(x));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::at(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for json in [
            "null", "true", "false", "3", "-41", "3.5", "1e300", "\"hi\"",
        ] {
            let v = parse(json).unwrap();
            let back = parse(&to_string(&v).unwrap()).unwrap();
            assert_eq!(v, back, "{json}");
        }
    }

    #[test]
    fn floats_keep_their_dot() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        assert_eq!(parse("3.0").unwrap(), Value::F64(3.0));
        assert_eq!(parse("3").unwrap(), Value::I64(3));
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn nested_structures() {
        let json = r#"{"a": [1, 2.5, "x"], "b": {"c": null}, "d": true}"#;
        let v = parse(json).unwrap();
        let compact = to_string(&v).unwrap();
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn string_escapes() {
        let s = "line\nquote\"backslash\\tab\tüñî";
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        let surrogate: String = from_str(r#""😀""#).unwrap();
        assert_eq!(surrogate, "\u{1F600}");
    }

    #[test]
    fn malformed_documents_error() {
        for bad in ["", "{", "[1,", "tru", "\"open", "{\"a\":}", "1 2", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // Far past the cap, the parser still fails cleanly.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":[".repeat(100_000)).is_err());
    }

    #[test]
    fn typed_entry_points() {
        let v: Vec<u32> = from_str("[1,2,3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(from_str::<Vec<u32>>("[1,-2]").is_err());
        assert_eq!(to_string(&vec![1u32, 2]).unwrap(), "[1,2]");
    }
}
