//! JSON text primitives shared by the derive-generated codecs and the
//! `serde_json` shim.
//!
//! * The `write_*` functions append compact JSON straight to an output
//!   `String`: strings copy clean runs in bulk and escape the rest,
//!   integers format into a stack buffer, floats use Rust's shortest
//!   round-trip `{:?}` form (always with a fraction or exponent) and
//!   non-finite floats render as `null`.
//! * [`Reader`] walks JSON text in one pass. Generated
//!   [`Deserialize::read_json`](crate::Deserialize::read_json) impls
//!   drive it token by token — keys come back borrowed from the input,
//!   unknown values are skipped with full syntax checking — and
//!   [`Reader::value`] builds a [`Value`] tree for untyped callers. Both
//!   share the lexer, so every token means the same thing on either
//!   path, and both cap nesting at [`MAX_DEPTH`] levels.

use crate::{DeError, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting a [`Reader`] accepts; deeper documents
/// are an error (each level recurses once, so an unbounded document
/// could overflow the stack). Matches upstream serde_json's default
/// recursion limit.
pub const MAX_DEPTH: usize = 128;

// ----------------------------------------------------------------- writer

/// Append `s` as a JSON string literal.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` ends on a char boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append a float: shortest round-trip form, `null` when non-finite.
pub fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Append an unsigned integer.
pub fn write_u64(x: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = x;
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    // Only ASCII digits were written.
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// Append a signed integer.
pub fn write_i64(x: i64, out: &mut String) {
    if x < 0 {
        out.push('-');
    }
    write_u64(x.unsigned_abs(), out);
}

/// Append a [`Value`] tree as compact JSON.
pub fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(x) => write_i64(*x, out),
        Value::U64(x) => write_u64(*x, out),
        Value::F64(x) => write_f64(*x, out),
        Value::String(s) => write_str(s, out),
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
                write_str(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

// ----------------------------------------------------------------- reader

/// One-pass cursor over JSON text.
///
/// Errors carry the byte offset they were found at. Callers check for
/// trailing input with [`Reader::finish`].
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

#[cold]
#[inline(never)]
fn err_at(message: impl std::fmt::Display, pos: usize) -> DeError {
    DeError::new(format!("{message} at byte {pos}"))
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err_at(format!("expected `{}`", b as char), self.pos))
        }
    }

    /// Skip trailing whitespace and fail unless the input is exhausted.
    ///
    /// # Errors
    /// Trailing characters after the document.
    pub fn finish(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(err_at("trailing characters", self.pos))
        }
    }

    /// An error for a token of the wrong type at the current position.
    #[cold]
    pub fn mismatch(&self, what: &str) -> DeError {
        err_at(format!("expected {what}"), self.pos)
    }

    fn literal(&mut self, word: &str) -> Result<(), DeError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(err_at(format!("expected `{word}`"), self.pos))
        }
    }

    /// The first byte of the next token, after skipping whitespace.
    pub fn peek_token(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    /// Consume a `null` if one comes next; `false` (consuming only
    /// whitespace) otherwise.
    ///
    /// # Errors
    /// A token starting with `n` that is not `null`.
    pub fn null(&mut self) -> Result<bool, DeError> {
        self.skip_ws();
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Read one complete value into a [`Value`] tree.
    ///
    /// # Errors
    /// Malformed JSON or nesting deeper than [`MAX_DEPTH`].
    pub fn value(&mut self) -> Result<Value, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                let mut first = true;
                while self.next_element(&mut first)? {
                    let item = self.value()?;
                    // One slot for the first element rather than the
                    // default four: a nested one-element array then
                    // costs one `Value` per level, keeping allocation
                    // proportional to the input.
                    items.reserve_exact(usize::from(items.is_empty()));
                    items.push(item);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                let mut first = true;
                while let Some(key) = self.next_key(&mut first)? {
                    let value = self.value()?;
                    pairs.reserve_exact(usize::from(pairs.is_empty()));
                    pairs.push((key.into_owned(), value));
                }
                Ok(Value::Object(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(err_at(
                format!("unexpected character `{}`", c as char),
                self.pos,
            )),
            None => Err(err_at("unexpected end of input", self.pos)),
        }
    }

    /// Skip one complete value, checking its syntax as strictly as
    /// [`Reader::value`] would.
    ///
    /// # Errors
    /// As [`Reader::value`].
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.str_cow().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_element(&mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.next_key(&mut first)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.value().map(drop),
        }
    }

    fn enter(&mut self, open: u8) -> Result<(), DeError> {
        if self.depth == MAX_DEPTH {
            return Err(err_at(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.expect(open)?;
        self.depth += 1;
        Ok(())
    }

    /// Open an array.
    ///
    /// # Errors
    /// The next token is not `[`, or the array would nest too deep.
    pub fn begin_array(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            return Err(self.mismatch("an array"));
        }
        self.enter(b'[')
    }

    /// Advance to the next element of an array opened by
    /// [`Reader::begin_array`]: `true` when one follows, `false` once
    /// the closing `]` is consumed. `first` tracks the separator and
    /// must start out `true`.
    ///
    /// # Errors
    /// Neither `,` nor `]` where one is due.
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, DeError> {
        self.skip_ws();
        if std::mem::take(first) {
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            return Ok(true);
        }
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(err_at("expected `,` or `]`", self.pos)),
        }
    }

    /// Open an object.
    ///
    /// # Errors
    /// The next token is not `{`, or the object would nest too deep.
    pub fn begin_object(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.mismatch("a map"));
        }
        self.enter(b'{')
    }

    /// Read the next key of an object opened by
    /// [`Reader::begin_object`] together with its `:`, leaving the
    /// reader at the entry's value; `None` once the closing `}` is
    /// consumed. The key borrows from the input unless it contains
    /// escapes. `first` must start out `true`.
    ///
    /// # Errors
    /// A malformed key or separator.
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, DeError> {
        self.skip_ws();
        if std::mem::take(first) {
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
        } else {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(None);
                }
                _ => return Err(err_at("expected `,` or `}`", self.pos)),
            }
        }
        let key = self.str_cow()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Read a string token into an owned `String`.
    ///
    /// # Errors
    /// The next token is not a well-formed string.
    pub(crate) fn string(&mut self) -> Result<String, DeError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.mismatch("a string"));
        }
        self.str_cow().map(Cow::into_owned)
    }

    /// Read a string token, borrowing from the input when it has no
    /// escapes.
    ///
    /// # Errors
    /// The next token is not a well-formed string.
    pub fn str_cow(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            self.pos += self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.src.len() - start);
            // Runs end at ASCII bytes, so these are char boundaries.
            let run = &self.src[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.escape(s)?;
                }
                Some(_) => return Err(err_at("control character in string", self.pos)),
                None => return Err(err_at("unterminated string", self.pos)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), DeError> {
        let c = self
            .peek()
            .ok_or_else(|| err_at("unterminated escape", self.pos))?;
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
                            return Err(err_at("invalid low surrogate", self.pos));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(err_at("unpaired surrogate", self.pos));
                    }
                } else {
                    hi
                };
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| err_at("invalid unicode escape", self.pos))?,
                );
            }
            other => {
                return Err(err_at(
                    format!("invalid escape `\\{}`", other as char),
                    self.pos,
                ))
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| err_at("truncated \\u escape", self.pos))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(err_at("invalid hex digit", self.pos)),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Read a number token: `I64` when it fits, then `U64`, else `F64`
    /// (any fraction or exponent makes it a float).
    ///
    /// # Errors
    /// The next token is not a well-formed number.
    fn number(&mut self) -> Result<Value, DeError> {
        self.skip_ws();
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
        let text = &self.src[start..self.pos];
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
            .map_err(|_| err_at(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn integers_format_like_to_string() {
        for x in [0u64, 7, 10, 99, 1_000_000, u64::MAX] {
            assert_eq!(written(|o| write_u64(x, o)), x.to_string());
        }
        for x in [0i64, -1, 42, i64::MIN, i64::MAX] {
            assert_eq!(written(|o| write_i64(x, o)), x.to_string());
        }
    }

    #[test]
    fn strings_escape_like_the_char_writer() {
        let s = "a\"b\\c\nd\re\tf\u{08}g\u{0c}h\u{01}\u{1f}\u{7f}é😀";
        assert_eq!(
            written(|o| write_str(s, o)),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001\\u001f\u{7f}é😀\""
        );
        assert_eq!(written(|o| write_str("", o)), "\"\"");
    }

    #[test]
    fn keys_borrow_unless_escaped() {
        let mut r = Reader::new(r#"{"plain": 1, "esc\u0061ped": 2}"#);
        r.begin_object().unwrap();
        let mut first = true;
        let k = r.next_key(&mut first).unwrap().unwrap();
        assert!(matches!(k, Cow::Borrowed("plain")));
        r.skip_value().unwrap();
        let k = r.next_key(&mut first).unwrap().unwrap();
        assert_eq!(k, "escaped");
        assert!(matches!(k, Cow::Owned(_)));
        r.skip_value().unwrap();
        assert!(r.next_key(&mut first).unwrap().is_none());
        r.finish().unwrap();
    }

    #[test]
    fn skipping_checks_syntax() {
        for bad in [
            "[1,]",
            "{\"a\" 1}",
            "\"\\x\"",
            "1-2",
            "tru",
            "[",
            "{\"a\":}",
        ] {
            assert!(Reader::new(bad).skip_value().is_err(), "{bad:?}");
        }
        let mut r = Reader::new(" [1, {\"a\": [true, null, \"x\"]}, -2.5e3] ");
        r.skip_value().unwrap();
        r.finish().unwrap();
    }
}
