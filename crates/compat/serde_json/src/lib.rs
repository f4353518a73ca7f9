//! Offline `serde_json` shim: JSON text entry points over the vendored
//! serde facade.
//!
//! Matches the serde_json conventions the workspace relies on:
//!
//! * floats always render with a fraction or exponent (`3.0`, not `3`),
//!   via Rust's shortest-roundtrip `{:?}` formatting,
//! * non-finite floats render as `null` (JSON has no NaN/inf),
//! * `from_str` requires the whole input to be one JSON document,
//! * errors carry a byte offset for malformed documents,
//! * arrays and objects nest at most [`MAX_DEPTH`] levels deep (the
//!   reader recurses once per level, so an unbounded document could
//!   overflow the stack and abort the process).
//!
//! Typed values go straight between text and type: [`to_string`] runs
//! the derive-generated writers and [`from_str`] the generated one-pass
//! readers. The [`Value`] tree ([`parse`], [`from_value`], [`to_value`])
//! serves untyped callers and words every decode error: when the typed
//! reader rejects a document, [`from_str`] re-reads it through the tree
//! so the message is the same either way.

use serde::json::Reader;
pub use serde::json::MAX_DEPTH;
pub use serde::Value;

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
}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error::new(e.to_string())
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
    let mut out = String::with_capacity(512);
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize a value to 2-space-indented JSON.
///
/// # Errors
/// Never fails for tree-shaped data.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&to_value(value)?, &mut out, 0);
    Ok(out)
}

/// Convert a value into the facade's [`Value`] tree (by writing and
/// re-reading its JSON text).
///
/// # Errors
/// Never fails for tree-shaped data; mirrors serde_json's signature.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    parse(&to_string(value)?)
}

/// Rebuild a typed value from a [`Value`] tree.
///
/// # Errors
/// Propagates facade deserialization errors.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    T::deserialize(value).map_err(Error::from)
}

/// Parse one JSON document into a typed value.
///
/// # Errors
/// Malformed JSON, trailing garbage, or a shape mismatch with `T`; the
/// message is the one the [`Value`] path gives.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    if let Some(value) = try_from_str(s) {
        return Ok(value);
    }
    from_value(&parse(s)?)
}

/// Parse one JSON document into a typed value with the typed reader
/// alone: `None` wherever [`from_str`] would fail, without building the
/// error message. For hot paths that answer failures themselves.
pub fn try_from_str<T: serde::Deserialize>(s: &str) -> Option<T> {
    let mut r = Reader::new(s);
    let value = T::read_json(&mut r).ok()?;
    r.finish().ok()?;
    Some(value)
}

/// Parse one JSON document into a raw [`Value`].
///
/// # Errors
/// Malformed JSON, trailing garbage, or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut r = Reader::new(s);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
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
                serde::json::write_str(k, out);
                out.push_str(": ");
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => serde::json::write_value(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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
