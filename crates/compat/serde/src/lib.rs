//! Offline `serde` facade.
//!
//! The build environment has no network access, so the workspace vendors
//! a minimal serde replacement. Instead of real serde's
//! serializer/deserializer visitor architecture, the facade is JSON-only
//! and has two typed paths plus an untyped one:
//!
//! * [`Serialize::write_json`] appends compact JSON straight to a
//!   `String` using the writer primitives in [`json`];
//! * [`Deserialize::read_json`] reads a value straight from JSON text
//!   through the one-pass [`json::Reader`], borrowing keys from the
//!   input and allocating only what ends up in the result;
//! * [`Deserialize::deserialize`] rebuilds a value from a parsed
//!   [`Value`] tree. This is the untyped data model (`serde_json::parse`,
//!   [`find_field`]), the path that words decode errors, and the oracle
//!   the typed reader is tested against: `read_json` must accept exactly
//!   what `deserialize` accepts over [`json::Reader::value`], with an
//!   equal result.
//!
//! The derive macros (`#[derive(Serialize, Deserialize)]`) come from the
//! vendored `serde_derive` proc-macro crate, generate all three methods,
//! and follow real serde's wire conventions: structs are maps, enums are
//! externally tagged (`"Variant"` / `{"Variant": content}`),
//! `#[serde(untagged)]` and `#[serde(default)]` behave as in serde
//! proper. The sibling `serde_json` shim provides the text entry points.

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

/// A JSON-shaped dynamic value: the facade's untyped data model.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON number without fraction/exponent).
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered (stable output, linear lookup).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object view (ordered key/value pairs).
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Any-number view, coerced to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(x) => Some(*x as f64),
            Value::U64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer view (floats are rejected, matching serde_json).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(x) => Some(*x),
            Value::U64(x) => i64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// Unsigned integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            Value::I64(x) => u64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// Human-readable kind name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::I64(_) | Value::U64(_) => "an integer",
            Value::F64(_) => "a float",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "a map",
        }
    }
}

/// Ordered-object field lookup used by generated `Deserialize` impls.
pub fn find_field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Deserialization error: a message plus a reverse field path.
#[derive(Clone, Debug)]
pub struct DeError {
    message: String,
    path: Vec<String>,
}

impl DeError {
    /// A bare error message.
    pub fn new(message: String) -> DeError {
        DeError {
            message,
            path: Vec::new(),
        }
    }

    /// "expected X, found Y" error.
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError::new(format!("expected {what}, found {}", got.type_name()))
    }

    /// A required field was absent.
    pub fn missing_field(field: &str, ty: &str) -> DeError {
        DeError::new(format!("missing field `{field}` for {ty}"))
    }

    /// An enum tag matched no variant.
    pub fn unknown_variant(variant: &str, ty: &str) -> DeError {
        DeError::new(format!("unknown variant `{variant}` of {ty}"))
    }

    /// Push a field onto the error path (innermost first).
    pub fn in_field(mut self, field: &str) -> DeError {
        self.path.push(field.to_string());
        self
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            return f.write_str(&self.message);
        }
        let mut path: Vec<&str> = self.path.iter().map(String::as_str).collect();
        path.reverse();
        write!(f, "{}: {}", path.join("."), self.message)
    }
}

impl std::error::Error for DeError {}

/// Write `self` as compact JSON.
pub trait Serialize {
    /// Append the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// Rebuild `Self` from JSON, either from a [`Value`] tree or straight
/// from the text.
pub trait Deserialize: Sized {
    /// Rebuild from a parsed value tree.
    fn deserialize(v: &Value) -> Result<Self, DeError>;

    /// Read one value straight from JSON text.
    ///
    /// Must accept exactly what [`Deserialize::deserialize`] accepts
    /// over [`json::Reader::value`], with an equal result. The default
    /// does just that by buffering the value; derived impls and the
    /// container impls below read token by token instead. Errors carry
    /// no guaranteed wording: callers that report them re-run the
    /// `Value` path for its messages.
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        let v = r.value()?;
        Self::deserialize(&v)
    }
}

// ------------------------------------------------------------ primitives

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::expected("a boolean", v))
    }
}

macro_rules! signed_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                json::write_i64(*self as i64, out);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let x = v.as_i64().ok_or_else(|| DeError::expected("an integer", v))?;
                <$t>::try_from(x).map_err(|_| {
                    DeError::new(format!("integer {x} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
signed_impls!(i8, i16, i32, i64, isize);

macro_rules! unsigned_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                json::write_u64(*self as u64, out);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let x = v.as_u64().ok_or_else(|| {
                    DeError::expected("a non-negative integer", v)
                })?;
                <$t>::try_from(x).map_err(|_| {
                    DeError::new(format!("integer {x} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
unsigned_impls!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        json::write_f64(*self, out);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        // `null` maps to NaN: non-finite floats serialize as null (JSON
        // has no NaN/inf literals), so this keeps such payloads readable.
        if v.is_null() {
            return Ok(f64::NAN);
        }
        v.as_f64().ok_or_else(|| DeError::expected("a number", v))
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        json::write_f64(f64::from(*self), out);
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        f64::deserialize(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::expected("a string", v))
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.string()
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        json::write_str(self, out);
    }
}

impl Deserialize for &'static str {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        // Intentionally leaks the parsed string: this impl exists only
        // for `&'static str` fields in static instrument tables (study
        // questionnaires), which deserialize a handful of times per
        // process at most.
        v.as_str()
            .map(|s| &*Box::leak(s.to_owned().into_boxed_str()))
            .ok_or_else(|| DeError::expected("a string", v))
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        json::write_str(self.encode_utf8(&mut [0; 4]), out);
    }
}

impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::expected("a string", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::new(format!("expected one character, got {s:?}"))),
        }
    }
}

// ------------------------------------------------------------ containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let items = Vec::<T>::deserialize(v)?;
        let got = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| DeError::new(format!("expected a {N}-element array, got {got}")))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let arr = v
            .as_array()
            .ok_or_else(|| DeError::expected("an array", v))?;
        arr.iter().map(Deserialize::deserialize).collect()
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.begin_array()?;
        let mut first = true;
        let mut items = Vec::new();
        while r.next_element(&mut first)? {
            items.push(T::read_json(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        if v.is_null() {
            return Ok(None);
        }
        T::deserialize(v).map(Some)
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            return Ok(None);
        }
        T::read_json(r).map(Some)
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        T::deserialize(v).map(Box::new)
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        T::read_json(r).map(Box::new)
    }
}

macro_rules! tuple_impls {
    ($(($($t:ident : $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                [$(&self.$idx as &dyn Serialize),+].write_json(out);
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let arr = v.as_array().ok_or_else(|| DeError::expected("an array", v))?;
                let n = [$($idx),+].len();
                if arr.len() != n {
                    return Err(DeError::new(format!(
                        "expected a {n}-element array, got {}", arr.len()
                    )));
                }
                Ok(($($t::deserialize(&arr[$idx])?,)+))
            }

            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
                r.begin_array()?;
                let mut first = true;
                let tuple = ($({
                    if !r.next_element(&mut first)? {
                        return Err(r.mismatch("a longer array"));
                    }
                    $t::read_json(r)?
                },)+);
                if r.next_element(&mut first)? {
                    return Err(r.mismatch("a shorter array"));
                }
                Ok(tuple)
            }
        }
    )*};
}
tuple_impls! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        json::write_value(self, out);
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, DeError> {
        r.value()
    }
}

/// Write `(key, value)` pairs as a JSON object, keys rendered through
/// `Display`.
fn write_map<'a, K, V>(pairs: impl Iterator<Item = (&'a K, &'a V)>, out: &mut String)
where
    K: std::fmt::Display + 'a,
    V: Serialize + 'a,
{
    out.push('{');
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&k.to_string(), out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

impl<K, V> Serialize for std::collections::BTreeMap<K, V>
where
    K: std::fmt::Display,
    V: Serialize,
{
    fn write_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::expected("a map", v))?;
        obj.iter()
            .map(|(k, x)| Ok((k.clone(), V::deserialize(x)?)))
            .collect()
    }
}

impl<K, V, S> Serialize for std::collections::HashMap<K, V, S>
where
    K: std::fmt::Display + Ord,
    V: Serialize,
{
    fn write_json(&self, out: &mut String) {
        // Sort keys so hash-map iteration order can't leak into payloads.
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        write_map(pairs.into_iter(), out);
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::expected("a map", v))?;
        obj.iter()
            .map(|(k, x)| Ok((k.clone(), V::deserialize(x)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(x: &T) -> String {
        let mut out = String::new();
        x.write_json(&mut out);
        out
    }

    /// Decode `text` both ways and insist the two paths agree.
    fn decode<T: Deserialize + PartialEq + std::fmt::Debug>(text: &str) -> T {
        let tree = json::Reader::new(text).value().unwrap();
        let via_tree = T::deserialize(&tree).unwrap();
        let mut r = json::Reader::new(text);
        let direct = T::read_json(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(via_tree, direct, "{text}");
        direct
    }

    #[test]
    fn primitive_roundtrips() {
        assert!(decode::<bool>(&json(&true)));
        assert_eq!(decode::<i64>(&json(&-7i64)), -7);
        assert_eq!(decode::<u64>(&json(&u64::MAX)), u64::MAX);
        assert_eq!(decode::<f64>(&json(&1.5f64)), 1.5);
        assert_eq!(decode::<String>(&json("hi")), "hi");
        assert_eq!(json(&3.0f64), "3.0");
        assert_eq!(json(&f64::NAN), "null");
        assert_eq!(json(&'"'), r#""\"""#);
    }

    #[test]
    fn integer_cross_width() {
        // u64 payloads feed i64 fields and vice versa when in range.
        assert_eq!(i64::deserialize(&Value::U64(5)).unwrap(), 5);
        assert_eq!(u64::deserialize(&Value::I64(5)).unwrap(), 5);
        assert!(u64::deserialize(&Value::I64(-1)).is_err());
        assert!(
            i64::deserialize(&Value::F64(5.0)).is_err(),
            "no float truncation"
        );
    }

    #[test]
    fn float_accepts_integers_and_null() {
        assert_eq!(f64::deserialize(&Value::I64(3)).unwrap(), 3.0);
        assert!(f64::deserialize(&Value::Null).unwrap().is_nan());
        assert!(f64::deserialize(&Value::Bool(true)).is_err());
    }

    #[test]
    fn options_and_vecs() {
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::deserialize(&Value::I64(4)).unwrap(), Some(4));
        assert_eq!(decode::<Option<u32>>(" null "), None);
        assert_eq!(json(&None::<u32>), "null");
        let v = vec![1u32, 2, 3];
        assert_eq!(json(&v), "[1,2,3]");
        assert_eq!(decode::<Vec<u32>>(&json(&v)), v);
        assert_eq!(decode::<Vec<Vec<u32>>>("[[], [1]]"), vec![vec![], vec![1]]);
    }

    #[test]
    fn tuples() {
        let t = ("a".to_string(), 2u64);
        assert_eq!(json(&t), r#"["a",2]"#);
        assert_eq!(decode::<(String, u64)>(&json(&t)), t);
        assert!(<(String, u64)>::deserialize(&Value::Array(vec![])).is_err());
        for bad in ["[]", r#"["a"]"#, r#"["a",2,3]"#, r#"[2,"a"]"#] {
            assert!(<(String, u64)>::read_json(&mut json::Reader::new(bad)).is_err());
        }
    }

    #[test]
    fn error_paths_render() {
        let e = DeError::expected("a map", &Value::I64(1))
            .in_field("inner")
            .in_field("outer");
        assert_eq!(
            e.to_string(),
            "outer.inner: expected a map, found an integer"
        );
    }
}
