//! Typed, nullable column storage.

use crate::error::{FrameError, Result};
use crate::value::{DType, Value};

/// The physical storage backing a [`Column`], structure-of-arrays style.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit floats.
    Float(Vec<f64>),
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// UTF-8 strings.
    Str(Vec<String>),
}

impl ColumnData {
    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Float(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dtype of this storage.
    pub fn dtype(&self) -> DType {
        match self {
            ColumnData::Float(_) => DType::Float,
            ColumnData::Int(_) => DType::Int,
            ColumnData::Bool(_) => DType::Bool,
            ColumnData::Str(_) => DType::Str,
        }
    }
}

/// A named, typed, optionally-nullable column.
///
/// Nulls are tracked with a validity mask (`true` = present). A column with
/// no mask is fully valid; masks are only allocated when a null appears,
/// which keeps the common all-valid case allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
    /// `None` means every row is valid.
    validity: Option<Vec<bool>>,
}

impl Column {
    /// Build a fully-valid column from raw storage.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
            validity: None,
        }
    }

    /// Build a column with an explicit validity mask.
    ///
    /// # Errors
    /// Returns [`FrameError::LengthMismatch`] if the mask length differs
    /// from the data length.
    pub fn with_validity(
        name: impl Into<String>,
        data: ColumnData,
        validity: Vec<bool>,
    ) -> Result<Self> {
        let name = name.into();
        if validity.len() != data.len() {
            return Err(FrameError::LengthMismatch {
                column: name,
                expected: data.len(),
                actual: validity.len(),
            });
        }
        let validity = if validity.iter().all(|&v| v) {
            None
        } else {
            Some(validity)
        };
        Ok(Column {
            name,
            data,
            validity,
        })
    }

    /// Fully-valid float column.
    pub fn from_f64(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column::new(name, ColumnData::Float(values))
    }

    /// Fully-valid integer column.
    pub fn from_i64(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::new(name, ColumnData::Int(values))
    }

    /// Fully-valid boolean column.
    pub fn from_bool(name: impl Into<String>, values: Vec<bool>) -> Self {
        Column::new(name, ColumnData::Bool(values))
    }

    /// Fully-valid string column.
    pub fn from_str_values<S: Into<String>>(name: impl Into<String>, values: Vec<S>) -> Self {
        Column::new(
            name,
            ColumnData::Str(values.into_iter().map(Into::into).collect()),
        )
    }

    /// Nullable float column: `None` entries become nulls (stored as 0.0
    /// behind the mask).
    pub fn from_f64_opt(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        let validity: Vec<bool> = values.iter().map(Option::is_some).collect();
        let data: Vec<f64> = values.into_iter().map(|v| v.unwrap_or(0.0)).collect();
        // with_validity cannot fail here: lengths match by construction.
        Column::with_validity(name, ColumnData::Float(data), validity)
            .expect("lengths match by construction")
    }

    /// Nullable integer column.
    pub fn from_i64_opt(name: impl Into<String>, values: Vec<Option<i64>>) -> Self {
        let validity: Vec<bool> = values.iter().map(Option::is_some).collect();
        let data: Vec<i64> = values.into_iter().map(|v| v.unwrap_or(0)).collect();
        Column::with_validity(name, ColumnData::Int(data), validity)
            .expect("lengths match by construction")
    }

    /// Build a column from dynamically-typed values, unifying the dtype.
    ///
    /// Type unification: any float present promotes ints to float; mixed
    /// string/numeric is an error. All-null input produces a float column of
    /// nulls.
    ///
    /// # Errors
    /// Returns [`FrameError::TypeMismatch`] on incompatible value types.
    pub fn from_values(name: impl Into<String>, values: &[Value]) -> Result<Self> {
        let name = name.into();
        let mut dtype: Option<DType> = None;
        for v in values {
            let Some(d) = v.dtype() else { continue };
            dtype = Some(match (dtype, d) {
                (None, d) => d,
                (Some(cur), d) if cur == d => cur,
                (Some(DType::Int), DType::Float) | (Some(DType::Float), DType::Int) => DType::Float,
                (Some(cur), d) => {
                    return Err(FrameError::TypeMismatch {
                        column: name,
                        expected: cur.name(),
                        actual: d.name(),
                    })
                }
            });
        }
        let dtype = dtype.unwrap_or(DType::Float);
        let validity: Vec<bool> = values.iter().map(|v| !v.is_null()).collect();
        let data = match dtype {
            DType::Float => {
                ColumnData::Float(values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect())
            }
            DType::Int => ColumnData::Int(values.iter().map(|v| v.as_i64().unwrap_or(0)).collect()),
            DType::Bool => ColumnData::Bool(
                values
                    .iter()
                    .map(|v| v.as_bool().unwrap_or(false))
                    .collect(),
            ),
            DType::Str => ColumnData::Str(
                values
                    .iter()
                    .map(|v| v.as_str().unwrap_or("").to_owned())
                    .collect(),
            ),
        };
        Column::with_validity(name, data, validity)
    }

    /// The column's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The column's dtype.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Borrow the raw storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether row `i` holds a non-null value. Out-of-range rows are invalid.
    pub fn is_valid(&self, i: usize) -> bool {
        if i >= self.len() {
            return false;
        }
        self.validity.as_ref().is_none_or(|m| m[i])
    }

    /// Number of null entries.
    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&v| !v).count())
    }

    /// Fetch row `i` as a dynamic [`Value`] (nulls become [`Value::Null`]).
    ///
    /// # Errors
    /// Returns [`FrameError::RowOutOfBounds`] when `i >= len`.
    pub fn get(&self, i: usize) -> Result<Value> {
        if i >= self.len() {
            return Err(FrameError::RowOutOfBounds {
                row: i,
                n_rows: self.len(),
            });
        }
        if !self.is_valid(i) {
            return Ok(Value::Null);
        }
        Ok(match &self.data {
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
        })
    }

    /// Borrow float storage, requiring dtype `Float` and no nulls.
    ///
    /// # Errors
    /// [`FrameError::TypeMismatch`] on wrong dtype or any null present.
    pub fn f64_values(&self) -> Result<&[f64]> {
        if self.null_count() > 0 {
            return Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "f64 without nulls",
                actual: "nullable",
            });
        }
        match &self.data {
            ColumnData::Float(v) => Ok(v),
            other => Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "f64",
                actual: other.dtype().name(),
            }),
        }
    }

    /// Borrow integer storage (dtype `Int`, no nulls).
    ///
    /// # Errors
    /// [`FrameError::TypeMismatch`] on wrong dtype or any null present.
    pub fn i64_values(&self) -> Result<&[i64]> {
        if self.null_count() > 0 {
            return Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "i64 without nulls",
                actual: "nullable",
            });
        }
        match &self.data {
            ColumnData::Int(v) => Ok(v),
            other => Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "i64",
                actual: other.dtype().name(),
            }),
        }
    }

    /// Borrow boolean storage (dtype `Bool`, no nulls).
    ///
    /// # Errors
    /// [`FrameError::TypeMismatch`] on wrong dtype or any null present.
    pub fn bool_values(&self) -> Result<&[bool]> {
        if self.null_count() > 0 {
            return Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "bool without nulls",
                actual: "nullable",
            });
        }
        match &self.data {
            ColumnData::Bool(v) => Ok(v),
            other => Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "bool",
                actual: other.dtype().name(),
            }),
        }
    }

    /// Borrow string storage (dtype `Str`, no nulls).
    ///
    /// # Errors
    /// [`FrameError::TypeMismatch`] on wrong dtype or any null present.
    pub fn str_values(&self) -> Result<&[String]> {
        if self.null_count() > 0 {
            return Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "str without nulls",
                actual: "nullable",
            });
        }
        match &self.data {
            ColumnData::Str(v) => Ok(v),
            other => Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "str",
                actual: other.dtype().name(),
            }),
        }
    }

    /// Materialize the column as `f64`s, coercing ints and bools.
    /// Nulls become `NaN`.
    ///
    /// # Errors
    /// [`FrameError::TypeMismatch`] for string columns.
    pub fn to_f64_lossy(&self) -> Result<Vec<f64>> {
        let out: Vec<f64> = match &self.data {
            ColumnData::Float(v) => v.clone(),
            ColumnData::Int(v) => v.iter().map(|&x| x as f64).collect(),
            ColumnData::Bool(v) => v.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
            ColumnData::Str(_) => {
                return Err(FrameError::TypeMismatch {
                    column: self.name.clone(),
                    expected: "numeric",
                    actual: "str",
                })
            }
        };
        Ok(match &self.validity {
            None => out,
            Some(mask) => out
                .into_iter()
                .zip(mask)
                .map(|(x, &ok)| if ok { x } else { f64::NAN })
                .collect(),
        })
    }

    /// Cast the column to `Float` dtype, coercing ints/bools and preserving
    /// the validity mask. Strings parse with `str::parse::<f64>`; failures
    /// become nulls.
    pub fn cast_float(&self) -> Column {
        match &self.data {
            ColumnData::Float(_) => self.clone(),
            ColumnData::Int(v) => Column {
                name: self.name.clone(),
                data: ColumnData::Float(v.iter().map(|&x| x as f64).collect()),
                validity: self.validity.clone(),
            },
            ColumnData::Bool(v) => Column {
                name: self.name.clone(),
                data: ColumnData::Float(v.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect()),
                validity: self.validity.clone(),
            },
            ColumnData::Str(v) => {
                let mut validity = vec![true; v.len()];
                let data: Vec<f64> = v
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        if !self.is_valid(i) {
                            validity[i] = false;
                            return 0.0;
                        }
                        match s.trim().parse::<f64>() {
                            Ok(x) => x,
                            Err(_) => {
                                validity[i] = false;
                                0.0
                            }
                        }
                    })
                    .collect();
                Column::with_validity(self.name.clone(), ColumnData::Float(data), validity)
                    .expect("lengths match by construction")
            }
        }
    }

    /// Select rows by index, in order (may repeat or reorder rows).
    ///
    /// # Errors
    /// [`FrameError::RowOutOfBounds`] if any index is out of range.
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        let n = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
            return Err(FrameError::RowOutOfBounds {
                row: bad,
                n_rows: n,
            });
        }
        let data = match &self.data {
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(indices.iter().map(|&i| v[i].clone()).collect()),
        };
        let validity = self
            .validity
            .as_ref()
            .map(|m| indices.iter().map(|&i| m[i]).collect::<Vec<bool>>());
        Ok(Column {
            name: self.name.clone(),
            data,
            validity: validity.filter(|m| m.iter().any(|&v| !v)),
        })
    }

    /// Keep rows where `mask[i]` is true.
    ///
    /// # Errors
    /// [`FrameError::LengthMismatch`] if the mask length differs.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(FrameError::LengthMismatch {
                column: self.name.clone(),
                expected: self.len(),
                actual: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        self.take(&indices)
    }

    /// Contiguous row slice `[start, end)`, clamped to the column length.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        let n = self.len();
        let start = start.min(n);
        let end = end.clamp(start, n);
        let indices: Vec<usize> = (start..end).collect();
        self.take(&indices).expect("slice indices are in range")
    }

    /// Iterate over values (nulls yield [`Value::Null`]).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index in range"))
    }

    /// Replace the value at row `i`.
    ///
    /// # Errors
    /// [`FrameError::RowOutOfBounds`] / [`FrameError::TypeMismatch`] if the
    /// value's dtype is incompatible with the column's.
    pub fn set(&mut self, i: usize, value: Value) -> Result<()> {
        if i >= self.len() {
            return Err(FrameError::RowOutOfBounds {
                row: i,
                n_rows: self.len(),
            });
        }
        if value.is_null() {
            let n = self.len();
            self.validity.get_or_insert_with(|| vec![true; n])[i] = false;
            return Ok(());
        }
        let type_err = |col: &Column, actual: &'static str| FrameError::TypeMismatch {
            column: col.name.clone(),
            expected: col.dtype().name(),
            actual,
        };
        match (&mut self.data, &value) {
            (ColumnData::Float(v), _) => match value.as_f64() {
                Some(x) => v[i] = x,
                None => return Err(type_err(self, "str")),
            },
            (ColumnData::Int(v), Value::Int(x)) => v[i] = *x,
            (ColumnData::Bool(v), Value::Bool(b)) => v[i] = *b,
            (ColumnData::Str(v), Value::Str(s)) => v[i] = s.clone(),
            (_, other) => {
                let actual = other.dtype().map_or("null", DType::name);
                return Err(type_err(self, actual));
            }
        }
        if let Some(mask) = &mut self.validity {
            mask[i] = true;
            if mask.iter().all(|&v| v) {
                self.validity = None;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_construction_and_access() {
        let c = Column::from_f64("x", vec![1.0, 2.0, 3.0]);
        assert_eq!(c.name(), "x");
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.null_count(), 0);
        assert_eq!(c.get(1).unwrap(), Value::Float(2.0));
        assert!(c.get(3).is_err());
    }

    #[test]
    fn nullable_columns_track_validity() {
        let c = Column::from_f64_opt("x", vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(c.null_count(), 1);
        assert!(c.is_valid(0));
        assert!(!c.is_valid(1));
        assert_eq!(c.get(1).unwrap(), Value::Null);
        assert!(c.f64_values().is_err(), "nullable columns refuse raw view");
        let lossy = c.to_f64_lossy().unwrap();
        assert!(lossy[1].is_nan());
        assert_eq!(lossy[0], 1.0);
    }

    #[test]
    fn all_valid_mask_is_dropped() {
        let c = Column::with_validity("x", ColumnData::Int(vec![1, 2]), vec![true, true]).unwrap();
        assert_eq!(c.null_count(), 0);
        assert!(c.i64_values().is_ok());
    }

    #[test]
    fn with_validity_rejects_bad_length() {
        let err = Column::with_validity("x", ColumnData::Int(vec![1, 2]), vec![true]);
        assert!(matches!(err, Err(FrameError::LengthMismatch { .. })));
    }

    #[test]
    fn from_values_unifies_int_and_float() {
        let c = Column::from_values("x", &[Value::Int(1), Value::Float(2.5), Value::Null]).unwrap();
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0).unwrap(), Value::Float(1.0));
    }

    #[test]
    fn from_values_rejects_mixed_str_numeric() {
        let err = Column::from_values("x", &[Value::Int(1), Value::Str("a".into())]);
        assert!(matches!(err, Err(FrameError::TypeMismatch { .. })));
    }

    #[test]
    fn from_values_all_null_defaults_to_float() {
        let c = Column::from_values("x", &[Value::Null, Value::Null]).unwrap();
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = Column::from_i64("x", vec![10, 20, 30]);
        let t = c.take(&[2, 0, 0]).unwrap();
        assert_eq!(t.i64_values().unwrap(), &[30, 10, 10]);
        assert!(c.take(&[5]).is_err());
    }

    #[test]
    fn take_preserves_nulls() {
        let c = Column::from_i64_opt("x", vec![Some(1), None, Some(3)]);
        let t = c.take(&[1, 2]).unwrap();
        assert_eq!(t.null_count(), 1);
        assert!(!t.is_valid(0));
        // Taking only valid rows drops the mask entirely.
        let t2 = c.take(&[0, 2]).unwrap();
        assert_eq!(t2.null_count(), 0);
    }

    #[test]
    fn filter_with_mask() {
        let c = Column::from_f64("x", vec![1.0, 2.0, 3.0, 4.0]);
        let f = c.filter(&[true, false, true, false]).unwrap();
        assert_eq!(f.f64_values().unwrap(), &[1.0, 3.0]);
        assert!(c.filter(&[true]).is_err());
    }

    #[test]
    fn slice_clamps_bounds() {
        let c = Column::from_f64("x", vec![1.0, 2.0, 3.0]);
        assert_eq!(c.slice(1, 3).f64_values().unwrap(), &[2.0, 3.0]);
        assert_eq!(c.slice(0, 99).len(), 3);
        assert_eq!(c.slice(5, 9).len(), 0);
        assert_eq!(c.slice(2, 1).len(), 0);
    }

    #[test]
    fn cast_float_from_each_dtype() {
        assert_eq!(
            Column::from_i64("x", vec![1, 2])
                .cast_float()
                .f64_values()
                .unwrap(),
            &[1.0, 2.0]
        );
        assert_eq!(
            Column::from_bool("x", vec![true, false])
                .cast_float()
                .f64_values()
                .unwrap(),
            &[1.0, 0.0]
        );
        let s = Column::from_str_values("x", vec!["1.5", "oops", " 2 "]);
        let c = s.cast_float();
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0).unwrap(), Value::Float(1.5));
        assert_eq!(c.get(2).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn set_updates_values_and_validity() {
        let mut c = Column::from_f64("x", vec![1.0, 2.0]);
        c.set(0, Value::Float(9.0)).unwrap();
        assert_eq!(c.get(0).unwrap(), Value::Float(9.0));
        c.set(1, Value::Null).unwrap();
        assert_eq!(c.null_count(), 1);
        c.set(1, Value::Int(5)).unwrap();
        assert_eq!(c.null_count(), 0, "mask dropped once fully valid");
        assert_eq!(c.get(1).unwrap(), Value::Float(5.0));
        assert!(c.set(9, Value::Float(0.0)).is_err());
        assert!(c.set(0, Value::Str("no".into())).is_err());
    }

    #[test]
    fn set_type_errors_for_non_float_columns() {
        let mut c = Column::from_i64("x", vec![1]);
        assert!(c.set(0, Value::Float(1.5)).is_err());
        let mut c = Column::from_str_values("s", vec!["a"]);
        assert!(c.set(0, Value::Int(1)).is_err());
        c.set(0, Value::Str("b".into())).unwrap();
        assert_eq!(c.get(0).unwrap(), Value::Str("b".into()));
    }

    #[test]
    fn iter_yields_all_values() {
        let c = Column::from_i64_opt("x", vec![Some(1), None]);
        let vals: Vec<Value> = c.iter().collect();
        assert_eq!(vals, vec![Value::Int(1), Value::Null]);
    }

    #[test]
    fn typed_view_errors_name_the_column() {
        let c = Column::from_str_values("label", vec!["a"]);
        match c.f64_values() {
            Err(FrameError::TypeMismatch { column, .. }) => assert_eq!(column, "label"),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
