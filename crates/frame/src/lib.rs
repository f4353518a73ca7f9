//! # whatif-frame
//!
//! A from-scratch, in-memory **columnar dataframe** substrate for the
//! SystemD what-if analysis reproduction (CIDR 2022).
//!
//! The paper's backend loads business datasets, perturbs driver columns
//! and re-evaluates models over them interactively. This crate provides
//! the tabular layer those operations run on:
//!
//! * [`Frame`] — a named collection of equal-length [`Column`]s.
//! * [`Column`] — typed storage (`f64`, `i64`, `bool`, `String`) with an
//!   optional validity mask for nulls.
//! * [`csv`] — RFC-4180-ish CSV reader/writer with type inference.
//! * [`Frame::numeric_matrix`] — the row-major hand-off to the model layer.
//!
//! ## Quick example
//!
//! ```
//! use whatif_frame::csv::{parse_csv, write_csv};
//! use whatif_frame::{Frame, Column, Value};
//!
//! let mut f = Frame::new();
//! f.push_column(Column::from_f64("spend", vec![12.5, 20.0, 30.0])).unwrap();
//! f.push_column(Column::from_i64("sales", vec![100, 180, 260])).unwrap();
//!
//! // Row-major features for the model layer; ints coerce to floats.
//! let m = f.numeric_matrix(&["spend", "sales"]).unwrap();
//! assert_eq!(m, vec![12.5, 100.0, 20.0, 180.0, 30.0, 260.0]);
//!
//! // CSV round trip keeps names, types and values.
//! let back = parse_csv(&write_csv(&f)).unwrap();
//! assert_eq!(back, f);
//! assert_eq!(back.column("sales").unwrap().get(2).unwrap(), Value::Int(260));
//!
//! // Projection and row windows, as the table view uses them.
//! assert_eq!(f.select(&["sales"]).unwrap().head(2).n_rows(), 2);
//! ```

pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub mod value;

pub use column::{Column, ColumnData};
pub use error::{FrameError, Result};
pub use frame::Frame;
pub use value::{DType, Value};
