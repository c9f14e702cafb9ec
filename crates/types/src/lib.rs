//! # dv-types
//!
//! Shared primitive types for the `datavirt` system — the Rust
//! reproduction of *"An Approach for Automatic Data Virtualization"*
//! (Weng et al., HPDC 2004).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`DataType`] — the scalar types the meta-data description language
//!   can declare for a virtual-table attribute (`char`, `short int`,
//!   `int`, `long int`, `float`, `double`);
//! * [`Value`] — a dynamically-typed scalar cell value with total
//!   ordering and on-disk (little-endian) encode/decode;
//! * [`Schema`] / [`Attribute`] — the virtual relational table schema
//!   (Component I of the meta-data descriptor);
//! * [`Row`] / [`Rows`] / [`Table`] — materialized query results
//!   (rows stored row-major in slabs of at most 64 KiB);
//! * [`ColumnBlock`] / [`Bitmap`] — struct-of-arrays batches and
//!   selection bitmaps, the unit of data flow on the vectorized
//!   execution path;
//! * [`IntervalSet`] — unions of closed numeric intervals, used for
//!   range analysis of `WHERE` clauses and for implicit-attribute
//!   pruning;
//! * [`DvError`] — the error type shared across the workspace.
//!
//! Nothing here knows about files, layouts, SQL or the STORM runtime;
//! those live in the higher crates.

pub mod agg;
pub mod cancel;
pub mod column;
pub mod datatype;
pub mod error;
pub mod interval;
pub mod row;
pub mod schema;
pub mod span;
pub mod value;

pub use agg::{AccCol, AccState, AggBlock, AggFunc, AggTable, GroupKey, MAX_GROUP_COLS};
pub use cancel::{CancelReason, CancelToken};
pub use column::{Bitmap, Column, ColumnBlock, ColumnData, ColumnGen, LazyRun};
pub use datatype::DataType;
pub use error::{DvError, Result};
pub use interval::{Interval, IntervalSet};
pub use row::{Row, Rows, Table};
pub use schema::{Attribute, Schema};
pub use span::Span;
pub use value::Value;
