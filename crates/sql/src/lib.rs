//! # dv-sql
//!
//! The SQL subset the paper's virtualization tool accepts (Figure 1):
//!
//! ```sql
//! SELECT <data elements>
//! FROM   <dataset name>
//! WHERE  <expression> AND Filter(<data element>)
//! ```
//!
//! Supported in the `WHERE` expression: comparison operators
//! (`< <= > >= = != <>`), `IN (...)` lists, `BETWEEN ... AND ...`,
//! boolean connectives (`AND`, `OR`, `NOT`), scalar arithmetic
//! (`+ - * /`, unary minus), and calls to registered user-defined
//! filter functions such as `SPEED(OILVX, OILVY, OILVZ) <= 30.0`.
//! Joins, aggregations and `GROUP BY` are intentionally rejected —
//! the paper's goal is *subsetting*, not general query processing.
//!
//! Pipeline: [`parse`] → [`bind::bind`] (resolve names against a
//! [`dv_types::Schema`] + [`udf::UdfRegistry`]) → either
//! [`eval`] (vectorized predicate evaluation in the filtering service,
//! UDFs called once per surviving row; row-at-a-time for reference
//! executors) or
//! [`analysis::attribute_ranges`] (sound per-attribute interval
//! extraction used by the indexing service for pruning).

pub mod analysis;
pub mod ast;
pub mod bind;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod ternary;
pub mod token;
pub mod udf;

pub use ast::{AggFunc, ArithOp, CmpOp, Expr, Query, Scalar, SelectItem, SelectList};
pub use bind::{bind, AggOutput, BoundAgg, BoundAggSpec, BoundExpr, BoundQuery, BoundScalar};
pub use parser::parse;
pub use udf::UdfRegistry;
