//! Filtering service: residual predicate evaluation on working rows.
//!
//! Range constraints already pruned files/chunks at the plan level,
//! but rows inside surviving chunks can still violate the predicate
//! (value filters like `SOIL > 0.7`, user-defined filters like
//! `SPEED(...) <= 30`, or partially-pruned ranges). This service
//! evaluates the *full* predicate on every extracted row — sound even
//! when pruning was exact, and required when it was not.

use dv_sql::eval::EvalContext;
use dv_sql::BoundExpr;
use dv_types::ColumnBlock;

/// Filter a freshly extracted columnar block by evaluating the
/// predicate vectorized and installing the resulting selection vector
/// — no row data moves. The selection keeps each survivor's
/// *pre-filter* index, so round-robin partitioning keys on scanned
/// ordinals and the row → processor map stays a pure function of the
/// scan schedule. Returns the number of rows rejected.
pub fn filter_columns(
    block: &mut ColumnBlock,
    predicate: Option<&BoundExpr>,
    cx: &EvalContext<'_>,
) -> usize {
    let Some(pred) = predicate else { return 0 };
    let before = block.selected();
    block.set_selection(cx.eval_block(pred, block).selection());
    before - block.selected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_sql::{bind, parse, UdfRegistry};
    use dv_types::{Attribute, DataType, Schema, Value};

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![Attribute::new("A", DataType::Int), Attribute::new("B", DataType::Float)],
        )
        .unwrap()
    }

    /// Ten rows `(i, i / 10)`.
    fn column_block() -> ColumnBlock {
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Float]);
        for i in 0..10 {
            b.columns[0].append_data().push_value(Value::Int(i));
            b.columns[1].append_data().push_value(Value::Float(i as f32 / 10.0));
        }
        b.advance_rows(10);
        b
    }

    /// Filter `column_block()` by the `WHERE` clause of `sql`.
    fn filtered(sql: &str) -> (ColumnBlock, usize) {
        let udfs = UdfRegistry::new();
        let bq = bind(&parse(sql).unwrap(), &schema(), &udfs).unwrap();
        let cx = EvalContext::new(2, &[0, 1], &udfs);
        let mut b = column_block();
        let removed = filter_columns(&mut b, bq.predicate.as_ref(), &cx);
        (b, removed)
    }

    fn rows(b: &ColumnBlock) -> Vec<Vec<Value>> {
        b.to_rows().iter().map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn filters_rows() {
        let (b, _) = filtered("SELECT * FROM T WHERE A >= 3 AND B < 0.7");
        // f32(0.7) ≈ 0.699999988 < 0.7, so i = 7 survives too.
        let want: Vec<Vec<Value>> =
            (3..8).map(|i| vec![Value::Int(i), Value::Float(i as f32 / 10.0)]).collect();
        assert_eq!(rows(&b), want);
    }

    #[test]
    fn no_predicate_keeps_everything() {
        // A predicate every row passes installs no selection vector.
        let (b, removed) = filtered("SELECT * FROM T WHERE A >= 0");
        assert_eq!(removed, 0);
        assert!(b.selection().is_none());
        assert_eq!(b.selected(), 10);
    }

    #[test]
    fn projection_reorders_and_drops() {
        let mut b = column_block();
        b.project(&[1]);
        assert_eq!(rows(&b)[3], vec![Value::Float(0.3)]);
        let mut b2 = column_block();
        b2.project(&[1, 0]);
        assert_eq!(rows(&b2)[2], vec![Value::Float(0.2), Value::Int(2)]);
    }

    #[test]
    fn identity_projection_is_noop() {
        let (mut b, _) = filtered("SELECT * FROM T WHERE A < 4");
        let expected = rows(&b);
        b.project(&[0, 1]);
        assert_eq!(rows(&b), expected);
        assert_eq!(b.selection(), Some(&[0, 1, 2, 3][..]));
    }

    #[test]
    fn columnar_filter_selects_same_rows() {
        let (b, removed) = filtered("SELECT * FROM T WHERE A >= 3 AND B < 0.7");
        assert_eq!(removed, 5);
        // The selection vector names the survivors' scanned ordinals.
        assert_eq!(b.selection(), Some(&[3, 4, 5, 6, 7][..]));
    }

    #[test]
    fn columnar_filter_without_predicate_keeps_all() {
        let udfs = UdfRegistry::new();
        let cx = EvalContext::new(2, &[0, 1], &udfs);
        let mut cols = column_block();
        assert_eq!(filter_columns(&mut cols, None, &cx), 0);
        assert_eq!(cols.selected(), 10);
        assert!(cols.selection().is_none());
    }
}
