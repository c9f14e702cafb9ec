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
use dv_types::{ColumnBlock, RowBlock};

/// Filter a block in place, returning the surviving rows' *pre-filter*
/// indices within the block. Round-robin partitioning keys on those
/// scanned ordinals (not the compacted positions), so the row →
/// processor map stays a pure function of the scan schedule — the
/// property the morsel engine's determinism rests on. `None` predicate
/// keeps everything (identity indices).
pub fn filter_block(
    block: &mut RowBlock,
    predicate: Option<&BoundExpr>,
    cx: &EvalContext<'_>,
) -> Vec<u32> {
    let Some(pred) = predicate else { return (0..block.rows.len() as u32).collect() };
    let mut kept = Vec::with_capacity(block.rows.len());
    let mut next = 0u32;
    block.rows.retain(|row| {
        let keep = cx.eval(pred, row);
        if keep {
            kept.push(next);
        }
        next += 1;
        keep
    });
    kept
}

/// Filter a freshly extracted columnar block by evaluating the
/// predicate vectorized and installing the resulting selection vector
/// — no row data moves. Returns the number of rows rejected.
pub fn filter_columns(
    block: &mut ColumnBlock,
    predicate: Option<&BoundExpr>,
    cx: &EvalContext<'_>,
) -> usize {
    let Some(pred) = predicate else { return 0 };
    let before = block.selected();
    let bm = cx.eval_block(pred, block);
    if bm.count() == block.len() {
        block.set_selection(None);
    } else {
        block.set_selection(Some(bm.indices()));
    }
    before - block.selected()
}

/// Project working rows to the output columns, in place.
pub fn project_block(block: &mut RowBlock, output_positions: &[usize]) {
    // Identity projection: working row already equals the output row.
    if output_positions.len() == block.rows.first().map(|r| r.len()).unwrap_or(0)
        && output_positions.iter().enumerate().all(|(i, &p)| i == p)
    {
        return;
    }
    for row in &mut block.rows {
        let projected = output_positions.iter().map(|&p| row[p]).collect();
        *row = projected;
    }
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

    fn block() -> RowBlock {
        let mut b = RowBlock::new(0);
        for i in 0..10 {
            b.rows.push(vec![Value::Int(i), Value::Float(i as f32 / 10.0)]);
        }
        b
    }

    #[test]
    fn filters_rows() {
        let s = schema();
        let udfs = UdfRegistry::new();
        let q = parse("SELECT * FROM T WHERE A >= 3 AND B < 0.7").unwrap();
        let bq = bind(&q, &s, &udfs).unwrap();
        let cx = EvalContext::new(2, &[0, 1], &udfs);
        let mut b = block();
        let kept = filter_block(&mut b, bq.predicate.as_ref(), &cx);
        // f32(0.7) ≈ 0.699999988 < 0.7, so i = 7 survives too.
        assert_eq!(b.rows.len(), 5); // A in {3,4,5,6,7}
        assert_eq!(b.rows[0][0], Value::Int(3));
        // Survivors' pre-filter positions, for ordinal partitioning.
        assert_eq!(kept, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn no_predicate_keeps_everything() {
        let udfs = UdfRegistry::new();
        let cx = EvalContext::new(2, &[0, 1], &udfs);
        let mut b = block();
        let kept = filter_block(&mut b, None, &cx);
        assert_eq!(kept, (0..10).collect::<Vec<u32>>());
        assert_eq!(b.rows.len(), 10);
    }

    #[test]
    fn projection_reorders_and_drops() {
        let mut b = block();
        project_block(&mut b, &[1]);
        assert_eq!(b.rows[3], vec![Value::Float(0.3)]);
        let mut b2 = block();
        project_block(&mut b2, &[1, 0]);
        assert_eq!(b2.rows[2], vec![Value::Float(0.2), Value::Int(2)]);
    }

    #[test]
    fn identity_projection_is_noop() {
        let mut b = block();
        let expected = b.rows.clone();
        project_block(&mut b, &[0, 1]);
        assert_eq!(b.rows, expected);
    }

    fn column_block() -> ColumnBlock {
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Float]);
        for i in 0..10 {
            b.columns[0].append_data().push_value(Value::Int(i));
            b.columns[1].append_data().push_value(Value::Float(i as f32 / 10.0));
        }
        b.advance_rows(10);
        b
    }

    #[test]
    fn columnar_filter_selects_same_rows() {
        let s = schema();
        let udfs = UdfRegistry::new();
        let q = parse("SELECT * FROM T WHERE A >= 3 AND B < 0.7").unwrap();
        let bq = bind(&q, &s, &udfs).unwrap();
        let cx = EvalContext::new(2, &[0, 1], &udfs);

        let mut rows = block();
        let kept = filter_block(&mut rows, bq.predicate.as_ref(), &cx);
        let mut cols = column_block();
        let removed = filter_columns(&mut cols, bq.predicate.as_ref(), &cx);
        assert_eq!(removed, 10 - rows.rows.len());

        // The row path's kept indices and the columnar selection
        // vector must name the same scanned ordinals.
        let sel = cols.selection().expect("partial filter installs a selection");
        assert_eq!(kept, sel.to_vec());

        let survivors: Vec<Value> =
            sel.iter().map(|&i| cols.columns[0].value_at(i as usize)).collect();
        let expected: Vec<Value> = rows.rows.iter().map(|r| r[0]).collect();
        assert_eq!(survivors, expected);
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
