//! Predicate evaluation — the core of the filtering service.
//!
//! Rows handed to the filter are *working rows*: they contain the
//! attributes in [`crate::bind::BoundQuery::needed_attrs`] order, not
//! full schema order. An [`EvalContext`] carries the schema-index →
//! row-position mapping plus the UDF registry, both fixed per query, so
//! the per-row path is allocation-free except for UDF argument buffers
//! (reused via a small stack array for the common arities).
//!
//! Two evaluators share one context:
//!
//! * [`EvalContext::eval`] — row-at-a-time, over `&[Value]` working
//!   rows (the hand-written baselines, the serial reference executor
//!   of the differential tests, and the minidb engine);
//! * [`EvalContext::eval_block`] — column-at-a-time over a
//!   [`ColumnBlock`]: comparisons run as typed kernels producing
//!   selection [`Bitmap`]s, boolean connectives combine bitmaps
//!   word-wise, and only subtrees containing UDF calls fall back to
//!   row-at-a-time evaluation — restricted to the rows the surrounding
//!   conjuncts have not already rejected.

use dv_types::{Bitmap, ColumnBlock, ColumnData, ColumnGen, Value};

use crate::ast::CmpOp;
use crate::bind::{BoundExpr, BoundScalar};
use crate::udf::UdfRegistry;

/// Per-query evaluation context.
pub struct EvalContext<'a> {
    /// `positions[schema_attr_index]` = position of that attribute in
    /// the working row, or `usize::MAX` when absent. Built by
    /// [`EvalContext::new`].
    positions: Vec<usize>,
    udfs: &'a UdfRegistry,
}

impl<'a> EvalContext<'a> {
    /// Build a context for working rows holding `working_attrs` (schema
    /// attribute indices in row order) out of a schema with
    /// `schema_len` attributes.
    pub fn new(schema_len: usize, working_attrs: &[usize], udfs: &'a UdfRegistry) -> Self {
        let mut positions = vec![usize::MAX; schema_len];
        for (pos, &attr) in working_attrs.iter().enumerate() {
            positions[attr] = pos;
        }
        EvalContext { positions, udfs }
    }

    /// Position of schema attribute `attr` within working rows.
    /// Panics if the attribute is not part of the working set — that is
    /// a planning bug, not a data condition.
    #[inline]
    pub fn position(&self, attr: usize) -> usize {
        let p = self.positions[attr];
        debug_assert!(p != usize::MAX, "attribute {attr} missing from working row");
        p
    }

    /// Evaluate a boolean expression on a working row.
    pub fn eval(&self, expr: &BoundExpr, row: &[Value]) -> bool {
        match expr {
            BoundExpr::And(l, r) => self.eval(l, row) && self.eval(r, row),
            BoundExpr::Or(l, r) => self.eval(l, row) || self.eval(r, row),
            BoundExpr::Not(i) => !self.eval(i, row),
            BoundExpr::Cmp { op, lhs, rhs } => {
                op.apply(self.scalar(lhs, row), self.scalar(rhs, row))
            }
            BoundExpr::InList { expr, list, negated } => {
                let v = self.scalar(expr, row);
                let found = list.iter().any(|item| self.scalar(item, row) == v);
                found != *negated
            }
            BoundExpr::Between { expr, lo, hi, negated } => {
                let v = self.scalar(expr, row);
                let inside = v >= self.scalar(lo, row) && v <= self.scalar(hi, row);
                inside != *negated
            }
        }
    }

    /// Evaluate a scalar expression on a working row.
    pub fn scalar(&self, s: &BoundScalar, row: &[Value]) -> f64 {
        match s {
            BoundScalar::Attr(a) => row[self.position(*a)].as_f64(),
            BoundScalar::Const(c) => *c,
            BoundScalar::Func { slot, args } => {
                // Common UDF arities are tiny; avoid heap traffic with a
                // stack buffer when possible.
                if args.len() <= 8 {
                    let mut buf = [0.0f64; 8];
                    for (i, a) in args.iter().enumerate() {
                        buf[i] = self.scalar(a, row);
                    }
                    self.udfs.call(*slot, &buf[..args.len()])
                } else {
                    let vals: Vec<f64> = args.iter().map(|a| self.scalar(a, row)).collect();
                    self.udfs.call(*slot, &vals)
                }
            }
            BoundScalar::Arith { op, lhs, rhs } => {
                op.apply(self.scalar(lhs, row), self.scalar(rhs, row))
            }
        }
    }

    /// Evaluate a boolean expression over every row of a columnar
    /// block, returning the selection bitmap.
    pub fn eval_block(&self, expr: &BoundExpr, block: &ColumnBlock) -> Bitmap {
        let mask = Bitmap::new_true(block.len());
        self.eval_masked(expr, block, &mask)
    }

    /// Masked vectorized evaluation. The result is exact for rows set
    /// in `mask`; bits outside the mask may be stale (they are never
    /// combined in a way that lets them leak into masked rows — the
    /// standard short-circuit-masking argument).
    fn eval_masked(&self, expr: &BoundExpr, block: &ColumnBlock, mask: &Bitmap) -> Bitmap {
        match expr {
            BoundExpr::And(l, r) => {
                // Evaluate the UDF-free side first so the expensive
                // row-fallback side only sees surviving rows.
                let (first, second) =
                    if expr_has_func(l) && !expr_has_func(r) { (&**r, &**l) } else { (&**l, &**r) };
                let mut a = self.eval_masked(first, block, mask);
                a.and(mask);
                let b = self.eval_masked(second, block, &a);
                a.and(&b);
                a
            }
            BoundExpr::Or(l, r) => {
                let (first, second) =
                    if expr_has_func(l) && !expr_has_func(r) { (&**r, &**l) } else { (&**l, &**r) };
                let a = self.eval_masked(first, block, mask);
                // Only rows the first branch rejected still matter.
                let mut m2 = a.clone();
                m2.not();
                m2.and(mask);
                let mut b = self.eval_masked(second, block, &m2);
                b.and(&m2);
                let mut out = a;
                out.and(mask);
                out.or(&b);
                out
            }
            BoundExpr::Not(inner) => {
                let mut r = self.eval_masked(inner, block, mask);
                r.not();
                r
            }
            BoundExpr::Cmp { op, lhs, rhs } => {
                if scalar_has_func(lhs) || scalar_has_func(rhs) {
                    return self.fallback_rows(expr, block, mask);
                }
                if let (BoundScalar::Attr(a), BoundScalar::Const(c)) = (lhs, rhs) {
                    return self.cmp_attr_const(*op, *a, *c, block);
                }
                if let (BoundScalar::Const(c), BoundScalar::Attr(a)) = (lhs, rhs) {
                    return self.cmp_attr_const(swap_operands(*op), *a, *c, block);
                }
                let l = self.scalar_col(lhs, block);
                let r = self.scalar_col(rhs, block);
                let mut bm = Bitmap::new_false(block.len());
                for i in 0..block.len() {
                    if op.apply(l.at(i), r.at(i)) {
                        bm.set(i);
                    }
                }
                bm
            }
            BoundExpr::InList { expr: e, list, negated } => {
                if scalar_has_func(e) || list.iter().any(scalar_has_func) {
                    return self.fallback_rows(expr, block, mask);
                }
                let v = self.scalar_col(e, block);
                let items: Vec<ScalarCol> =
                    list.iter().map(|s| self.scalar_col(s, block)).collect();
                let mut bm = Bitmap::new_false(block.len());
                for i in 0..block.len() {
                    let x = v.at(i);
                    if items.iter().any(|it| it.at(i) == x) != *negated {
                        bm.set(i);
                    }
                }
                bm
            }
            BoundExpr::Between { expr: e, lo, hi, negated } => {
                if scalar_has_func(e) || scalar_has_func(lo) || scalar_has_func(hi) {
                    return self.fallback_rows(expr, block, mask);
                }
                let v = self.scalar_col(e, block);
                let lo = self.scalar_col(lo, block);
                let hi = self.scalar_col(hi, block);
                let mut bm = Bitmap::new_false(block.len());
                for i in 0..block.len() {
                    let x = v.at(i);
                    if (x >= lo.at(i) && x <= hi.at(i)) != *negated {
                        bm.set(i);
                    }
                }
                bm
            }
        }
    }

    /// Typed comparison kernel for the dominant `ATTR op CONST` shape:
    /// one pass over the native column vector (the `op` and constant
    /// are loop-invariant), with constant lazy runs decided once per
    /// run instead of once per row.
    fn cmp_attr_const(&self, op: CmpOp, attr: usize, c: f64, block: &ColumnBlock) -> Bitmap {
        let col = &block.columns[self.position(attr)];
        let mut bm = Bitmap::new_false(block.len());
        let (data, runs) = col.parts();
        macro_rules! scan {
            ($v:expr) => {
                for (i, x) in $v.iter().enumerate() {
                    if op.apply(f64::from(*x), c) {
                        bm.set(i);
                    }
                }
            };
        }
        match data {
            ColumnData::Char(v) => scan!(v),
            ColumnData::Short(v) => scan!(v),
            ColumnData::Int(v) => scan!(v),
            ColumnData::Float(v) => scan!(v),
            ColumnData::Double(v) => scan!(v),
            ColumnData::Long(v) => {
                for (i, x) in v.iter().enumerate() {
                    if op.apply(*x as f64, c) {
                        bm.set(i);
                    }
                }
            }
        }
        for r in runs {
            match r.gen {
                ColumnGen::Const(v) => {
                    if op.apply(v.as_f64(), c) {
                        bm.set_range(r.start, r.start + r.len);
                    }
                }
                ColumnGen::Affine { .. } => {
                    for k in 0..r.len {
                        if op.apply(r.gen.value_at(k, col.dtype()).as_f64(), c) {
                            bm.set(r.start + k);
                        }
                    }
                }
            }
        }
        bm
    }

    /// Evaluate a UDF-free scalar over the whole block.
    fn scalar_col(&self, s: &BoundScalar, block: &ColumnBlock) -> ScalarCol {
        match s {
            BoundScalar::Attr(a) => ScalarCol::Vec(block.columns[self.position(*a)].f64_vec()),
            BoundScalar::Const(c) => ScalarCol::Const(*c),
            BoundScalar::Arith { op, lhs, rhs } => {
                let l = self.scalar_col(lhs, block);
                let r = self.scalar_col(rhs, block);
                match (l, r) {
                    (ScalarCol::Const(a), ScalarCol::Const(b)) => ScalarCol::Const(op.apply(a, b)),
                    (l, r) => {
                        let mut out = Vec::with_capacity(block.len());
                        for i in 0..block.len() {
                            out.push(op.apply(l.at(i), r.at(i)));
                        }
                        ScalarCol::Vec(out)
                    }
                }
            }
            BoundScalar::Func { .. } => {
                unreachable!("vectorized path routes UDF subtrees to the row fallback")
            }
        }
    }

    /// Row-at-a-time fallback for subtrees containing UDF calls:
    /// evaluates only the rows still set in `mask`.
    fn fallback_rows(&self, expr: &BoundExpr, block: &ColumnBlock, mask: &Bitmap) -> Bitmap {
        let mut bm = Bitmap::new_false(block.len());
        for i in mask.indices() {
            if self.eval_at(expr, block, i as usize) {
                bm.set(i as usize);
            }
        }
        bm
    }

    /// Evaluate a boolean expression on one row of a columnar block.
    pub fn eval_at(&self, expr: &BoundExpr, block: &ColumnBlock, i: usize) -> bool {
        match expr {
            BoundExpr::And(l, r) => self.eval_at(l, block, i) && self.eval_at(r, block, i),
            BoundExpr::Or(l, r) => self.eval_at(l, block, i) || self.eval_at(r, block, i),
            BoundExpr::Not(e) => !self.eval_at(e, block, i),
            BoundExpr::Cmp { op, lhs, rhs } => {
                op.apply(self.scalar_at(lhs, block, i), self.scalar_at(rhs, block, i))
            }
            BoundExpr::InList { expr, list, negated } => {
                let v = self.scalar_at(expr, block, i);
                let found = list.iter().any(|item| self.scalar_at(item, block, i) == v);
                found != *negated
            }
            BoundExpr::Between { expr, lo, hi, negated } => {
                let v = self.scalar_at(expr, block, i);
                let inside = v >= self.scalar_at(lo, block, i) && v <= self.scalar_at(hi, block, i);
                inside != *negated
            }
        }
    }

    /// Evaluate a scalar expression on one row of a columnar block.
    pub fn scalar_at(&self, s: &BoundScalar, block: &ColumnBlock, i: usize) -> f64 {
        match s {
            BoundScalar::Attr(a) => block.columns[self.position(*a)].value_at(i).as_f64(),
            BoundScalar::Const(c) => *c,
            BoundScalar::Func { slot, args } => {
                if args.len() <= 8 {
                    let mut buf = [0.0f64; 8];
                    for (k, a) in args.iter().enumerate() {
                        buf[k] = self.scalar_at(a, block, i);
                    }
                    self.udfs.call(*slot, &buf[..args.len()])
                } else {
                    let vals: Vec<f64> = args.iter().map(|a| self.scalar_at(a, block, i)).collect();
                    self.udfs.call(*slot, &vals)
                }
            }
            BoundScalar::Arith { op, lhs, rhs } => {
                op.apply(self.scalar_at(lhs, block, i), self.scalar_at(rhs, block, i))
            }
        }
    }
}

/// A scalar evaluated over a block: per-row values or one constant.
enum ScalarCol {
    Vec(Vec<f64>),
    Const(f64),
}

impl ScalarCol {
    #[inline]
    fn at(&self, i: usize) -> f64 {
        match self {
            ScalarCol::Vec(v) => v[i],
            ScalarCol::Const(c) => *c,
        }
    }
}

/// Swap comparison operands: `a op b` ⇔ `b swap(op) a`.
fn swap_operands(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
    }
}

/// True when the expression contains a UDF call anywhere — such
/// subtrees force the row-at-a-time fallback (see DV103 in dv-lint).
pub fn expr_has_func(expr: &BoundExpr) -> bool {
    match expr {
        BoundExpr::And(l, r) | BoundExpr::Or(l, r) => expr_has_func(l) || expr_has_func(r),
        BoundExpr::Not(e) => expr_has_func(e),
        BoundExpr::Cmp { lhs, rhs, .. } => scalar_has_func(lhs) || scalar_has_func(rhs),
        BoundExpr::InList { expr, list, .. } => {
            scalar_has_func(expr) || list.iter().any(scalar_has_func)
        }
        BoundExpr::Between { expr, lo, hi, .. } => {
            scalar_has_func(expr) || scalar_has_func(lo) || scalar_has_func(hi)
        }
    }
}

/// True when the scalar contains a UDF call anywhere.
pub fn scalar_has_func(s: &BoundScalar) -> bool {
    match s {
        BoundScalar::Attr(_) | BoundScalar::Const(_) => false,
        BoundScalar::Func { .. } => true,
        BoundScalar::Arith { lhs, rhs, .. } => scalar_has_func(lhs) || scalar_has_func(rhs),
    }
}

/// Evaluate `op` between two values using numeric comparison — shared
/// helper for engines (minidb) that filter full-schema rows directly.
#[inline]
pub fn compare_values(op: CmpOp, l: &Value, r: &Value) -> bool {
    op.apply(l.as_f64(), r.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::parser::parse;
    use crate::udf::UdfRegistry;
    use dv_types::{Attribute, DataType, Schema};

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Attribute::new("A", DataType::Int),
                Attribute::new("B", DataType::Float),
                Attribute::new("C", DataType::Double),
            ],
        )
        .unwrap()
    }

    /// Bind `sql` and evaluate its predicate against a full-schema row.
    fn run(sql: &str, row: &[Value]) -> bool {
        let q = parse(sql).unwrap();
        let udfs = UdfRegistry::with_builtins();
        let b = bind(&q, &schema(), &udfs).unwrap();
        let working: Vec<usize> = (0..schema().len()).collect();
        let cx = EvalContext::new(schema().len(), &working, &udfs);
        cx.eval(b.predicate.as_ref().unwrap(), row)
    }

    #[test]
    fn comparisons() {
        let row = vec![Value::Int(5), Value::Float(0.5), Value::Double(2.0)];
        assert!(run("SELECT * FROM T WHERE A > 4", &row));
        assert!(!run("SELECT * FROM T WHERE A > 5", &row));
        assert!(run("SELECT * FROM T WHERE A >= 5 AND B < 1.0", &row));
        assert!(run("SELECT * FROM T WHERE A = 5 OR B > 100", &row));
        assert!(run("SELECT * FROM T WHERE NOT A = 6", &row));
    }

    #[test]
    fn in_list_and_between() {
        let row = vec![Value::Int(6), Value::Float(0.0), Value::Double(0.0)];
        assert!(run("SELECT * FROM T WHERE A IN (0, 6, 26, 27)", &row));
        assert!(!run("SELECT * FROM T WHERE A IN (1, 2)", &row));
        assert!(run("SELECT * FROM T WHERE A NOT IN (1, 2)", &row));
        assert!(run("SELECT * FROM T WHERE A BETWEEN 5 AND 7", &row));
        assert!(run("SELECT * FROM T WHERE A NOT BETWEEN 10 AND 20", &row));
    }

    #[test]
    fn udf_in_predicate() {
        // SPEED(3,4,0) = 5.
        let row = vec![Value::Int(3), Value::Float(4.0), Value::Double(0.0)];
        assert!(run("SELECT * FROM T WHERE SPEED(A, B, C) <= 5.0", &row));
        assert!(!run("SELECT * FROM T WHERE SPEED(A, B, C) < 5.0", &row));
    }

    #[test]
    fn arithmetic_in_predicate() {
        let row = vec![Value::Int(10), Value::Float(2.0), Value::Double(0.0)];
        assert!(run("SELECT * FROM T WHERE A / B = 5.0", &row));
        assert!(run("SELECT * FROM T WHERE (A + 2) * B = 24.0", &row));
    }

    #[test]
    fn working_row_positions() {
        // Working row holds only attrs {1 (B), 2 (C)}, in that order.
        let udfs = UdfRegistry::new();
        let cx = EvalContext::new(3, &[1, 2], &udfs);
        assert_eq!(cx.position(1), 0);
        assert_eq!(cx.position(2), 1);
        let expr = BoundExpr::Cmp {
            op: CmpOp::Gt,
            lhs: BoundScalar::Attr(2),
            rhs: BoundScalar::Const(1.0),
        };
        assert!(cx.eval(&expr, &[Value::Float(0.0), Value::Double(1.5)]));
    }

    #[test]
    fn compare_values_cross_type() {
        assert!(compare_values(CmpOp::Eq, &Value::Int(2), &Value::Double(2.0)));
        assert!(compare_values(CmpOp::Lt, &Value::Short(1), &Value::Float(1.5)));
    }

    /// A 60-row block over schema (A Int, B Float, C Double): 50 dense
    /// rows followed by a lazy tail (constant A, affine B, dense C).
    fn column_block() -> ColumnBlock {
        use dv_types::DataType;
        let mut b =
            ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Float, DataType::Double]);
        for i in 0..50 {
            b.columns[0].append_data().push_value(Value::Int(i));
            b.columns[1].append_data().push_value(Value::Float(i as f32 / 10.0));
            b.columns[2].append_data().push_value(Value::Double((i * 7 % 13) as f64));
        }
        b.advance_rows(50);
        b.columns[0].push_run(10, ColumnGen::Const(Value::Int(5)));
        b.columns[1].push_run(10, ColumnGen::Affine { start: 2, step: 3 });
        for i in 0..10 {
            b.columns[2].append_data().push_value(Value::Double(i as f64));
        }
        b.advance_rows(10);
        b
    }

    #[test]
    fn vectorized_matches_row_path() {
        let sqls = [
            "SELECT * FROM T WHERE A > 20",
            "SELECT * FROM T WHERE 20 < A",
            "SELECT * FROM T WHERE A > 20 AND B < 4.0",
            "SELECT * FROM T WHERE A = 5 OR C > 6",
            "SELECT * FROM T WHERE NOT (A < 30 OR C = 1)",
            "SELECT * FROM T WHERE A IN (1, 5, 55)",
            "SELECT * FROM T WHERE A NOT IN (5, 23)",
            "SELECT * FROM T WHERE B BETWEEN 1.0 AND 3.0",
            "SELECT * FROM T WHERE A NOT BETWEEN 10 AND 40",
            "SELECT * FROM T WHERE A + 2 * B > 10",
            "SELECT * FROM T WHERE A - B = B",
            "SELECT * FROM T WHERE SPEED(A, B, C) < 30.0",
            "SELECT * FROM T WHERE A > 10 AND SPEED(A, B, C) > 20.0",
            "SELECT * FROM T WHERE SPEED(A, B, C) > 20.0 OR A < 5",
            "SELECT * FROM T WHERE NOT SPEED(A, B, C) > 20.0",
        ];
        let udfs = UdfRegistry::with_builtins();
        let s = schema();
        let block = column_block();
        let working: Vec<usize> = (0..s.len()).collect();
        let cx = EvalContext::new(s.len(), &working, &udfs);
        for sql in sqls {
            let b = bind(&parse(sql).unwrap(), &s, &udfs).unwrap();
            let pred = b.predicate.unwrap();
            let bm = cx.eval_block(&pred, &block);
            for i in 0..block.len() {
                let row: Vec<Value> = block.columns.iter().map(|c| c.value_at(i)).collect();
                assert_eq!(bm.get(i), cx.eval(&pred, &row), "{sql} row {i}");
            }
        }
    }

    #[test]
    fn func_detection() {
        let udfs = UdfRegistry::with_builtins();
        let s = schema();
        let with = bind(&parse("SELECT * FROM T WHERE SPEED(A, B, C) < 1").unwrap(), &s, &udfs)
            .unwrap()
            .predicate
            .unwrap();
        let without = bind(&parse("SELECT * FROM T WHERE A + B < 1").unwrap(), &s, &udfs)
            .unwrap()
            .predicate
            .unwrap();
        assert!(expr_has_func(&with));
        assert!(!expr_has_func(&without));
    }
}
