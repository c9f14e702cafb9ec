//! Predicate evaluation — the core of the filtering service.
//!
//! Rows handed to the filter are *working rows*: they contain the
//! attributes in [`crate::bind::BoundQuery::needed_attrs`] order, not
//! full schema order. An [`EvalContext`] carries the schema-index →
//! row-position mapping plus the UDF registry, both fixed per query, so
//! the per-row path is allocation-free except for UDF argument buffers
//! (reused via a small stack array for the common arities).
//!
//! One context reads two inputs:
//!
//! * [`EvalContext::eval`] — one `&[Value]` working row (the
//!   hand-written baselines, the serial reference executor of the
//!   differential tests, and the minidb engine);
//! * [`EvalContext::eval_block`] — a whole [`ColumnBlock`], column at a
//!   time, reading cells only through the column visitor
//!   ([`dv_types::Column::pieces`]) into a selection [`Bitmap`] written
//!   a word at a time. `ATTR op CONST` (either way round) runs over the
//!   whole block through [`dv_types::column::Piece::select_f64`]: one
//!   loop per (operator, column type) builds each 64-row word of a
//!   dense slice without a branch, a constant run is tested once.
//!   Boolean connectives combine bitmaps word-wise. Every other
//!   comparison (`BETWEEN`, `IN`, arithmetic, UDF calls) reads only the
//!   rows the surrounding conjuncts have not already rejected — so a
//!   UDF is called once per such row, over typed argument columns —
//!   and writes its answers without a branch.

use dv_types::column::Picks;
use dv_types::{Bitmap, ColumnBlock, Value};

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
                // Evaluate the UDF-free side first so the UDF side only
                // sees surviving rows.
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
            BoundExpr::Cmp { op, lhs, rhs } => match (lhs, rhs) {
                (BoundScalar::Attr(a), BoundScalar::Const(c)) => {
                    self.cmp_attr_const(*op, *a, *c, block)
                }
                (BoundScalar::Const(c), BoundScalar::Attr(a)) => {
                    self.cmp_attr_const(op.flip(), *a, *c, block)
                }
                _ => bitmap_where(block.len(), mask, |rows| {
                    let l = self.scalar_col(lhs, block, rows);
                    let r = self.scalar_col(rhs, block, rows);
                    move |k| op.apply(l.at(k), r.at(k))
                }),
            },
            BoundExpr::InList { expr, list, negated } => bitmap_where(block.len(), mask, |rows| {
                let v = self.scalar_col(expr, block, rows);
                let items: Vec<ScalarCol> =
                    list.iter().map(|s| self.scalar_col(s, block, rows)).collect();
                move |k| {
                    let x = v.at(k);
                    items.iter().any(|it| it.at(k) == x) != *negated
                }
            }),
            BoundExpr::Between { expr, lo, hi, negated } => {
                bitmap_where(block.len(), mask, |rows| {
                    let v = self.scalar_col(expr, block, rows);
                    let lo = self.scalar_col(lo, block, rows);
                    let hi = self.scalar_col(hi, block, rows);
                    move |k| {
                        let x = v.at(k);
                        (x >= lo.at(k) && x <= hi.at(k)) != *negated
                    }
                })
            }
        }
    }

    /// `ATTR op CONST` over the whole block: one word kernel per
    /// (operator, column type), the operator fixed in each.
    fn cmp_attr_const(&self, op: CmpOp, attr: usize, c: f64, block: &ColumnBlock) -> Bitmap {
        match op {
            CmpOp::Lt => self.attr_where(attr, block, |x| x < c),
            CmpOp::Le => self.attr_where(attr, block, |x| x <= c),
            CmpOp::Gt => self.attr_where(attr, block, |x| x > c),
            CmpOp::Ge => self.attr_where(attr, block, |x| x >= c),
            CmpOp::Eq => self.attr_where(attr, block, |x| x == c),
            CmpOp::Ne => self.attr_where(attr, block, |x| x != c),
        }
    }

    /// The bitmap of the block rows whose `attr` cell passes `test`
    /// (given the cell's `f64` view), built piece by piece through
    /// [`dv_types::column::Piece::select_f64`].
    fn attr_where(&self, attr: usize, block: &ColumnBlock, test: impl Fn(f64) -> bool) -> Bitmap {
        let mut bm = Bitmap::new_false(block.len());
        for piece in block.columns[self.position(attr)].pieces(Picks::Range(0, block.len())) {
            piece.select_f64(&mut bm, &test);
        }
        bm
    }

    /// Evaluate a scalar on the picked rows of the block, one value
    /// per pick in pick order; a UDF is called once per pick.
    fn scalar_col(&self, s: &BoundScalar, block: &ColumnBlock, rows: Picks<'_>) -> ScalarCol {
        match s {
            BoundScalar::Attr(a) => {
                let mut out = Vec::new();
                for piece in block.columns[self.position(*a)].pieces(rows) {
                    piece.for_each_f64(|_, x| out.push(x));
                }
                ScalarCol::Vec(out)
            }
            BoundScalar::Const(c) => ScalarCol::Const(*c),
            BoundScalar::Arith { op, lhs, rhs } => {
                match (self.scalar_col(lhs, block, rows), self.scalar_col(rhs, block, rows)) {
                    (ScalarCol::Const(a), ScalarCol::Const(b)) => ScalarCol::Const(op.apply(a, b)),
                    (l, r) => {
                        let mut out = Vec::new();
                        for_each_pick(rows, |k, _| out.push(op.apply(l.at(k), r.at(k))));
                        ScalarCol::Vec(out)
                    }
                }
            }
            BoundScalar::Func { slot, args } => {
                let args: Vec<ScalarCol> =
                    args.iter().map(|a| self.scalar_col(a, block, rows)).collect();
                // Common UDF arities are tiny; avoid heap traffic with a
                // stack buffer when possible.
                let (mut stack, mut heap) = ([0.0f64; 8], Vec::new());
                let buf = if args.len() <= 8 {
                    &mut stack[..args.len()]
                } else {
                    heap.resize(args.len(), 0.0);
                    &mut heap[..]
                };
                let mut out = Vec::new();
                for_each_pick(rows, |k, _| {
                    for (x, a) in buf.iter_mut().zip(&args) {
                        *x = a.at(k);
                    }
                    out.push(self.udfs.call(*slot, buf));
                });
                ScalarCol::Vec(out)
            }
        }
    }
}

/// A scalar evaluated on picked rows: one value per pick, or one
/// constant.
enum ScalarCol {
    Vec(Vec<f64>),
    Const(f64),
}

impl ScalarCol {
    /// The value of the `k`-th pick.
    #[inline]
    fn at(&self, k: usize) -> f64 {
        match self {
            ScalarCol::Vec(v) => v[k],
            ScalarCol::Const(c) => *c,
        }
    }
}

/// The bitmap, over `len` rows, of the rows set in `mask` that a test
/// accepts. `test` receives the mask's rows as picks (the whole block
/// when every row is set) and returns the test of the `k`-th pick.
/// Its answers are written without a branch: a word per 64 rows when
/// every row is set, one OR per pick otherwise.
fn bitmap_where<F: Fn(usize) -> bool>(
    len: usize,
    mask: &Bitmap,
    test: impl FnOnce(Picks<'_>) -> F,
) -> Bitmap {
    let sel = mask.selection();
    let mut bm = Bitmap::new_false(len);
    match &sel {
        None => bm.set_range_from(0, len, test(Picks::Range(0, len))),
        Some(sel) => {
            let keep = test(Picks::Sel(sel));
            for (k, &row) in sel.iter().enumerate() {
                bm.set_if(row as usize, keep(k));
            }
        }
    }
    bm
}

/// Call `f(k, row)` for the `k`-th picked row, in order.
#[inline]
fn for_each_pick(rows: Picks<'_>, mut f: impl FnMut(usize, usize)) {
    match rows {
        Picks::Range(a, b) => (a..b).enumerate().for_each(|(k, row)| f(k, row)),
        Picks::Sel(idx) => idx.iter().enumerate().for_each(|(k, &row)| f(k, row as usize)),
    }
}

/// True when the expression contains a UDF call anywhere. `AND`/`OR`
/// evaluate such a side last, so its UDFs run only on the rows the
/// other side left undecided (see DV303 in dv-lint).
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
fn scalar_has_func(s: &BoundScalar) -> bool {
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
    use dv_types::{Attribute, ColumnGen, DataType, Schema};

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
    fn udf_runs_once_per_row_its_guard_leaves() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let calls = Arc::new(AtomicUsize::new(0));
        let mut udfs = UdfRegistry::new();
        let counter = Arc::clone(&calls);
        udfs.register("COUNTED", Some(2), move |args| {
            counter.fetch_add(1, Ordering::Relaxed);
            args[0] + args[1]
        });
        let s = schema();
        // Rows 0..50 are dense; then `A` is a constant run of 5 and `B`
        // an affine run 2, 5, …, 29. `A > 20` keeps 29 rows and rejects
        // 31; `B > 4.0` keeps 9 dense and 9 affine rows.
        let block = column_block();
        let working: Vec<usize> = (0..s.len()).collect();
        let cx = EvalContext::new(s.len(), &working, &udfs);
        let bound = |pred: &str| {
            let q = parse(&format!("SELECT * FROM T WHERE {pred}")).unwrap();
            bind(&q, &s, &udfs).unwrap().predicate.unwrap()
        };
        // (predicate, UDF calls)
        let cases = [
            ("A > 20 AND COUNTED(A, B) > 30.0", 29),
            ("COUNTED(A, B) > 30.0 AND A > 20", 29),
            ("A > 20 AND COUNTED(A, B) * 2 > C", 29),
            ("A > 20 AND COUNTED(COUNTED(A, B), C) > 30.0", 2 * 29),
            ("B > 4.0 AND COUNTED(A, C) > 0", 18),
            ("A > 20 OR COUNTED(A, B) > 30.0", 31),
            ("COUNTED(A, B) > 30.0 OR A > 20", 31),
            ("A < 0 AND COUNTED(A, B) > 30.0", 0),
            ("A >= 0 OR COUNTED(A, B) > 30.0", 0),
        ];
        for (sql, want) in cases {
            let pred = bound(sql);
            calls.store(0, Ordering::Relaxed);
            let bm = cx.eval_block(&pred, &block);
            assert_eq!(calls.load(Ordering::Relaxed), want, "{sql}");
            for i in 0..block.len() {
                let row: Vec<Value> = block.columns.iter().map(|c| c.value_at(i)).collect();
                assert_eq!(bm.get(i), cx.eval(&pred, &row), "{sql} row {i}");
            }
        }
    }

    /// `eval_block` against `eval` over `value_at` rows, for random
    /// blocks of all six types and random predicate trees with
    /// arithmetic and UDF calls nested at any depth.
    mod one_evaluator {
        use super::*;
        use crate::ast::ArithOp;
        use dv_types::Column;
        use proptest::prelude::*;

        const DTYPES: [DataType; 6] = [
            DataType::Char,
            DataType::Short,
            DataType::Int,
            DataType::Long,
            DataType::Float,
            DataType::Double,
        ];

        /// Floats that compare unlike ordinary numbers.
        const SPECIALS: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 0.5];

        fn wide_schema() -> Schema {
            let names = ["C", "S", "I", "L", "F", "D"];
            Schema::new("W", names.iter().zip(DTYPES).map(|(n, d)| Attribute::new(n, d)).collect())
                .unwrap()
        }

        /// Integers on a small grid (so predicates hit them) or just
        /// past a narrow type's limits (so they wrap).
        fn arb_int() -> impl Strategy<Value = i64> {
            prop_oneof![
                -8i64..8,
                250i64..260,
                32_760i64..32_775,
                65_530i64..65_540,
                2_147_483_640i64..2_147_483_656,
            ]
        }

        fn arb_float() -> impl Strategy<Value = f64> {
            prop_oneof![
                (-8i64..8).prop_map(|v| v as f64 / 2.0),
                (0..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
            ]
        }

        /// A cell of `dtype`: integer types take `int`, float types
        /// take `float`.
        fn cell(dtype: DataType, (int, float): (i64, f64)) -> Value {
            match dtype {
                DataType::Float | DataType::Double => Value::from_f64(dtype, float),
                _ => Value::from_i64(dtype, int),
            }
        }

        /// One column, cut to the block length when built: the quarters
        /// of the block that are dense, the dense cells, and the lazy
        /// runs sharing the rest by weight (`Some(step)` = affine from
        /// the integer, `None` = constant cell).
        #[derive(Debug, Clone)]
        struct ColRecipe {
            dense_quarters: usize,
            cells: Vec<(i64, f64)>,
            runs: Vec<(usize, (i64, f64), Option<i64>)>,
        }

        impl ColRecipe {
            fn build(&self, dtype: DataType, n: usize) -> Column {
                let mut c = Column::new(dtype);
                let dense = n * self.dense_quarters / 4;
                for &raw in &self.cells[..dense] {
                    c.append_data().push_value(cell(dtype, raw));
                }
                let (lazy, total) = (n - dense, self.runs.iter().map(|r| r.0).sum::<usize>());
                let mut left = lazy;
                for (k, &(weight, raw, step)) in self.runs.iter().enumerate() {
                    let last = k + 1 == self.runs.len();
                    let len = if last { left } else { (lazy * weight / total).min(left) };
                    let gen = match step {
                        Some(step) => ColumnGen::Affine { start: raw.0, step },
                        None => ColumnGen::Const(cell(dtype, raw)),
                    };
                    c.push_run(len, gen);
                    left -= len;
                }
                c
            }
        }

        const MAX_ROWS: usize = 150;

        fn arb_col() -> impl Strategy<Value = ColRecipe> {
            let raw = || (arb_int(), arb_float());
            let run = (1usize..20, raw(), prop::option::of(-3i64..4));
            (0usize..5, prop::collection::vec(raw(), MAX_ROWS), prop::collection::vec(run, 1..4))
                .prop_map(|(dense_quarters, cells, runs)| ColRecipe { dense_quarters, cells, runs })
        }

        fn arb_cmp() -> impl Strategy<Value = CmpOp> {
            prop_oneof![
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
            ]
        }

        fn arb_const() -> impl Strategy<Value = f64> {
            prop_oneof![
                arb_float(),
                arb_int().prop_map(|v| v as f64),
                prop_oneof![Just(255.0), Just(32_767.0), Just(-32_768.0), Just(4.0)],
            ]
        }

        /// Attributes, constants, arithmetic and `SPEED` calls, nested
        /// in any order (UDF in arithmetic, UDF in UDF, and back).
        fn arb_scalar() -> BoxedStrategy<BoundScalar> {
            let slot = UdfRegistry::with_builtins().resolve("SPEED", 3).unwrap();
            let arith = prop_oneof![
                Just(ArithOp::Add),
                Just(ArithOp::Sub),
                Just(ArithOp::Mul),
                Just(ArithOp::Div),
            ];
            let leaf = prop_oneof![
                (0..DTYPES.len()).prop_map(BoundScalar::Attr),
                arb_const().prop_map(BoundScalar::Const),
            ];
            leaf.prop_recursive(3, 16, 3, move |inner| {
                prop_oneof![
                    (arith.clone(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| {
                        BoundScalar::Arith { op, lhs: Box::new(l), rhs: Box::new(r) }
                    }),
                    prop::collection::vec(inner, 3)
                        .prop_map(move |args| BoundScalar::Func { slot, args }),
                ]
            })
        }

        fn arb_expr() -> impl Strategy<Value = BoundExpr> {
            let leaf = prop_oneof![
                // The `ATTR op CONST` kernel, both ways round.
                (arb_cmp(), 0..DTYPES.len(), arb_const(), any::<bool>()).prop_map(
                    |(op, a, c, flip)| {
                        let (a, c) = (BoundScalar::Attr(a), BoundScalar::Const(c));
                        let (lhs, rhs) = if flip { (c, a) } else { (a, c) };
                        BoundExpr::Cmp { op, lhs, rhs }
                    }
                ),
                (arb_cmp(), arb_scalar(), arb_scalar()).prop_map(|(op, lhs, rhs)| BoundExpr::Cmp {
                    op,
                    lhs,
                    rhs
                }),
                (arb_scalar(), prop::collection::vec(arb_scalar(), 1..4), any::<bool>())
                    .prop_map(|(expr, list, negated)| BoundExpr::InList { expr, list, negated }),
                (arb_scalar(), arb_scalar(), arb_scalar(), any::<bool>()).prop_map(
                    |(expr, lo, hi, negated)| BoundExpr::Between { expr, lo, hi, negated }
                ),
            ];
            leaf.prop_recursive(3, 24, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone())
                        .prop_map(|(l, r)| BoundExpr::And(Box::new(l), Box::new(r))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(l, r)| BoundExpr::Or(Box::new(l), Box::new(r))),
                    inner.prop_map(|e| BoundExpr::Not(Box::new(e))),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 384 }))]

            // Working rows hold the schema rotated by `rot`, so the
            // context's position map is exercised too.
            #[test]
            fn eval_block_equals_eval_over_value_at(
                n in 0usize..MAX_ROWS,
                rot in 0usize..DTYPES.len(),
                cols in prop::collection::vec(arb_col(), DTYPES.len()),
                pred in arb_expr(),
            ) {
                let s = wide_schema();
                let udfs = UdfRegistry::with_builtins();
                let working: Vec<usize> = (0..s.len()).map(|p| (p + rot) % s.len()).collect();
                let columns = working.iter().zip(&cols).map(|(&a, c)| c.build(DTYPES[a], n));
                let block = ColumnBlock::from_columns(0, columns.collect());
                let cx = EvalContext::new(s.len(), &working, &udfs);
                let bm = cx.eval_block(&pred, &block);
                prop_assert_eq!(bm.len(), n);
                for i in 0..n {
                    let row: Vec<Value> = block.columns.iter().map(|c| c.value_at(i)).collect();
                    prop_assert_eq!(bm.get(i), cx.eval(&pred, &row), "row {} of {:?}", i, pred);
                }
            }
        }
    }

    /// The single-attribute shapes with constant operands (`ATTR op
    /// CONST` both ways round through the word kernels, and `[NOT]
    /// BETWEEN` and `[NOT] IN` through the branch-free `bitmap_where`)
    /// against `eval` over `value_at` rows: every operator on every
    /// column type, over blocks of several words whose dense prefix
    /// ends anywhere, followed by constant and affine runs.
    mod word_kernels {
        use super::*;
        use dv_types::Column;
        use proptest::prelude::*;

        const DTYPES: [DataType; 6] = [
            DataType::Char,
            DataType::Short,
            DataType::Int,
            DataType::Long,
            DataType::Float,
            DataType::Double,
        ];

        const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

        /// Integers that `as f64` rounds (past 2^53), the ends of `i64`,
        /// the edges of the narrow types (which wrap), and a small grid
        /// so that constants hit cells.
        fn arb_int() -> impl Strategy<Value = i64> {
            const WIDE: [i64; 8] = [
                (1 << 53) + 1,
                -(1 << 53) - 1,
                1 << 53,
                i64::MIN,
                i64::MAX,
                255,
                -32_768,
                2_147_483_648,
            ];
            prop_oneof![-4i64..4, (0..WIDE.len()).prop_map(|i| WIDE[i])]
        }

        fn arb_float() -> impl Strategy<Value = f64> {
            const SPECIALS: [f64; 7] =
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 1e300, -1.5];
            prop_oneof![
                (-4i64..4).prop_map(|v| v as f64 / 2.0),
                (0..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
            ]
        }

        /// Comparison constants: the cells' own values (integers as
        /// `f64`, so wide ones round), NaN and both infinities.
        fn arb_const() -> impl Strategy<Value = f64> {
            prop_oneof![arb_float(), arb_int().prop_map(|v| v as f64)]
        }

        /// One column: a dense prefix of `dense` rows (cut to the block
        /// length), then runs sharing the rest by weight — constant
        /// cells (`None`) or affine from a small start (`Some(step)`).
        #[derive(Debug, Clone)]
        struct ColRecipe {
            dense: usize,
            cells: Vec<(i64, f64)>,
            runs: Vec<(usize, (i64, f64), Option<i64>)>,
        }

        fn cell(dtype: DataType, (int, float): (i64, f64)) -> Value {
            match dtype {
                DataType::Float | DataType::Double => Value::from_f64(dtype, float),
                _ => Value::from_i64(dtype, int),
            }
        }

        impl ColRecipe {
            fn build(&self, dtype: DataType, n: usize) -> Column {
                let mut c = Column::new(dtype);
                let dense = self.dense.min(n);
                for &raw in &self.cells[..dense] {
                    c.append_data().push_value(cell(dtype, raw));
                }
                let (lazy, total) = (n - dense, self.runs.iter().map(|r| r.0).sum::<usize>());
                let mut left = lazy;
                for (k, &(weight, raw, step)) in self.runs.iter().enumerate() {
                    let last = k + 1 == self.runs.len();
                    let len = if last { left } else { (lazy * weight / total).min(left) };
                    let gen = match step {
                        // Affine starts stay small: `start + k * step`
                        // must not overflow.
                        Some(step) => ColumnGen::Affine { start: raw.0.clamp(-300, 300), step },
                        None => ColumnGen::Const(cell(dtype, raw)),
                    };
                    c.push_run(len, gen);
                    left -= len;
                }
                c
            }
        }

        const MAX_ROWS: usize = 300;

        fn arb_col() -> impl Strategy<Value = ColRecipe> {
            let raw = || (arb_int(), arb_float());
            let run = (1usize..40, raw(), prop::option::of(-3i64..4));
            (
                0..MAX_ROWS + 1,
                prop::collection::vec(raw(), MAX_ROWS),
                prop::collection::vec(run, 1..4),
            )
                .prop_map(|(dense, cells, runs)| ColRecipe { dense, cells, runs })
        }

        /// Every single-attribute shape on attribute `a`, with constants
        /// `c` (comparisons, and the first two as `BETWEEN` bounds) and
        /// `list` (`IN` items).
        fn shapes(a: usize, c: [f64; 2], list: &[f64]) -> Vec<BoundExpr> {
            let (attr, k) = (BoundScalar::Attr(a), BoundScalar::Const(c[0]));
            let mut out = Vec::new();
            for op in OPS {
                out.push(BoundExpr::Cmp { op, lhs: attr.clone(), rhs: k.clone() });
                out.push(BoundExpr::Cmp { op, lhs: k.clone(), rhs: attr.clone() });
            }
            for negated in [false, true] {
                out.push(BoundExpr::Between {
                    expr: attr.clone(),
                    lo: BoundScalar::Const(c[0]),
                    hi: BoundScalar::Const(c[1]),
                    negated,
                });
                out.push(BoundExpr::InList {
                    expr: attr.clone(),
                    list: list.iter().map(|&x| BoundScalar::Const(x)).collect(),
                    negated,
                });
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

            #[test]
            fn word_kernels_equal_eval_over_value_at(
                n in 0..MAX_ROWS + 1,
                cols in prop::collection::vec(arb_col(), DTYPES.len()),
                c in (arb_const(), arb_const()),
                list in prop::collection::vec(arb_const(), 1..5),
            ) {
                let s = Schema::new(
                    "W",
                    DTYPES.iter().enumerate().map(|(i, &d)| Attribute::new(format!("A{i}"), d)).collect(),
                )
                .unwrap();
                let udfs = UdfRegistry::new();
                let working: Vec<usize> = (0..s.len()).collect();
                let columns = cols.iter().zip(DTYPES).map(|(c, d)| c.build(d, n));
                let block = ColumnBlock::from_columns(0, columns.collect());
                let cx = EvalContext::new(s.len(), &working, &udfs);
                let rows: Vec<Vec<Value>> = (0..n)
                    .map(|i| block.columns.iter().map(|c| c.value_at(i)).collect())
                    .collect();
                for a in 0..DTYPES.len() {
                    for pred in shapes(a, [c.0, c.1], &list) {
                        let bm = cx.eval_block(&pred, &block);
                        prop_assert_eq!(bm.len(), n);
                        for (i, row) in rows.iter().enumerate() {
                            prop_assert_eq!(bm.get(i), cx.eval(&pred, row), "row {} of {:?}", i, pred);
                        }
                    }
                }
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
