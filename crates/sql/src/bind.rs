//! Name resolution: AST → bound query.
//!
//! Binding resolves column names to schema attribute indices, function
//! names to [`UdfRegistry`] slots, folds constant arithmetic, and
//! computes the projection. A [`BoundQuery`] is the hand-off format
//! between the SQL front-end and the layout compiler / runtime: all
//! string lookups are done exactly once, before any file is touched.

use dv_types::{AggFunc, Attribute, DataType, DvError, Result, Schema, MAX_GROUP_COLS};

use crate::ast::{ArithOp, CmpOp, Expr, Query, Scalar, SelectItem, SelectList};
use crate::udf::UdfRegistry;

/// A bound scalar expression: all names resolved to indices, constants
/// folded.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundScalar {
    /// Schema attribute by index.
    Attr(usize),
    /// Constant (integer literals widen losslessly for our domains).
    Const(f64),
    /// UDF call by registry slot.
    Func {
        slot: usize,
        args: Vec<BoundScalar>,
    },
    Arith {
        op: ArithOp,
        lhs: Box<BoundScalar>,
        rhs: Box<BoundScalar>,
    },
}

/// A bound boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    Cmp { op: CmpOp, lhs: BoundScalar, rhs: BoundScalar },
    InList { expr: BoundScalar, list: Vec<BoundScalar>, negated: bool },
    Between { expr: BoundScalar, lo: BoundScalar, hi: BoundScalar, negated: bool },
}

/// One bound aggregate call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundAgg {
    pub func: AggFunc,
    /// Schema attribute index of the argument; `None` = `COUNT(*)`.
    pub arg: Option<usize>,
}

/// One output column of an aggregate query, in select-list order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOutput {
    /// Index into [`BoundAggSpec::group_by`].
    Group(usize),
    /// Index into [`BoundAggSpec::aggs`].
    Agg(usize),
}

/// The aggregation half of a bound query: `GROUP BY` keys, aggregate
/// calls, and the select-list output order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundAggSpec {
    /// Schema attribute indices of the `GROUP BY` columns, in clause
    /// order (at most [`MAX_GROUP_COLS`]). Empty = global aggregate.
    pub group_by: Vec<usize>,
    /// Aggregate calls in select-list appearance order.
    pub aggs: Vec<BoundAgg>,
    /// Output columns in select-list order.
    pub output: Vec<AggOutput>,
}

impl BoundAggSpec {
    /// The aggregate functions, in [`BoundAggSpec::aggs`] order.
    pub fn funcs(&self) -> Vec<AggFunc> {
        self.aggs.iter().map(|a| a.func).collect()
    }

    /// Data types of the `GROUP BY` key columns.
    pub fn group_dtypes(&self, schema: &Schema) -> Vec<DataType> {
        self.group_by.iter().map(|&i| schema.attr_at(i).dtype).collect()
    }

    /// Result data type of aggregate `a`.
    pub fn result_dtype(&self, a: usize, schema: &Schema) -> DataType {
        let agg = &self.aggs[a];
        agg.func.result_dtype(agg.arg.map(|i| schema.attr_at(i).dtype))
    }

    /// Schema of the finalized aggregate result, in select-list order.
    pub fn output_schema(&self, schema: &Schema) -> Schema {
        let attrs: Vec<Attribute> = self
            .output
            .iter()
            .map(|o| match *o {
                AggOutput::Group(k) => schema.attr_at(self.group_by[k]).clone(),
                AggOutput::Agg(a) => {
                    let agg = &self.aggs[a];
                    let name = match agg.arg {
                        Some(i) => format!("{}({})", agg.func, schema.attr_at(i).name),
                        None => format!("{}(*)", agg.func),
                    };
                    Attribute::new(name, self.result_dtype(a, schema))
                }
            })
            .collect();
        Schema::new(schema.name.clone(), attrs).expect("binder rejects duplicate output columns")
    }
}

/// A fully-resolved query ready for planning and execution.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// Dataset name as written in `FROM` (matched case-insensitively
    /// against the descriptor's dataset name by the planner).
    pub dataset: String,
    /// Schema the query was bound against.
    pub schema: Schema,
    /// Indices of the selected attributes, in output order. For
    /// aggregate queries this is the sorted, deduplicated union of the
    /// `GROUP BY` columns and aggregate arguments — exactly what the
    /// nodes must materialize.
    pub projection: Vec<usize>,
    /// Bound WHERE clause, if any.
    pub predicate: Option<BoundExpr>,
    /// Aggregation spec when the query aggregates (`GROUP BY` and/or
    /// aggregate select items).
    pub agg: Option<BoundAggSpec>,
}

impl BoundQuery {
    /// Schema of the result rows.
    pub fn output_schema(&self) -> Schema {
        match &self.agg {
            Some(spec) => spec.output_schema(&self.schema),
            None => self.schema.project(&self.projection),
        }
    }

    /// Indices of every attribute the execution needs: the projection
    /// plus all attributes the predicate reads. Sorted, deduplicated.
    /// This is the *working set* the extraction service materializes —
    /// files holding none of these attributes are never opened.
    pub fn needed_attrs(&self) -> Vec<usize> {
        let mut out = self.projection.clone();
        if let Some(p) = &self.predicate {
            collect_expr_attrs(p, &mut out);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn collect_expr_attrs(e: &BoundExpr, out: &mut Vec<usize>) {
    match e {
        BoundExpr::And(l, r) | BoundExpr::Or(l, r) => {
            collect_expr_attrs(l, out);
            collect_expr_attrs(r, out);
        }
        BoundExpr::Not(i) => collect_expr_attrs(i, out),
        BoundExpr::Cmp { lhs, rhs, .. } => {
            collect_scalar_attrs(lhs, out);
            collect_scalar_attrs(rhs, out);
        }
        BoundExpr::InList { expr, list, .. } => {
            collect_scalar_attrs(expr, out);
            for s in list {
                collect_scalar_attrs(s, out);
            }
        }
        BoundExpr::Between { expr, lo, hi, .. } => {
            collect_scalar_attrs(expr, out);
            collect_scalar_attrs(lo, out);
            collect_scalar_attrs(hi, out);
        }
    }
}

fn collect_scalar_attrs(s: &BoundScalar, out: &mut Vec<usize>) {
    match s {
        BoundScalar::Attr(i) => out.push(*i),
        BoundScalar::Const(_) => {}
        BoundScalar::Func { args, .. } => {
            for a in args {
                collect_scalar_attrs(a, out);
            }
        }
        BoundScalar::Arith { lhs, rhs, .. } => {
            collect_scalar_attrs(lhs, out);
            collect_scalar_attrs(rhs, out);
        }
    }
}

/// Bind a parsed query against a schema and UDF registry.
pub fn bind(query: &Query, schema: &Schema, udfs: &UdfRegistry) -> Result<BoundQuery> {
    let is_agg = !query.group_by.is_empty()
        || matches!(&query.select, SelectList::Columns(cols)
            if cols.iter().any(|c| matches!(c, SelectItem::Agg { .. })));

    let (projection, agg) = if is_agg {
        let spec = bind_agg(query, schema)?;
        let mut proj: Vec<usize> = spec.group_by.clone();
        proj.extend(spec.aggs.iter().filter_map(|a| a.arg));
        proj.sort_unstable();
        proj.dedup();
        (proj, Some(spec))
    } else {
        let proj = match &query.select {
            SelectList::All => (0..schema.len()).collect(),
            SelectList::Columns(cols) => {
                let names: Vec<String> = cols
                    .iter()
                    .map(|c| match c {
                        SelectItem::Column(n) => n.clone(),
                        SelectItem::Agg { .. } => unreachable!("agg handled above"),
                    })
                    .collect();
                schema.resolve(&names)?
            }
        };
        (proj, None)
    };
    let predicate = query.predicate.as_ref().map(|p| bind_expr(p, schema, udfs)).transpose()?;
    Ok(BoundQuery {
        dataset: query.dataset.clone(),
        schema: schema.clone(),
        projection,
        predicate,
        agg,
    })
}

/// Resolve the aggregation half of a query: `GROUP BY` columns,
/// aggregate calls, and the select-list output order.
fn bind_agg(query: &Query, schema: &Schema) -> Result<BoundAggSpec> {
    let cols = match &query.select {
        SelectList::All => {
            return Err(DvError::Binding(
                "SELECT * cannot be combined with GROUP BY; list the grouped columns and \
                 aggregates explicitly"
                    .into(),
            ));
        }
        SelectList::Columns(cols) => cols,
    };
    let mut group_by = Vec::with_capacity(query.group_by.len());
    for name in &query.group_by {
        let idx = schema.index_of(name).ok_or_else(|| {
            DvError::Binding(format!(
                "unknown attribute `{name}` in GROUP BY (schema `{}`)",
                schema.name
            ))
        })?;
        if group_by.contains(&idx) {
            return Err(DvError::Binding(format!("duplicate GROUP BY column `{name}`")));
        }
        group_by.push(idx);
    }
    if group_by.len() > MAX_GROUP_COLS {
        return Err(DvError::Binding(format!(
            "GROUP BY supports at most {MAX_GROUP_COLS} columns, got {}",
            group_by.len()
        )));
    }
    let mut aggs: Vec<BoundAgg> = Vec::new();
    let mut output = Vec::with_capacity(cols.len());
    for item in cols {
        match item {
            SelectItem::Column(name) => {
                let idx = schema.index_of(name).ok_or_else(|| {
                    DvError::Binding(format!(
                        "unknown attribute `{name}` in schema `{}`",
                        schema.name
                    ))
                })?;
                let k = group_by.iter().position(|&g| g == idx).ok_or_else(|| {
                    DvError::Binding(format!(
                        "column `{name}` must appear in GROUP BY or inside an aggregate"
                    ))
                })?;
                if output.contains(&AggOutput::Group(k)) {
                    return Err(DvError::Binding(format!(
                        "column `{name}` selected more than once in an aggregate query"
                    )));
                }
                output.push(AggOutput::Group(k));
            }
            SelectItem::Agg { func, arg } => {
                let arg_idx = match arg {
                    Some(name) => Some(schema.index_of(name).ok_or_else(|| {
                        DvError::Binding(format!(
                            "unknown attribute `{name}` in {func} (schema `{}`)",
                            schema.name
                        ))
                    })?),
                    None => None,
                };
                let bound = BoundAgg { func: *func, arg: arg_idx };
                if aggs.contains(&bound) {
                    return Err(DvError::Binding(format!(
                        "duplicate aggregate `{item}` in select list"
                    )));
                }
                aggs.push(bound);
                output.push(AggOutput::Agg(aggs.len() - 1));
            }
        }
    }
    Ok(BoundAggSpec { group_by, aggs, output })
}

fn bind_expr(e: &Expr, schema: &Schema, udfs: &UdfRegistry) -> Result<BoundExpr> {
    Ok(match e {
        Expr::And(l, r) => BoundExpr::And(
            Box::new(bind_expr(l, schema, udfs)?),
            Box::new(bind_expr(r, schema, udfs)?),
        ),
        Expr::Or(l, r) => BoundExpr::Or(
            Box::new(bind_expr(l, schema, udfs)?),
            Box::new(bind_expr(r, schema, udfs)?),
        ),
        Expr::Not(i) => BoundExpr::Not(Box::new(bind_expr(i, schema, udfs)?)),
        Expr::Cmp { op, lhs, rhs } => BoundExpr::Cmp {
            op: *op,
            lhs: bind_scalar(lhs, schema, udfs)?,
            rhs: bind_scalar(rhs, schema, udfs)?,
        },
        Expr::InList { expr, list, negated } => BoundExpr::InList {
            expr: bind_scalar(expr, schema, udfs)?,
            list: list.iter().map(|s| bind_scalar(s, schema, udfs)).collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between { expr, lo, hi, negated } => BoundExpr::Between {
            expr: bind_scalar(expr, schema, udfs)?,
            lo: bind_scalar(lo, schema, udfs)?,
            hi: bind_scalar(hi, schema, udfs)?,
            negated: *negated,
        },
    })
}

fn bind_scalar(s: &Scalar, schema: &Schema, udfs: &UdfRegistry) -> Result<BoundScalar> {
    Ok(match s {
        Scalar::Column(name) => {
            let idx = schema.index_of(name).ok_or_else(|| {
                DvError::Binding(format!("unknown attribute `{name}` in schema `{}`", schema.name))
            })?;
            BoundScalar::Attr(idx)
        }
        Scalar::IntLit(v) => BoundScalar::Const(*v as f64),
        Scalar::FloatLit(v) => BoundScalar::Const(*v),
        Scalar::Neg(inner) => {
            let b = bind_scalar(inner, schema, udfs)?;
            match b {
                BoundScalar::Const(v) => BoundScalar::Const(-v),
                other => BoundScalar::Arith {
                    op: ArithOp::Sub,
                    lhs: Box::new(BoundScalar::Const(0.0)),
                    rhs: Box::new(other),
                },
            }
        }
        Scalar::Func { name, args } => {
            // A bare call like `Speed()` pulls the function's
            // registered implicit argument attributes.
            let bound_args: Vec<BoundScalar> = if args.is_empty() {
                let implicit = udfs.implicit_args(name)?.to_vec();
                implicit
                    .iter()
                    .map(|attr| bind_scalar(&Scalar::Column(attr.clone()), schema, udfs))
                    .collect::<Result<_>>()?
            } else {
                args.iter().map(|a| bind_scalar(a, schema, udfs)).collect::<Result<_>>()?
            };
            let slot = udfs.resolve(name, bound_args.len())?;
            BoundScalar::Func { slot, args: bound_args }
        }
        Scalar::Arith { op, lhs, rhs } => {
            let l = bind_scalar(lhs, schema, udfs)?;
            let r = bind_scalar(rhs, schema, udfs)?;
            match (&l, &r) {
                // Constant folding: loop-bound arithmetic like 100*4+1
                // disappears at bind time.
                (BoundScalar::Const(a), BoundScalar::Const(b)) => {
                    BoundScalar::Const(op.apply(*a, *b))
                }
                _ => BoundScalar::Arith { op: *op, lhs: Box::new(l), rhs: Box::new(r) },
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use dv_types::{Attribute, DataType};

    fn schema() -> Schema {
        Schema::new(
            "IPARS",
            vec![
                Attribute::new("REL", DataType::Short),
                Attribute::new("TIME", DataType::Int),
                Attribute::new("SOIL", DataType::Float),
                Attribute::new("OILVX", DataType::Float),
                Attribute::new("OILVY", DataType::Float),
                Attribute::new("OILVZ", DataType::Float),
            ],
        )
        .unwrap()
    }

    fn bindq(sql: &str) -> Result<BoundQuery> {
        let q = parse(sql)?;
        bind(&q, &schema(), &UdfRegistry::with_builtins())
    }

    #[test]
    fn star_projects_all() {
        let b = bindq("SELECT * FROM IPARS").unwrap();
        assert_eq!(b.projection, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(b.output_schema().len(), 6);
    }

    #[test]
    fn named_projection_order_kept() {
        let b = bindq("SELECT soil, rel FROM IPARS").unwrap();
        assert_eq!(b.projection, vec![2, 0]);
        assert_eq!(b.output_schema().attributes()[0].name, "SOIL");
    }

    #[test]
    fn unknown_column_rejected() {
        assert!(bindq("SELECT * FROM IPARS WHERE BOGUS > 1").is_err());
        assert!(bindq("SELECT BOGUS FROM IPARS").is_err());
    }

    #[test]
    fn needed_attrs_union_select_and_where() {
        let b =
            bindq("SELECT SOIL FROM IPARS WHERE TIME > 10 AND SPEED(OILVX, OILVY, OILVZ) < 30.0")
                .unwrap();
        assert_eq!(b.needed_attrs(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn constant_folding() {
        let b = bindq("SELECT * FROM IPARS WHERE TIME > 100 * 4 + 1").unwrap();
        match b.predicate.unwrap() {
            BoundExpr::Cmp { rhs: BoundScalar::Const(v), .. } => assert_eq!(v, 401.0),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn negative_literal_folds() {
        let b = bindq("SELECT * FROM IPARS WHERE TIME > -5").unwrap();
        match b.predicate.unwrap() {
            BoundExpr::Cmp { rhs: BoundScalar::Const(v), .. } => assert_eq!(v, -5.0),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn udf_resolved_to_slot() {
        let b = bindq("SELECT * FROM IPARS WHERE SPEED(OILVX, OILVY, OILVZ) <= 30.0").unwrap();
        match b.predicate.unwrap() {
            BoundExpr::Cmp { lhs: BoundScalar::Func { args, .. }, .. } => {
                assert_eq!(args.len(), 3);
                assert_eq!(args[0], BoundScalar::Attr(3));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn bare_udf_uses_implicit_args() {
        let mut udfs = UdfRegistry::with_builtins();
        udfs.register_with_implicit_args(
            "SPEED",
            Some(3),
            vec!["OILVX".into(), "OILVY".into(), "OILVZ".into()],
            |a| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt(),
        );
        let q = parse("SELECT * FROM IPARS WHERE Speed() < 30").unwrap();
        let b = bind(&q, &schema(), &udfs).unwrap();
        match b.predicate.unwrap() {
            BoundExpr::Cmp { lhs: BoundScalar::Func { args, .. }, .. } => {
                assert_eq!(
                    args,
                    vec![BoundScalar::Attr(3), BoundScalar::Attr(4), BoundScalar::Attr(5)]
                );
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn bare_udf_without_implicit_args_fails_arity() {
        // Builtin SPEED has arity 3 but no implicit args registered.
        assert!(bindq("SELECT * FROM IPARS WHERE SPEED() < 30").is_err());
    }

    #[test]
    fn group_by_aggregate_binds() {
        let b = bindq("SELECT REL, COUNT(*), AVG(SOIL) FROM IPARS GROUP BY REL").unwrap();
        let spec = b.agg.as_ref().unwrap();
        assert_eq!(spec.group_by, vec![0]);
        assert_eq!(
            spec.aggs,
            vec![
                BoundAgg { func: AggFunc::Count, arg: None },
                BoundAgg { func: AggFunc::Avg, arg: Some(2) },
            ]
        );
        assert_eq!(spec.output, vec![AggOutput::Group(0), AggOutput::Agg(0), AggOutput::Agg(1)]);
        // Projection = sorted dedup(group ∪ args): REL(0) and SOIL(2).
        assert_eq!(b.projection, vec![0, 2]);
        let out = b.output_schema();
        assert_eq!(out.attributes()[0].name, "REL");
        assert_eq!(out.attributes()[1].name, "COUNT(*)");
        assert_eq!(out.attributes()[1].dtype, DataType::Long);
        assert_eq!(out.attributes()[2].name, "AVG(SOIL)");
        assert_eq!(out.attributes()[2].dtype, DataType::Double);
    }

    #[test]
    fn min_max_keep_argument_dtype() {
        let b = bindq("SELECT MIN(TIME), MAX(SOIL) FROM IPARS").unwrap();
        let out = b.output_schema();
        assert_eq!(out.attributes()[0].dtype, DataType::Int);
        assert_eq!(out.attributes()[1].dtype, DataType::Float);
        // Global aggregate: no group columns, projection = args only.
        assert_eq!(b.agg.as_ref().unwrap().group_by, Vec::<usize>::new());
        assert_eq!(b.projection, vec![1, 2]);
    }

    #[test]
    fn group_by_without_aggregates_is_distinct() {
        let b = bindq("SELECT REL, TIME FROM IPARS GROUP BY REL, TIME").unwrap();
        let spec = b.agg.as_ref().unwrap();
        assert!(spec.aggs.is_empty());
        assert_eq!(spec.output, vec![AggOutput::Group(0), AggOutput::Group(1)]);
    }

    #[test]
    fn needed_attrs_cover_agg_args_and_predicate() {
        let b = bindq("SELECT REL, SUM(SOIL) FROM IPARS WHERE TIME > 10 GROUP BY REL").unwrap();
        assert_eq!(b.projection, vec![0, 2]);
        assert_eq!(b.needed_attrs(), vec![0, 1, 2]);
    }

    #[test]
    fn agg_validation_errors() {
        // SELECT * with GROUP BY.
        assert!(bindq("SELECT * FROM IPARS GROUP BY REL").is_err());
        // Bare column not in GROUP BY.
        assert!(bindq("SELECT SOIL, COUNT(*) FROM IPARS GROUP BY REL").is_err());
        // Duplicate GROUP BY column.
        assert!(bindq("SELECT REL FROM IPARS GROUP BY REL, REL").is_err());
        // Duplicate aggregate item (would collide in the output schema).
        assert!(bindq("SELECT SUM(SOIL), SUM(SOIL) FROM IPARS GROUP BY REL").is_err());
        // Duplicate grouped column in the select list.
        assert!(bindq("SELECT REL, REL FROM IPARS GROUP BY REL").is_err());
        // Unknown names.
        assert!(bindq("SELECT COUNT(*) FROM IPARS GROUP BY BOGUS").is_err());
        assert!(bindq("SELECT SUM(BOGUS) FROM IPARS GROUP BY REL").is_err());
    }

    #[test]
    fn grouped_key_may_be_omitted_from_select() {
        let b = bindq("SELECT COUNT(*) FROM IPARS GROUP BY REL").unwrap();
        let spec = b.agg.as_ref().unwrap();
        assert_eq!(spec.group_by, vec![0]);
        assert_eq!(spec.output, vec![AggOutput::Agg(0)]);
        assert_eq!(b.output_schema().attributes()[0].name, "COUNT(*)");
    }
}
