//! Query lints DV101–DV103 and DV106: a SQL query checked against a
//! resolved dataset model.
//!
//! SQL has no per-token spans, so query diagnostics anchor to the
//! WHERE clause of the query string.

use std::collections::HashMap;

use dv_descriptor::DatasetModel;
use dv_layout::groups::file_matches;
use dv_sql::analysis::attribute_ranges;
use dv_sql::eval::expr_has_func;
use dv_sql::{bind, parse, AggFunc, BoundAggSpec, BoundExpr, BoundScalar, UdfRegistry};
use dv_types::{IntervalSet, Result, Span};

use crate::diag::{Code, Diagnostic};

/// Span of the WHERE clause (or the whole query when there is none).
fn where_span(sql: &str) -> Span {
    match sql.to_ascii_uppercase().find("WHERE") {
        Some(p) => Span::new(p, sql.trim_end().len().max(p + 5)),
        None => Span::new(0, sql.trim_end().len().max(1)),
    }
}

/// Attribute indices read (transitively) by a scalar.
fn scalar_attrs(s: &BoundScalar, out: &mut Vec<usize>) {
    match s {
        BoundScalar::Attr(i) => out.push(*i),
        BoundScalar::Const(_) => {}
        BoundScalar::Func { args, .. } => {
            for a in args {
                scalar_attrs(a, out);
            }
        }
        BoundScalar::Arith { lhs, rhs, .. } => {
            scalar_attrs(lhs, out);
            scalar_attrs(rhs, out);
        }
    }
}

/// Does this scalar contain a UDF call whose arguments read one of the
/// given attributes? Returns the first such attribute index.
fn udf_over_attr(s: &BoundScalar, attrs: &[usize]) -> Option<usize> {
    match s {
        BoundScalar::Attr(_) | BoundScalar::Const(_) => None,
        BoundScalar::Func { args, .. } => {
            let mut read = Vec::new();
            for a in args {
                scalar_attrs(a, &mut read);
            }
            read.into_iter()
                .find(|i| attrs.contains(i))
                .or_else(|| args.iter().find_map(|a| udf_over_attr(a, attrs)))
        }
        BoundScalar::Arith { lhs, rhs, .. } => {
            udf_over_attr(lhs, attrs).or_else(|| udf_over_attr(rhs, attrs))
        }
    }
}

/// DV102: find comparisons whose scalars wrap an index-prunable
/// attribute inside a UDF call.
fn check_udf_filters(
    pred: &BoundExpr,
    index_attrs: &[usize],
    model: &DatasetModel,
    span: Span,
    diags: &mut Vec<Diagnostic>,
) {
    match pred {
        BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
            check_udf_filters(a, index_attrs, model, span, diags);
            check_udf_filters(b, index_attrs, model, span, diags);
        }
        BoundExpr::Not(inner) => check_udf_filters(inner, index_attrs, model, span, diags),
        BoundExpr::Cmp { lhs, rhs, .. } => {
            for s in [lhs, rhs] {
                if let Some(i) = udf_over_attr(s, index_attrs) {
                    push_udf_diag(i, model, span, diags);
                }
            }
        }
        BoundExpr::InList { expr, list, .. } => {
            for s in std::iter::once(expr).chain(list.iter()) {
                if let Some(i) = udf_over_attr(s, index_attrs) {
                    push_udf_diag(i, model, span, diags);
                }
            }
        }
        BoundExpr::Between { expr, lo, hi, .. } => {
            for s in [expr, lo, hi] {
                if let Some(i) = udf_over_attr(s, index_attrs) {
                    push_udf_diag(i, model, span, diags);
                }
            }
        }
    }
}

fn push_udf_diag(attr: usize, model: &DatasetModel, span: Span, diags: &mut Vec<Diagnostic>) {
    let name = &model.schema.attr_at(attr).name;
    let d = Diagnostic::new(
        Code::Dv102,
        span,
        format!("UDF filter over index attribute `{name}` defeats index-based file pruning"),
    )
    .with_help(format!(
        "range analysis cannot see through the call; compare `{name}` directly to keep pruning"
    ));
    if !diags.contains(&d) {
        diags.push(d);
    }
}

/// Span of the first case-insensitive occurrence of `needle` at or
/// after byte `from`, falling back to the WHERE-clause span.
fn span_from(sql: &str, from: usize, needle: &str) -> Span {
    let upper = sql.to_ascii_uppercase();
    match upper[from.min(upper.len())..].find(&needle.to_ascii_uppercase()) {
        Some(p) => Span::new(from + p, from + p + needle.len()),
        None => where_span(sql),
    }
}

/// DV106: degenerate aggregation. A `GROUP BY` key that the descriptor
/// pins to one value puts every row in a single group (the aggregate
/// analogue of DV305), and `AVG`/`SUM` over a non-stored pinned
/// coordinate computes a constant (resp. a scaled row count) no data
/// byte can influence.
fn check_degenerate_agg(
    spec: &BoundAggSpec,
    model: &DatasetModel,
    sql: &str,
    diags: &mut Vec<Diagnostic>,
) {
    // Hulls exist only for never-stored attributes; a pinned one has
    // lo == hi across every file's bindings and extents.
    let hulls = crate::prune::dataset_hulls(model);
    let pinned = |idx: usize| hulls.get(&idx).filter(|(lo, hi)| lo == hi).map(|&(lo, _)| lo);

    let group_clause = sql.to_ascii_uppercase().find("GROUP").unwrap_or(0);
    for &g in &spec.group_by {
        let Some(v) = pinned(g) else { continue };
        let name = &model.schema.attr_at(g).name;
        diags.push(
            Diagnostic::new(
                Code::Dv106,
                span_from(sql, group_clause, name),
                format!(
                    "GROUP BY `{name}` keys on a coordinate the descriptor never varies \
                     (always {v}); every row falls into one group"
                ),
            )
            .with_help(
                "drop the key or widen the coordinate's range in the descriptor — DV305 \
                 reports the same pinning when a predicate constrains it",
            ),
        );
    }
    for agg in &spec.aggs {
        if !matches!(agg.func, AggFunc::Sum | AggFunc::Avg) {
            continue;
        }
        let Some(arg) = agg.arg else { continue };
        let Some(v) = pinned(arg) else { continue };
        let name = &model.schema.attr_at(arg).name;
        diags.push(
            Diagnostic::new(
                Code::Dv106,
                span_from(sql, 0, &format!("{}({name})", agg.func)),
                format!(
                    "{}(`{name}`) aggregates a non-stored coordinate the descriptor pins \
                     to {v}; the result is determined without reading any data",
                    agg.func
                ),
            )
            .with_help(format!(
                "the descriptor binds `{name}` to the constant {v} in every file — \
                 aggregate a stored attribute or COUNT rows instead"
            )),
        );
    }
}

/// Lint one SQL query against a resolved model. Parse/bind errors are
/// returned as `Err`; lint findings come back as diagnostics whose
/// spans index into `sql`.
pub fn lint_query(model: &DatasetModel, sql: &str, udfs: &UdfRegistry) -> Result<Vec<Diagnostic>> {
    let query = parse(sql)?;
    let bound = bind(&query, &model.schema, udfs)?;
    let mut diags = Vec::new();
    let span = where_span(sql);

    // DV106 fires with or without a WHERE clause.
    if let Some(spec) = &bound.agg {
        check_degenerate_agg(spec, model, sql, &mut diags);
    }

    let Some(pred) = &bound.predicate else {
        diags.sort_by_key(|d| (d.span.start, d.code));
        return Ok(diags);
    };

    // DV101a: some attribute's derived interval set is empty — the
    // predicate can never be satisfied.
    let ranges = attribute_ranges(pred);
    let mut unsat = false;
    for (idx, set) in &ranges {
        if set.is_empty() {
            unsat = true;
            let name = &model.schema.attr_at(*idx).name;
            diags.push(
                Diagnostic::new(
                    Code::Dv101,
                    span,
                    format!("predicate constrains `{name}` to an empty set; it selects no rows"),
                )
                .with_help("the WHERE clause is unsatisfiable — the query always returns 0 rows"),
            );
        }
    }

    // DV101b: satisfiable ranges, but no file's implicit extents
    // overlap them — the query scans nothing.
    if !unsat && !ranges.is_empty() && !model.files.is_empty() {
        let by_name: HashMap<String, IntervalSet> = ranges
            .iter()
            .map(|(idx, set)| (model.schema.attr_at(*idx).name.clone(), set.clone()))
            .collect();
        if !model.files.iter().any(|f| file_matches(f, &by_name)) {
            diags.push(
                Diagnostic::new(
                    Code::Dv101,
                    span,
                    "predicate is outside the extents of every file; it selects no rows"
                        .to_string(),
                )
                .with_help("the constrained attributes never take these values in any stored file"),
            );
        }
    }

    // DV102: UDFs wrapping index attributes.
    let index_attrs = model.index_attr_indices();
    if !index_attrs.is_empty() {
        check_udf_filters(pred, &index_attrs, model, span, &mut diags);
    }

    // DV103: a UDF filter with no vectorizable guard. The columnar
    // engine evaluates UDF-free conjuncts first, then calls each UDF
    // once per surviving row over typed argument columns; when *every*
    // top-level conjunct contains a UDF call, that narrowing never
    // happens and the UDF runs on every row of the block.
    if expr_has_func(pred) {
        let mut conjuncts = Vec::new();
        flatten_and(pred, &mut conjuncts);
        if conjuncts.iter().all(|c| expr_has_func(c)) {
            diags.push(
                Diagnostic::new(
                    Code::Dv103,
                    span,
                    "user-defined filter has no vectorizable guard; the UDF is called on every \
                     row of every block",
                )
                .with_help(
                    "AND a plain comparison (e.g. a range on an attribute) so the columnar \
                     engine can narrow rows before calling the UDF",
                ),
            );
        }
    }

    diags.sort_by_key(|d| (d.span.start, d.code));
    Ok(diags)
}

/// Flatten nested top-level ANDs into a conjunct list.
fn flatten_and<'p>(pred: &'p BoundExpr, out: &mut Vec<&'p BoundExpr>) {
    match pred {
        BoundExpr::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}
