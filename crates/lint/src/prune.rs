//! The query pass: DV106 and DV301–DV305, one SQL query decided
//! against the descriptor's extents.
//!
//! The runtime half of dv-prune ([`dv_layout::prune`]) decides each
//! aligned file chunk at plan time; this pass runs the planner's own
//! analyses at *lint* time, over the hulls the descriptor promises, so
//! contradictions and tautologies surface before any data exists on
//! disk. The query is parsed and bound once, and each analysis runs
//! once: the range analysis behind the planner's file filter
//! ([`attribute_ranges`] + [`file_matches`]), the three-valued
//! evaluator behind its chunk pruner ([`abstract_eval`]) over the
//! dataset-wide and per-file envs, and [`prune_blockers`] per
//! top-level conjunct. Each cause gets one code:
//!
//! * **DV301** — statically empty: an attribute's range is empty, no
//!   file passes the planner's file filter, or the predicate is
//!   `False` over the dataset box or over every file's own box.
//! * **DV302** — tautological over the dataset box.
//! * **DV303** — no top-level conjunct is free of prune blockers (UDF
//!   calls, non-finite constants), so nothing can prune and, when
//!   every conjunct calls a UDF, the UDF runs on every row.
//! * **DV304** — per-file prune summary note.
//! * **DV305** — the predicate constrains a never-varying coordinate.
//! * **DV106** — degenerate aggregation over a pinned coordinate.
//!
//! Environments used here, both sound over-approximations:
//!
//! * **Dataset-wide env** — for every schema attribute that is only
//!   ever implicit (bound by a loop or file-binding variable, stored
//!   in no file), the union of its hulls across all files. Every row
//!   the dataset can produce has its implicit values inside this box,
//!   so `False` here means *statically empty* (DV301) and `True`
//!   means *tautological* (DV302).
//! * **Per-file env** — the same, restricted to one file's own
//!   extents and bindings. A file is provably empty when it fails the
//!   planner's file filter or the predicate is `False` in its box;
//!   these verdicts drive DV301's per-file test and the DV304 note.
//!
//! Attributes stored in *any* file are excluded from both envs: their
//! byte values are unconstrained by the descriptor (a stored float may
//! even be NaN), so the evaluator must see them as unbounded.
//!
//! SQL has no per-token spans, so diagnostics anchor to the WHERE
//! clause, or to the first occurrence of the named call or attribute.

use std::collections::{BTreeSet, HashMap};

use dv_descriptor::{DatasetModel, FileModel};
use dv_layout::groups::file_matches;
use dv_sql::analysis::attribute_ranges;
use dv_sql::ternary::{
    abstract_eval, predicate_attrs, prune_blockers, HullEnv, PruneBlocker, Ternary,
};
use dv_sql::{bind, parse, AggFunc, BoundAggSpec, BoundExpr, UdfRegistry};
use dv_types::{IntervalSet, Result, Span};

use crate::diag::{Code, Diagnostic};

/// Span of the WHERE clause (or the whole query when there is none).
pub(crate) fn where_span(sql: &str) -> Span {
    match sql.to_ascii_uppercase().find("WHERE") {
        Some(p) => Span::new(p, sql.trim_end().len().max(p + 5)),
        None => Span::new(0, sql.trim_end().len().max(1)),
    }
}

/// Span of the first case-insensitive occurrence of `needle` at or
/// after byte `from`, falling back to the WHERE clause.
fn span_from(sql: &str, from: usize, needle: &str) -> Span {
    let upper = sql.to_ascii_uppercase();
    match upper[from.min(upper.len())..].find(&needle.to_ascii_uppercase()) {
        Some(p) => Span::new(from + p, from + p + needle.len()),
        None => where_span(sql),
    }
}

/// Names of schema attributes stored in at least one file — excluded
/// from every hull env (their byte values are unconstrained).
fn stored_attrs(model: &DatasetModel) -> BTreeSet<&str> {
    model.shapes.iter().flat_map(|s| s.stored_attrs.iter().map(String::as_str)).collect()
}

/// Hulls of the never-stored schema attributes: the union across every
/// file's bindings + extents.
fn dataset_hulls(model: &DatasetModel) -> HullEnv {
    let stored = stored_attrs(model);
    let mut hulls = HullEnv::new();
    for file in &model.files {
        for (idx, (lo, hi)) in file_hulls(model, file, &stored) {
            hulls.entry(idx).and_modify(|h| *h = (h.0.min(lo), h.1.max(hi))).or_insert((lo, hi));
        }
    }
    hulls
}

/// One file's implicit hulls, keyed by schema attribute index.
/// Attributes stored anywhere in the dataset are skipped.
fn file_hulls(
    model: &DatasetModel,
    file: &FileModel,
    stored: &BTreeSet<&str>,
) -> Vec<(usize, (f64, f64))> {
    let mut out = Vec::new();
    let mut push = |name: &str, lo: i64, hi: i64| {
        if let Some(idx) = model.schema.index_of(name) {
            if !stored.contains(name) {
                out.push((idx, (lo as f64, hi as f64)));
            }
        }
    };
    for (name, v) in &file.env {
        push(name, *v, *v);
    }
    for (name, extent) in file.extents() {
        let (lo, hi) = extent.hull();
        push(name, lo, hi);
    }
    out
}

/// Lint one SQL query against a resolved model. Parse and bind errors
/// are returned as `Err`; findings come back as diagnostics whose
/// spans index into `sql`, ordered by position.
pub fn lint_query(model: &DatasetModel, sql: &str, udfs: &UdfRegistry) -> Result<Vec<Diagnostic>> {
    let query = parse(sql)?;
    let bound = bind(&query, &model.schema, udfs)?;
    let hulls = dataset_hulls(model);
    let mut diags = Vec::new();
    if let Some(spec) = &bound.agg {
        check_degenerate_agg(spec, model, &hulls, sql, &mut diags);
    }
    if let Some(pred) = &bound.predicate {
        check_predicate(pred, model, &hulls, sql, udfs, &mut diags);
    }
    diags.sort_by_key(|d| (d.span.start, d.code));
    Ok(diags)
}

/// DV301–DV305 over one bound WHERE clause.
fn check_predicate(
    pred: &BoundExpr,
    model: &DatasetModel,
    hulls: &HullEnv,
    sql: &str,
    udfs: &UdfRegistry,
    diags: &mut Vec<Diagnostic>,
) {
    let span = where_span(sql);

    // Per-file verdicts, as the planner reaches them (chunk verdicts
    // can only be sharper): the file filter over the range analysis
    // first, then the abstract evaluator over the file's own box.
    let ranges = attribute_ranges(pred);
    let by_name: HashMap<String, IntervalSet> = ranges
        .iter()
        .map(|(&idx, set)| (model.schema.attr_at(idx).name.clone(), set.clone()))
        .collect();
    let stored = stored_attrs(model);
    let verdicts: Vec<Ternary> = model
        .files
        .iter()
        .map(|f| {
            if file_matches(f, &by_name) {
                abstract_eval(pred, &file_hulls(model, f, &stored).into_iter().collect())
            } else {
                Ternary::False
            }
        })
        .collect();
    let count = |t: Ternary| verdicts.iter().filter(|&&v| v == t).count();
    let (empty, full) = (count(Ternary::False), count(Ternary::True));

    // DV301 / DV302: the predicate decided as a whole.
    let mut unsat: Vec<usize> =
        ranges.iter().filter(|(_, set)| set.is_empty()).map(|(&i, _)| i).collect();
    unsat.sort_unstable();
    let verdict = abstract_eval(pred, hulls);
    if !unsat.is_empty() {
        let names: Vec<String> =
            unsat.iter().map(|&i| format!("`{}`", model.schema.attr_at(i).name)).collect();
        diags.push(
            Diagnostic::new(
                Code::Dv301,
                span,
                format!(
                    "predicate constrains {} to an empty set; the result is statically empty",
                    names.join(", ")
                ),
            )
            .with_help("the WHERE clause contradicts itself — the query always returns 0 rows"),
        );
    } else if verdict == Ternary::False || (!model.files.is_empty() && empty == model.files.len()) {
        diags.push(
            Diagnostic::new(
                Code::Dv301,
                span,
                "predicate contradicts the layout extents; the result is statically empty",
            )
            .with_help(format!(
                "every file chunk is provably empty, so the query reads nothing; {}",
                extent_summary(model, pred, hulls)
            )),
        );
    } else if verdict == Ternary::True {
        diags.push(
            Diagnostic::new(
                Code::Dv302,
                span,
                "predicate is tautological over the dataset extents; it filters nothing",
            )
            .with_help(format!(
                "every row the layout can produce satisfies it — drop the clause or tighten it; {}",
                extent_summary(model, pred, hulls)
            )),
        );
    }

    // DV303: only when no top-level conjunct is free of blockers — a
    // blocker-free conjunct still prunes chunks, and the columnar
    // engine evaluates it first so each UDF runs on its survivors only.
    let mut conjuncts = Vec::new();
    flatten_and(pred, &mut conjuncts);
    let blockers: Vec<Vec<PruneBlocker>> = conjuncts.iter().map(|c| prune_blockers(c)).collect();
    if blockers.iter().all(|b| !b.is_empty()) {
        let every_row =
            blockers.iter().all(|b| b.iter().any(|x| matches!(x, PruneBlocker::Udf { .. })));
        let index = model.index_attr_indices();
        for blocker in blockers.iter().flatten() {
            let d = blocked_diag(blocker, sql, span, udfs, model, &index, every_row);
            if !diags.contains(&d) {
                diags.push(d);
            }
        }
    }

    // DV305: the predicate constrains an implicit attribute whose
    // dataset-wide hull is a single point — the descriptor never
    // varies it, so the comparison is constant over the whole dataset.
    for idx in predicate_attrs(pred) {
        if let Some(&(lo, hi)) = hulls.get(&idx) {
            if lo == hi {
                let name = &model.schema.attr_at(idx).name;
                diags.push(
                    Diagnostic::new(
                        Code::Dv305,
                        span,
                        format!(
                            "predicate constrains `{name}`, a coordinate the descriptor never \
                             varies (always {lo})"
                        ),
                    )
                    .with_help(
                        "the comparison is constant over the whole dataset: it either keeps \
                         or drops every row",
                    ),
                );
            }
        }
    }

    // DV304 (note): the per-file verdicts, summarized.
    if !model.files.is_empty() {
        diags.push(
            Diagnostic::new(
                Code::Dv304,
                span,
                format!(
                    "static prune summary: {empty}/{} files provably empty, {full} provably \
                     full, {} undecided",
                    model.files.len(),
                    count(Ternary::Unknown)
                ),
            )
            .with_help(
                "per-chunk verdicts at query time can only be sharper; run `datavirt explain` \
                 for the chunk-level plan",
            ),
        );
    }
}

/// The DV303 diagnostic for one blocker, spanned at its call site.
/// `every_row`: every top-level conjunct calls a UDF, so the columnar
/// engine has no plain comparison to narrow rows with first.
fn blocked_diag(
    blocker: &PruneBlocker,
    sql: &str,
    span: Span,
    udfs: &UdfRegistry,
    model: &DatasetModel,
    index: &[usize],
    every_row: bool,
) -> Diagnostic {
    let PruneBlocker::Udf { slot, attrs } = blocker else {
        return Diagnostic::new(
            Code::Dv303,
            span,
            "static pruning blocked: a non-finite constant defeats sound interval comparison",
        )
        .with_help(
            "NaN/overflowing literals compare by IEEE rules no interval captures; replace the \
             constant with a finite value",
        );
    };
    let name = udfs.name_of(*slot);
    let mut message =
        format!("static pruning blocked: UDF `{name}` is opaque to interval analysis");
    let wrapped = attrs.iter().find(|a| index.contains(a)).map(|&a| &model.schema.attr_at(a).name);
    if let Some(attr) = wrapped {
        message.push_str(&format!(
            "; wrapping index attribute `{attr}` defeats index-based file pruning"
        ));
    }
    if every_row {
        message.push_str("; it is called on every row of every block");
    }
    let compare = match wrapped {
        Some(attr) => format!("compare `{attr}` directly"),
        None => "AND a plain comparison on a coordinate attribute".to_string(),
    };
    Diagnostic::new(Code::Dv303, span_from(sql, 0, name), message).with_help(format!(
        "no conjunct is free of blockers, so every chunk is read and filtered at runtime; \
         {compare} so chunks prune and the columnar engine narrows rows before the call"
    ))
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

/// DV106: degenerate aggregation. A `GROUP BY` key that the descriptor
/// pins to one value puts every row in a single group (the aggregate
/// analogue of DV305), and `AVG`/`SUM` over a non-stored pinned
/// coordinate computes a constant (resp. a scaled row count) no data
/// byte can influence.
fn check_degenerate_agg(
    spec: &BoundAggSpec,
    model: &DatasetModel,
    hulls: &HullEnv,
    sql: &str,
    diags: &mut Vec<Diagnostic>,
) {
    // Hulls exist only for never-stored attributes; a pinned one has
    // lo == hi across every file's bindings and extents.
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

/// Human-readable hulls of the attributes the predicate touches, for
/// DV301/DV302 help text.
fn extent_summary(model: &DatasetModel, pred: &BoundExpr, hulls: &HullEnv) -> String {
    let parts: Vec<String> = predicate_attrs(pred)
        .into_iter()
        .filter_map(|idx| {
            hulls
                .get(&idx)
                .map(|(lo, hi)| format!("`{}` spans [{lo}, {hi}]", model.schema.attr_at(idx).name))
        })
        .collect();
    if parts.is_empty() {
        "no constrained attribute is implicit in the layout".to_string()
    } else {
        format!("layout extents: {}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    const DESC: &str = r#"
[S]
REL = short int
TIME = int
SOIL = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { TIME }
  DATASET "leaf" {
    DATASPACE { LOOP TIME 1:50:1 { SOIL } }
    DATA { DIR[0]/f$REL.dat REL = 0:0:1 }
  }
  DATA { DATASET leaf }
}
"#;

    fn lint_on(desc: &str, sql: &str) -> Vec<Diagnostic> {
        let model = dv_descriptor::compile(desc).unwrap();
        lint_query(&model, sql, &UdfRegistry::with_builtins()).unwrap()
    }

    fn lint(sql: &str) -> Vec<Diagnostic> {
        lint_on(DESC, sql)
    }

    fn count(diags: &[Diagnostic], code: Code) -> usize {
        diags.iter().filter(|d| d.code == code).count()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn no_predicate_is_silent() {
        assert!(lint("SELECT SOIL FROM D").is_empty());
    }

    #[test]
    fn contradiction_fires_dv301() {
        let diags = lint("SELECT SOIL FROM D WHERE TIME > 1000");
        assert!(codes(&diags).contains(&Code::Dv301), "{diags:?}");
        // Range analysis, the file filter and the abstract evaluator
        // all see it; it is one cause, reported once.
        assert_eq!(count(&diags, Code::Dv301), 1, "{diags:?}");
        let d = diags.iter().find(|d| d.code == Code::Dv301).unwrap();
        assert!(d.help.as_deref().unwrap().contains("`TIME` spans [1, 50]"), "{d:?}");
        // Summary note agrees: every file statically empty.
        let s = diags.iter().find(|d| d.code == Code::Dv304).unwrap();
        assert!(s.message.contains("1/1 files provably empty"), "{s:?}");
    }

    #[test]
    fn tautology_fires_dv302() {
        let diags = lint("SELECT SOIL FROM D WHERE TIME >= 1");
        assert!(codes(&diags).contains(&Code::Dv302), "{diags:?}");
        assert!(!codes(&diags).contains(&Code::Dv301));
    }

    #[test]
    fn stored_attribute_stays_unknown() {
        // SOIL is stored: its bytes are unconstrained, so neither
        // DV301 nor DV302 may fire no matter the comparison.
        let diags = lint("SELECT SOIL FROM D WHERE SOIL > 1e30");
        assert!(!codes(&diags).contains(&Code::Dv301), "{diags:?}");
        assert!(!codes(&diags).contains(&Code::Dv302), "{diags:?}");
    }

    #[test]
    fn udf_fires_dv303_at_call_site() {
        let sql = "SELECT SOIL FROM D WHERE SPEED(SOIL, SOIL, SOIL) < 30.0";
        let diags = lint(sql);
        let d = diags.iter().find(|d| d.code == Code::Dv303).expect("DV303");
        assert!(d.message.contains("SPEED"), "{d:?}");
        assert_eq!(&sql[d.span.start..d.span.end], "SPEED");
    }

    #[test]
    fn non_finite_constant_fires_dv303() {
        let diags = lint("SELECT SOIL FROM D WHERE SOIL < 1e999");
        let d = diags.iter().find(|d| d.code == Code::Dv303).expect("DV303");
        assert!(d.message.contains("non-finite"), "{d:?}");
    }

    #[test]
    fn point_coordinate_fires_dv305() {
        // REL = 0:0:1 — a single value across the whole dataset.
        let diags = lint("SELECT SOIL FROM D WHERE REL = 0");
        assert!(codes(&diags).contains(&Code::Dv305), "{diags:?}");
        // TIME varies: no DV305.
        let diags = lint("SELECT SOIL FROM D WHERE TIME < 10");
        assert!(!codes(&diags).contains(&Code::Dv305), "{diags:?}");
    }

    #[test]
    fn summary_note_counts_partitions() {
        let diags = lint("SELECT SOIL FROM D WHERE TIME < 10");
        let s = diags.iter().find(|d| d.code == Code::Dv304).expect("DV304");
        assert_eq!(s.severity, Severity::Note);
        assert!(s.message.contains("0/1 files provably empty"), "{s:?}");
        assert!(s.message.contains("1 undecided"), "{s:?}");
    }

    #[test]
    fn every_emptiness_cause_is_one_dv301() {
        // Empty range: named, and reported once.
        let diags = lint("SELECT SOIL FROM D WHERE TIME > 10 AND TIME < 5");
        assert_eq!(count(&diags, Code::Dv301), 1, "{diags:?}");
        assert!(diags[0].message.contains("`TIME` to an empty set"), "{diags:?}");
        // Arithmetic defeats range analysis; the abstract evaluator
        // still decides it.
        let diags = lint("SELECT SOIL FROM D WHERE TIME * 2 > 1000");
        assert_eq!(count(&diags, Code::Dv301), 1, "{diags:?}");
        // Undecided over the dataset box (REL*2 spans [0, 2]) but
        // false in each file's own box (REL = 0, REL = 1).
        let two_files = DESC.replace("REL = 0:0:1", "REL = 0:1:1");
        let diags = lint_on(&two_files, "SELECT SOIL FROM D WHERE REL * 2 = 1");
        assert_eq!(count(&diags, Code::Dv301), 1, "{diags:?}");
        let s = diags.iter().find(|d| d.code == Code::Dv304).unwrap();
        assert!(s.message.contains("2/2 files provably empty"), "{s:?}");
    }

    #[test]
    fn guarded_udf_is_silent() {
        // The plain conjunct prunes and narrows rows before the call.
        for sql in [
            "SELECT SOIL FROM D WHERE TIME < 10 AND SPEED(SOIL, SOIL, SOIL) < 5",
            "SELECT SOIL FROM D WHERE TIME < 10 AND DISTANCE(TIME, SOIL, SOIL) < 5",
        ] {
            let diags = lint(sql);
            assert_eq!(codes(&diags), [Code::Dv304], "{sql}: {diags:?}");
        }
    }

    #[test]
    fn unguarded_udf_over_index_attr_is_one_dv303() {
        let sql = "SELECT SOIL FROM D WHERE DISTANCE(TIME, SOIL, SOIL) < 5";
        let diags = lint(sql);
        assert_eq!(count(&diags, Code::Dv303), 1, "{diags:?}");
        let d = diags.iter().find(|d| d.code == Code::Dv303).unwrap();
        assert_eq!(&sql[d.span.start..d.span.end], "DISTANCE");
        assert!(d.message.contains("index attribute `TIME`"), "{d:?}");
        assert!(d.message.contains("every row"), "{d:?}");
        assert!(d.help.as_deref().unwrap().contains("compare `TIME` directly"), "{d:?}");
    }

    #[test]
    fn non_finite_guard_blocks_but_calls_udf_on_survivors() {
        // Both conjuncts are blocked, so nothing prunes; the UDF-free
        // one still narrows rows before the call.
        let diags = lint("SELECT SOIL FROM D WHERE SOIL < 1e999 AND SPEED(SOIL, SOIL, SOIL) < 5");
        assert_eq!(count(&diags, Code::Dv303), 2, "{diags:?}");
        assert!(diags.iter().all(|d| !d.message.contains("every row")), "{diags:?}");
    }
}
