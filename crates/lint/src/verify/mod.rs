//! `dv-verify` — semantic verification of layout descriptors by
//! abstract interpretation over a symbolic affine/interval domain.
//!
//! Where `lint_descriptor` pattern-matches the AST for likely
//! mistakes, this pass *decides* four properties of the layout's
//! byte-extent maps and either proves them or refutes them with a
//! concrete counterexample (file, loop indices, byte range):
//!
//! 1. **No overlap** (DV201) — no two DATA items claim the same byte
//!    of one file.
//! 2. **In bounds** (DV202) — every access lands inside the declared
//!    or observed file size.
//! 3. **Alignment** (DV203) — every file of a query-time group yields
//!    the same `num_rows` per shared loop variable.
//! 4. **Liveness** (DV204) — no DATASPACE region is dead.
//!
//! [`verify_query`] additionally folds SQL range analysis against the
//! implicit-attribute loop bounds (DV205): predicates that are
//! satisfiable in isolation but provably empty against the layout.
//!
//! A descriptor with no refutations and no undecided properties earns
//! a [`dv_layout::Certificate::Safe`] certificate. The certificate is
//! a diagnostic (`datavirt verify`), not a runtime switch: the
//! executor's one decode kernel checks each run's length whatever the
//! verdict; see `DESIGN.md` §9.

pub mod align;
pub mod domain;
pub mod extent;
pub mod overlap;
pub mod report;

use std::collections::HashMap;

use dv_descriptor::{parse_descriptor, resolve, DatasetModel};
use dv_sql::analysis::attribute_ranges;
use dv_sql::{bind, parse, UdfRegistry};
use dv_types::Result;

pub use report::{Counterexample, Emitted, Finding, VerifyReport};

use crate::diag::{Code, Diagnostic};

/// Observed file sizes keyed by `(node name, path relative to the
/// node's storage root)`.
pub type ObservedSizes = HashMap<(String, String), u64>;

/// Verify descriptor text. With `sizes`, bounds are checked against
/// the observed file sizes; without, against the declared
/// (layout-implied) sizes, which hold by construction.
pub fn verify_descriptor(text: &str, sizes: Option<&ObservedSizes>) -> Result<VerifyReport> {
    let ast = parse_descriptor(text)?;
    let resolved = resolve(&ast);
    let mut report = verify_ast(&ast, resolved.as_ref().ok(), sizes);
    if let Err(e) = &resolved {
        // The resolver refused the descriptor. If the verifier already
        // refuted it (overlap / dead region) the error is explained;
        // otherwise the model-level properties are undecidable.
        if report.errors() == 0 {
            report.unproven.push(format!("descriptor does not resolve: {e}"));
        }
    }
    Ok(report)
}

/// Verify a parsed descriptor against an optional resolved model.
pub fn verify_ast(
    ast: &dv_descriptor::ast::DescriptorAst,
    model: Option<&DatasetModel>,
    sizes: Option<&ObservedSizes>,
) -> VerifyReport {
    let mut elab = extent::elaborate(ast);
    let mut findings = extent::check_dead_regions(&elab.files);
    findings.extend(overlap::check_overlaps(&elab.files, &mut elab.unproven));
    if let Some(model) = model {
        if let Some(sizes) = sizes {
            findings.extend(extent::check_bounds(&elab.files, sizes, &mut elab.unproven));
        }
        findings.extend(align::check_alignment(model, &elab.files));
    }
    findings.sort_by_key(|f| (f.diag.span.start, f.diag.code));
    VerifyReport { findings, unproven: elab.unproven }
}

/// Span of the WHERE clause (or the whole query when there is none).
fn where_span(sql: &str) -> dv_types::Span {
    match sql.to_ascii_uppercase().find("WHERE") {
        Some(p) => dv_types::Span::new(p, sql.trim_end().len().max(p + 5)),
        None => dv_types::Span::new(0, sql.trim_end().len().max(1)),
    }
}

/// DV205: cross-check a query's derived attribute ranges against the
/// implicit-attribute extents of the layout. A predicate that can
/// never intersect any loop's value range is compile-time empty.
pub fn verify_query(model: &DatasetModel, sql: &str, udfs: &UdfRegistry) -> Result<Vec<Finding>> {
    let query = parse(sql)?;
    let bound = bind(&query, &model.schema, udfs)?;
    let mut findings = Vec::new();
    let Some(pred) = &bound.predicate else { return Ok(findings) };
    let span = where_span(sql);

    for (idx, set) in &attribute_ranges(pred) {
        let name = &model.schema.attr_at(*idx).name;
        if set.is_empty() {
            // Unsatisfiable regardless of the layout (DV101 covers the
            // lint view; the verifier refutes it outright).
            findings.push(Finding {
                diag: Diagnostic::new(
                    Code::Dv205,
                    span,
                    format!("predicate is provably empty: `{name}` is constrained to an empty set"),
                )
                .with_help("the WHERE clause contradicts itself; no row can ever satisfy it"),
                counterexample: None,
            });
            continue;
        }
        // Hull of the implicit extents of `name` across all files. An
        // attribute with no extents anywhere is stored data, whose
        // values the layout does not bound.
        let mut hull: Option<(i64, i64)> = None;
        for f in &model.files {
            if let Some(e) = f.extents.get(name) {
                let (lo, hi) = e.hull();
                hull = Some(match hull {
                    None => (lo, hi),
                    Some((l, h)) => (l.min(lo), h.max(hi)),
                });
            }
        }
        let Some((lo, hi)) = hull else { continue };
        if !set.overlaps_closed(lo as f64, hi as f64) {
            let want = set
                .bounds()
                .map(|(a, b)| format!("[{a}, {b}]"))
                .unwrap_or_else(|| "an empty set".to_string());
            findings.push(Finding {
                diag: Diagnostic::new(
                    Code::Dv205,
                    span,
                    format!(
                        "predicate is provably empty: it requires `{name}` within {want} but \
                         the layout's loop bounds imply {name} ∈ [{lo}, {hi}]"
                    ),
                )
                .with_help(format!(
                    "`{name}` is an implicit attribute: its values come from LOOP/binding \
                     ranges, so no stored file can ever satisfy this predicate"
                )),
                counterexample: None,
            });
        }
    }
    findings.sort_by_key(|f| (f.diag.span.start, f.diag.code));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_layout::Certificate;

    const CLEAN: &str = r#"
[S]
T = int
X = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { T }
  DATA { DATASET leaf }
  DATASET "leaf" {
    DATASPACE { LOOP T 1:100:1 { X } }
    DATA { DIR[0]/f$R R = 0:1:1 }
  }
}
"#;

    #[test]
    fn clean_descriptor_earns_safe() {
        let r = verify_descriptor(CLEAN, None).unwrap();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r.unproven.is_empty(), "{:?}", r.unproven);
        assert_eq!(r.certificate(), Certificate::Safe);
    }

    #[test]
    fn colliding_paths_refute_even_though_resolver_rejects() {
        let text = CLEAN.replace("DIR[0]/f$R", "DIR[0]/f");
        let r = verify_descriptor(&text, None).unwrap();
        assert_eq!(r.certificate(), Certificate::Refuted);
        assert!(r.findings.iter().any(|f| f.diag.code == Code::Dv201));
    }

    #[test]
    fn chunked_layout_is_unverified() {
        let text = CLEAN.replace(
            "DATASPACE { LOOP T 1:100:1 { X } }",
            "DATASPACE { CHUNKED INDEXFILE \"DIR[0]/idx\" { T X } }",
        );
        let r = verify_descriptor(&text, None).unwrap();
        assert_eq!(r.certificate(), Certificate::Unverified);
        assert!(!r.unproven.is_empty());
    }

    #[test]
    fn query_outside_loop_bounds_is_dv205() {
        let model = dv_descriptor::compile(CLEAN).unwrap();
        let udfs = UdfRegistry::new();
        let f = verify_query(&model, "SELECT X FROM D WHERE T > 1000", &udfs).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].diag.code, Code::Dv205);
        assert!(f[0].diag.message.contains("[1, 100]"), "{}", f[0].diag.message);
        // In-range predicates are clean.
        let f = verify_query(&model, "SELECT X FROM D WHERE T > 50", &udfs).unwrap();
        assert!(f.is_empty());
        // Stored (non-implicit) attributes are never bounded.
        let f = verify_query(&model, "SELECT X FROM D WHERE X > 1e30", &udfs).unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn self_contradictory_predicate_is_dv205() {
        let model = dv_descriptor::compile(CLEAN).unwrap();
        let udfs = UdfRegistry::new();
        let f = verify_query(&model, "SELECT X FROM D WHERE T > 10 AND T < 5", &udfs).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].diag.code, Code::Dv205);
    }
}
