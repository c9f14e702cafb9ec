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
//! Queries are not verified here: a predicate the layout makes empty
//! is the query pass's DV301 (`lint_query`).
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
use dv_types::Result;

pub use report::{Counterexample, Emitted, Finding, VerifyReport};

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
        findings.extend(align::check_alignment(ast, model, &elab.files));
    }
    findings.sort_by_key(|f| (f.diag.span.start, f.diag.code));
    VerifyReport { findings, unproven: elab.unproven }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
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
}
