//! DV203: proof or refutation of AFC alignment — every file of a
//! `Find_File_Groups` group must yield the same number of rows per
//! shared loop variable.
//!
//! The groups are the planner's own ([`node_file_groups`]), so only
//! files that really iterate in lock-step are compared. A refutation
//! carries a counterexample: the first iteration present in one file
//! of the group but not the other, and the byte range of the orphaned
//! record.

use std::collections::{BTreeMap, BTreeSet};

use dv_descriptor::ast::DescriptorAst;
use dv_descriptor::model::VarExtent;
use dv_descriptor::DatasetModel;
use dv_layout::groups::node_file_groups;

use super::extent::PseudoFile;
use super::report::{Counterexample, Finding};
use crate::descriptor::loop_span;
use crate::diag::{Code, Diagnostic};

fn range_iterations(e: &VarExtent) -> Option<i64> {
    match e {
        VarExtent::Point(_) => None,
        VarExtent::Range { lo, hi, step } if *step > 0 && lo <= hi => Some((hi - lo) / step + 1),
        VarExtent::Range { .. } => None,
    }
}

/// Check alignment of every query-time file group of the model.
pub fn check_alignment(
    ast: &DescriptorAst,
    model: &DatasetModel,
    files: &[PseudoFile],
) -> Vec<Finding> {
    // Pseudo-files by (node name, rel_path), for counterexample bytes.
    let by_path: BTreeMap<(&str, &str), &PseudoFile> =
        files.iter().map(|f| ((f.node.as_str(), f.rel_path.as_str()), f)).collect();

    let mut reported: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut findings = Vec::new();
    for node in 0..model.node_count() {
        for group in node_file_groups(model, node) {
            for (i, a) in group.iter().enumerate() {
                for b in group.iter().skip(i + 1) {
                    if a.dataset == b.dataset {
                        continue;
                    }
                    for (var, ea, eb) in a.shared_extents(b) {
                        let counts = (range_iterations(&ea), range_iterations(&eb));
                        let (Some(na), Some(nb)) = counts else { continue };
                        if na == nb {
                            continue;
                        }
                        let key = (a.dataset.clone(), b.dataset.clone(), var.to_string());
                        if !reported.insert(key) {
                            continue;
                        }
                        // The longer file owns the orphaned iteration.
                        let (long, n_short) = if na > nb { (*a, nb) } else { (*b, na) };
                        let k = n_short as u64; // first orphaned iteration, 0-based
                        let node_name = model.nodes[long.node].as_str();
                        let ce = by_path
                            .get(&(node_name, long.rel_path.as_str()))
                            .and_then(|pf| record_of_iteration(pf, var, k));
                        let at = ce
                            .as_ref()
                            .map(|c| {
                                c.indices
                                    .iter()
                                    .map(|(v, x)| format!("{v}={x}"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            })
                            .unwrap_or_else(|| format!("iteration {k} of {var}"));
                        let bytes = ce
                            .as_ref()
                            .map(|c| {
                                format!(" (bytes {}..{} of `{}`)", c.byte_lo, c.byte_hi, c.file)
                            })
                            .unwrap_or_default();
                        findings.push(Finding {
                            diag: Diagnostic::new(
                                Code::Dv203,
                                loop_span(ast, &a.dataset, var),
                                format!(
                                    "misaligned file group: datasets \"{}\" and \"{}\" group \
                                     together but disagree on `{var}` iterations ({na} vs \
                                     {nb}); record {at}{bytes} has no partner row",
                                    a.dataset, b.dataset
                                ),
                            )
                            .with_help(
                                "aligned file chunks iterate in lock-step; every file of a \
                                 group must yield the same num_rows per shared variable",
                            ),
                            counterexample: ce,
                        });
                    }
                }
            }
        }
    }
    findings
}

/// Byte range of the record at iteration `k` (others at 0) of the
/// first region of `pf` that loops over `var`.
fn record_of_iteration(pf: &PseudoFile, var: &str, k: u64) -> Option<Counterexample> {
    for r in &pf.regions {
        let Some(pos) = r.dims.iter().position(|d| d.var == var) else { continue };
        if k >= r.dims[pos].count {
            continue;
        }
        let mut idx = vec![0u64; r.dims.len()];
        idx[pos] = k;
        let off = r.offset_of(&idx)?;
        return Some(Counterexample {
            file: pf.rel_path.clone(),
            indices: r.assignment(&idx),
            byte_lo: off,
            byte_hi: off + r.row_bytes,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::extent::elaborate;
    use dv_descriptor::parse_descriptor;

    #[test]
    fn mismatched_groups_are_refuted_with_orphan_record() {
        let text = r#"
[S]
T = int
X = float
Y = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { T }
  DATA { DATASET a DATASET b }
  DATASET "a" {
    DATASPACE { LOOP T 1:4:1 { X } }
    DATA { DIR[0]/A }
  }
  DATASET "b" {
    DATASPACE { LOOP T 1:5:1 { Y } }
    DATA { DIR[0]/B }
  }
}
"#;
        let ast = parse_descriptor(text).unwrap();
        let model = dv_descriptor::resolve(&ast).unwrap();
        let e = elaborate(&ast);
        let findings = check_alignment(&ast, &model, &e.files);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.diag.code, Code::Dv203);
        assert!(!f.diag.span.is_dummy());
        let ce = f.counterexample.as_ref().unwrap();
        // Iteration 4 (T=5) exists only in B: bytes 16..20.
        assert_eq!(ce.file, "d/B");
        assert_eq!(ce.indices, vec![("T".to_string(), 5)]);
        assert_eq!((ce.byte_lo, ce.byte_hi), (16, 20));
    }

    #[test]
    fn aligned_groups_are_clean() {
        let text = r#"
[S]
T = int
X = float
Y = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { T }
  DATA { DATASET a DATASET b }
  DATASET "a" {
    DATASPACE { LOOP T 1:4:1 { X } }
    DATA { DIR[0]/A }
  }
  DATASET "b" {
    DATASPACE { LOOP T 1:4:1 { Y } }
    DATA { DIR[0]/B }
  }
}
"#;
        let ast = parse_descriptor(text).unwrap();
        let model = dv_descriptor::resolve(&ast).unwrap();
        let e = elaborate(&ast);
        assert!(check_alignment(&ast, &model, &e.files).is_empty());
    }
}
