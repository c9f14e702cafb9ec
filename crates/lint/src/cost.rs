//! Cost lints DV401–DV405: the dv-cost static resource-bound
//! analysis surfaced as spanned diagnostics.
//!
//! The pass compiles the descriptor model into the same plan objects
//! the runtime executes (pure layout math — no data needs to exist on
//! disk), derives the plan's guaranteed resource bounds with
//! [`dv_layout::CostReport`], and checks them against declared
//! [`CostBudgets`]:
//!
//! * **DV401** — the bytes-issued bound (after pruning and run
//!   coalescing) exceeds the declared byte budget.
//! * **DV403** — the mover wire-byte bound cannot fit through the
//!   declared link model within its deadline.
//! * **DV404** — the group-cardinality bound (aggregation reduction
//!   bound) exceeds the declared memory budget.
//! * **DV405** — informational note naming the estimate-dominating
//!   stage (scan I/O vs. data movement) with the full bound summary.
//!
//! A UDF or non-finite constant leaves the bounds at what pruning
//! alone proves; that blocker is the query pass's DV303, not a cost
//! finding. Descriptors with `CHUNKED` layouts need their on-disk
//! chunk index to plan, so the pass degrades to silence for them
//! rather than guessing.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dv_descriptor::DatasetModel;
use dv_layout::{CompiledDataset, CostParams, CostReport};
use dv_sql::{bind, parse, UdfRegistry};
use dv_types::Result;

use crate::diag::{Code, Diagnostic};
use crate::prune::where_span;

/// A declared link model for DV403: the bound mover payload must fit
/// through `bytes_per_sec` within `deadline`.
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    pub bytes_per_sec: f64,
    pub deadline: Duration,
}

/// Declared budgets the cost pass checks bounds against. All optional;
/// an empty default checks nothing and only emits the DV405 note.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostBudgets {
    /// Byte budget for DV401 (checked against the bytes-issued bound).
    pub max_plan_bytes: Option<u64>,
    /// Memory budget for DV404 (checked against the group-table
    /// bound of aggregate queries).
    pub max_group_memory: Option<u64>,
    /// Link model + deadline for DV403.
    pub link: Option<LinkBudget>,
}

/// Derive the static cost report of `sql` against a resolved model,
/// planning with dummy storage roots (layout math only — no data needs
/// to exist on disk). Returns `Ok(None)` for `CHUNKED` descriptors,
/// whose plans need the on-disk chunk index.
pub fn cost_report(
    model: &DatasetModel,
    sql: &str,
    udfs: &UdfRegistry,
) -> Result<Option<CostReport>> {
    let query = parse(sql)?;
    let bound = bind(&query, &model.schema, udfs)?;
    if model.files.iter().any(|f| f.is_chunked()) {
        return Ok(None);
    }
    let roots: Vec<PathBuf> = (0..model.node_count()).map(|_| PathBuf::from("/dev/null")).collect();
    let compiled = match CompiledDataset::compile(Arc::new(model.clone()), roots) {
        Ok(c) => c,
        Err(_) => return Ok(None),
    };
    let plan = compiled.plan_query(&bound)?;
    let params = CostParams::new(&dv_layout::IoOptions::default(), 1, bound.predicate.is_some());
    Ok(Some(CostReport::analyze(&plan, &params)))
}

/// Lint one SQL query's static cost against a resolved model and the
/// declared budgets. Parse and bind errors are returned as `Err`;
/// findings come back as diagnostics whose spans index into `sql`.
pub fn cost_query(
    model: &DatasetModel,
    sql: &str,
    udfs: &UdfRegistry,
    budgets: &CostBudgets,
) -> Result<Vec<Diagnostic>> {
    let Some(report) = cost_report(model, sql, udfs)? else {
        return Ok(Vec::new());
    };
    let mut diags = Vec::new();
    let span = where_span(sql);

    // DV401: the plan's post-prune byte bound against the byte budget.
    // `bytes_read` is the exact planned payload; the issued-byte bound
    // (shown in the help) additionally carries coalescing slack.
    if let Some(budget) = budgets.max_plan_bytes {
        if report.bytes_read.hi > budget {
            diags.push(
                Diagnostic::new(
                    Code::Dv401,
                    span,
                    format!(
                        "plan reads {} bytes, exceeding the {budget}-byte budget",
                        report.bytes_read.hi
                    ),
                )
                .with_help(format!(
                    "bound after pruning and coalescing: bytes read {}, issued {}; tighten the \
                     predicate over indexed coordinates or raise the budget",
                    report.bytes_read, report.bytes_issued
                )),
            );
        }
    }

    // DV403: the mover payload bound against the link model.
    if let Some(link) = budgets.link {
        let seconds = report.mover_bytes.hi as f64 / link.bytes_per_sec;
        if seconds > link.deadline.as_secs_f64() {
            diags.push(
                Diagnostic::new(
                    Code::Dv403,
                    span,
                    format!(
                        "mover bound of {} bytes needs {seconds:.1}s on the declared link, \
                         past the {:.1}s deadline",
                        report.mover_bytes.hi,
                        link.deadline.as_secs_f64()
                    ),
                )
                .with_help("project fewer columns, aggregate node-side, or relax the deadline"),
            );
        }
    }

    // DV404: the aggregation group-table bound against the memory
    // budget (only meaningful when the query groups at all).
    if let Some(budget) = budgets.max_group_memory {
        let group_mem = report.group_memory_hi();
        if group_mem > budget {
            diags.push(
                Diagnostic::new(
                    Code::Dv404,
                    span,
                    format!(
                        "group-cardinality bound of {} entries may need {group_mem} bytes, \
                         exceeding the {budget}-byte memory budget",
                        report.agg_groups.hi
                    ),
                )
                .with_help(
                    "group by coordinates with smaller hulls (the bound is \
                     min(rows, product of per-key cardinalities)) or raise the budget",
                ),
            );
        }
    }

    // DV405 (note): which stage the static estimate says dominates.
    let scan = report.bytes_issued.hi;
    let mover = report.mover_bytes.hi;
    let (stage, detail) = if scan >= mover {
        (
            "scan I/O",
            format!("bytes issued {} vs mover {}", report.bytes_issued, report.mover_bytes),
        )
    } else {
        (
            "data movement",
            format!("mover {} vs bytes issued {}", report.mover_bytes, report.bytes_issued),
        )
    };
    diags.push(
        Diagnostic::new(Code::Dv405, span, format!("static cost: {stage} dominates ({detail})"))
            .with_help(format!(
                "full bounds — rows scanned {}, selected {}, syscalls {}, sends {}, \
             agg groups {}",
                report.rows_scanned,
                report.rows_selected,
                report.read_syscalls,
                report.mover_sends,
                report.agg_groups
            )),
    );

    diags.sort_by_key(|d| (d.span.start, d.code));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn model() -> DatasetModel {
        dv_descriptor::compile(
            r#"
[S]
REL = short int
TIME = int
SOIL = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATASET "leaf" {
    DATASPACE { LOOP TIME 1:50:1 { SOIL } }
    DATA { DIR[0]/f$REL.dat REL = 0:1:1 }
  }
  DATA { DATASET leaf }
}
"#,
        )
        .unwrap()
    }

    fn lint(sql: &str, budgets: &CostBudgets) -> Vec<Diagnostic> {
        cost_query(&model(), sql, &UdfRegistry::with_builtins(), budgets).unwrap()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn summary_note_always_fires() {
        let diags = lint("SELECT SOIL FROM D", &CostBudgets::default());
        assert_eq!(codes(&diags), [Code::Dv405], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Note);
        assert!(diags[0].message.contains("scan I/O dominates"), "{diags:?}");
    }

    #[test]
    fn byte_budget_fires_dv401() {
        // Full scan: 2 files x 50 TIME steps x 4 bytes = 400 bytes.
        let tight = CostBudgets { max_plan_bytes: Some(64), ..Default::default() };
        let diags = lint("SELECT SOIL FROM D", &tight);
        assert!(codes(&diags).contains(&Code::Dv401), "{diags:?}");
        let roomy = CostBudgets { max_plan_bytes: Some(1 << 30), ..Default::default() };
        let diags = lint("SELECT SOIL FROM D", &roomy);
        assert!(!codes(&diags).contains(&Code::Dv401), "{diags:?}");
        // A pruning predicate shrinks the bound under the budget.
        let diags = lint("SELECT SOIL FROM D WHERE TIME = 1", &tight);
        assert!(!codes(&diags).contains(&Code::Dv401), "{diags:?}");
    }

    #[test]
    fn udf_is_not_a_cost_finding() {
        // The blocker is the query pass's DV303; the cost pass only
        // reports the bound pruning proves — here a full scan.
        let sql = "SELECT SOIL FROM D WHERE SPEED(SOIL, SOIL, SOIL) < 30.0";
        let diags = lint(sql, &CostBudgets::default());
        assert_eq!(codes(&diags), [Code::Dv405], "{diags:?}");
        assert!(diags[0].help.as_deref().unwrap().contains("rows scanned = 100"), "{diags:?}");
    }

    #[test]
    fn slow_link_fires_dv403() {
        let slow = CostBudgets {
            link: Some(LinkBudget { bytes_per_sec: 10.0, deadline: Duration::from_secs(1) }),
            ..Default::default()
        };
        let diags = lint("SELECT SOIL FROM D", &slow);
        assert!(codes(&diags).contains(&Code::Dv403), "{diags:?}");
        let fast = CostBudgets {
            link: Some(LinkBudget { bytes_per_sec: 1e9, deadline: Duration::from_secs(1) }),
            ..Default::default()
        };
        let diags = lint("SELECT SOIL FROM D", &fast);
        assert!(!codes(&diags).contains(&Code::Dv403), "{diags:?}");
    }

    #[test]
    fn group_bound_fires_dv404_only_for_unbounded_keys() {
        let tiny = CostBudgets { max_group_memory: Some(128), ..Default::default() };
        // Grouping by a stored attribute: bound = rows, blows 128 B.
        let diags = lint("SELECT SOIL, COUNT(*) FROM D GROUP BY SOIL", &tiny);
        assert!(codes(&diags).contains(&Code::Dv404), "{diags:?}");
        // Grouping by the coordinate: bound = one group per AFC.
        let diags = lint("SELECT REL, COUNT(*) FROM D GROUP BY REL", &tiny);
        assert!(!codes(&diags).contains(&Code::Dv404), "{diags:?}");
        // No GROUP BY: never fires.
        let diags = lint("SELECT SOIL FROM D", &tiny);
        assert!(!codes(&diags).contains(&Code::Dv404), "{diags:?}");
    }

    #[test]
    fn chunked_models_stay_silent_except_blockers() {
        let m = model();
        // No chunked layout in the test model; simulate by asking for
        // a report and asserting it exists (the silence path is
        // covered by the titan golden fixture).
        let r = cost_report(&m, "SELECT SOIL FROM D", &UdfRegistry::with_builtins()).unwrap();
        assert!(r.is_some());
    }
}
