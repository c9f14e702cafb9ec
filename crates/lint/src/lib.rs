//! `dv-lint` — static analysis over datavirt descriptors and queries.
//!
//! The descriptor language of the paper (Section 3, Figure 4) is easy
//! to get subtly wrong: a loop range that double-counts grid points, a
//! schema attribute no dataspace ever stores, a storage directory that
//! no file template references. None of these are *syntax* errors —
//! the compiler happily resolves them — but every one of them makes
//! the virtualized relation lie to its consumers.
//!
//! This crate implements a lint pass that catches those mistakes
//! early and reports them as spanned, rustc-style diagnostics:
//!
//! ```text
//! warning[DV003]: schema attribute `SGAS` is never stored or bound by any layout
//!   --> reservoir.desc:8:1
//!    |
//!  8 | SGAS = float
//!    | ^^^^^^^^^^^^
//!    = help: queries touching it will always fail; store it or remove it
//! ```
//!
//! Two passes exist:
//!
//! * [`lint_descriptor`] — DV001..DV008 and DV104 over descriptor
//!   text. Syntax
//!   errors abort (the parser reports those); everything else, even a
//!   descriptor the resolver rejects, still gets AST-level lints.
//! * [`lint_query`] — DV101..DV103 and DV106 over a SQL string checked
//!   against a resolved [`DatasetModel`]: provably-empty predicates,
//!   UDF filters that defeat index pruning, UDF filters that defeat
//!   vectorized execution, and degenerate aggregations over pinned
//!   coordinates.
//! * [`verify_descriptor`] / [`verify_query`] — the `dv-verify`
//!   semantic pass (DV201..DV205): abstract interpretation of the
//!   layout with a symbolic affine/interval domain that *proves* or
//!   *refutes* overlap-freedom, in-boundedness, group alignment,
//!   region liveness, and predicate satisfiability. Refutations carry
//!   concrete counterexamples; a fully proved descriptor earns a
//!   `Safe` certificate (see `dv-layout::Certificate`). The verdict is
//!   a diagnostic only: the executor decodes every layout through one
//!   kernel that checks each run's length, whatever the verdict.
//! * [`prune_query`] — the dv-prune static pass (DV301..DV305):
//!   three-valued abstract interpretation of the WHERE clause over the
//!   dataset's per-attribute extent hulls. It reports statically-empty
//!   results (DV301), tautological predicates (DV302), prune blockers
//!   such as UDF calls and non-finite constants (DV303), a per-file
//!   prune summary note (DV304), and predicates constraining a
//!   coordinate the descriptor never varies (DV305).
//! * [`cost_query`] — the dv-cost static pass (DV401..DV405): derives
//!   the plan's guaranteed resource bounds (rows, bytes, syscalls,
//!   mover wire bytes, group cardinality — see
//!   `dv_layout::CostReport`) and checks them against declared
//!   [`CostBudgets`]: byte budgets (DV401), unboundable-cost blockers
//!   (DV402), link-capacity deadlines (DV403), group-memory budgets
//!   (DV404), plus a dominating-stage summary note (DV405).
//!
//! The single source of truth for every code's name, default severity
//! and documentation anchor is [`CODE_REGISTRY`]:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | DV001 | warning  | shadowing / overlapping `LOOP`s over one variable |
//! | DV002 | warning  | attribute stored twice in one `DATASPACE` |
//! | DV003 | warning  | schema attribute never stored or bound |
//! | DV004 | warning  | dead `DATATYPE` auxiliary attribute |
//! | DV005 | error    | attribute both stored and implicitly bound |
//! | DV006 | error    | empty or non-positive-stride range |
//! | DV007 | warning  | storage `DIR` referenced by no file template |
//! | DV008 | warning  | aligned datasets disagree on iteration counts |
//! | DV101 | warning  | predicate provably selects nothing |
//! | DV102 | warning  | UDF filter over an index-prunable attribute |
//! | DV103 | warning  | UDF filter with no vectorizable guard conjunct |
//! | DV104 | warning  | AFC runs smaller than one I/O coalescing unit at high fan-in |
//! | DV106 | warning  | aggregate keyed by or computed over a never-varying coordinate |
//! | DV201 | error    | two DATA items overlap within one file |
//! | DV202 | error    | layout access out of bounds of the observed file size |
//! | DV203 | error    | aligned file group with mismatched row counts |
//! | DV204 | warning  | dead (unreachable or zero-iteration) DATASPACE region |
//! | DV205 | error    | predicate provably empty against implicit loop bounds |
//! | DV301 | warning  | predicate contradicts layout extents; result statically empty |
//! | DV302 | warning  | predicate tautological over the dataset's extents |
//! | DV303 | warning  | pruning blocked by a UDF or NaN-unsound comparison |
//! | DV304 | note     | per-group static prune summary |
//! | DV305 | warning  | predicate constrains a never-varying coordinate dimension |
//! | DV401 | warning  | static byte bound exceeds the declared byte budget |
//! | DV402 | warning  | cost unboundable below a full scan (UDF / non-finite blocker) |
//! | DV403 | warning  | mover byte bound exceeds link capacity within the deadline |
//! | DV404 | warning  | group-cardinality bound exceeds the declared memory budget |
//! | DV405 | note     | static cost summary naming the dominating stage |

pub mod cost;
mod descriptor;
mod diag;
pub mod prune;
mod query;
pub mod verify;

pub use cost::{cost_query, CostBudgets, LinkBudget};
pub use diag::{Code, Diagnostic, Severity};
pub use prune::prune_query;
pub use query::lint_query;
pub use verify::{
    verify_ast, verify_descriptor, verify_query, Counterexample, Emitted, Finding, VerifyReport,
};

use dv_descriptor::{parse_descriptor, resolve};
use dv_types::Result;

/// One row of the diagnostic-code registry: the printable name, the
/// severity a [`Diagnostic::new`] gets by default, a one-line summary,
/// and the `docs/LANGUAGE.md` anchor documenting the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    pub code: Code,
    pub name: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
    pub doc: &'static str,
}

const fn row(
    code: Code,
    name: &'static str,
    severity: Severity,
    summary: &'static str,
) -> CodeInfo {
    CodeInfo { code, name, severity, summary, doc: "docs/LANGUAGE.md#diagnostics" }
}

/// Every code the crate can emit, in ascending order. Both lint passes
/// and the verify pass construct diagnostics through this table so the
/// severity policy is declared exactly once.
pub const CODE_REGISTRY: &[CodeInfo] = &[
    row(
        Code::Dv001,
        "DV001",
        Severity::Warning,
        "shadowing or overlapping LOOPs over one variable",
    ),
    row(Code::Dv002, "DV002", Severity::Warning, "attribute stored twice in one DATASPACE"),
    row(Code::Dv003, "DV003", Severity::Warning, "schema attribute never stored or bound"),
    row(Code::Dv004, "DV004", Severity::Warning, "dead DATATYPE auxiliary attribute"),
    row(Code::Dv005, "DV005", Severity::Error, "attribute both stored and implicitly bound"),
    row(Code::Dv006, "DV006", Severity::Error, "empty or non-positive-stride range"),
    row(Code::Dv007, "DV007", Severity::Warning, "storage DIR referenced by no file template"),
    row(Code::Dv008, "DV008", Severity::Warning, "aligned datasets disagree on iteration counts"),
    row(Code::Dv101, "DV101", Severity::Warning, "predicate provably selects nothing"),
    row(Code::Dv102, "DV102", Severity::Warning, "UDF filter over an index-prunable attribute"),
    row(Code::Dv103, "DV103", Severity::Warning, "UDF filter with no vectorizable guard conjunct"),
    row(Code::Dv104, "DV104", Severity::Warning, "AFC runs below one I/O coalescing unit"),
    row(
        Code::Dv106,
        "DV106",
        Severity::Warning,
        "aggregate keyed by or computed over a never-varying coordinate",
    ),
    row(Code::Dv201, "DV201", Severity::Error, "two DATA items overlap within one file"),
    row(Code::Dv202, "DV202", Severity::Error, "layout access out of bounds of the file size"),
    row(Code::Dv203, "DV203", Severity::Error, "aligned file group with mismatched row counts"),
    row(Code::Dv204, "DV204", Severity::Warning, "dead DATASPACE region"),
    row(Code::Dv205, "DV205", Severity::Error, "predicate provably empty against loop bounds"),
    row(
        Code::Dv301,
        "DV301",
        Severity::Warning,
        "predicate contradicts layout extents; result statically empty",
    ),
    row(Code::Dv302, "DV302", Severity::Warning, "predicate tautological over dataset extents"),
    row(Code::Dv303, "DV303", Severity::Warning, "pruning blocked by UDF or non-finite constant"),
    row(Code::Dv304, "DV304", Severity::Note, "per-group static prune summary"),
    row(
        Code::Dv305,
        "DV305",
        Severity::Warning,
        "predicate constrains a never-varying coordinate dimension",
    ),
    row(Code::Dv401, "DV401", Severity::Warning, "static byte bound exceeds the byte budget"),
    row(
        Code::Dv402,
        "DV402",
        Severity::Warning,
        "cost unboundable below a full scan (UDF or non-finite blocker)",
    ),
    row(
        Code::Dv403,
        "DV403",
        Severity::Warning,
        "mover byte bound exceeds link capacity within the deadline",
    ),
    row(
        Code::Dv404,
        "DV404",
        Severity::Warning,
        "group-cardinality bound exceeds the memory budget",
    ),
    row(Code::Dv405, "DV405", Severity::Note, "static cost summary (dominating stage)"),
];

/// Lint descriptor text: parse, run the AST lints, and — when the
/// descriptor also resolves — the model-level lints. Diagnostics come
/// back ordered by source position.
pub fn lint_descriptor(text: &str) -> Result<Vec<Diagnostic>> {
    let ast = parse_descriptor(text)?;
    let mut diags = descriptor::descriptor_lints(&ast);
    if let Ok(model) = resolve(&ast) {
        diags.extend(descriptor::model_lints(&ast, &model));
    }
    diags.sort_by_key(|d| (d.span.start, d.code));
    Ok(diags)
}

/// Render a batch of diagnostics against their source, separated by
/// blank lines — the format the CLI and the golden tests print.
pub fn render_all(diags: &[Diagnostic], source: &str, origin: &str) -> String {
    diags.iter().map(|d| d.render(source, origin)).collect::<Vec<_>>().join("\n")
}
