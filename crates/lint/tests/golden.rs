//! Golden-file tests: every lint code has a fixture descriptor (or
//! query) that triggers it, and the rendered diagnostics are compared
//! byte-for-byte against checked-in `.expected` files.
//!
//! Regenerate the golden files with `BLESS=1 cargo test -p dv-lint`.

use std::fs;
use std::path::PathBuf;

use dv_lint::{
    cost_query, lint_descriptor, lint_query, render_all, verify_descriptor, Code, CostBudgets,
    Diagnostic, Severity, CODE_REGISTRY,
};
use dv_sql::UdfRegistry;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn check_golden(rendered: &str, expected_file: &str) {
    let path = fixture(expected_file);
    if std::env::var_os("BLESS").is_some() {
        fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path:?}; run with BLESS=1 to create"));
    assert_eq!(rendered, expected, "rendered diagnostics diverge from {expected_file}");
}

fn run_descriptor(name: &str) -> (Vec<Diagnostic>, String) {
    let text = fs::read_to_string(fixture(&format!("{name}.desc"))).unwrap();
    let diags = lint_descriptor(&text).unwrap();
    let rendered = render_all(&diags, &text, &format!("{name}.desc"));
    (diags, rendered)
}

fn run_query(sql: &str) -> (Vec<Diagnostic>, String) {
    run_query_on("query", sql)
}

fn run_query_on(desc: &str, sql: &str) -> (Vec<Diagnostic>, String) {
    let text = fs::read_to_string(fixture(&format!("{desc}.desc"))).unwrap();
    let model = dv_descriptor::compile(&text).unwrap();
    let diags = lint_query(&model, sql, &UdfRegistry::with_builtins()).unwrap();
    let rendered = render_all(&diags, sql, "<query>");
    (diags, rendered)
}

fn codes(diags: &[Diagnostic]) -> Vec<Code> {
    let mut out: Vec<Code> = diags.iter().map(|d| d.code).collect();
    out.dedup();
    out
}

#[test]
fn clean_descriptor_has_no_diagnostics() {
    let (diags, rendered) = run_descriptor("clean");
    assert!(diags.is_empty(), "unexpected diagnostics:\n{rendered}");
}

#[test]
fn clean_query_has_no_diagnostics() {
    // Only the DV304 prune-summary note, which every predicate gets.
    let (diags, rendered) = run_query("SELECT X FROM D WHERE T < 50");
    assert_eq!(codes(&diags), [Code::Dv304], "unexpected diagnostics:\n{rendered}");
}

#[test]
fn dv001_overlapping_loops() {
    let (diags, rendered) = run_descriptor("dv001");
    assert_eq!(codes(&diags), [Code::Dv001], "{rendered}");
    assert_eq!(diags.len(), 2, "shadowing + sibling overlap:\n{rendered}");
    check_golden(&rendered, "dv001.expected");
}

#[test]
fn dv002_duplicate_store() {
    let (diags, rendered) = run_descriptor("dv002");
    assert_eq!(codes(&diags), [Code::Dv002], "{rendered}");
    check_golden(&rendered, "dv002.expected");
}

#[test]
fn dv003_unbound_schema_attr() {
    let (diags, rendered) = run_descriptor("dv003");
    assert_eq!(codes(&diags), [Code::Dv003], "{rendered}");
    check_golden(&rendered, "dv003.expected");
}

#[test]
fn dv004_dead_datatype_attr() {
    let (diags, rendered) = run_descriptor("dv004");
    assert_eq!(codes(&diags), [Code::Dv004], "{rendered}");
    check_golden(&rendered, "dv004.expected");
}

#[test]
fn dv005_stored_and_implicit() {
    let (diags, rendered) = run_descriptor("dv005");
    assert_eq!(codes(&diags), [Code::Dv005], "{rendered}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    check_golden(&rendered, "dv005.expected");
}

#[test]
fn dv006_degenerate_ranges() {
    let (diags, rendered) = run_descriptor("dv006");
    assert_eq!(codes(&diags), [Code::Dv006], "{rendered}");
    assert_eq!(diags.len(), 2, "empty range + zero step:\n{rendered}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    check_golden(&rendered, "dv006.expected");
}

#[test]
fn dv006_ranges_stepping_past_i64() {
    // The binding's values fit but its next step does not; the loop's
    // iteration count does not fit in a walk. Neither may hang lint,
    // resolve or verify.
    let (diags, rendered) = run_descriptor("dv006_overflow");
    assert_eq!(codes(&diags), [Code::Dv006], "{rendered}");
    assert_eq!(diags.len(), 2, "binding + loop:\n{rendered}");
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    check_golden(&rendered, "dv006_overflow.expected");
    let text = fs::read_to_string(fixture("dv006_overflow.desc")).unwrap();
    let e = dv_descriptor::compile(&text).unwrap_err().to_string();
    assert!(e.contains("`REL`") && e.contains("64-bit"), "{e}");
    let report = verify_descriptor(&text, None).unwrap();
    assert!(report.unproven.iter().any(|u| u.contains("`REL`")), "{:?}", report.unproven);
    assert!(report.unproven.iter().any(|u| u.contains("LOOP T")), "{:?}", report.unproven);
}

#[test]
fn dv007_unreferenced_dir() {
    let (diags, rendered) = run_descriptor("dv007");
    assert_eq!(codes(&diags), [Code::Dv007], "{rendered}");
    check_golden(&rendered, "dv007.expected");
}

#[test]
fn dv008_row_count_mismatch() {
    // DV008 retired: the verifier's DV203 checks the same iteration
    // counts over the planner's own file groups, and the lint is quiet.
    let (diags, rendered) = run_descriptor("dv008");
    assert!(diags.is_empty(), "{rendered}");
    let text = fs::read_to_string(fixture("dv008.desc")).unwrap();
    let report = verify_descriptor(&text, None).unwrap();
    let diags: Vec<Diagnostic> = report.findings.iter().map(|f| f.diag.clone()).collect();
    let rendered = render_all(&diags, &text, "dv008.desc");
    assert_eq!(codes(&diags), [Code::Dv203], "{rendered}");
    assert!(report.findings[0].counterexample.is_some(), "{rendered}");
    check_golden(&rendered, "dv008.expected");
}

#[test]
fn dv104_tiny_afc_runs() {
    let (diags, rendered) = run_descriptor("dv104");
    assert_eq!(codes(&diags), [Code::Dv104], "{rendered}");
    assert_eq!(diags.len(), 4, "one per grouped dataset:\n{rendered}");
    check_golden(&rendered, "dv104.expected");
}

// DV101, DV102 and DV103 retired into DV301 and DV303; their tests
// keep their names and fixtures and now expect the retained code.

#[test]
fn dv101_unsatisfiable_predicate() {
    let (diags, rendered) = run_query("SELECT X FROM D WHERE T > 10 AND T < 5");
    assert_eq!(codes(&diags), [Code::Dv301, Code::Dv304], "{rendered}");
    assert!(diags[0].message.contains("`T` to an empty set"), "{rendered}");
    check_golden(&rendered, "q_unsat.expected");
}

#[test]
fn dv101_predicate_outside_extents() {
    let (diags, rendered) = run_query("SELECT X FROM D WHERE T > 1000");
    assert_eq!(codes(&diags), [Code::Dv301, Code::Dv304], "{rendered}");
    check_golden(&rendered, "q_nofile.expected");
}

#[test]
fn dv102_udf_over_index_attr() {
    // No plain conjunct: the one DV303 names the index attribute the
    // UDF hides. (A guarded form is clean; see the guarded test.)
    let sql = "SELECT X FROM D WHERE DISTANCE(T, X, X) < 5";
    let (diags, rendered) = run_query(sql);
    assert_eq!(codes(&diags), [Code::Dv304, Code::Dv303], "{rendered}");
    let d = &diags[1];
    assert_eq!(&sql[d.span.start..d.span.end], "DISTANCE", "{rendered}");
    assert!(d.message.contains("index attribute `T`"), "{rendered}");
    check_golden(&rendered, "q_udf.expected");
}

#[test]
fn dv103_unguarded_udf_filter() {
    // DISTANCE over non-index attrs only, with no UDF-free conjunct:
    // the UDF runs on every row of every block.
    let (diags, rendered) = run_query("SELECT X FROM D WHERE DISTANCE(X, X, X) < 5");
    assert_eq!(codes(&diags), [Code::Dv304, Code::Dv303], "{rendered}");
    assert!(diags[1].message.contains("every row"), "{rendered}");
    assert!(!diags[1].message.contains("index attribute"), "{rendered}");
    check_golden(&rendered, "q_dv103.expected");
}

#[test]
fn dv106_group_by_pinned_coordinate() {
    // `prune.desc` pins REL = 0:0:1 — grouping by it puts every row in
    // one group, the aggregate-side analogue of DV305.
    let (diags, rendered) = run_query_on("prune", "SELECT REL, COUNT(T) FROM D GROUP BY REL");
    assert_eq!(codes(&diags), [Code::Dv106], "{rendered}");
    let d = &diags[0];
    let sql = "SELECT REL, COUNT(T) FROM D GROUP BY REL";
    assert_eq!(&sql[d.span.start..d.span.end], "REL", "{rendered}");
    assert!(d.span.start > sql.find("GROUP").unwrap(), "span anchors inside GROUP BY: {rendered}");
    check_golden(&rendered, "q_dv106_group.expected");
}

#[test]
fn dv106_avg_and_sum_over_pinned_coordinate() {
    let (diags, rendered) = run_query_on("prune", "SELECT AVG(REL), SUM(REL) FROM D WHERE T < 50");
    assert_eq!(codes(&diags), [Code::Dv106, Code::Dv304], "{rendered}");
    let n = diags.iter().filter(|d| d.code == Code::Dv106).count();
    assert_eq!(n, 2, "one per degenerate call:\n{rendered}");
    check_golden(&rendered, "q_dv106_agg.expected");
}

#[test]
fn dv106_quiet_on_varying_keys_and_stored_args() {
    // T varies 1..100 and X is stored: grouping by T, MIN over the
    // pinned REL (order statistics are fine), and SUM over stored X
    // are all legitimate.
    let (diags, rendered) = run_query_on("prune", "SELECT T, MIN(REL), SUM(X) FROM D GROUP BY T");
    assert!(diags.is_empty(), "unexpected diagnostics:\n{rendered}");
}

#[test]
fn dv103_guarded_udf_filter_is_clean() {
    // A blocker-free conjunct prunes and narrows rows before the call:
    // only the summary note, whether or not the UDF wraps `T`.
    for sql in [
        "SELECT X FROM D WHERE X < 50 AND DISTANCE(X, X, X) < 5",
        "SELECT X FROM D WHERE T < 50 AND DISTANCE(T, X, X) < 5",
        "SELECT X FROM D WHERE T < 50 AND SPEED(X, X, X) < 5",
    ] {
        let (diags, rendered) = run_query(sql);
        assert_eq!(codes(&diags), [Code::Dv304], "unexpected diagnostics:\n{rendered}");
    }
}

/// The acceptance bar: the lint suite distinguishes the 8 descriptor
/// codes, and every descriptor diagnostic carries a real source span.
#[test]
fn descriptor_codes_are_spanned_and_distinct() {
    let mut seen = Vec::new();
    for name in ["dv001", "dv002", "dv003", "dv004", "dv005", "dv006", "dv007", "dv104"] {
        let (diags, rendered) = run_descriptor(name);
        assert!(!diags.is_empty(), "{name} produced nothing");
        for d in &diags {
            assert!(!d.span.is_dummy(), "{name}: dummy span in:\n{rendered}");
        }
        seen.extend(codes(&diags));
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), 8, "expected 8 distinct descriptor codes, got {seen:?}");
}

// ---------------------------------------------------------------------
// DV301–DV305: the query pass's predicate–extent findings.

#[test]
fn dv301_contradicted_extents() {
    let (diags, rendered) = run_query_on("query", "SELECT X FROM D WHERE T > 1000");
    assert_eq!(codes(&diags), [Code::Dv301, Code::Dv304], "{rendered}");
    check_golden(&rendered, "q_dv301.expected");
}

#[test]
fn dv302_tautological_predicate() {
    let (diags, rendered) = run_query_on("query", "SELECT X FROM D WHERE T >= 1");
    assert_eq!(codes(&diags), [Code::Dv302, Code::Dv304], "{rendered}");
    check_golden(&rendered, "q_dv302.expected");
}

#[test]
fn dv303_udf_blocks_pruning() {
    let (diags, rendered) = run_query_on("query", "SELECT X FROM D WHERE SPEED(X, X, X) < 30.0");
    // The DV303 span points at the call site, past the WHERE keyword
    // the summary note anchors to.
    assert_eq!(codes(&diags), [Code::Dv304, Code::Dv303], "{rendered}");
    let d = diags.iter().find(|d| d.code == Code::Dv303).unwrap();
    let sql = "SELECT X FROM D WHERE SPEED(X, X, X) < 30.0";
    assert_eq!(&sql[d.span.start..d.span.end], "SPEED", "{rendered}");
    check_golden(&rendered, "q_dv303.expected");
}

#[test]
fn dv304_prune_summary_note() {
    let (diags, rendered) = run_query_on("query", "SELECT X FROM D WHERE T < 50");
    assert_eq!(codes(&diags), [Code::Dv304], "{rendered}");
    assert!(diags.iter().all(|d| d.severity == Severity::Note), "{rendered}");
    check_golden(&rendered, "q_dv304.expected");
}

#[test]
fn dv305_never_varying_coordinate() {
    // `REL = 0:0:1` pins REL; the stored-attr conjunct keeps the whole
    // predicate undecidable so DV302 stays quiet and DV305 is isolated.
    let (diags, rendered) = run_query_on("prune", "SELECT X FROM D WHERE REL = 0 AND X > 0.5");
    assert_eq!(codes(&diags), [Code::Dv304, Code::Dv305], "{rendered}");
    check_golden(&rendered, "q_dv305.expected");
}

#[test]
fn prune_codes_are_spanned_and_distinct() {
    let mut seen = Vec::new();
    for (desc, sql) in [
        ("query", "SELECT X FROM D WHERE T > 1000"),
        ("query", "SELECT X FROM D WHERE T >= 1"),
        ("query", "SELECT X FROM D WHERE SPEED(X, X, X) < 30.0"),
        ("prune", "SELECT X FROM D WHERE REL = 0 AND X > 0.5"),
    ] {
        let (diags, rendered) = run_query_on(desc, sql);
        assert!(!diags.is_empty(), "{sql} produced nothing");
        for d in &diags {
            assert!(!d.span.is_dummy(), "{sql}: dummy span in:\n{rendered}");
        }
        seen.extend(codes(&diags));
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), 5, "expected DV301–DV305, got {seen:?}");
}

// ---------------------------------------------------------------------
// DV401–DV405: the static cost pass (`cost_query`), golden-tested the
// same way. Budgets are supplied per test; DV405 (the bound summary
// note) fires on every boundable plan regardless of budgets.

fn run_cost(desc: &str, sql: &str, budgets: &CostBudgets) -> (Vec<Diagnostic>, String) {
    let text = fs::read_to_string(fixture(&format!("{desc}.desc"))).unwrap();
    let model = dv_descriptor::compile(&text).unwrap();
    let diags = cost_query(&model, sql, &UdfRegistry::with_builtins(), budgets).unwrap();
    let rendered = render_all(&diags, sql, "<query>");
    (diags, rendered)
}

#[test]
fn dv401_byte_budget_exceeded() {
    let budgets = CostBudgets { max_plan_bytes: Some(16), ..CostBudgets::default() };
    let (diags, rendered) = run_cost("query", "SELECT X FROM D WHERE T < 50", &budgets);
    assert_eq!(codes(&diags), [Code::Dv401, Code::Dv405], "{rendered}");
    check_golden(&rendered, "q_dv401.expected");
}

#[test]
fn dv402_udf_makes_cost_unboundable() {
    // DV402 retired: the blocker is the query pass's one DV303, and the
    // cost pass adds only its summary note, as `lint` runs them both.
    let sql = "SELECT X FROM D WHERE SPEED(X, X, X) < 30.0";
    let (mut diags, _) = run_query(sql);
    diags.extend(run_cost("query", sql, &CostBudgets::default()).0);
    diags.sort_by_key(|d| (d.span.start, d.code));
    let rendered = render_all(&diags, sql, "<query>");
    assert_eq!(codes(&diags), [Code::Dv304, Code::Dv405, Code::Dv303], "{rendered}");
    check_golden(&rendered, "q_dv402.expected");
}

#[test]
fn dv403_link_deadline_exceeded() {
    let budgets = CostBudgets {
        link: Some(dv_lint::LinkBudget {
            bytes_per_sec: 1.0,
            deadline: std::time::Duration::from_millis(1),
        }),
        ..CostBudgets::default()
    };
    let (diags, rendered) = run_cost("query", "SELECT X FROM D WHERE T < 50", &budgets);
    assert_eq!(codes(&diags), [Code::Dv403, Code::Dv405], "{rendered}");
    check_golden(&rendered, "q_dv403.expected");
}

#[test]
fn dv404_group_memory_budget_exceeded() {
    // X is stored: its group cardinality is only bounded by the row
    // count, so a tiny memory budget must warn.
    let budgets = CostBudgets { max_group_memory: Some(64), ..CostBudgets::default() };
    let (diags, rendered) = run_cost("query", "SELECT X, COUNT(X) FROM D GROUP BY X", &budgets);
    assert_eq!(codes(&diags), [Code::Dv404, Code::Dv405], "{rendered}");
    check_golden(&rendered, "q_dv404.expected");
}

#[test]
fn dv405_cost_summary_note() {
    let (diags, rendered) =
        run_cost("query", "SELECT X FROM D WHERE T < 50", &CostBudgets::default());
    assert_eq!(codes(&diags), [Code::Dv405], "{rendered}");
    assert!(diags.iter().all(|d| d.severity == Severity::Note), "{rendered}");
    check_golden(&rendered, "q_dv405.expected");
}

#[test]
fn cost_codes_are_spanned_and_distinct() {
    let tight = CostBudgets {
        max_plan_bytes: Some(16),
        max_group_memory: Some(64),
        link: Some(dv_lint::LinkBudget {
            bytes_per_sec: 1.0,
            deadline: std::time::Duration::from_millis(1),
        }),
    };
    let mut seen = Vec::new();
    for sql in [
        "SELECT X FROM D WHERE T < 50",
        "SELECT X FROM D WHERE SPEED(X, X, X) < 30.0",
        "SELECT X, COUNT(X) FROM D GROUP BY X",
    ] {
        let (diags, rendered) = run_cost("query", sql, &tight);
        assert!(!diags.is_empty(), "{sql} produced nothing");
        for d in &diags {
            assert!(!d.span.is_dummy(), "{sql}: dummy span in:\n{rendered}");
        }
        seen.extend(codes(&diags));
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), 4, "expected DV401 and DV403–DV405, got {seen:?}");
}

/// Every shipped example descriptor is cost-clean (notes only) under
/// its canonical query and a generous shared budget — except
/// `ipars_dense.desc`, shipped intentionally grouping by a stored
/// attribute whose cardinality bound blows the memory budget (DV404).
#[test]
fn shipped_examples_cost_clean_except_dense() {
    let budgets = CostBudgets {
        max_plan_bytes: Some(1 << 30),
        max_group_memory: Some(64 * 1024),
        ..CostBudgets::default()
    };
    let canonical: &[(&str, &str)] = &[
        ("ipars_l0.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l1.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l2.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l3.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l4.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l5.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l6.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_csv.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_zstd.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("titan.desc", "SELECT S1 FROM TitanData WHERE X > 100"),
        ("ipars_pinned.desc", "SELECT SOIL FROM SnapData WHERE TIME = 5"),
        ("ipars_dense.desc", "SELECT BUCKET, AVG(SOIL) FROM DenseData GROUP BY BUCKET"),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/descriptors");
    let mut entries: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "desc") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let (_, sql) = canonical
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name}: add a canonical cost query for this new example"));
        let text = fs::read_to_string(&path).unwrap();
        let model = dv_descriptor::compile(&text).unwrap();
        let diags = cost_query(&model, sql, &UdfRegistry::with_builtins(), &budgets).unwrap();
        let rendered = render_all(&diags, sql, "<query>");
        if name == "ipars_dense.desc" {
            assert!(codes(&diags).contains(&Code::Dv404), "{name}: expected DV404:\n{rendered}");
        } else {
            assert!(
                diags.iter().all(|d| d.severity == Severity::Note),
                "{name} is not cost-clean:\n{rendered}"
            );
        }
    }
}

/// Every shipped example descriptor stays DV30x-clean under its
/// canonical query — except `ipars_pinned.desc`, shipped intentionally
/// contradictory: its pinned TIME makes the canonical query statically
/// empty (DV301) over a never-varying coordinate (DV305).
#[test]
fn shipped_examples_prune_clean_except_pinned() {
    let canonical: &[(&str, &str)] = &[
        ("ipars_l0.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l1.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l2.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l3.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l4.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l5.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_l6.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_csv.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("ipars_zstd.desc", "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20"),
        ("titan.desc", "SELECT S1 FROM TitanData WHERE X > 100"),
        ("ipars_pinned.desc", "SELECT SOIL FROM SnapData WHERE TIME > 5"),
        ("ipars_dense.desc", "SELECT SOIL FROM DenseData WHERE TIME >= 10 AND TIME <= 20"),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/descriptors");
    let mut entries: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "desc") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let (_, sql) = canonical
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name}: add a canonical query for this new example"));
        let text = fs::read_to_string(&path).unwrap();
        let model = dv_descriptor::compile(&text).unwrap();
        let diags = lint_query(&model, sql, &UdfRegistry::with_builtins()).unwrap();
        let rendered = render_all(&diags, sql, "<query>");
        if name == "ipars_pinned.desc" {
            let c = codes(&diags);
            assert!(c.contains(&Code::Dv301), "{name}: expected DV301:\n{rendered}");
            assert!(c.contains(&Code::Dv305), "{name}: expected DV305:\n{rendered}");
        } else {
            assert!(
                diags.iter().all(|d| d.severity == Severity::Note),
                "{name} is not DV30x-clean:\n{rendered}"
            );
        }
    }
}

/// Codes retired because another code reports the same cause: DV008
/// (DV203), DV101 and DV205 (DV301), DV102, DV103 and DV402 (DV303).
const RETIRED: [&str; 6] = ["DV008", "DV101", "DV102", "DV103", "DV205", "DV402"];

/// Registry, golden fixtures and docs stay in step: every registered
/// code is expected by some golden fixture and documented, and no
/// retired code survives in either place.
#[test]
fn registry_fixtures_and_docs_agree() {
    let mut expected = String::new();
    for entry in fs::read_dir(fixture("")).unwrap().flatten() {
        if entry.path().extension().is_some_and(|e| e == "expected") {
            expected.push_str(&fs::read_to_string(entry.path()).unwrap());
        }
    }
    let docs = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/LANGUAGE.md"),
    )
    .unwrap();
    assert_eq!(CODE_REGISTRY.len(), 22);
    for info in CODE_REGISTRY {
        assert!(expected.contains(&format!("[{}]", info.name)), "no fixture expects {}", info.name);
        assert!(docs.contains(info.name), "docs/LANGUAGE.md does not document {}", info.name);
    }
    for code in RETIRED {
        assert!(CODE_REGISTRY.iter().all(|i| i.name != code), "{code} is still registered");
        assert!(!expected.contains(code), "a golden fixture still expects {code}");
        assert!(!docs.contains(code), "docs/LANGUAGE.md still names {code}");
    }
}

/// Warnings and errors from every pass run together, as `lint` and the
/// `query --deny-warnings` pre-flight run them.
fn actionable(desc: &str, sql: Option<&str>) -> Vec<Diagnostic> {
    let text = fs::read_to_string(fixture(&format!("{desc}.desc"))).unwrap();
    let mut diags = lint_descriptor(&text).unwrap();
    diags.extend(verify_descriptor(&text, None).unwrap().findings.into_iter().map(|f| f.diag));
    if let Some(sql) = sql {
        let model = dv_descriptor::compile(&text).unwrap();
        let udfs = UdfRegistry::with_builtins();
        diags.extend(lint_query(&model, sql, &udfs).unwrap());
        diags.extend(cost_query(&model, sql, &udfs, &CostBudgets::default()).unwrap());
    }
    diags.retain(|d| d.severity != Severity::Note);
    diags
}

/// Each cause is reported once, by the retained code, with all passes
/// run together; a guarded UDF is not a finding at all.
#[test]
fn all_passes_report_each_cause_once() {
    for (desc, sql, code) in [
        ("query", Some("SELECT X FROM D WHERE T > 10 AND T < 5"), Code::Dv301),
        ("query", Some("SELECT X FROM D WHERE T > 1000"), Code::Dv301),
        ("query", Some("SELECT X FROM D WHERE T * 2 > 1000"), Code::Dv301),
        ("query", Some("SELECT X FROM D WHERE DISTANCE(T, X, X) < 5"), Code::Dv303),
        ("query", Some("SELECT X FROM D WHERE DISTANCE(X, X, X) < 5"), Code::Dv303),
        ("dv008", None, Code::Dv203),
        ("dv203", None, Code::Dv203),
    ] {
        let diags = actionable(desc, sql);
        let found: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(found, [code], "{desc} {sql:?}");
    }
    assert!(
        actionable("query", Some("SELECT X FROM D WHERE T < 50 AND SPEED(X, X, X) < 5")).is_empty()
    );
}
