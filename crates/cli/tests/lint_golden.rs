//! Golden tests of the `datavirt` binary's lint composition: what a
//! user sees when `lint` (or `query --deny-warnings`) runs the query
//! passes over a descriptor the planner cannot plan.
//!
//! Regenerate the golden files with `BLESS=1 cargo test -p dv-cli`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `datavirt` from the workspace root, so descriptor paths (and
/// the paths the diagnostics print) are repository-relative.
fn datavirt(args: &[&str]) -> Output {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_datavirt")).args(args).current_dir(root).output().unwrap()
}

fn check_golden(rendered: &str, expected_file: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(expected_file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path:?}; run with BLESS=1 to create"));
    assert_eq!(rendered, expected, "output diverges from {expected_file}");
}

const MISALIGNED: &str = "crates/lint/tests/fixtures/dv008.desc";
const SQL: &str = "SELECT X FROM D WHERE X > 1";

/// A query over a misaligned file group is reported as the spanned
/// DV203 `verify` gives, not as the planner's bare alignment error.
#[test]
fn lint_with_sql_on_misaligned_descriptor_reports_dv203() {
    let out = datavirt(&["lint", MISALIGNED, SQL]);
    assert_eq!(out.status.code(), Some(1), "DV203 is an error");
    check_golden(&String::from_utf8(out.stdout).unwrap(), "lint_dv008_sql.expected");
}

#[test]
fn query_deny_warnings_on_misaligned_descriptor_reports_dv203_once() {
    let out = datavirt(&["query", MISALIGNED, "--base", "no-data", SQL, "--deny-warnings"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.matches("error[DV203]").count(), 1, "{stderr}");
    assert!(stderr.contains("dv008.desc:14:17"), "{stderr}");
    assert!(!stderr.contains("alignment error"), "{stderr}");
}
