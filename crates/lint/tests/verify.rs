//! Golden-file tests for the `dv-verify` semantic pass: every DV2xx
//! code has a fixture descriptor (or query) that it refutes with a
//! spanned diagnostic carrying a concrete counterexample, and every
//! shipped example descriptor verifies clean.
//!
//! Regenerate the golden files with `BLESS=1 cargo test -p dv-lint`.

use std::fs;
use std::path::PathBuf;

use dv_layout::Certificate;
use dv_lint::verify::ObservedSizes;
use dv_lint::{lint_query, render_all, verify_descriptor, Code, Finding};
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

fn render(findings: &[Finding], text: &str, origin: &str) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.diag.render(text, origin));
        if let Some(ce) = &f.counterexample {
            let idx: Vec<String> = ce.indices.iter().map(|(v, x)| format!("{v}={x}")).collect();
            out.push_str(&format!(
                "   = counterexample: file `{}`{}{}, bytes {}..{}\n",
                ce.file,
                if idx.is_empty() { "" } else { ", " },
                idx.join(", "),
                ce.byte_lo,
                ce.byte_hi
            ));
        }
    }
    out
}

fn run(name: &str, sizes: Option<&ObservedSizes>) -> (dv_lint::VerifyReport, String) {
    let text = fs::read_to_string(fixture(&format!("{name}.desc"))).unwrap();
    let report = verify_descriptor(&text, sizes).unwrap();
    let rendered = render(&report.findings, &text, &format!("{name}.desc"));
    (report, rendered)
}

fn codes(report: &dv_lint::VerifyReport) -> Vec<Code> {
    let mut out: Vec<Code> = report.findings.iter().map(|f| f.diag.code).collect();
    out.dedup();
    out
}

#[test]
fn dv201_overlapping_data_items() {
    let (report, rendered) = run("dv201", None);
    assert_eq!(codes(&report), [Code::Dv201], "{rendered}");
    assert_eq!(report.certificate(), Certificate::Refuted);
    let ce = report.findings[0].counterexample.as_ref().expect("counterexample");
    assert_eq!(ce.file, "d/f.dat");
    check_golden(&rendered, "dv201.expected");
}

#[test]
fn dv202_out_of_bounds_access() {
    // The layout implies 5 records x 4 bytes = 20, but the observed
    // file holds only 18: record T=5 (bytes 16..20) runs past the end.
    let mut sizes = ObservedSizes::new();
    sizes.insert(("node0".to_string(), "d/f.dat".to_string()), 18);
    let (report, rendered) = run("dv202", Some(&sizes));
    assert_eq!(codes(&report), [Code::Dv202], "{rendered}");
    assert_eq!(report.certificate(), Certificate::Refuted);
    let ce = report.findings[0].counterexample.as_ref().expect("counterexample");
    assert_eq!(ce.file, "d/f.dat");
    assert_eq!(ce.indices, vec![("T".to_string(), 5)]);
    assert_eq!((ce.byte_lo, ce.byte_hi), (16, 20));
    check_golden(&rendered, "dv202.expected");
}

#[test]
fn dv202_exact_sizes_verify_safe() {
    let mut sizes = ObservedSizes::new();
    sizes.insert(("node0".to_string(), "d/f.dat".to_string()), 20);
    let (report, rendered) = run("dv202", Some(&sizes));
    assert!(report.findings.is_empty(), "{rendered}");
    assert_eq!(report.certificate(), Certificate::Safe);
}

#[test]
fn nonaffine_codec_demotes_certificate_to_unverified() {
    // Same layout and exact sizes that earn `Safe` above, but stored
    // as CSV: physical size is data-dependent, so byte bounds cannot
    // be checked and the certificate honestly degrades.
    let text = fs::read_to_string(fixture("dv202.desc")).unwrap();
    let csv = text.replace("DATA { DIR[0]/f.dat }", "DATA { DIR[0]/f.dat CODEC csv }");
    let mut sizes = ObservedSizes::new();
    // A physical size far from the 20-byte logical image must NOT be
    // reported: the bounds check is skipped for non-affine codecs.
    sizes.insert(("node0".to_string(), "d/f.dat".to_string()), 999);
    let report = verify_descriptor(&csv, Some(&sizes)).unwrap();
    let rendered = render(&report.findings, &csv, "dv202-csv.desc");
    assert!(report.findings.is_empty(), "{rendered}");
    assert_eq!(report.certificate(), Certificate::Unverified);
    assert!(
        report.unproven.iter().any(|r| r.contains("CODEC csv")),
        "unproven must name the codec: {:?}",
        report.unproven
    );
}

#[test]
fn dv203_misaligned_file_group() {
    let (report, rendered) = run("dv203", None);
    assert_eq!(codes(&report), [Code::Dv203], "{rendered}");
    assert_eq!(report.certificate(), Certificate::Refuted);
    let ce = report.findings[0].counterexample.as_ref().expect("counterexample");
    // Iteration 4 (T=5) exists only in B.dat: bytes 16..20.
    assert_eq!(ce.file, "d/B.dat");
    assert_eq!(ce.indices, vec![("T".to_string(), 5)]);
    assert_eq!((ce.byte_lo, ce.byte_hi), (16, 20));
    check_golden(&rendered, "dv203.expected");
}

#[test]
fn dv204_dead_dataspace_region() {
    let (report, rendered) = run("dv204", None);
    assert_eq!(codes(&report), [Code::Dv204], "{rendered}");
    // A warning, not an error — the layout wastes no bytes, it just
    // declares a region no record can reach.
    assert_eq!(report.errors(), 0);
    assert!(report.findings[0].counterexample.is_some());
    check_golden(&rendered, "dv204.expected");
}

#[test]
fn dv205_compile_time_empty_predicate() {
    // DV205 retired with `verify_query`: the query pass reports the
    // layout-empty predicate once, as DV301.
    let text = fs::read_to_string(fixture("query.desc")).unwrap();
    let model = dv_descriptor::compile(&text).unwrap();
    let sql = "SELECT X FROM D WHERE T > 1000";
    let diags = lint_query(&model, sql, &UdfRegistry::with_builtins()).unwrap();
    assert_eq!(diags.iter().filter(|d| d.code == Code::Dv301).count(), 1, "{diags:?}");
    assert!(diags[0].help.as_deref().unwrap().contains("[1, 100]"), "{diags:?}");
    check_golden(&render_all(&diags, sql, "<query>"), "q_dv205.expected");
}

/// Every descriptor shipped under `examples/descriptors/` verifies
/// with no findings; non-CHUNKED layouts earn the Safe certificate.
#[test]
fn shipped_examples_verify_clean() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/descriptors");
    let mut seen = 0;
    let mut entries: Vec<_> =
        fs::read_dir(&dir).expect("examples/descriptors exists").flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "desc") {
            continue;
        }
        seen += 1;
        let text = fs::read_to_string(&path).unwrap();
        let report = verify_descriptor(&text, None).unwrap();
        let rendered = render(&report.findings, &text, &path.display().to_string());
        assert!(report.findings.is_empty(), "{path:?} is not clean:\n{rendered}");
        if report.unproven.is_empty() {
            assert_eq!(report.certificate(), Certificate::Safe, "{path:?}");
        }
    }
    assert!(seen >= 8, "expected the shipped example descriptors, found {seen}");
}

/// Acceptance: every DV2xx refutation carries a real span and a
/// concrete counterexample (or, for DV204, at least a span).
#[test]
fn verify_codes_are_spanned_and_distinct() {
    let mut seen = Vec::new();
    for name in ["dv201", "dv203", "dv204"] {
        let (report, rendered) = run(name, None);
        assert!(!report.findings.is_empty(), "{name} produced nothing");
        for f in &report.findings {
            assert!(!f.diag.span.is_dummy(), "{name}: dummy span in:\n{rendered}");
        }
        seen.extend(codes(&report));
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), 3, "expected 3 distinct codes, got {seen:?}");
}
