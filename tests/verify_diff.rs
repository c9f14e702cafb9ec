//! Differential tests for the `dv-verify` certificate, a diagnostic:
//! the verifier proves every generated layout Safe, and on that same
//! data the columnar engine returns byte-identical results to the
//! row-at-a-time reference executor (the oracle); and whenever the
//! verifier refutes a descriptor, the refutation's counterexample
//! describes bytes a real runtime check rejects.

use dv_core::{Certificate, QueryOptions, Virtualizer};
use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_integration::{query_checked, reference, scratch};
use dv_lint::verify::ObservedSizes;
use dv_lint::{verify_descriptor, Code};
use dv_types::{Table, Value};
use proptest::prelude::*;

/// Exact bit pattern of a value — `same_rows` tolerates reordering,
/// this does not (the two decode paths must agree byte for byte).
fn bits(v: &Value) -> (u8, u64) {
    match v {
        Value::Char(x) => (0, *x as u64),
        Value::Short(x) => (1, *x as u16 as u64),
        Value::Int(x) => (2, *x as u32 as u64),
        Value::Long(x) => (3, *x as u64),
        Value::Float(x) => (4, x.to_bits() as u64),
        Value::Double(x) => (5, x.to_bits()),
    }
}

/// Every row's exact bytes, in delivery order.
fn table_bits(t: &Table) -> Vec<Vec<(u8, u64)>> {
    t.rows.iter().map(|r| r.iter().map(bits).collect()).collect()
}

/// Stat every generated file so bounds are checked against reality.
fn observed(base: &std::path::Path, descriptor: &str) -> ObservedSizes {
    let model = dv_descriptor::compile(descriptor).unwrap();
    let mut sizes = ObservedSizes::new();
    for f in &model.files {
        let node = &model.nodes[f.node];
        if let Ok(md) = std::fs::metadata(base.join(node).join(&f.rel_path)) {
            sizes.insert((node.clone(), f.rel_path.clone()), md.len());
        }
    }
    sizes
}

fn first_data_file(base: &std::path::Path) -> std::path::PathBuf {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for e in std::fs::read_dir(dir).unwrap().flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|e| e == "dat") {
                out.push(p);
            }
        }
    }
    let mut found = Vec::new();
    walk(base, &mut found);
    found.sort();
    found.into_iter().next().expect("generated dataset has a .dat file")
}

#[derive(Debug, Clone)]
struct Spec {
    layout: IparsLayout,
    realizations: usize,
    time_steps: usize,
    grid_per_dir: usize,
    dirs: usize,
    seed: u64,
    time_lo: i64,
    time_width: i64,
    soil_gt: f64,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (
        (0usize..IparsLayout::all().len(), 1usize..3, 2usize..12, 3usize..20, 1usize..3),
        (any::<u64>(), 0i64..12, 0i64..8, 0.0f64..0.9),
    )
        .prop_map(|((li, realizations, time_steps, grid_per_dir, dirs), rest)| {
            let (seed, time_lo, time_width, soil_gt) = rest;
            Spec {
                layout: IparsLayout::all()[li],
                realizations,
                time_steps,
                grid_per_dir,
                dirs,
                seed,
                time_lo,
                time_width,
                soil_gt,
            }
        })
}

impl Spec {
    fn cfg(&self) -> IparsConfig {
        IparsConfig {
            realizations: self.realizations,
            time_steps: self.time_steps,
            grid_per_dir: self.grid_per_dir,
            // dirs must be a multiple of nodes; keep both in lock-step.
            dirs: self.dirs * 2,
            nodes: 2,
            seed: self.seed,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random descriptor + dataset: the verifier proves it Safe
    /// against the observed file sizes, and the columnar decode
    /// byte-matches the reference on the same files.
    #[test]
    fn safe_certificate_decode_paths_byte_match(spec in arb_spec()) {
        let base = scratch("verify-diff");
        let descriptor = ipars::generate(&base, &spec.cfg(), spec.layout).unwrap();

        let report = verify_descriptor(&descriptor, Some(&observed(&base, &descriptor))).unwrap();
        prop_assert!(
            report.findings.is_empty() && report.unproven.is_empty(),
            "{:?} {:?} {:?}", spec.layout, report.findings, report.unproven
        );
        prop_assert_eq!(report.certificate(), Certificate::Safe);

        let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        let (tlo, thi) = (spec.time_lo, spec.time_lo + spec.time_width);
        for sql in [
            "SELECT * FROM IparsData WHERE TIME >= 0".to_string(),
            format!(
                "SELECT REL, TIME, SOIL, SGAS FROM IparsData \
                 WHERE TIME >= {tlo} AND TIME <= {thi} AND SOIL > {:.3}",
                spec.soil_gt
            ),
        ] {
            let opts = QueryOptions::default();
            let columnar = query_checked(&v, &sql, &opts).0.remove(0);
            let oracle = reference::execute(&v, &sql, &opts).remove(0);
            prop_assert_eq!(
                table_bits(&columnar),
                table_bits(&oracle),
                "{:?}: columnar vs reference diverge on {}",
                spec.layout,
                sql
            );
        }
    }
}

/// Truncating a data file refutes the certificate with a DV202
/// counterexample whose byte range really does run past the file, and
/// the runtime — which never consults the verdict — rejects the access
/// with a clean error instead of reading garbage.
#[test]
fn refutation_counterexample_trips_runtime_check() {
    let cfg =
        IparsConfig { realizations: 2, time_steps: 6, grid_per_dir: 8, dirs: 2, nodes: 2, seed: 9 };
    let base = scratch("verify-diff-refute");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::V).unwrap();

    let victim = first_data_file(&base);
    let len = std::fs::metadata(&victim).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&victim).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let report = verify_descriptor(&descriptor, Some(&observed(&base, &descriptor))).unwrap();
    assert_eq!(report.certificate(), Certificate::Refuted);
    let finding = report
        .findings
        .iter()
        .find(|f| f.diag.code == Code::Dv202)
        .expect("truncation refuted as DV202");
    let ce = finding.counterexample.as_ref().expect("DV202 carries a counterexample");
    assert!(!ce.indices.is_empty(), "counterexample names the loop indices");
    assert!(ce.byte_hi > len - 3, "counterexample record ends past the truncated file");
    assert!(ce.byte_lo < ce.byte_hi);

    // Building succeeds (verification is not part of it); the scan
    // reaches the counterexample's bytes and refuses the short read.
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let err = v
        .query("SELECT * FROM IparsData WHERE TIME >= 0")
        .expect_err("scan over the truncated file must fail, not fabricate rows");
    assert!(matches!(err, dv_core::DvError::Io { .. }), "{err}");
    assert_eq!(v.service().running(), 0, "failed query must release its slot");
}
