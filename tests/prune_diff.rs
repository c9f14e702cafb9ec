//! Differential tests for static partition pruning: for random
//! predicates (including UDF filters and NaN-laden float columns) the
//! pruned execution must be bit-identical to the unpruned one
//! (`QueryOptions::no_prune`) and to the row-at-a-time reference
//! executor, which evaluates every row and ignores verdicts. This is
//! the empirical half of dv-prune's soundness argument: the abstract
//! interpreter may only drop chunks no row of which can qualify. Each
//! predicate's lint-time verdict is checked against the same runs:
//! DV301 (statically empty) must mean zero rows, DV302 (tautological)
//! must mean every scanned row is selected.

use dv_core::{QueryOptions, QueryStats, Virtualizer};
use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_integration::{query_checked, reference, scratch};
use dv_types::Table;

fn ipars_cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 91 }
}

fn run(v: &Virtualizer, sql: &str, no_prune: bool) -> (Table, dv_core::QueryStats) {
    let opts = QueryOptions { no_prune, ..Default::default() };
    let (mut tables, stats) = query_checked(v, sql, &opts);
    (tables.remove(0), stats)
}

/// Check `dv_lint::lint_query`'s static verdicts on `sql` against what
/// the engine did: DV301 implies no row, DV302 implies every scanned
/// row is selected, in every run. Returns the codes checked.
fn lint_agrees(
    v: &Virtualizer,
    sql: &str,
    rows: usize,
    runs: &[&QueryStats],
) -> Result<Vec<dv_lint::Code>, String> {
    let diags = dv_lint::lint_query(v.model(), sql, &dv_sql::UdfRegistry::with_builtins())
        .map_err(|e| format!("{sql}: lint failed: {e}"))?;
    let verdicts: Vec<dv_lint::Code> = diags
        .iter()
        .map(|d| d.code)
        .filter(|c| matches!(c, dv_lint::Code::Dv301 | dv_lint::Code::Dv302))
        .collect();
    for code in &verdicts {
        match code {
            dv_lint::Code::Dv301 if rows != 0 => {
                return Err(format!("{sql}: DV301 says statically empty, engine kept {rows} rows"))
            }
            dv_lint::Code::Dv302 => {
                for s in runs {
                    if s.rows_selected != s.rows_scanned {
                        return Err(format!(
                            "{sql}: DV302 says tautological, engine selected {} of {} rows",
                            s.rows_selected, s.rows_scanned
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    Ok(verdicts)
}

/// The reference executor's result over the unpruned plan.
fn run_reference(v: &Virtualizer, sql: &str) -> Table {
    reference::execute(v, sql, &QueryOptions { no_prune: true, ..Default::default() }).remove(0)
}

/// Pruned == unpruned == reference, and pruning never invents or
/// loses a row, across hand-picked prunable/unprunable predicates.
#[test]
fn fixed_queries_pruned_equals_unpruned() {
    let cfg = ipars_cfg();
    let base = scratch("prunediff-l0");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();

    let queries = [
        // Selective TIME window: most chunks statically empty.
        "SELECT SOIL FROM IparsData WHERE TIME <= 4",
        // Arithmetic over TIME: beyond range analysis, decided by the
        // abstract interpreter.
        "SELECT SOIL, TIME FROM IparsData WHERE TIME * 10 <= 40",
        // Tautology: every chunk provably full, filter skipped.
        "SELECT REL, TIME FROM IparsData WHERE TIME >= 1",
        // Contradiction: everything pruned, zero rows.
        "SELECT SOIL FROM IparsData WHERE TIME > 1000",
        // Stored attribute: nothing decidable, nothing pruned.
        "SELECT SOIL FROM IparsData WHERE SOIL > 0.5",
        // Mixed: implicit window AND stored comparison.
        "SELECT SOIL, TIME FROM IparsData WHERE TIME <= 10 AND SOIL > 0.25",
        // UDF: opaque, must force Unknown everywhere.
        "SELECT TIME FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 30.0",
        // Negation + disjunction over the implicit window.
        "SELECT TIME, SOIL FROM IparsData WHERE NOT (TIME < 5 OR TIME > 35)",
    ];
    let mut verdicts = Vec::new();
    for sql in queries {
        let (pruned, ps) = run(&v, sql, false);
        let (unpruned, us) = run(&v, sql, true);
        let row = run_reference(&v, sql);
        verdicts.extend(lint_agrees(&v, sql, row.len(), &[&ps, &us]).unwrap());
        assert!(
            pruned.same_rows(&unpruned),
            "{sql}: pruned {} vs unpruned {}",
            pruned.len(),
            unpruned.len()
        );
        assert!(pruned.same_rows(&row), "{sql}: pruned vs reference");
        assert_eq!(unpruned.rows, row.rows, "{sql}: unpruned vs reference");
        assert_eq!(us.groups_pruned, 0, "{sql}: no_prune must not prune");
        assert!(
            ps.groups_pruned + ps.groups_full + ps.groups_total >= us.groups_total,
            "{sql}: certificate accounting"
        );
    }
    // The contradiction and the tautology above draw both verdicts.
    assert!(verdicts.contains(&dv_lint::Code::Dv301), "{verdicts:?}");
    assert!(verdicts.contains(&dv_lint::Code::Dv302), "{verdicts:?}");

    // The arithmetic window must actually prune: range analysis cannot
    // see through `TIME * 10`, so those chunks reach the abstract
    // interpreter, which must drop them. (The plain `TIME <= 4` window
    // is already narrowed by range analysis before pruning runs; its
    // survivors are marked provably full instead.)
    let (_, s) = run(&v, "SELECT SOIL, TIME FROM IparsData WHERE TIME * 10 <= 40", false);
    assert!(s.groups_pruned > 0, "arith TIME window pruned nothing: {s:?}");
    assert!(s.bytes_avoided > 0);
    let (_, s) = run(&v, "SELECT SOIL FROM IparsData WHERE TIME <= 4", false);
    assert_eq!(s.groups_full, s.groups_total, "range-narrowed survivors should be full: {s:?}");
    let (_, s) =
        run(&v, "SELECT TIME FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 30.0", false);
    assert_eq!(s.groups_pruned, 0, "UDF predicate must block pruning: {s:?}");
    assert_eq!(s.groups_full, 0);
}

/// A float column seeded with NaNs: IEEE comparisons are false on NaN,
/// interval hulls cannot represent that, so the evaluator must degrade
/// to Unknown and pruned results must still match exactly — including
/// predicates that *keep* the NaN rows via NOT.
#[test]
fn nan_columns_never_mispredict() {
    let base = scratch("prunediff-nan");
    let descriptor = r#"
[S]
REL = int
TIME = int
F = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATASET "leaf" {
    DATASPACE { LOOP TIME 1:8:1 { F } }
    DATA { DIR[0]/f$REL.dat REL = 0:1:1 }
  }
  DATA { DATASET leaf }
}
"#;
    // f0: alternating finite / NaN; f1: all finite.
    std::fs::create_dir_all(base.join("n0/d")).unwrap();
    let mut f0 = Vec::new();
    for t in 0..8u32 {
        let x: f32 = if t % 2 == 0 { t as f32 / 10.0 } else { f32::NAN };
        f0.extend_from_slice(&x.to_le_bytes());
    }
    std::fs::write(base.join("n0/d/f0.dat"), &f0).unwrap();
    let f1: Vec<u8> = (0..8u32).flat_map(|t| (t as f32 / 10.0 + 0.05).to_le_bytes()).collect();
    std::fs::write(base.join("n0/d/f1.dat"), &f1).unwrap();

    let v = Virtualizer::builder(descriptor).storage_base(&base).build().unwrap();
    let queries = [
        "SELECT TIME, F FROM D WHERE F > 0.2",
        // NOT keeps the NaN rows (NaN > 0.2 is false, negated true is
        // the trap — SQL three-valued NOT must agree either way).
        "SELECT TIME, F FROM D WHERE NOT (F > 0.2)",
        "SELECT TIME, F FROM D WHERE TIME <= 3 AND F < 0.6",
        "SELECT TIME, F FROM D WHERE F = F",
        // Prunable window over a NaN-bearing file.
        "SELECT TIME, F FROM D WHERE TIME > 100",
    ];
    for sql in queries {
        let (pruned, ps) = run(&v, sql, false);
        let (unpruned, us) = run(&v, sql, true);
        let row = run_reference(&v, sql);
        lint_agrees(&v, sql, row.len(), &[&ps, &us]).unwrap();
        assert!(pruned.same_rows(&unpruned), "{sql}: pruned vs unpruned");
        assert!(pruned.same_rows(&row), "{sql}: pruned vs reference");
        assert_eq!(unpruned.rows, row.rows, "{sql}: unpruned vs reference");
    }
    // Sanity: the stored column really is undecidable — a comparison
    // on F alone must not mark chunks full or empty.
    let (_, s) = run(&v, "SELECT F FROM D WHERE F > 0.2", false);
    assert_eq!(s.groups_pruned, 0);
    assert_eq!(s.groups_full, 0);
}

/// Random descriptors (loop bounds, file counts) x random predicates:
/// pruned execution is bit-identical to unpruned and to the reference.
mod random {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    #[derive(Debug, Clone)]
    struct Spec {
        time_lo: i64,
        time_width: i64,
        arith: bool,
        rel_eq: Option<i64>,
        soil_gt: Option<f64>,
        speed: bool,
        negate: bool,
    }

    fn arb_spec() -> impl Strategy<Value = Spec> {
        (
            -5i64..45,
            0i64..15,
            any::<bool>(),
            proptest::option::of(0i64..2),
            proptest::option::of(0.0f64..1.0),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(time_lo, time_width, arith, rel_eq, soil_gt, speed, negate)| {
                Spec { time_lo, time_width, arith, rel_eq, soil_gt, speed, negate }
            })
    }

    fn spec_sql(spec: &Spec) -> String {
        let (tlo, thi) = (spec.time_lo, spec.time_lo + spec.time_width);
        let time = if spec.arith {
            // Arithmetic form of the same window: only the abstract
            // interpreter can see through it.
            format!("TIME * 3 >= {} AND TIME * 3 <= {}", tlo * 3, thi * 3)
        } else {
            format!("TIME >= {tlo} AND TIME <= {thi}")
        };
        let mut conjuncts = vec![if spec.negate { format!("NOT (NOT ({time}))") } else { time }];
        if let Some(r) = spec.rel_eq {
            conjuncts.push(format!("REL = {r}"));
        }
        if let Some(s) = spec.soil_gt {
            conjuncts.push(format!("SOIL > {s:.3}"));
        }
        if spec.speed {
            conjuncts.push("SPEED(OILVX, OILVY, OILVZ) < 40.0".to_string());
        }
        format!("SELECT REL, TIME, SOIL FROM IparsData WHERE {}", conjuncts.join(" AND "))
    }

    fn shared_virtualizer() -> &'static Virtualizer {
        static V: OnceLock<Virtualizer> = OnceLock::new();
        V.get_or_init(|| {
            let cfg = ipars_cfg();
            let base = scratch("prunediff-prop");
            let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
            Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn pruned_equals_unpruned_on_random_predicates(spec in arb_spec()) {
            let v = shared_virtualizer();
            let sql = spec_sql(&spec);
            let (pruned, ps) = run(v, &sql, false);
            let (unpruned, us) = run(v, &sql, true);
            let row = run_reference(v, &sql);
            let lint = lint_agrees(v, &sql, row.len(), &[&ps, &us]);
            prop_assert!(lint.is_ok(), "{:?}", lint);
            prop_assert!(
                pruned.same_rows(&unpruned),
                "{sql}: pruned {} rows vs unpruned {} rows",
                pruned.len(),
                unpruned.len()
            );
            prop_assert!(pruned.same_rows(&row), "{sql}: pruned vs reference");
            prop_assert!(unpruned.rows == row.rows, "{sql}: unpruned vs reference");
            // A UDF conjunct poisons decidability of the conjunction's
            // True side only; Empty pruning may still fire via TIME.
            prop_assert_eq!(us.groups_pruned, 0);
            prop_assert!(ps.groups_pruned <= ps.groups_total);
        }
    }
}
