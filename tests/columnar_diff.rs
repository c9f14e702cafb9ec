//! Differential tests for the columnar block pipeline: for every
//! benchmark query (the fig7/fig8 sets in `dv_bench::queries`), the
//! columnar path, the row-at-a-time path, and the hand-written
//! baselines must return identical row multisets — plus a property
//! test over random predicates and projections.

use dv_bench::queries::{ipars_queries, titan_queries};
use dv_core::{ExecMode, QueryOptions, Virtualizer};
use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};
use dv_handwritten::{HandIparsL0, HandTitan};
use dv_integration::scratch;
use dv_sql::{bind, parse, UdfRegistry};
use dv_types::Table;

fn ipars_cfg() -> IparsConfig {
    // time_steps must stay well above 20 so the bench queries' TIME
    // windows (t_max/2 .. +t_max/10 and +t_max/20) select real rows.
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 77 }
}

fn run(v: &Virtualizer, sql: &str, exec: ExecMode) -> Table {
    let opts = QueryOptions { exec, ..Default::default() };
    let (mut tables, _) = v.query_with(sql, &opts).unwrap();
    tables.remove(0)
}

/// Columnar == row-at-a-time == hand-written, on the original L0
/// layout, across the whole fig8 Ipars query set.
#[test]
fn ipars_bench_queries_columnar_row_handwritten() {
    let cfg = ipars_cfg();
    let base = scratch("coldiff-l0");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandIparsL0::new(base, cfg.clone(), UdfRegistry::with_builtins());

    for q in ipars_queries("IparsData", cfg.time_steps) {
        let col = run(&v, &q.sql, ExecMode::Columnar);
        let row = run(&v, &q.sql, ExecMode::RowAtATime);
        assert!(col.same_rows(&row), "q{} ({}): columnar vs row", q.no, q.what);

        let bq = bind(&parse(&q.sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        assert!(col.same_rows(&hand_t), "q{} ({}): columnar vs handwritten", q.no, q.what);
        assert!(!col.is_empty() || q.no == 0, "q{} selected no rows — degenerate diff", q.no);
    }
}

/// The two execution modes agree on every Ipars layout, not just L0
/// (each layout drives a different extractor shape: aligned multi-file
/// reads, single-file strides, chunked groups).
#[test]
fn ipars_bench_queries_all_layouts() {
    let cfg = ipars_cfg();
    for layout in IparsLayout::all() {
        let base = scratch(&format!("coldiff-all-{}", layout.tag()));
        let descriptor = ipars::generate(&base, &cfg, layout).unwrap();
        let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        for q in ipars_queries("IparsData", cfg.time_steps) {
            let col = run(&v, &q.sql, ExecMode::Columnar);
            let row = run(&v, &q.sql, ExecMode::RowAtATime);
            assert!(
                col.same_rows(&row),
                "{} q{} ({}): columnar {} rows vs row {} rows",
                layout.label(),
                q.no,
                q.what,
                col.len(),
                row.len()
            );
        }
    }
}

/// Titan (chunked + R-tree pruned): columnar == row == hand-written
/// across the fig7 query set.
#[test]
fn titan_bench_queries_columnar_row_handwritten() {
    let cfg = TitanConfig { points: 2000, tiles: (3, 3, 2), nodes: 2, seed: 17 };
    let base = scratch("coldiff-titan");
    let descriptor = titan::generate(&base, &cfg).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandTitan::new(base, &cfg, UdfRegistry::with_builtins()).unwrap();

    for q in titan_queries("TitanData") {
        let col = run(&v, &q.sql, ExecMode::Columnar);
        let row = run(&v, &q.sql, ExecMode::RowAtATime);
        assert!(col.same_rows(&row), "q{} ({}): columnar vs row", q.no, q.what);

        let bq = bind(&parse(&q.sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        assert!(col.same_rows(&hand_t), "q{} ({}): columnar vs handwritten", q.no, q.what);
    }
}

/// Partitioned delivery: the columnar path's per-processor tables
/// union to exactly the row path's single-client result, for every
/// partitioning strategy.
#[test]
fn partitioned_columnar_unions_to_row_result() {
    let cfg = ipars_cfg();
    let base = scratch("coldiff-part");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::II).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let sql = "SELECT TIME, SOIL FROM IparsData WHERE SOIL > 0.2";

    let single = run(&v, sql, ExecMode::RowAtATime);
    for partition in [
        dv_core::PartitionStrategy::RoundRobin,
        dv_core::PartitionStrategy::HashAttr { position: 0 },
        dv_core::PartitionStrategy::RangeAttr { position: 1, bounds: vec![0.4, 0.7] },
    ] {
        let opts = QueryOptions {
            client_processors: 3,
            partition: partition.clone(),
            exec: ExecMode::Columnar,
            ..Default::default()
        };
        let (tables, _) = v.query_with(sql, &opts).unwrap();
        assert_eq!(tables.len(), 3);
        let mut merged = Table::empty(tables[0].schema.clone());
        for mut t in tables {
            merged.rows.append(&mut t.rows);
        }
        assert!(merged.same_rows(&single), "{partition:?}: partitioned union diverges");
    }
}

/// Random predicates and projections: the columnar evaluator (bitmap
/// kernels + UDF row-fallback) must agree with the row evaluator on
/// every generated query.
mod random_queries {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    #[derive(Debug, Clone)]
    struct Spec {
        time_lo: i64,
        time_width: i64,
        soil_gt: Option<f64>,
        rel_in: Option<Vec<i64>>,
        sgas_between: Option<(f64, f64)>,
        speed_lt: Option<f64>,
        negate_time: bool,
        or_soil: bool,
        projection: usize,
    }

    fn arb_spec() -> impl Strategy<Value = Spec> {
        (
            (
                0i64..40,
                0i64..12,
                proptest::option::of(0.0f64..1.0),
                proptest::option::of(proptest::collection::vec(0i64..2, 1..3)),
                proptest::option::of((0.0f64..0.5, 0.5f64..1.0)),
            ),
            (proptest::option::of(0.0f64..60.0), any::<bool>(), any::<bool>(), 0usize..4),
        )
            .prop_map(
                |(
                    (time_lo, time_width, soil_gt, rel_in, sgas_between),
                    (speed_lt, negate_time, or_soil, projection),
                )| {
                    Spec {
                        time_lo,
                        time_width,
                        soil_gt,
                        rel_in,
                        sgas_between,
                        speed_lt,
                        negate_time,
                        or_soil,
                        projection,
                    }
                },
            )
    }

    fn spec_sql(spec: &Spec) -> String {
        let (tlo, thi) = (spec.time_lo, spec.time_lo + spec.time_width);
        let time = if spec.negate_time {
            format!("NOT (TIME < {tlo} OR TIME > {thi})")
        } else {
            format!("TIME >= {tlo} AND TIME <= {thi}")
        };
        let mut conjuncts = vec![time];
        if let Some(s) = spec.soil_gt {
            if spec.or_soil {
                conjuncts.push(format!("(SOIL > {s:.3} OR SOIL < {:.3})", s / 4.0));
            } else {
                conjuncts.push(format!("SOIL > {s:.3}"));
            }
        }
        if let Some(rels) = &spec.rel_in {
            let list: Vec<String> = rels.iter().map(|r| r.to_string()).collect();
            conjuncts.push(format!("REL IN ({})", list.join(", ")));
        }
        if let Some((lo, hi)) = spec.sgas_between {
            conjuncts.push(format!("SGAS BETWEEN {lo:.3} AND {hi:.3}"));
        }
        if let Some(c) = spec.speed_lt {
            conjuncts.push(format!("SPEED(OILVX, OILVY, OILVZ) < {c:.2}"));
        }
        let select = match spec.projection {
            0 => "*",
            1 => "REL, TIME, SOIL",
            2 => "SOIL, SOIL, TIME",
            _ => "X, Y, Z, SGAS",
        };
        format!("SELECT {select} FROM IparsData WHERE {}", conjuncts.join(" AND "))
    }

    fn shared_virtualizer() -> &'static Virtualizer {
        static V: OnceLock<Virtualizer> = OnceLock::new();
        V.get_or_init(|| {
            let cfg = ipars_cfg();
            let base = scratch("coldiff-prop");
            let descriptor = ipars::generate(&base, &cfg, IparsLayout::V).unwrap();
            Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn columnar_equals_row_on_random_queries(spec in arb_spec()) {
            let v = shared_virtualizer();
            let sql = spec_sql(&spec);
            let col = run(v, &sql, ExecMode::Columnar);
            let row = run(v, &sql, ExecMode::RowAtATime);
            prop_assert!(
                col.same_rows(&row),
                "{sql}: columnar {} rows vs row {} rows",
                col.len(),
                row.len()
            );
        }
    }
}
