//! Differential tests for the columnar block pipeline: for every
//! benchmark query (the fig7/fig8 sets in `dv_bench::queries`), the
//! columnar engine, the row-at-a-time reference executor
//! (`dv_integration::reference`) and the hand-written baselines must
//! return identical rows — plus a property test over random predicates
//! and projections. The reference is itself checked here against the
//! hand-written baselines and the logical-row oracle, at 1 and 4
//! client processors under every partitioning strategy.

use dv_bench::queries::{ipars_queries, titan_queries};
use dv_core::{PartitionStrategy, QueryOptions, Virtualizer};
use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};
use dv_handwritten::{HandIparsL0, HandTitan};
use dv_integration::{ipars_oracle, query_checked, query_options, reference, scratch};
use dv_sql::{bind, parse, UdfRegistry};
use dv_types::{Table, Value};

fn ipars_cfg() -> IparsConfig {
    // time_steps must stay well above 20 so the bench queries' TIME
    // windows (t_max/2 .. +t_max/10 and +t_max/20) select real rows.
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 77 }
}

/// The engine's single-client result.
fn run(v: &Virtualizer, sql: &str) -> Table {
    let (mut tables, _) = query_checked(v, sql, &query_options());
    tables.remove(0)
}

/// The reference executor's single-client result.
fn run_reference(v: &Virtualizer, sql: &str) -> Table {
    reference::execute(v, sql, &query_options()).remove(0)
}

/// One client processor, then four under each partitioning strategy
/// (positions index output columns; every query checked here projects
/// at least two).
fn deliveries() -> Vec<QueryOptions> {
    let mut out = vec![query_options()];
    for partition in [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::HashAttr { position: 0 },
        PartitionStrategy::RangeAttr { position: 1, bounds: vec![2.0, 10.0, 25.0] },
    ] {
        out.push(QueryOptions { client_processors: 4, partition, ..query_options() });
    }
    out
}

/// Check the reference itself: under every delivery its partitions
/// union to `expect`, a hash or range partition holds only the rows its
/// strategy sends there, and a round-robin one equals the engine's.
fn check_reference(v: &Virtualizer, sql: &str, expect: &Table, what: &str) {
    for opts in deliveries() {
        let parts = reference::execute(v, sql, &opts);
        assert_eq!(parts.len(), opts.client_processors, "{what}");
        if matches!(opts.partition, PartitionStrategy::RoundRobin) {
            let (engine, _) = query_checked(v, sql, &opts);
            for (p, (r, e)) in parts.iter().zip(&engine).enumerate() {
                assert_eq!(r.rows, e.rows, "{what}: round-robin processor {p}");
            }
        }
        let mut union = Table::empty(expect.schema.clone());
        for (p, mut t) in parts.into_iter().enumerate() {
            for row in &t.rows {
                if !matches!(opts.partition, PartitionStrategy::RoundRobin) {
                    let want = opts.partition.assign(0, row, opts.client_processors);
                    assert_eq!(want, p, "{what} {:?}: {row:?}", opts.partition);
                }
            }
            union.rows.append(&mut t.rows);
        }
        assert!(
            union.same_rows(expect),
            "{what} x{} {:?}: reference {} rows vs {} expected",
            opts.client_processors,
            opts.partition,
            union.len(),
            expect.len()
        );
    }
}

/// Columnar engine == row-at-a-time reference == hand-written, on the
/// original L0 layout, across the whole fig8 Ipars query set.
#[test]
fn ipars_bench_queries_columnar_row_handwritten() {
    let cfg = ipars_cfg();
    let base = scratch("coldiff-l0");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandIparsL0::new(base, cfg.clone(), UdfRegistry::with_builtins());

    for q in ipars_queries("IparsData", cfg.time_steps) {
        let col = run(&v, &q.sql);
        let row = run_reference(&v, &q.sql);
        assert_eq!(col.rows, row.rows, "q{} ({}): columnar vs reference", q.no, q.what);

        let bq = bind(&parse(&q.sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        assert!(col.same_rows(&hand_t), "q{} ({}): columnar vs handwritten", q.no, q.what);
        assert!(!col.is_empty() || q.no == 0, "q{} selected no rows — degenerate diff", q.no);
    }
}

/// The engine agrees with the reference on every Ipars layout, not
/// just L0 (each layout drives a different extractor shape: aligned
/// multi-file reads, single-file strides, chunked groups).
#[test]
fn ipars_bench_queries_all_layouts() {
    let cfg = ipars_cfg();
    for layout in IparsLayout::all() {
        let base = scratch(&format!("coldiff-all-{}", layout.tag()));
        let descriptor = ipars::generate(&base, &cfg, layout).unwrap();
        let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        for q in ipars_queries("IparsData", cfg.time_steps) {
            let col = run(&v, &q.sql);
            let row = run_reference(&v, &q.sql);
            assert!(
                col.rows == row.rows,
                "{} q{} ({}): columnar {} rows vs reference {} rows",
                layout.label(),
                q.no,
                q.what,
                col.len(),
                row.len()
            );
        }
    }
}

/// Titan (chunked + R-tree pruned): columnar engine == reference ==
/// hand-written across the fig7 query set.
#[test]
fn titan_bench_queries_columnar_row_handwritten() {
    let cfg = TitanConfig { points: 2000, tiles: (3, 3, 2), nodes: 2, seed: 17 };
    let base = scratch("coldiff-titan");
    let descriptor = titan::generate(&base, &cfg).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandTitan::new(base, &cfg, UdfRegistry::with_builtins()).unwrap();

    for q in titan_queries("TitanData") {
        let col = run(&v, &q.sql);
        let row = run_reference(&v, &q.sql);
        assert_eq!(col.rows, row.rows, "q{} ({}): columnar vs reference", q.no, q.what);

        let bq = bind(&parse(&q.sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        assert!(col.same_rows(&hand_t), "q{} ({}): columnar vs handwritten", q.no, q.what);
    }
}

/// The reference itself, on the Fig 8 query set over L0: it equals
/// `HandIparsL0::execute` under every delivery.
#[test]
fn reference_matches_handwritten_on_l0() {
    let cfg = ipars_cfg();
    let base = scratch("coldiff-ref-l0");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandIparsL0::new(base, cfg.clone(), UdfRegistry::with_builtins());
    for q in ipars_queries("IparsData", cfg.time_steps) {
        let bq = bind(&parse(&q.sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        check_reference(&v, &q.sql, &hand_t, &format!("q{} ({})", q.no, q.what));
    }
}

/// The reference itself, on the Titan query set: it equals `HandTitan`
/// under every delivery.
#[test]
fn reference_matches_handwritten_on_titan() {
    let cfg = TitanConfig { points: 2000, tiles: (3, 3, 2), nodes: 2, seed: 17 };
    let base = scratch("coldiff-ref-titan");
    let descriptor = titan::generate(&base, &cfg).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandTitan::new(base, &cfg, UdfRegistry::with_builtins()).unwrap();
    for q in titan_queries("TitanData") {
        let bq = bind(&parse(&q.sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        check_reference(&v, &q.sql, &hand_t, &format!("titan q{} ({})", q.no, q.what));
    }
}

/// The reference itself, on Layout I: it equals the logical-row
/// oracle, which evaluates the predicate over the generator's rows
/// without reading a file, under every delivery.
#[test]
fn reference_matches_logical_rows_on_layout_i() {
    let cfg = ipars_cfg();
    let base = scratch("coldiff-ref-i");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::I).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let s = v.schema().clone();
    let (time, soil) = (s.index_of("TIME").unwrap(), s.index_of("SOIL").unwrap());
    let t_lo = cfg.time_steps as f64 / 2.0;
    let all = ipars_oracle(&cfg, &s, |_| true, &["REL", "TIME", "SOIL"]);
    check_reference(&v, "SELECT REL, TIME, SOIL FROM IparsData", &all, "layout I full scan");
    let keep = |r: &[Value]| r[time].as_f64() >= t_lo && r[soil].as_f64() > 0.5;
    let some = ipars_oracle(&cfg, &s, keep, &["TIME", "SOIL", "SGAS"]);
    assert!(!some.is_empty(), "degenerate diff");
    let sql = format!("SELECT TIME, SOIL, SGAS FROM IparsData WHERE TIME >= {t_lo} AND SOIL > 0.5");
    check_reference(&v, &sql, &some, "layout I filter");
}

/// Partitioned delivery: the engine's per-processor tables equal the
/// reference's processor by processor, row for row, and union to its
/// single-client result, for every partitioning strategy.
#[test]
fn partitioned_columnar_unions_to_row_result() {
    let cfg = ipars_cfg();
    let base = scratch("coldiff-part");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::II).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let sql = "SELECT TIME, SOIL FROM IparsData WHERE SOIL > 0.2";

    let single = run_reference(&v, sql);
    for partition in [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::HashAttr { position: 0 },
        PartitionStrategy::RangeAttr { position: 1, bounds: vec![0.4, 0.7] },
    ] {
        let opts = QueryOptions { client_processors: 3, partition, ..query_options() };
        let (tables, _) = query_checked(&v, sql, &opts);
        assert_eq!(tables.len(), 3);
        let expect = reference::execute(&v, sql, &opts);
        for (p, (t, r)) in tables.iter().zip(&expect).enumerate() {
            assert_eq!(t.rows, r.rows, "{:?}: processor {p} vs reference", opts.partition);
        }
        let mut merged = Table::empty(tables[0].schema.clone());
        for mut t in tables {
            merged.rows.append(&mut t.rows);
        }
        assert!(merged.same_rows(&single), "{:?}: partitioned union diverges", opts.partition);
    }
}

/// Random predicates and projections: the columnar evaluator (bitmap
/// kernels + UDF calls on the masked rows) must agree with the
/// reference's row-at-a-time evaluation on every generated query.
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
            let col = run(v, &sql);
            let row = run_reference(v, &sql);
            prop_assert!(
                col.rows == row.rows,
                "{sql}: columnar {} rows vs reference {} rows",
                col.len(),
                row.len()
            );
        }
    }
}
