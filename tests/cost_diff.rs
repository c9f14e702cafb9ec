//! Soundness suite for the dv-cost static analysis: across every
//! shipped layout, the bench-style query set, prune on/off and thread
//! counts {1, 8}, every runtime counter in `QueryStats` must stay
//! within its static bound — the empirical half of the soundness
//! argument in `crates/layout/src/cost.rs`. Every query runs through
//! [`query_checked`], which rebuilds the `CostReport` exactly as the
//! admission path does and asserts each bound; the other differential
//! suites run their queries through it too.

use dv_core::{QueryOptions, Virtualizer};
use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};
use dv_integration::{query_checked, scratch};

fn ipars_cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 91 }
}

/// The bench-style query set: full scan, prunable window, stored
/// filter, UDF filter, coordinate-keyed and stored-keyed aggregation.
const QUERIES: &[&str] = &[
    "SELECT REL, TIME, SOIL FROM IparsData",
    "SELECT SOIL FROM IparsData WHERE TIME >= 10 AND TIME <= 20",
    "SELECT SOIL, TIME FROM IparsData WHERE SOIL > 0.5",
    "SELECT TIME FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 30.0",
    "SELECT REL, COUNT(SOIL), AVG(SOIL) FROM IparsData GROUP BY REL",
    "SELECT TIME, SUM(SOIL) FROM IparsData WHERE TIME <= 15 GROUP BY TIME",
];

#[test]
fn bounds_hold_across_all_layouts_and_modes() {
    let cfg = ipars_cfg();
    for layout in IparsLayout::all() {
        let base = scratch(&format!("costdiff-{}", layout.tag()));
        let descriptor = ipars::generate(&base, &cfg, layout).unwrap();
        let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        for sql in QUERIES {
            for no_prune in [false, true] {
                for threads in [1usize, 8] {
                    let opts = QueryOptions {
                        no_prune,
                        intra_node_threads: threads,
                        ..Default::default()
                    };
                    query_checked(&v, sql, &opts);
                }
            }
        }
    }
}

#[test]
fn bounds_hold_on_titan() {
    let base = scratch("costdiff-titan");
    let cfg = TitanConfig { points: 4000, tiles: (4, 4, 2), nodes: 1, seed: 7 };
    let descriptor = titan::generate(&base, &cfg).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    for sql in [
        "SELECT X, Y, S1 FROM TitanData",
        "SELECT S1 FROM TitanData WHERE X > 100",
        "SELECT S1, S2 FROM TitanData WHERE X > 50 AND Y < 200",
    ] {
        for threads in [1usize, 8] {
            let opts = QueryOptions { intra_node_threads: threads, ..Default::default() };
            query_checked(&v, sql, &opts);
        }
    }
}

mod random {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn shared() -> &'static Virtualizer {
        static V: OnceLock<Virtualizer> = OnceLock::new();
        V.get_or_init(|| {
            let base = scratch("costdiff-prop");
            let descriptor = ipars::generate(&base, &ipars_cfg(), IparsLayout::V).unwrap();
            Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap()
        })
    }

    #[derive(Debug, Clone)]
    struct Spec {
        time_lo: i64,
        time_width: i64,
        soil_gt: Option<f64>,
        udf: bool,
        group_by_rel: bool,
        threads: usize,
        no_prune: bool,
    }

    fn arb_spec() -> impl Strategy<Value = Spec> {
        (
            -5i64..45,
            0i64..15,
            proptest::option::of(0.0f64..1.0),
            any::<bool>(),
            any::<bool>(),
            prop_oneof![Just(1usize), Just(8usize)],
            any::<bool>(),
        )
            .prop_map(
                |(time_lo, time_width, soil_gt, udf, group_by_rel, threads, no_prune)| Spec {
                    time_lo,
                    time_width,
                    soil_gt,
                    udf,
                    group_by_rel,
                    threads,
                    no_prune,
                },
            )
    }

    fn spec_sql(spec: &Spec) -> String {
        let (tlo, thi) = (spec.time_lo, spec.time_lo + spec.time_width);
        let mut conjuncts = vec![format!("TIME >= {tlo} AND TIME <= {thi}")];
        if let Some(s) = spec.soil_gt {
            conjuncts.push(format!("SOIL > {s:.3}"));
        }
        if spec.udf {
            conjuncts.push("SPEED(OILVX, OILVY, OILVZ) < 40.0".to_string());
        }
        let where_clause = conjuncts.join(" AND ");
        if spec.group_by_rel {
            format!("SELECT REL, COUNT(SOIL) FROM IparsData WHERE {where_clause} GROUP BY REL")
        } else {
            format!("SELECT REL, TIME, SOIL FROM IparsData WHERE {where_clause}")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn random_queries_stay_within_bounds(spec in arb_spec()) {
            let v = shared();
            let sql = spec_sql(&spec);
            let opts = QueryOptions {
                no_prune: spec.no_prune,
                intra_node_threads: spec.threads,
                ..Default::default()
            };
            query_checked(v, &sql, &opts);
        }
    }
}
