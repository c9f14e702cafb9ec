//! Property test: AFC completeness and exactness.
//!
//! For randomized dataset shapes, physical layouts and queries, the
//! virtualized execution must return exactly the rows the analytic
//! oracle computes — every satisfying row exactly once (no row lost by
//! pruning/alignment, none duplicated by grouping).

use proptest::prelude::*;

use dv_datagen::{IparsConfig, IparsLayout};
use dv_integration::{ipars_oracle, ipars_virtualizer};

#[derive(Debug, Clone)]
struct QuerySpec {
    rel_eq: Option<i64>,
    time_lo: i64,
    time_width: i64,
    soil_gt: Option<f64>,
    project_narrow: bool,
}

fn arb_cfg() -> impl Strategy<Value = IparsConfig> {
    (1usize..3, 1usize..6, 1usize..8, prop_oneof![Just(1usize), Just(2usize)], any::<u32>())
        .prop_map(|(r, t, g, d, seed)| IparsConfig {
            realizations: r,
            time_steps: t,
            grid_per_dir: g,
            dirs: d * 2,
            nodes: d * 2, // one dir per node keeps generation cheap
            seed: seed as u64,
        })
}

fn arb_layout() -> impl Strategy<Value = IparsLayout> {
    prop_oneof![
        Just(IparsLayout::L0),
        Just(IparsLayout::I),
        Just(IparsLayout::II),
        Just(IparsLayout::III),
        Just(IparsLayout::IV),
        Just(IparsLayout::V),
        Just(IparsLayout::VI),
    ]
}

fn arb_query() -> impl Strategy<Value = QuerySpec> {
    (
        proptest::option::of(0i64..3),
        0i64..6,
        0i64..4,
        proptest::option::of(0.0f64..1.0),
        any::<bool>(),
    )
        .prop_map(|(rel_eq, time_lo, time_width, soil_gt, project_narrow)| QuerySpec {
            rel_eq,
            time_lo,
            time_width,
            soil_gt,
            project_narrow,
        })
}

proptest! {
    // Each case generates a dataset on disk; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn virtualized_equals_oracle(cfg in arb_cfg(), layout in arb_layout(), q in arb_query()) {
        let v = ipars_virtualizer(
            &format!("prop-{}", std::thread::current().name().unwrap_or("t").len()),
            &cfg,
            layout,
        );
        let schema = v.schema().clone();

        let mut conjuncts: Vec<String> = Vec::new();
        if let Some(rel) = q.rel_eq {
            conjuncts.push(format!("REL = {rel}"));
        }
        let (tlo, thi) = (q.time_lo, q.time_lo + q.time_width);
        conjuncts.push(format!("TIME >= {tlo} AND TIME <= {thi}"));
        if let Some(s) = q.soil_gt {
            conjuncts.push(format!("SOIL > {s:.3}"));
        }
        let select = if q.project_narrow { "REL, TIME, X, SOIL" } else { "*" };
        let sql = format!("SELECT {select} FROM IparsData WHERE {}", conjuncts.join(" AND "));

        let (table, _) = v.query(&sql).unwrap();

        let projection: Vec<&str> = if q.project_narrow {
            vec!["REL", "TIME", "X", "SOIL"]
        } else {
            schema.attributes().iter().map(|a| a.name.as_str()).collect()
        };
        let soil_idx = schema.index_of("SOIL").unwrap();
        let oracle = ipars_oracle(
            &cfg,
            &schema,
            |row| {
                let rel_ok = q.rel_eq.map(|r| row[0].as_f64() == r as f64).unwrap_or(true);
                let t = row[1].as_f64();
                let time_ok = t >= tlo as f64 && t <= thi as f64;
                let soil_ok = q
                    .soil_gt
                    // Mirror the SQL literal's 3-decimal rounding.
                    .map(|s| row[soil_idx].as_f64() > format!("{s:.3}").parse::<f64>().unwrap())
                    .unwrap_or(true);
                rel_ok && time_ok && soil_ok
            },
            &projection,
        );

        prop_assert!(
            table.same_rows(&oracle),
            "{} / {sql}: got {} rows, oracle {}",
            layout.label(),
            table.len(),
            oracle.len()
        );
    }
}

/// Titan counterpart: random spatial boxes over a chunked dataset must
/// return exactly the oracle rows — chunk pruning (R-tree + bounds
/// refinement) must never lose a record on a chunk boundary.
mod titan_boxes {
    use super::proptest;
    use proptest::prelude::*;

    use dv_core::Virtualizer;
    use dv_datagen::{titan, TitanConfig};
    use dv_integration::scratch;
    use dv_types::Table;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn titan_box_equals_oracle(
            seed in 0u64..1000,
            x0 in 0i64..50_000,
            xw in 0i64..30_000,
            y0 in 0i64..50_000,
            yw in 0i64..30_000,
            z0 in 0i64..500,
            zw in 0i64..300,
            nodes in 1usize..3,
        ) {
            let cfg = TitanConfig { points: 1500, tiles: (3, 3, 2), nodes, seed };
            let base = scratch("prop-titan");
            let descriptor = titan::generate(&base, &cfg).unwrap();
            let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();

            let (x1, y1, z1) = (x0 + xw, y0 + yw, z0 + zw);
            let sql = format!(
                "SELECT * FROM TitanData WHERE X >= {x0} AND X <= {x1} AND \
                 Y >= {y0} AND Y <= {y1} AND Z >= {z0} AND Z <= {z1}"
            );
            let (table, _) = v.query(&sql).unwrap();

            let mut oracle = Table::empty(v.schema().clone());
            for row in cfg.all_rows() {
                let (x, y, z) = (row[0].as_f64(), row[1].as_f64(), row[2].as_f64());
                if x >= x0 as f64 && x <= x1 as f64
                    && y >= y0 as f64 && y <= y1 as f64
                    && z >= z0 as f64 && z <= z1 as f64
                {
                    oracle.rows.push(row);
                }
            }
            prop_assert!(
                table.same_rows(&oracle),
                "box [{x0},{x1}]x[{y0},{y1}]x[{z0},{z1}]: got {} rows, oracle {}",
                table.len(),
                oracle.len()
            );
        }
    }
}

/// Selection equals restriction: a REL/TIME window plans exactly the
/// full-scan plan's AFCs whose implicit REL and TIME lie in the window —
/// same order, entries, fields and implicits — whether range analysis
/// sees the window (`BETWEEN`) or not (`TIME*2 > …`, recovered by
/// pruning). Planning touches no data file, so these cases only compile
/// descriptors.
mod selection {
    use std::path::Path;

    use proptest::prelude::*;

    use super::{arb_cfg, arb_layout};
    use dv_datagen::ipars;
    use dv_layout::plan::compile_from_text;
    use dv_layout::prune::prune_afcs;
    use dv_layout::{Afc, CompiledDataset, ImplicitValue};
    use dv_sql::{bind, parse, BoundQuery, UdfRegistry};

    fn bound(c: &CompiledDataset, sql: &str) -> BoundQuery {
        bind(&parse(sql).unwrap(), &c.model.schema, &UdfRegistry::with_builtins()).unwrap()
    }

    fn const_at(afc: &Afc, pos: usize) -> f64 {
        match afc.implicits.iter().find(|(p, _)| *p == pos) {
            Some((_, ImplicitValue::Const(v))) => v.as_f64(),
            other => panic!("working position {pos} is not a constant: {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn window_plan_is_full_plan_restricted(
            cfg in arb_cfg(),
            layout in arb_layout(),
            rel_lo in 0i64..3,
            rel_w in 0i64..2,
            time_lo in 0i64..6,
            time_w in 0i64..4,
            select in prop_oneof![
                Just("*"),
                Just("REL, TIME, SOIL"),
                Just("REL, TIME"),
                Just("X, TIME, REL"),
            ],
        ) {
            let desc = ipars::descriptor(&cfg, layout);
            let c = compile_from_text(&desc, Path::new("/nonexistent")).unwrap();
            let (rel_hi, time_hi) = (rel_lo + rel_w, time_lo + time_w);
            let full = c.plan_query(&bound(&c, &format!("SELECT {select} FROM IparsData"))).unwrap();
            let rel = full.working.position_of("REL").unwrap();
            let time = full.working.position_of("TIME").unwrap();
            let in_window = |a: &Afc| {
                let (r, t) = (const_at(a, rel), const_at(a, time));
                (rel_lo as f64..=rel_hi as f64).contains(&r)
                    && (time_lo as f64..=time_hi as f64).contains(&t)
            };
            let forms = [
                (
                    false,
                    format!(
                        "REL BETWEEN {rel_lo} AND {rel_hi} AND TIME BETWEEN {time_lo} AND {time_hi}"
                    ),
                ),
                (
                    true,
                    format!(
                        "REL*2 > {} AND REL*2 < {} AND TIME*2 > {} AND TIME*2 < {}",
                        2 * rel_lo - 1,
                        2 * rel_hi + 1,
                        2 * time_lo - 1,
                        2 * time_hi + 1
                    ),
                ),
            ];
            for (opaque, window) in forms {
                let sql = format!("SELECT {select} FROM IparsData WHERE {window}");
                let bq = bound(&c, &sql);
                let plan = c.plan_query(&bq).unwrap();
                for (f, w) in full.node_plans.iter().zip(&plan.node_plans) {
                    let restricted: Vec<Afc> = f.afcs.iter().filter(|a| in_window(a)).cloned().collect();
                    prop_assert_eq!(&w.afcs, &restricted, "{} node {}: {sql}", layout.label(), f.node);
                    // Pruning sees what range analysis left: everything
                    // when the window is opaque to it.
                    let left = if opaque { f.afcs.clone() } else { restricted };
                    let (_, cert) = prune_afcs(bq.predicate.as_ref(), &plan.working, left);
                    prop_assert_eq!(
                        (cert.groups_total, cert.groups_pruned, cert.groups_full, cert.bytes_avoided),
                        (w.prune.groups_total, w.prune.groups_pruned, w.prune.groups_full, w.prune.bytes_avoided),
                        "{} node {}: {sql}", layout.label(), f.node
                    );
                    prop_assert_eq!(&cert.verdicts, &w.prune.verdicts);
                }
            }
        }

        #[test]
        fn concurrent_first_plans_agree(cfg in arb_cfg(), layout in arb_layout(), time_lo in 0i64..6) {
            // The first plan of a node builds its catalog; two threads
            // racing for it must both see the one catalog.
            let desc = ipars::descriptor(&cfg, layout);
            let c = compile_from_text(&desc, Path::new("/nonexistent")).unwrap();
            let bq = bound(&c, &format!("SELECT * FROM IparsData WHERE TIME >= {time_lo}"));
            let prep = c.prepare_query(&bq).unwrap();
            let node = cfg.nodes - 1;
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| c.plan_node(&prep, node).unwrap());
                let b = s.spawn(|| c.plan_node(&prep, node).unwrap());
                (a.join().unwrap(), b.join().unwrap())
            });
            prop_assert_eq!(&a.afcs, &b.afcs, "{}", layout.label());
            prop_assert_eq!(&a.prune.verdicts, &b.prune.verdicts);
            prop_assert_eq!(
                (a.prune.groups_total, a.prune.groups_pruned, a.prune.groups_full),
                (b.prune.groups_total, b.prune.groups_pruned, b.prune.groups_full)
            );
        }
    }
}
