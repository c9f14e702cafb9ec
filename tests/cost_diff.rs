//! Soundness suite for the dv-cost static analysis: across every
//! shipped layout, the bench-style query set, prune on/off,
//! aggregation pushdown on/off and thread counts {1, 8}, every runtime
//! counter in [`QueryStats`] must stay within its static bound.
//!
//! The suite runs with `DV_COST_VALIDATE=1`, so the server's own
//! drain-time validation is armed for every query here (a violation
//! fails the query itself), and additionally rebuilds the
//! [`CostReport`] out-of-band to assert the bounds explicitly — the
//! empirical half of the soundness argument in
//! `crates/layout/src/cost.rs`.

use dv_core::{CostParams, CostReport, ExecMode, QueryOptions, Virtualizer};
use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};
use dv_integration::scratch;
use dv_layout::{NodePlan, RuntimeCounters};

fn ipars_cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 91 }
}

fn arm_validation() {
    std::env::set_var("DV_COST_VALIDATE", "1");
}

/// Rebuild the static report exactly as the admission path does: same
/// prep (prune/pushdown toggles applied), same per-node plans, same
/// cost parameters.
fn static_report(v: &Virtualizer, sql: &str, opts: &QueryOptions) -> CostReport {
    let bq = v.service().bind_sql(sql).unwrap();
    let compiled = v.service().compiled();
    let mut prep = compiled.prepare_query(&bq).unwrap();
    if opts.no_prune {
        prep.prune_enabled = false;
    }
    if opts.no_agg_pushdown {
        prep.agg_pushdown = false;
    }
    let plans: Vec<NodePlan> =
        (0..compiled.model.node_count()).map(|n| compiled.plan_node(&prep, n).unwrap()).collect();
    let params = CostParams::new(&opts.io, opts.client_processors, bq.predicate.is_some());
    CostReport::analyze_nodes(
        &plans,
        &prep.working,
        &prep.output_positions,
        prep.agg.as_ref(),
        prep.agg_pushdown,
        &params,
    )
}

fn counters(stats: &dv_core::QueryStats) -> RuntimeCounters {
    RuntimeCounters {
        rows_scanned: stats.rows_scanned,
        rows_selected: stats.rows_selected,
        bytes_read: stats.bytes_read,
        afcs: stats.afcs,
        io_runs: stats.io.runs_scheduled,
        read_syscalls: stats.io.read_syscalls,
        bytes_issued: stats.io.bytes_issued,
        mover_sends: stats.mover.sends,
        mover_bytes: stats.bytes_moved,
        agg_groups: stats.mover.agg_groups_out,
        peak_buffered_blocks: stats.mover.peak_buffered_blocks,
    }
}

/// Run one configuration and assert the report admits every counter.
fn check(v: &Virtualizer, sql: &str, opts: &QueryOptions, tag: &str) {
    let report = static_report(v, sql, opts);
    let (_, stats) = v.query_with(sql, opts).unwrap();
    let violations = report.validate(&counters(&stats));
    assert!(
        violations.is_empty(),
        "{tag}: {sql}: {}",
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
    );
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
    arm_validation();
    let cfg = ipars_cfg();
    for layout in IparsLayout::all() {
        let base = scratch(&format!("costdiff-{}", layout.tag()));
        let descriptor = ipars::generate(&base, &cfg, layout).unwrap();
        let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        for sql in QUERIES {
            for no_prune in [false, true] {
                for no_agg_pushdown in [false, true] {
                    for threads in [1usize, 8] {
                        let opts = QueryOptions {
                            no_prune,
                            no_agg_pushdown,
                            intra_node_threads: threads,
                            ..Default::default()
                        };
                        let tag = format!(
                            "{} prune={} pushdown={} threads={}",
                            layout.label(),
                            !no_prune,
                            !no_agg_pushdown,
                            threads
                        );
                        check(&v, sql, &opts, &tag);
                    }
                }
            }
        }
    }
}

#[test]
fn bounds_hold_on_titan() {
    arm_validation();
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
            check(&v, sql, &opts, &format!("titan threads={threads}"));
        }
    }
}

/// The row-at-a-time engine takes the direct-read path (one syscall
/// per AFC entry, exact byte accounting) — the report must switch to
/// exact I/O bounds and still hold.
#[test]
fn bounds_hold_on_row_engine() {
    arm_validation();
    let cfg = ipars_cfg();
    let base = scratch("costdiff-row");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::I).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    for sql in QUERIES {
        let opts = QueryOptions { exec: ExecMode::RowAtATime, ..Default::default() };
        check(&v, sql, &opts, "row-at-a-time");
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
        no_agg_pushdown: bool,
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
            any::<bool>(),
        )
            .prop_map(
                |(
                    time_lo,
                    time_width,
                    soil_gt,
                    udf,
                    group_by_rel,
                    threads,
                    no_prune,
                    no_agg_pushdown,
                )| Spec {
                    time_lo,
                    time_width,
                    soil_gt,
                    udf,
                    group_by_rel,
                    threads,
                    no_prune,
                    no_agg_pushdown,
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
            arm_validation();
            let v = shared();
            let sql = spec_sql(&spec);
            let opts = QueryOptions {
                no_prune: spec.no_prune,
                no_agg_pushdown: spec.no_agg_pushdown,
                intra_node_threads: spec.threads,
                ..Default::default()
            };
            let report = static_report(v, &sql, &opts);
            let (_, stats) = v.query_with(&sql, &opts).unwrap();
            let violations = report.validate(&counters(&stats));
            prop_assert!(
                violations.is_empty(),
                "{spec:?}: {sql}: {}",
                violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
            );
        }
    }
}
