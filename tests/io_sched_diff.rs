//! Differential tests for the I/O scheduler: every knob combination
//! (coalescing gap, working-set grouping, readahead, segment cache)
//! must return exactly the rows of the hand-written baselines — which
//! share no read code with the scheduler — across all Ipars layouts
//! and Titan, and of the row-at-a-time oracle on proptest-generated
//! queries; plus cache-invalidation tests proving a rewritten or
//! truncated file yields fresh reads, never stale cached bytes.

use dv_bench::queries::{ipars_queries, titan_queries};
use dv_core::{ExecMode, IoOptions, QueryOptions, Virtualizer};
use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};
use dv_handwritten::{HandIparsL0, HandTitan};
use dv_integration::scratch;
use dv_sql::{bind, parse, UdfRegistry};
use dv_types::Table;

fn ipars_cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 77 }
}

/// The knob matrix: plain baseline, coalesce-only (two gaps), tiny
/// working sets with readahead (forces real prefetch traffic), cache
/// without readahead, and everything on.
fn knob_combos() -> Vec<(&'static str, IoOptions)> {
    vec![
        ("plain", IoOptions::plain()),
        ("coalesce", IoOptions { readahead: false, cache_bytes: 0, ..IoOptions::default() }),
        (
            "coalesce-gap0",
            IoOptions { readahead: false, cache_bytes: 0, coalesce_gap: 0, ..IoOptions::default() },
        ),
        (
            "readahead",
            IoOptions {
                cache_bytes: 0,
                group_bytes: 16 * 1024,
                prefetch_depth: 1,
                ..IoOptions::default()
            },
        ),
        ("cache", IoOptions { readahead: false, ..IoOptions::default() }),
        ("full", IoOptions { group_bytes: 64 * 1024, ..IoOptions::default() }),
    ]
}

fn run(v: &Virtualizer, sql: &str, opts: &QueryOptions) -> Table {
    let (mut tables, _) = v.query_with(sql, opts).unwrap();
    tables.remove(0)
}

fn run_io(v: &Virtualizer, sql: &str, io: &IoOptions) -> Table {
    run(v, sql, &QueryOptions { io: io.clone(), ..Default::default() })
}

/// All knob combinations == hand-written, across the fig8 Ipars query
/// set on the original L0 layout (m=18 fan-in).
#[test]
fn ipars_l0_all_knobs_match_handwritten() {
    let cfg = ipars_cfg();
    let base = scratch("iodiff-l0");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandIparsL0::new(base, cfg.clone(), UdfRegistry::with_builtins());

    for q in ipars_queries("IparsData", cfg.time_steps) {
        let bq = bind(&parse(&q.sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        for (name, io) in knob_combos() {
            let on = run_io(&v, &q.sql, &io);
            assert!(
                on.same_rows(&hand_t),
                "q{} ({}) knob `{name}`: {} rows vs {} rows handwritten",
                q.no,
                q.what,
                on.len(),
                hand_t.len()
            );
        }
    }
}

/// Every Ipars layout agrees with the hand-written L0 table across the
/// knob matrix (all layouts store one logical table; each stresses a
/// different run shape: vertical fragments, interleaved strides,
/// chunked groups).
#[test]
fn ipars_all_layouts_all_knobs() {
    let cfg = ipars_cfg();
    let queries = ipars_queries("IparsData", cfg.time_steps);
    let hand_base = scratch("iodiff-all-hand");
    let l0 = ipars::generate(&hand_base, &cfg, IparsLayout::L0).unwrap();
    let schema = dv_descriptor::compile(&l0).unwrap().schema;
    let hand = HandIparsL0::new(hand_base, cfg.clone(), UdfRegistry::with_builtins());
    let hand_tables: Vec<Table> = queries
        .iter()
        .map(|q| {
            let bq = bind(&parse(&q.sql).unwrap(), &schema, &UdfRegistry::with_builtins()).unwrap();
            hand.execute(&bq).unwrap().0
        })
        .collect();
    for layout in IparsLayout::all() {
        let base = scratch(&format!("iodiff-all-{}", layout.tag()));
        let descriptor = ipars::generate(&base, &cfg, layout).unwrap();
        let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        for (q, hand_t) in queries.iter().zip(&hand_tables) {
            for (name, io) in knob_combos() {
                let on = run_io(&v, &q.sql, &io);
                assert!(
                    on.same_rows(hand_t),
                    "{} q{} ({}) knob `{name}`: {} rows vs {} rows handwritten",
                    layout.label(),
                    q.no,
                    q.what,
                    on.len(),
                    hand_t.len()
                );
            }
        }
    }
}

/// Titan (chunked + R-tree pruned) agrees across the knob matrix and
/// with the hand-written baseline.
#[test]
fn titan_all_knobs_match_handwritten() {
    let cfg = TitanConfig { points: 2000, tiles: (3, 3, 2), nodes: 2, seed: 17 };
    let base = scratch("iodiff-titan");
    let descriptor = titan::generate(&base, &cfg).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandTitan::new(base, &cfg, UdfRegistry::with_builtins()).unwrap();

    for q in titan_queries("TitanData") {
        let bq = bind(&parse(&q.sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let (hand_t, _) = hand.execute(&bq).unwrap();
        for (name, io) in knob_combos() {
            let on = run_io(&v, &q.sql, &io);
            assert!(on.same_rows(&hand_t), "q{} ({}) knob `{name}`", q.no, q.what);
        }
    }
}

/// The scheduler's counters behave as designed on L0: coalescing
/// merges the per-time-step vertical-fragment runs into far fewer
/// syscalls, and a repeated query is served almost entirely from the
/// segment cache.
#[test]
fn l0_counters_show_coalescing_and_warm_cache() {
    let cfg = ipars_cfg();
    let base = scratch("iodiff-counters");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let sql = "SELECT * FROM IparsData";

    let (_, cold) = v.query_with(sql, &QueryOptions::default()).unwrap();
    let (_, warm) = v.query_with(sql, &QueryOptions::default()).unwrap();

    assert!(cold.io.read_syscalls > 0);
    // One syscall per scheduled run is what no coalescing would issue.
    assert!(
        cold.io.coalesce_ratio() >= 5.0,
        "coalescing must cut syscalls >= 5x on L0: {} syscalls for {} runs",
        cold.io.read_syscalls,
        cold.io.runs_scheduled
    );
    // Every scheduled run byte is consumed by decoding.
    assert_eq!(cold.io.bytes_used, cold.bytes_read);
    // The warm run re-reads (almost) nothing.
    assert!(
        warm.io.bytes_issued * 10 <= cold.io.bytes_issued.max(1),
        "warm run must issue <= 10% of cold bytes: {} vs {}",
        warm.io.bytes_issued,
        cold.io.bytes_issued
    );
    assert!(warm.io.cache_hit_rate() > 0.9, "hit rate {}", warm.io.cache_hit_rate());
    // Both scheduled runs decode the same logical bytes.
    assert_eq!(warm.bytes_read, cold.bytes_read);
}

/// Rewriting a data file in place (fresh mtime, same length) must
/// invalidate its cached segments: the same server answers the second
/// query from the new bytes.
#[test]
fn cache_invalidation_on_rewrite() {
    let cfg_a = ipars_cfg();
    let cfg_b = IparsConfig { seed: 4242, ..cfg_a.clone() };
    let base = scratch("iodiff-rewrite");
    let descriptor = ipars::generate(&base, &cfg_a, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let sql = "SELECT * FROM IparsData WHERE TIME <= 5";

    let (t1, _) = v.query(sql).unwrap();
    // Rewrite every data file in place with different values (the
    // sleep guarantees a distinct mtime even on coarse filesystems).
    std::thread::sleep(std::time::Duration::from_millis(20));
    ipars::generate(&base, &cfg_b, IparsLayout::L0).unwrap();

    let (t2, stats2) = v.query(sql).unwrap();
    assert!(!t1.same_rows(&t2), "rewritten data must change the result");
    assert_eq!(stats2.io.cache_hit_bytes, 0, "no stale segment may be served");

    // A fresh server over the rewritten files agrees.
    let v_fresh = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let (t_fresh, _) = v_fresh.query(sql).unwrap();
    assert!(t2.same_rows(&t_fresh), "post-rewrite result must match a cold server");
}

/// Truncating a file after it was cached must surface as an I/O
/// error on the next query, not a stale success.
#[test]
fn cache_invalidation_on_truncate() {
    let cfg = ipars_cfg();
    let base = scratch("iodiff-trunc");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let sql = "SELECT * FROM IparsData";

    v.query(sql).unwrap();
    // Truncate one vertical-fragment file to half its size.
    let victim = walk_one_data_file(&base);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    let err = v.query(sql);
    assert!(
        err.is_err(),
        "query over a truncated file must fail, got {:?}",
        err.map(|r| r.0.len())
    );
}

/// First regular file below `base` (the datasets are generated, so
/// any data file works as a truncation victim).
fn walk_one_data_file(base: &std::path::Path) -> std::path::PathBuf {
    let mut stack = vec![base.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.metadata().map(|m| m.len() > 64).unwrap_or(false) {
                return p;
            }
        }
    }
    panic!("no data file found under {}", base.display());
}

/// Random predicates and projections: every knob combination must
/// agree with the row-at-a-time oracle under the plain configuration
/// on every generated query.
mod random_queries {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    #[derive(Debug, Clone)]
    struct Spec {
        time_lo: i64,
        time_width: i64,
        soil_gt: Option<f64>,
        rel: Option<i64>,
        projection: usize,
        knob: usize,
    }

    fn arb_spec() -> impl Strategy<Value = Spec> {
        (
            0i64..40,
            0i64..12,
            proptest::option::of(0.0f64..1.0),
            proptest::option::of(0i64..2),
            0usize..4,
            0usize..6,
        )
            .prop_map(|(time_lo, time_width, soil_gt, rel, projection, knob)| Spec {
                time_lo,
                time_width,
                soil_gt,
                rel,
                projection,
                knob,
            })
    }

    fn spec_sql(spec: &Spec) -> String {
        let (tlo, thi) = (spec.time_lo, spec.time_lo + spec.time_width);
        let mut conjuncts = vec![format!("TIME >= {tlo} AND TIME <= {thi}")];
        if let Some(s) = spec.soil_gt {
            conjuncts.push(format!("SOIL > {s:.3}"));
        }
        if let Some(r) = spec.rel {
            conjuncts.push(format!("REL = {r}"));
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
            let base = scratch("iodiff-prop");
            let descriptor = ipars::generate(&base, &cfg, IparsLayout::III).unwrap();
            Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn scheduler_equals_direct_on_random_queries(spec in arb_spec()) {
            let v = shared_virtualizer();
            let sql = spec_sql(&spec);
            let (name, io) = knob_combos().swap_remove(spec.knob);
            let on = run_io(v, &sql, &io);
            let oracle = run(v, &sql, &QueryOptions {
                exec: ExecMode::RowAtATime,
                io: IoOptions::plain(),
                ..Default::default()
            });
            prop_assert!(
                on.same_rows(&oracle),
                "{sql} knob `{name}`: {} rows vs {} rows from the oracle",
                on.len(),
                oracle.len()
            );
        }
    }
}
