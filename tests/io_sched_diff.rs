//! Differential tests for the I/O scheduler: every knob combination
//! (coalescing gap, working-set grouping, segment cache) must return
//! exactly the rows of the hand-written baselines — which share no
//! read code with the scheduler — across all Ipars layouts and Titan,
//! and of the row-at-a-time reference executor (which reads whole
//! files itself) on proptest-generated queries; plus
//! invalidation tests proving a file rewritten, replaced by rename or
//! truncated yields fresh reads, never stale cached bytes, handles or
//! recycled read buffers; and the cache decision (`explain`'s
//! `cache:` line) holding at run time.

use dv_bench::queries::{ipars_queries, titan_queries};
use dv_core::{IoOptions, QueryOptions, Virtualizer};
use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};
use dv_handwritten::{HandIparsL0, HandTitan};
use dv_integration::{query_checked, query_options, reference, scratch};
use dv_sql::{bind, parse, UdfRegistry};
use dv_types::{DvError, Table};

fn ipars_cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 77 }
}

/// Options under which every node of every test plan streams past the
/// segment cache: a query budget below any plan's bytes, and fetch
/// groups small enough that each node's later misses read into
/// recycled buffers of varying sizes.
fn stream_io() -> IoOptions {
    IoOptions { cache_bytes: 1, group_bytes: 16 * 1024, ..IoOptions::default() }
}

/// The knob matrix: plain baseline, coalesce-only (two gaps), tiny
/// working sets without a cache (multi-group morsels), the default
/// cache, small working sets with the cache, and streaming nodes
/// that reuse their read buffers.
fn knob_combos() -> Vec<(&'static str, IoOptions)> {
    vec![
        ("plain", IoOptions::plain()),
        ("coalesce", IoOptions { cache_bytes: 0, ..IoOptions::default() }),
        ("coalesce-gap0", IoOptions { cache_bytes: 0, coalesce_gap: 0, ..IoOptions::default() }),
        (
            "small-groups",
            IoOptions { cache_bytes: 0, group_bytes: 16 * 1024, ..IoOptions::default() },
        ),
        ("cache", IoOptions::default()),
        ("full", IoOptions { group_bytes: 64 * 1024, ..IoOptions::default() }),
        ("stream", stream_io()),
    ]
}

fn run(v: &Virtualizer, sql: &str, opts: &QueryOptions) -> Table {
    let (mut tables, _) = query_checked(v, sql, opts);
    tables.remove(0)
}

fn run_io(v: &Virtualizer, sql: &str, io: &IoOptions) -> Table {
    run(v, sql, &QueryOptions { io: io.clone(), ..query_options() })
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

/// `explain`'s I/O schedule line is the runtime's: the coalesced reads
/// it sums over every node equal the read syscalls of a cold query at
/// the default options, whose fetch groups are capped at the morsel
/// target rather than at `group_bytes`.
#[test]
fn explain_io_schedule_matches_cold_read_syscalls() {
    let cfg = ipars_cfg();
    let base = scratch("iodiff-explain");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::I).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let sql = "SELECT * FROM IparsData";

    let explained: u64 = v
        .explain(sql)
        .unwrap()
        .lines()
        .filter_map(|l| l.split(" runs -> ").nth(1))
        .map(|rest| rest.split(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let opts = QueryOptions { intra_node_threads: threads, ..QueryOptions::default() };
    let (_, cold) = query_checked(&v, sql, &opts);
    assert!(explained > 0);
    assert_eq!(explained, cold.io.read_syscalls, "explain's coalesced reads vs the runtime's");
}

/// Per node of an `explain` rendering: whether its `cache:` line says
/// `stream`, the plan bytes it names, and the bytes its I/O schedule
/// line issues (0 for a node that reads nothing).
fn explained_nodes(text: &str) -> Vec<(bool, u64, u64)> {
    let mut nodes = Vec::new();
    for line in text.lines() {
        if line.starts_with("// node ") {
            nodes.push((false, 0, 0));
        }
        let Some(node) = nodes.last_mut() else { continue };
        if line.contains(" runs -> ") {
            let issued = line.split(" bytes issued").next().unwrap();
            node.2 = issued.rsplit(' ').next().unwrap().parse().unwrap();
        }
        if let Some(cache) = line.strip_prefix("//   cache: ") {
            node.0 = cache.starts_with("stream");
            node.1 =
                cache.split("plan ").nth(1).unwrap().split(' ').next().unwrap().parse().unwrap();
        }
    }
    nodes
}

/// `explain`'s per-node cache decision is the runtime's: on a fresh
/// server a cold query inserts exactly the bytes its admitting nodes
/// issue, and nothing where `explain` says `stream` — at the default
/// budget (everything fits), below every plan (everything streams),
/// and at a budget that splits the nodes of an uneven plan.
#[test]
fn explain_cache_decision_matches_cold_inserts() {
    let cfg = TitanConfig { points: 2000, tiles: (3, 3, 2), nodes: 2, seed: 17 };
    let base = scratch("iodiff-explain-cache");
    let descriptor = titan::generate(&base, &cfg).unwrap();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Planning reads no data: one server explains every query.
    let planner = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let mut split = false;
    for q in titan_queries("TitanData") {
        let plans: Vec<u64> =
            explained_nodes(&planner.explain(&q.sql).unwrap()).iter().map(|n| n.1).collect();
        let (lo, hi) = (*plans.iter().min().unwrap(), *plans.iter().max().unwrap());
        let mut budgets = vec![IoOptions::default().cache_bytes, 1];
        if lo < hi {
            budgets.push(lo * plans.len() as u64);
        }
        for budget in budgets {
            let io = IoOptions { cache_bytes: budget, ..IoOptions::default() };
            let opts = QueryOptions { io, intra_node_threads: threads, ..query_options() };
            let nodes = explained_nodes(&planner.explain_with(&q.sql, &opts).unwrap());
            let admitted: u64 = nodes.iter().filter(|n| !n.0).map(|n| n.2).sum();
            split |= nodes.iter().any(|n| n.0 && n.2 > 0) && admitted > 0;
            let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
            let (_, cold) = query_checked(&v, &q.sql, &opts);
            assert_eq!(
                cold.io.cache_insert_bytes, admitted,
                "q{} ({}) at a {budget}-byte budget: inserts vs explain's admitting nodes {nodes:?}",
                q.no, q.what
            );
        }
    }
    assert!(split, "no query split its nodes between stream and admit");
}

/// A small query's resident working set survives a neighbour's scan
/// that is over its budget: the scan streams past the cache, inserting
/// nothing, and the small query stays wholly warm.
#[test]
fn resident_working_set_survives_streaming_scan() {
    let cfg = ipars_cfg();
    let base = scratch("iodiff-resident");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::I).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let small = "SELECT REL, TIME, SOIL FROM IparsData WHERE TIME <= 4";
    let opts = query_options();

    let (cold, _) = query_checked(&v, small, &opts);
    let (_, warm) = query_checked(&v, small, &opts);
    assert_eq!(warm.io.cache_hit_rate(), 1.0, "the small query is cache-resident");

    // The scan's budget holds the small query's footprint but not its
    // own plan.
    let scan_opts = QueryOptions {
        io: IoOptions { cache_bytes: 4 * warm.io.cache_hit_bytes, ..IoOptions::default() },
        ..query_options()
    };
    assert!(v.explain_with("SELECT * FROM IparsData", &scan_opts).unwrap().contains("stream"));
    let (_, scan) = query_checked(&v, "SELECT * FROM IparsData", &scan_opts);
    assert!(scan.io.bytes_issued > 0, "the scan reads the files past the cache");
    assert_eq!(scan.io.cache_insert_bytes, 0, "a streaming scan inserts nothing");

    let (again, after) = query_checked(&v, small, &opts);
    assert!(again[0].same_rows(&cold[0]));
    assert_eq!(after.io.cache_hit_rate(), 1.0, "the small query is still wholly cached");
    assert_eq!(after.io.read_syscalls, 0, "and reads nothing");
}

/// The cache arms of the invalidation tests: the default cache, and
/// nodes that stream past it reusing their read buffers.
fn cache_arms() -> [(&'static str, QueryOptions); 2] {
    [("cache", query_options()), ("stream", QueryOptions { io: stream_io(), ..query_options() })]
}

/// Rewriting a data file in place (fresh mtime, same length) must
/// invalidate its cached segments: the same server answers the second
/// query from the new bytes. A streaming server caches nothing, and
/// its recycled buffers never outlive a query, so it too must read
/// the new bytes.
#[test]
fn cache_invalidation_on_rewrite() {
    for (arm, opts) in cache_arms() {
        let cfg_a = ipars_cfg();
        let cfg_b = IparsConfig { seed: 4242, ..cfg_a.clone() };
        let base = scratch(&format!("iodiff-rewrite-{arm}"));
        let descriptor = ipars::generate(&base, &cfg_a, IparsLayout::L0).unwrap();
        let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        let sql = "SELECT * FROM IparsData WHERE TIME <= 5";

        let (t1, stats1) = query_checked(&v, sql, &opts);
        if arm == "stream" {
            assert_eq!(stats1.io.cache_insert_bytes, 0, "a streaming query inserts nothing");
        }
        // Rewrite every data file in place with different values (the
        // sleep guarantees a distinct mtime even on coarse filesystems).
        std::thread::sleep(std::time::Duration::from_millis(20));
        ipars::generate(&base, &cfg_b, IparsLayout::L0).unwrap();

        let (t2, stats2) = query_checked(&v, sql, &opts);
        assert!(!t1[0].same_rows(&t2[0]), "{arm}: rewritten data must change the result");
        assert_eq!(stats2.io.cache_hit_bytes, 0, "{arm}: no stale segment may be served");

        // A fresh server over the rewritten files agrees.
        let v_fresh = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        let t_fresh = run(&v_fresh, sql, &opts);
        assert!(t2[0].same_rows(&t_fresh), "{arm}: post-rewrite result must match a cold server");
    }
}

/// Replacing data files by rename (a new inode under the old path)
/// must be seen by a server that pooled the old handles during a query
/// without a segment cache: the next cache-less query and the next
/// default one each answer like a fresh server over the new files.
#[test]
fn cache_invalidation_on_rename() {
    let cfg_a = ipars_cfg();
    let cfg_b = IparsConfig { seed: 4242, ..cfg_a.clone() };
    let base = scratch("iodiff-rename");
    let next = scratch("iodiff-rename-next");
    let descriptor = ipars::generate(&base, &cfg_a, IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let sql = "SELECT * FROM IparsData WHERE TIME <= 5";
    let no_cache = QueryOptions { io: IoOptions::plain(), ..Default::default() };

    let t1 = run(&v, sql, &no_cache);
    // A distinct mtime even on coarse filesystems.
    std::thread::sleep(std::time::Duration::from_millis(20));
    ipars::generate(&next, &cfg_b, IparsLayout::L0).unwrap();
    for file in data_files(&next) {
        std::fs::rename(&file, base.join(file.strip_prefix(&next).unwrap())).unwrap();
    }

    let v_fresh = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let t_fresh = run(&v_fresh, sql, &QueryOptions::default());
    assert!(!t1.same_rows(&t_fresh), "replaced data must change the result");
    let t2 = run(&v, sql, &no_cache);
    assert!(t2.same_rows(&t_fresh), "cache-less query after the rename must match a cold server");
    let t3 = run(&v, sql, &QueryOptions::default());
    assert!(t3.same_rows(&t_fresh), "default query after the rename must match a cold server");
}

/// Truncating a file after it was read must surface as a clean I/O
/// error on the next query, not a stale success — whether its
/// segments were cached or its read buffer is being reused — and once
/// the file is whole again the same server answers correctly.
#[test]
fn cache_invalidation_on_truncate() {
    for (arm, opts) in cache_arms() {
        let cfg = ipars_cfg();
        let base = scratch(&format!("iodiff-trunc-{arm}"));
        let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
        let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
        let sql = "SELECT * FROM IparsData";

        let before = run(&v, sql, &opts);
        // Truncate one vertical-fragment file to half its size.
        let victim = walk_one_data_file(&base);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        match v.query_with(sql, &opts) {
            Err(DvError::Io { path, .. }) => {
                assert_eq!(std::path::Path::new(&path), victim, "{arm}: error names the file")
            }
            other => panic!(
                "{arm}: query over a truncated file must fail with an I/O error, got {:?}",
                other.map(|r| r.0[0].len())
            ),
        }

        std::fs::write(&victim, &bytes).unwrap();
        let after = run(&v, sql, &opts);
        assert!(after.same_rows(&before), "{arm}: the restored file must read correctly");
    }
}

/// First regular file below `base` (the datasets are generated, so
/// any data file works as a truncation victim).
fn walk_one_data_file(base: &std::path::Path) -> std::path::PathBuf {
    data_files(base)
        .into_iter()
        .find(|p| p.metadata().map(|m| m.len() > 64).unwrap_or(false))
        .unwrap_or_else(|| panic!("no data file found under {}", base.display()))
}

/// Every regular file below `base`, directories walked depth-first.
fn data_files(base: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![base.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files
}

/// Random predicates and projections: every knob combination must
/// agree with the reference executor on every generated query.
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
            0..knob_combos().len(),
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
            let oracle = reference::execute(v, &sql, &QueryOptions::default()).remove(0);
            prop_assert!(
                on.rows == oracle.rows,
                "{sql} knob `{name}`: {} rows vs {} rows from the oracle",
                on.len(),
                oracle.len()
            );
        }
    }
}
