//! Static pruning ablation — dv-prune's bytes-avoided and filter-skip
//! wins, plus the lint-time cost of the analysis itself.
//!
//! ```text
//! cargo run --release -p dv-bench --bin repro_prune
//! ```
//!
//! Runs a prunability spectrum on the L0 layout, pruned vs unpruned
//! (`QueryOptions::no_prune`, the CLI's `--no-prune`),
//! asserting identical row multisets throughout. The headline query is
//! an *arithmetic* time window (`TIME * 10 <= 40`, 8% of the
//! coordinate space): range analysis cannot see through the
//! multiplication, so without the abstract interpreter it full-scans —
//! exactly the gap dv-prune closes. Also times `prune_query` on every
//! shipped example descriptor (the analysis must stay well under the
//! 5 ms acceptance bar). Results go to `BENCH_PRUNE.json` at the repo
//! root (override with `DV_BENCH_OUT`).

use std::path::PathBuf;
use std::time::Duration;

use dv_bench::stage::stage_ipars;
use dv_bench::{ms, print_table, ratio, scaled};
use dv_core::{IoOptions, QueryOptions, QueryStats, Virtualizer};
use dv_datagen::{IparsConfig, IparsLayout};
use dv_sql::UdfRegistry;
use dv_types::Table;

fn cfg() -> IparsConfig {
    IparsConfig {
        realizations: 4,
        time_steps: 50,
        grid_per_dir: scaled(1250),
        dirs: 4,
        nodes: 4,
        seed: 606,
    }
}

struct Case {
    name: &'static str,
    sql: &'static str,
}

fn cases() -> Vec<Case> {
    vec![
        // 8% of the TIME axis, hidden behind arithmetic: the headline.
        Case {
            name: "arith-window-8%",
            sql: "SELECT SOIL, TIME FROM IparsData WHERE TIME * 10 <= 40",
        },
        // The same window written plainly: range analysis already
        // narrows it, pruning marks the survivors Full.
        Case { name: "plain-window-8%", sql: "SELECT SOIL, TIME FROM IparsData WHERE TIME <= 4" },
        // Tautology: nothing pruned, every chunk skips the filter.
        Case { name: "tautology", sql: "SELECT SOIL, TIME FROM IparsData WHERE TIME >= 1" },
        // Stored attribute: undecidable, pruning must be a no-op.
        Case { name: "stored-attr", sql: "SELECT SOIL FROM IparsData WHERE SOIL > 0.8" },
    ]
}

fn opts(no_prune: bool) -> QueryOptions {
    // Segment cache off: repeat timing runs must re-issue their reads,
    // so `bytes_issued` measures the scan, not the cache.
    let io = IoOptions { cache_bytes: 0, ..IoOptions::default() };
    QueryOptions { sequential_nodes: true, no_prune, io, ..Default::default() }
}

fn run_once(v: &Virtualizer, sql: &str, no_prune: bool) -> (Table, QueryStats, Duration) {
    let (mut tables, stats) = v.query_with(sql, &opts(no_prune)).unwrap();
    let t = stats.simulated_parallel_time();
    (tables.remove(0), stats, t)
}

fn run_timed(v: &Virtualizer, sql: &str, no_prune: bool) -> (Table, QueryStats, Duration) {
    let ((table, stats), time) = dv_bench::min_over(3, || {
        let (table, stats, time) = run_once(v, sql, no_prune);
        ((table, stats), time)
    });
    (table, stats, time)
}

struct Measurement {
    name: &'static str,
    rows: usize,
    pruned: QueryStats,
    pruned_time: Duration,
    unpruned: QueryStats,
    unpruned_time: Duration,
}

fn main() {
    let cfg = cfg();
    println!("# Static pruning ablation — abstract interpretation over AFC extents\n");
    println!(
        "dataset: {} rows (~{} MiB, L0 layout), 4 nodes; times are simulated cluster wall times",
        cfg.rows(),
        cfg.rows() * cfg.row_bytes() / (1024 * 1024)
    );

    let (base, desc) = stage_ipars("prune-l0", &cfg, IparsLayout::L0);
    dv_bench::warm_dir(&base);

    let mut results = Vec::new();
    for case in cases() {
        // Fresh server per arm so the segment cache cannot subsidize
        // the unpruned run (or vice versa).
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
        let (t_un, unpruned, unpruned_time) = run_timed(&v, case.sql, true);
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
        let (t_pr, pruned, pruned_time) = run_timed(&v, case.sql, false);
        assert!(
            t_pr.same_rows(&t_un),
            "{}: pruned result diverges ({} vs {} rows)",
            case.name,
            t_pr.len(),
            t_un.len()
        );
        assert_eq!(unpruned.groups_pruned, 0, "{}: no_prune must not prune", case.name);
        results.push(Measurement {
            name: case.name,
            rows: t_pr.len(),
            pruned,
            pruned_time,
            unpruned,
            unpruned_time,
        });
    }

    let table_rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.rows.to_string(),
                format!("{}/{}", m.pruned.groups_pruned, m.pruned.groups_total),
                m.pruned.groups_full.to_string(),
                (m.unpruned.io.bytes_issued / 1024).to_string(),
                (m.pruned.io.bytes_issued / 1024).to_string(),
                ms(m.unpruned_time),
                ms(m.pruned_time),
                ratio(m.unpruned_time, m.pruned_time),
            ]
        })
        .collect();
    print_table(
        "Pruned vs unpruned (no_prune) — groups, bytes issued, times",
        &["query", "rows", "pruned", "full", "KiB (off)", "KiB (prune)", "off", "prune", "speedup"],
        &table_rows,
    );

    // Headline: bytes-issued reduction on the selective arithmetic
    // window, where range analysis is blind and pruning does all the
    // work. The acceptance bar is >= 5x.
    let head = &results[0];
    let byte_reduction =
        head.unpruned.io.bytes_issued as f64 / head.pruned.io.bytes_issued.max(1) as f64;
    println!("\nselective-query bytes-issued reduction (unpruned/pruned): {byte_reduction:.1}x");
    assert!(
        byte_reduction >= 5.0,
        "acceptance: expected >= 5x bytes-issued reduction, got {byte_reduction:.2}x"
    );

    let lint = lint_latencies();

    let out = out_path();
    std::fs::write(&out, render_json(&cfg, &results, &lint, byte_reduction))
        .expect("write bench JSON");
    println!("wrote {}", out.display());
}

struct LintPoint {
    descriptor: String,
    files: usize,
    time: Duration,
}

/// `prune_query` latency on every shipped example descriptor, against a
/// worst-case-ish query (arith + UDF + two coordinates). Must stay
/// under the 5 ms acceptance bar.
fn lint_latencies() -> Vec<LintPoint> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/descriptors");
    let udfs = UdfRegistry::with_builtins();
    let mut out = Vec::new();
    let mut rows = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "desc") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let model = dv_descriptor::compile(&text).unwrap();
        // Every schema has at least two attributes; constrain the first
        // two so the pass walks real hull envs on every descriptor.
        let a0 = &model.schema.attr_at(0).name;
        let a1 = &model.schema.attr_at(1).name;
        let sql = format!(
            "SELECT {a0} FROM {} WHERE {a0} * 3 <= 90 AND {a1} >= 0 AND \
             SPEED({a0}, {a0}, {a1}) < 100.0",
            model.dataset_name
        );
        let (_, time) = dv_bench::time_best_of(5, || {
            dv_lint::prune_query(&model, &sql, &udfs).unwrap();
        });
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(
            time < Duration::from_millis(5),
            "{name}: prune analysis took {time:?} (bar is 5 ms)"
        );
        rows.push(vec![
            name.clone(),
            model.files.len().to_string(),
            format!("{:.3}", time.as_secs_f64() * 1e3),
        ]);
        out.push(LintPoint { descriptor: name, files: model.files.len(), time });
    }
    print_table(
        "prune_query latency per shipped descriptor (ms, best of 5)",
        &["descriptor", "files", "analysis ms"],
        &rows,
    );
    out
}

fn out_path() -> PathBuf {
    match std::env::var("DV_BENCH_OUT") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest.parent().unwrap().parent().unwrap().join("BENCH_PRUNE.json")
        }
    }
}

/// Hand-formatted JSON (the workspace carries no serde).
fn render_json(
    cfg: &IparsConfig,
    results: &[Measurement],
    lint: &[LintPoint],
    byte_reduction: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"static-pruning\",\n");
    s.push_str(&format!(
        "  \"dataset\": {{\"kind\": \"ipars\", \"layout\": \"l0\", \"rows\": {}, \
         \"realizations\": {}, \"time_steps\": {}, \"grid_per_dir\": {}, \"dirs\": {}, \
         \"nodes\": {}, \"seed\": {}}},\n",
        cfg.rows(),
        cfg.realizations,
        cfg.time_steps,
        cfg.grid_per_dir,
        cfg.dirs,
        cfg.nodes,
        cfg.seed
    ));
    s.push_str(&format!("  \"quick_mode\": {},\n", dv_bench::quick_mode()));
    s.push_str("  \"runs\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"query\": \"{}\", \"rows\": {}, \"groups_total\": {}, \
             \"groups_pruned\": {}, \"groups_full\": {}, \"bytes_avoided\": {}, \
             \"pruned_bytes_issued\": {}, \"unpruned_bytes_issued\": {}, \
             \"pruned_ms\": {:.3}, \"unpruned_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            m.name,
            m.rows,
            m.pruned.groups_total,
            m.pruned.groups_pruned,
            m.pruned.groups_full,
            m.pruned.bytes_avoided,
            m.pruned.io.bytes_issued,
            m.unpruned.io.bytes_issued,
            m.pruned_time.as_secs_f64() * 1e3,
            m.unpruned_time.as_secs_f64() * 1e3,
            m.unpruned_time.as_secs_f64() / m.pruned_time.as_secs_f64().max(1e-9),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"prune_lint_latency\": [\n");
    for (i, p) in lint.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"descriptor\": \"{}\", \"files\": {}, \"analysis_ms\": {:.3}}}{}\n",
            p.descriptor,
            p.files,
            p.time.as_secs_f64() * 1e3,
            if i + 1 == lint.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"selective_bytes_reduction\": {byte_reduction:.2}\n"));
    s.push_str("}\n");
    s
}
