//! Aggregation pushdown ablation — ship aggregates, not rows.
//!
//! ```text
//! cargo run --release -p dv-bench --bin repro_agg
//! ```
//!
//! Runs a GROUP BY spectrum on the L0 layout, pushdown vs shipped-rows
//! (`QueryOptions::no_agg_pushdown`, the CLI's `--no-agg-pushdown`).
//! With pushdown each node folds its morsels
//! into per-AFC partial aggregates and the mover carries compact
//! key+accumulator blocks; without it the filtered projected rows
//! cross the wire and the absorber aggregates client-side. Both modes
//! fold the same plan-time AFC units in the same (node, seq) order, so
//! the results are asserted *bit*-identical — across thread counts
//! {1, 2, 8} — while the mover traffic drops
//! from O(rows) to O(groups). The headline acceptance bar is a >= 5x
//! mover-bytes reduction on the multi-aggregate GROUP BY. Each time is
//! the median over `ROUNDS` rounds of the best of 3 queries on a fresh
//! server. Results go to `BENCH_AGG.json` at the repo root (override
//! with `DV_BENCH_OUT`).

use std::path::PathBuf;
use std::time::Duration;

use dv_bench::stage::stage_ipars;
use dv_bench::{ms, print_table, ratio, scaled};
use dv_core::{BandwidthModel, IoOptions, QueryOptions, QueryStats, Virtualizer};
use dv_datagen::{IparsConfig, IparsLayout};
use dv_types::{Table, Value};

fn cfg() -> IparsConfig {
    IparsConfig {
        realizations: 4,
        time_steps: 50,
        grid_per_dir: scaled(1250),
        dirs: 4,
        nodes: 4,
        seed: 808,
    }
}

struct Case {
    name: &'static str,
    sql: &'static str,
}

fn cases() -> Vec<Case> {
    vec![
        // 200 groups out of the full scan: the headline.
        Case {
            name: "multi-agg-group",
            sql: "SELECT REL, TIME, COUNT(*), SUM(SOIL), MIN(PGAS), MAX(PGAS), AVG(SOIL) \
                  FROM IparsData GROUP BY REL, TIME",
        },
        // Filtered single aggregate: pushdown composes with the
        // filtering service and static pruning.
        Case {
            name: "filtered-avg",
            sql: "SELECT TIME, AVG(SOIL) FROM IparsData WHERE TIME <= 25 GROUP BY TIME",
        },
        // Global aggregate: one group per node partial.
        Case {
            name: "global-agg",
            sql: "SELECT COUNT(*), SUM(SOIL), MIN(SOIL), MAX(SOIL) FROM IparsData",
        },
        // Bare GROUP BY (DISTINCT): keys only, no accumulators.
        Case { name: "distinct-rel", sql: "SELECT REL FROM IparsData GROUP BY REL" },
    ]
}

fn opts(threads: usize, no_agg_pushdown: bool) -> QueryOptions {
    // Segment cache off: repeat timing runs must re-issue their reads.
    let io = IoOptions { cache_bytes: 0, ..IoOptions::default() };
    QueryOptions {
        sequential_nodes: true,
        intra_node_threads: threads,
        no_agg_pushdown,
        io,
        ..Default::default()
    }
}

fn run_once(
    v: &Virtualizer,
    sql: &str,
    threads: usize,
    no_push: bool,
) -> (Table, QueryStats, Duration) {
    let (mut tables, stats) = v.query_with(sql, &opts(threads, no_push)).unwrap();
    let t = stats.simulated_parallel_time();
    (tables.remove(0), stats, t)
}

/// Timing rounds per arm; every reported time is the median round.
const ROUNDS: usize = 9;

fn run_timed(v: &Virtualizer, sql: &str, no_push: bool) -> (Table, QueryStats, Duration) {
    let ((table, stats), time) = dv_bench::min_over(3, || {
        let (table, stats, time) = run_once(v, sql, 1, no_push);
        ((table, stats), time)
    });
    (table, stats, time)
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

/// Bit-level table equality: floats compare by representation so a
/// re-associated fold or a canonicalized NaN cannot slip through.
fn bits_equal(a: &Table, b: &Table) -> bool {
    a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                    _ => va == vb,
                })
        })
}

struct Measurement {
    name: &'static str,
    groups: usize,
    pushed: QueryStats,
    pushed_time: Duration,
    shipped: QueryStats,
    shipped_time: Duration,
}

fn main() {
    let cfg = cfg();
    println!("# Aggregation pushdown ablation — partial aggregates vs shipped rows\n");
    println!(
        "dataset: {} rows (~{} MiB, L0 layout), 4 nodes; times are simulated cluster wall times",
        cfg.rows(),
        cfg.rows() * cfg.row_bytes() / (1024 * 1024)
    );

    let (base, desc) = stage_ipars("agg-l0", &cfg, IparsLayout::L0);
    dv_bench::warm_dir(&base);

    let mut results = Vec::new();
    for case in cases() {
        // Fresh server per arm and round so the segment cache cannot
        // subsidize either mode.
        let mut rounds = Vec::new();
        for _ in 0..ROUNDS {
            let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
            let shipped = run_timed(&v, case.sql, true);
            let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
            rounds.push((shipped, run_timed(&v, case.sql, false), v));
        }
        let shipped_time = median(rounds.iter().map(|r| r.0 .2).collect());
        let pushed_time = median(rounds.iter().map(|r| r.1 .2).collect());
        let ((t_rows, shipped, _), (t_push, pushed, _), v) = rounds.pop().unwrap();
        assert!(
            bits_equal(&t_push, &t_rows),
            "{}: pushdown result diverges from shipped-rows ({} vs {} rows)",
            case.name,
            t_push.len(),
            t_rows.len()
        );
        assert_eq!(shipped.mover.agg_blocks, 0, "{}: ablation must ship rows", case.name);
        assert!(pushed.mover.agg_blocks > 0, "{}: pushdown must ship partials", case.name);

        // Bit-identity across thread counts, both modes.
        for threads in [1usize, 2, 8] {
            for no_push in [false, true] {
                let (t, _, _) = run_once(&v, case.sql, threads, no_push);
                assert!(
                    bits_equal(&t, &t_push),
                    "{}: threads={threads} no_push={no_push} diverges",
                    case.name
                );
            }
        }
        results.push(Measurement {
            name: case.name,
            groups: t_push.len(),
            pushed,
            pushed_time,
            shipped,
            shipped_time,
        });
    }

    let table_rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.groups.to_string(),
                m.pushed.mover.agg_rows_in.to_string(),
                m.pushed.mover.agg_groups_out.to_string(),
                (m.shipped.bytes_moved / 1024).to_string(),
                (m.pushed.bytes_moved / 1024).to_string(),
                format!("{:.1}x", moved_reduction(m)),
                ms(m.shipped_time),
                ms(m.pushed_time),
                ratio(m.shipped_time, m.pushed_time),
            ]
        })
        .collect();
    print_table(
        "Pushdown vs shipped rows (no_agg_pushdown) — mover traffic, times",
        &[
            "query",
            "groups",
            "rows folded",
            "entries out",
            "KiB (rows)",
            "KiB (push)",
            "moved",
            "rows",
            "push",
            "speedup",
        ],
        &table_rows,
    );

    // Headline: mover-bytes reduction on the multi-aggregate GROUP BY.
    // The acceptance bar is >= 5x.
    let head = &results[0];
    let moved = moved_reduction(head);
    println!("\nheadline mover-bytes reduction (shipped-rows/pushdown): {moved:.1}x");
    assert!(moved >= 5.0, "acceptance: expected >= 5x mover-bytes reduction, got {moved:.2}x");

    // On the local in-memory mover the saved bytes cost nothing, so
    // wall time is flat; over a modeled link the traffic reduction is
    // the wall-clock win. 8 MiB/s is the repository's standard slow
    // WAN arm (repro_fig10 uses the same model).
    let link = BandwidthModel { bytes_per_sec: 8.0 * 1024.0 * 1024.0, latency: Duration::ZERO };
    let sql = cases()[0].sql;
    let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
    let run_link = |no_push: bool| {
        let mut o = opts(1, no_push);
        o.bandwidth = Some(link);
        let (_, stats) = v.query_with(sql, &o).unwrap();
        stats.simulated_parallel_time()
    };
    let (link_rows, link_push) = (
        median((0..ROUNDS).map(|_| run_link(true)).collect()),
        median((0..ROUNDS).map(|_| run_link(false)).collect()),
    );
    let link_speedup = link_rows.as_secs_f64() / link_push.as_secs_f64().max(1e-9);
    println!(
        "headline over an 8 MiB/s link: rows {} vs pushdown {} ({link_speedup:.1}x)",
        ms(link_rows),
        ms(link_push)
    );

    let out = out_path();
    std::fs::write(&out, render_json(&cfg, &results, moved, link_speedup))
        .expect("write bench JSON");
    println!("wrote {}", out.display());
}

fn moved_reduction(m: &Measurement) -> f64 {
    m.shipped.bytes_moved as f64 / m.pushed.bytes_moved.max(1) as f64
}

fn out_path() -> PathBuf {
    match std::env::var("DV_BENCH_OUT") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest.parent().unwrap().parent().unwrap().join("BENCH_AGG.json")
        }
    }
}

/// Hand-formatted JSON (the workspace carries no serde).
fn render_json(
    cfg: &IparsConfig,
    results: &[Measurement],
    headline: f64,
    link_speedup: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"agg-pushdown\",\n");
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
    s.push_str(&format!(
        "  \"statistic\": \"median of {ROUNDS} rounds (each: best of 3 on a fresh server); \
         speedup = shipped_ms / pushdown_ms of the medians\",\n"
    ));
    s.push_str("  \"runs\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"query\": \"{}\", \"groups\": {}, \"agg_blocks\": {}, \
             \"agg_rows_in\": {}, \"agg_groups_out\": {}, \"pushdown_bytes_moved\": {}, \
             \"shipped_bytes_moved\": {}, \"moved_reduction\": {:.3}, \
             \"pushdown_ms\": {:.3}, \"shipped_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            m.name,
            m.groups,
            m.pushed.mover.agg_blocks,
            m.pushed.mover.agg_rows_in,
            m.pushed.mover.agg_groups_out,
            m.pushed.bytes_moved,
            m.shipped.bytes_moved,
            moved_reduction(m),
            m.pushed_time.as_secs_f64() * 1e3,
            m.shipped_time.as_secs_f64() * 1e3,
            m.shipped_time.as_secs_f64() / m.pushed_time.as_secs_f64().max(1e-9),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"headline_moved_reduction\": {headline:.2},\n"));
    s.push_str(&format!("  \"link_bound_speedup\": {link_speedup:.2}\n"));
    s.push_str("}\n");
    s
}
