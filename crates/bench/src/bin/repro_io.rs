//! I/O scheduler ablation — coalesced reads, readahead, and the
//! cross-query segment cache.
//!
//! ```text
//! cargo run --release -p dv-bench --bin repro_io
//! ```
//!
//! Runs the fig9 Ipars query set on the two fan-in extremes (L0's
//! 18-file groups and Layout I's single file) under four scheduler
//! configurations — off / coalesce only / + readahead / + segment
//! cache (warm) — asserting identical cardinalities throughout, then
//! sweeps the fig11(a) query widths cold-vs-warm to show the
//! cross-query cache. The `off` arm is `IoOptions::plain()`: the same
//! scan path with gap bridging, readahead and the cache turned off.
//! Counters (`QueryStats::io`) and times go to
//! `BENCH_io.json` at the repo root (override with `DV_BENCH_OUT`).

use std::path::PathBuf;
use std::time::Duration;

use dv_bench::queries::ipars_queries;
use dv_bench::stage::stage_ipars;
use dv_bench::{ms, print_table, ratio, scaled};
use dv_core::{IoOptions, IoSnapshot, QueryOptions, Virtualizer};
use dv_datagen::{IparsConfig, IparsLayout};

fn cfg() -> IparsConfig {
    IparsConfig {
        realizations: 4,
        time_steps: 40,
        grid_per_dir: scaled(1250),
        dirs: 4,
        nodes: 4,
        seed: 909,
    }
}

fn fig11_cfg() -> IparsConfig {
    IparsConfig {
        realizations: 4,
        time_steps: 48,
        grid_per_dir: scaled(312),
        dirs: 16,
        nodes: 16,
        seed: 1111,
    }
}

/// The ablation stages, cumulative left to right.
fn stages() -> [(&'static str, IoOptions); 4] {
    [
        ("off", IoOptions::plain()),
        ("coalesce", IoOptions { readahead: false, cache_bytes: 0, ..IoOptions::default() }),
        ("readahead", IoOptions { cache_bytes: 0, ..IoOptions::default() }),
        ("cache-warm", IoOptions::default()),
    ]
}

fn opts(io: IoOptions) -> QueryOptions {
    QueryOptions { sequential_nodes: true, io, ..Default::default() }
}

fn run_once(v: &Virtualizer, sql: &str, io: IoOptions) -> (usize, IoSnapshot, Duration) {
    let (tables, stats) = v.query_with(sql, &opts(io)).unwrap();
    (tables[0].len(), stats.io, stats.simulated_parallel_time())
}

/// Best-of-3 timed run; the snapshot comes from the fastest run.
fn run_timed(v: &Virtualizer, sql: &str, io: IoOptions) -> (usize, IoSnapshot, Duration) {
    let ((rows, snap), time) = dv_bench::min_over(3, || {
        let (rows, snap, time) = run_once(v, sql, io.clone());
        ((rows, snap), time)
    });
    (rows, snap, time)
}

struct StageResult {
    rows: usize,
    snap: IoSnapshot,
    time: Duration,
}

struct Measurement {
    layout: String,
    query_no: usize,
    what: &'static str,
    stages: Vec<StageResult>,
    /// First (cold) run of the cache stage on a fresh server.
    cold: IoSnapshot,
}

fn main() {
    let cfg = cfg();
    println!("# I/O scheduler — coalesce / readahead / segment-cache ablation\n");
    println!(
        "dataset: {} rows (~{} MiB per layout), 4 nodes; times are simulated cluster wall \
         times (max over per-node pipelines)",
        cfg.rows(),
        cfg.rows() * cfg.row_bytes() / (1024 * 1024)
    );

    let queries = ipars_queries("IparsData", cfg.time_steps);
    let mut results: Vec<Measurement> = Vec::new();

    for layout in [IparsLayout::L0, IparsLayout::I] {
        // Same staging keys as repro_fig9 / repro_columnar — shared datasets.
        let (base, desc) = stage_ipars(&format!("fig9-{}", layout.tag()), &cfg, layout);
        dv_bench::warm_dir(&base);
        for q in &queries {
            let mut m = Measurement {
                layout: layout.label().to_string(),
                query_no: q.no,
                what: q.what,
                stages: Vec::new(),
                cold: IoSnapshot::default(),
            };
            for (name, io) in stages() {
                // Fresh server per stage so the segment cache never
                // leaks across stages (or queries).
                let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
                if name == "cache-warm" {
                    let (_, cold, _) = run_once(&v, &q.sql, io.clone());
                    m.cold = cold;
                }
                let (rows, snap, time) = run_timed(&v, &q.sql, io);
                if let Some(first) = m.stages.first() {
                    assert_eq!(
                        first.rows, rows,
                        "{} q{} stage {name}: cardinality diverges from scheduler-off",
                        m.layout, q.no
                    );
                }
                m.stages.push(StageResult { rows, snap, time });
            }
            results.push(m);
        }
    }

    let table_rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            let off = &m.stages[0];
            let warm = &m.stages[3];
            vec![
                m.layout.clone(),
                format!("{} ({})", m.query_no, m.what),
                off.rows.to_string(),
                off.snap.read_syscalls.to_string(),
                m.stages[1].snap.read_syscalls.to_string(),
                format!("{:.1}x", m.stages[1].snap.coalesce_ratio()),
                ms(off.time),
                ms(m.stages[1].time),
                ms(m.stages[2].time),
                ms(warm.time),
                ratio(off.time, warm.time),
            ]
        })
        .collect();
    print_table(
        "I/O scheduler ablation — syscalls and per-query times (ms)",
        &[
            "layout",
            "query",
            "rows",
            "sys(off)",
            "sys(coal)",
            "coalesce",
            "off",
            "coal",
            "+readahead",
            "+cache warm",
            "speedup",
        ],
        &table_rows,
    );

    // Headline numbers for the acceptance bar. The syscall-reduction
    // figure is the scan-heavy case (fig9 q1 on L0) — narrow
    // time-window queries have nothing adjacent to merge and stay ~1x.
    let l0_syscall_reduction = results
        .iter()
        .find(|m| m.layout.contains("L0") && m.query_no == 1)
        .map(|m| {
            m.stages[0].snap.read_syscalls as f64 / (m.stages[1].snap.read_syscalls.max(1)) as f64
        })
        .unwrap_or(0.0);
    let geomean = geomean_speedup(&results);
    let warm_reduction = results
        .iter()
        .map(|m| 1.0 - m.stages[3].snap.bytes_issued as f64 / (m.cold.bytes_issued.max(1)) as f64)
        .fold(f64::INFINITY, f64::min);
    println!("\nL0 full-scan syscall reduction (off -> coalesce): {l0_syscall_reduction:.1}x");
    println!("geomean speedup (off -> cache-warm, all cells): {geomean:.2}x");
    println!("worst-case warm-cache byte reduction vs cold: {:.1}%", warm_reduction * 100.0);

    let sweep = fig11_sweep();

    let out = out_path();
    std::fs::write(&out, render_json(&cfg, &results, &sweep, l0_syscall_reduction, geomean))
        .expect("write bench JSON");
    println!("wrote {}", out.display());
}

struct SweepPoint {
    width: usize,
    rows: usize,
    off_time: Duration,
    cold: IoSnapshot,
    warm: IoSnapshot,
    warm_time: Duration,
}

/// Fig 11(a) widths, cold vs warm on one server: the second run of
/// each query should come almost entirely out of the segment cache.
fn fig11_sweep() -> Vec<SweepPoint> {
    let cfg = fig11_cfg();
    let t_max = cfg.time_steps;
    let (base, desc) = stage_ipars("fig11a", &cfg, IparsLayout::L0);
    dv_bench::warm_dir(&base);
    let mut out = Vec::new();
    let mut rows_table = Vec::new();
    for frac in [8usize, 4, 2, 1] {
        let width = t_max / frac;
        let sql = format!("SELECT * FROM IparsData WHERE TIME >= 1 AND TIME <= {width}");
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
        let (off_rows, _, off_time) = run_timed(&v, &sql, IoOptions::plain());
        let (_, cold, _) = run_once(&v, &sql, IoOptions::default());
        let (warm_rows, warm, warm_time) = run_timed(&v, &sql, IoOptions::default());
        assert_eq!(off_rows, warm_rows, "width {width}: cached run changed cardinality");
        rows_table.push(vec![
            format!("{}%", 100 / frac),
            warm_rows.to_string(),
            ms(off_time),
            ms(warm_time),
            (cold.bytes_issued / 1024).to_string(),
            (warm.bytes_issued / 1024).to_string(),
            format!("{:.0}%", warm.cache_hit_rate() * 100.0),
        ]);
        out.push(SweepPoint { width, rows: warm_rows, off_time, cold, warm, warm_time });
    }
    print_table(
        "Fig 11(a) widths — cross-query cache, cold vs warm (16-node L0)",
        &["query size", "rows", "off", "warm", "cold KiB read", "warm KiB read", "hit rate"],
        &rows_table,
    );
    out
}

fn geomean_speedup(results: &[Measurement]) -> f64 {
    let log_sum: f64 = results
        .iter()
        .map(|m| (m.stages[0].time.as_secs_f64() / m.stages[3].time.as_secs_f64().max(1e-9)).ln())
        .sum();
    (log_sum / results.len() as f64).exp()
}

fn out_path() -> PathBuf {
    match std::env::var("DV_BENCH_OUT") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            // crates/bench -> workspace root.
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest.parent().unwrap().parent().unwrap().join("BENCH_io.json")
        }
    }
}

fn snap_json(prefix: &str, s: &IoSnapshot) -> String {
    format!(
        "\"{prefix}_syscalls\": {}, \"{prefix}_bytes_issued\": {}, \"{prefix}_bytes_used\": {}",
        s.read_syscalls, s.bytes_issued, s.bytes_used
    )
}

/// Hand-formatted JSON (the workspace carries no serde).
fn render_json(
    cfg: &IparsConfig,
    results: &[Measurement],
    sweep: &[SweepPoint],
    l0_syscall_reduction: f64,
    geomean: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"io-scheduler\",\n");
    s.push_str(&format!(
        "  \"dataset\": {{\"kind\": \"ipars\", \"rows\": {}, \"realizations\": {}, \
         \"time_steps\": {}, \"grid_per_dir\": {}, \"dirs\": {}, \"nodes\": {}, \"seed\": {}}},\n",
        cfg.rows(),
        cfg.realizations,
        cfg.time_steps,
        cfg.grid_per_dir,
        cfg.dirs,
        cfg.nodes,
        cfg.seed
    ));
    s.push_str(&format!("  \"quick_mode\": {},\n", dv_bench::quick_mode()));
    s.push_str("  \"stages\": [\"off\", \"coalesce\", \"readahead\", \"cache-warm\"],\n");
    s.push_str("  \"runs\": [\n");
    for (i, m) in results.iter().enumerate() {
        let warm = &m.stages[3];
        s.push_str(&format!(
            "    {{\"layout\": \"{}\", \"query\": {}, \"what\": \"{}\", \"rows\": {}, \
             \"off_ms\": {:.3}, \"coalesce_ms\": {:.3}, \"readahead_ms\": {:.3}, \
             \"warm_ms\": {:.3}, {}, {}, {}, \"coalesce_ratio\": {:.2}, \
             \"cold_bytes_issued\": {}, \"warm_cache_hit_rate\": {:.3}, \"speedup\": {:.3}}}{}\n",
            m.layout,
            m.query_no,
            m.what,
            m.stages[0].rows,
            m.stages[0].time.as_secs_f64() * 1e3,
            m.stages[1].time.as_secs_f64() * 1e3,
            m.stages[2].time.as_secs_f64() * 1e3,
            warm.time.as_secs_f64() * 1e3,
            snap_json("off", &m.stages[0].snap),
            snap_json("coalesce", &m.stages[1].snap),
            snap_json("warm", &warm.snap),
            m.stages[1].snap.coalesce_ratio(),
            m.cold.bytes_issued,
            warm.snap.cache_hit_rate(),
            m.stages[0].time.as_secs_f64() / warm.time.as_secs_f64().max(1e-9),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"fig11_sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"time_width\": {}, \"rows\": {}, \"off_ms\": {:.3}, \"warm_ms\": {:.3}, \
             \"cold_bytes_issued\": {}, \"warm_bytes_issued\": {}, \
             \"warm_cache_hit_rate\": {:.3}}}{}\n",
            p.width,
            p.rows,
            p.off_time.as_secs_f64() * 1e3,
            p.warm_time.as_secs_f64() * 1e3,
            p.cold.bytes_issued,
            p.warm.bytes_issued,
            p.warm.cache_hit_rate(),
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"l0_syscall_reduction\": {l0_syscall_reduction:.2},\n  \"geomean_speedup\": \
         {geomean:.3}\n"
    ));
    s.push_str("}\n");
    s
}
