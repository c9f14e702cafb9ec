//! Codec layer benchmark — per-codec decode cost and the decompressed
//! segment cache's warm-read payoff.
//!
//! ```text
//! cargo run --release -p dv-bench --bin repro_codec
//! ```
//!
//! Two measurements over the same logical Ipars dataset (Layout I)
//! stored three ways:
//!
//! 1. **Decode overhead per codec** — cold full-scan latency on a
//!    fresh server for fixed binary (affine, read in place), CSV
//!    (parse, then column decode), and zstd (decompress, then column
//!    decode), plus each encoding's physical
//!    footprint. All three must return identical rows — the codecs are
//!    purely a storage choice.
//! 2. **Warm-read speedup vs re-decode** — on the zstd encoding, a
//!    warm query served from the segment cache's *decompressed* bytes
//!    (the run must record zero `decode_calls`) versus the same query
//!    with the cache disabled, which re-decompresses every time.
//!
//! Results go to `BENCH_CODEC.json` at the repo root (override with
//! `DV_BENCH_OUT`).

use std::path::PathBuf;

use dv_bench::stage::stage_ipars_codec;
use dv_bench::{min_over, ms, print_table, ratio, scaled, warm_dir};
use dv_core::{IoOptions, QueryOptions, Virtualizer};
use dv_datagen::{IparsConfig, IparsLayout};
use dv_descriptor::CodecKind;
use dv_types::Table;

fn cfg() -> IparsConfig {
    IparsConfig {
        realizations: 4,
        time_steps: 50,
        grid_per_dir: scaled(400),
        dirs: 2,
        nodes: 2,
        seed: 8080,
    }
}

const SQL: &str = "SELECT REL, TIME, SOIL, PGAS FROM IparsData";

/// Total data bytes staged under `base` (the staging marker and
/// descriptor copy excluded).
fn physical_bytes(base: &std::path::Path) -> u64 {
    fn walk(d: &std::path::Path, sum: &mut u64) {
        let Ok(entries) = std::fs::read_dir(d) else { return };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, sum);
            } else if path.file_name().is_some_and(|n| n != "marker.json" && n != "descriptor.txt")
            {
                *sum += path.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    let mut sum = 0;
    walk(base, &mut sum);
    sum
}

struct CodecRun {
    name: &'static str,
    cold: std::time::Duration,
    physical_bytes: u64,
    table: Table,
}

fn main() {
    let cfg = cfg();
    println!("# codec layer — decode overhead and decompressed-cache warm reads\n");

    // 1. Cold full-scan per codec: a fresh server each run, so the
    // non-affine codecs pay their whole-file decode (the page cache is
    // warm in every run — the delta is decode work, not disk).
    let kinds = [
        ("binary", CodecKind::FixedBinary),
        ("csv", CodecKind::DelimitedText),
        ("zstd", CodecKind::ZstdSegment),
    ];
    let mut runs = Vec::new();
    for (name, kind) in kinds {
        let (base, desc) = stage_ipars_codec(&format!("codec-{name}"), &cfg, IparsLayout::I, kind);
        warm_dir(&base);
        let (table, cold) = min_over(3, || {
            let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
            let start = std::time::Instant::now();
            let (t, _) = v.query(SQL).unwrap();
            (t, start.elapsed())
        });
        runs.push(CodecRun { name, cold, physical_bytes: physical_bytes(&base), table });
    }
    for r in &runs[1..] {
        assert_eq!(r.table.rows, runs[0].table.rows, "{}: codec changed the query result", r.name);
    }
    let bin = &runs[0];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                ms(r.cold),
                ratio(r.cold, bin.cold),
                format!("{:.1}", r.physical_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.2}", r.physical_bytes as f64 / bin.physical_bytes as f64),
            ]
        })
        .collect();
    print_table(
        "Cold full scan per codec (fresh server; min of 3)",
        &["codec", "cold scan (ms)", "vs binary", "size (MiB)", "size vs binary"],
        &rows,
    );

    // 2. Warm cached reads vs forced re-decode on the zstd encoding.
    let (base, desc) =
        stage_ipars_codec("codec-zstd", &cfg, IparsLayout::I, CodecKind::ZstdSegment);
    let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
    v.query(SQL).unwrap(); // fill the segment cache with decompressed bytes
    let (warm_stats, warm) = min_over(5, || {
        let start = std::time::Instant::now();
        let (_, stats) = v.query(SQL).unwrap();
        (stats, start.elapsed())
    });
    assert_eq!(
        warm_stats.io.decode_calls, 0,
        "acceptance: warm reads must be served from decompressed cached segments"
    );
    assert!(warm_stats.io.cache_hit_rate() > 0.9, "hit rate {}", warm_stats.io.cache_hit_rate());
    let nocache = QueryOptions {
        io: IoOptions { cache_bytes: 0, ..IoOptions::default() },
        ..QueryOptions::default()
    };
    let (redecode_stats, redecode) = min_over(5, || {
        let start = std::time::Instant::now();
        let (_, stats) = v.query_with(SQL, &nocache).unwrap();
        (stats, start.elapsed())
    });
    assert!(redecode_stats.io.decode_calls > 0, "cache-off runs must re-decompress every frame");
    print_table(
        "zstd warm reads: decompressed segment cache vs re-decode (min of 5)",
        &["path", "scan (ms)", "decode calls", "decoded MiB"],
        &[
            vec![
                "cached (decompressed)".into(),
                ms(warm),
                warm_stats.io.decode_calls.to_string(),
                format!("{:.1}", warm_stats.io.decode_bytes as f64 / (1024.0 * 1024.0)),
            ],
            vec![
                "cache off (re-decode)".into(),
                ms(redecode),
                redecode_stats.io.decode_calls.to_string(),
                format!("{:.1}", redecode_stats.io.decode_bytes as f64 / (1024.0 * 1024.0)),
            ],
        ],
    );
    println!("\nwarm-read speedup vs re-decode: {}\n", ratio(redecode, warm));

    let out = out_path();
    std::fs::write(&out, render_json(&cfg, &runs, warm, redecode, &warm_stats, &redecode_stats))
        .expect("write bench JSON");
    println!("wrote {}", out.display());
}

fn out_path() -> PathBuf {
    match std::env::var("DV_BENCH_OUT") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest.parent().unwrap().parent().unwrap().join("BENCH_CODEC.json")
        }
    }
}

/// Hand-formatted JSON (the workspace carries no serde).
fn render_json(
    cfg: &IparsConfig,
    runs: &[CodecRun],
    warm: std::time::Duration,
    redecode: std::time::Duration,
    warm_stats: &dv_core::QueryStats,
    redecode_stats: &dv_core::QueryStats,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"codec-layer\",\n");
    s.push_str(&format!(
        "  \"dataset\": {{\"kind\": \"ipars\", \"layout\": \"l1\", \"rows\": {}, \"nodes\": {}, \
         \"seed\": {}}},\n",
        cfg.rows(),
        cfg.nodes,
        cfg.seed
    ));
    s.push_str(&format!("  \"quick_mode\": {},\n", dv_bench::quick_mode()));
    s.push_str("  \"cold_scan\": [\n");
    let bin = &runs[0];
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"codec\": \"{}\", \"cold_ms\": {:.2}, \"vs_binary\": {:.3}, \
             \"physical_bytes\": {}}}{}\n",
            r.name,
            r.cold.as_secs_f64() * 1e3,
            r.cold.as_secs_f64() / bin.cold.as_secs_f64(),
            r.physical_bytes,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"zstd_warm_cache\": {{\"warm_ms\": {:.2}, \"redecode_ms\": {:.2}, \
         \"speedup\": {:.3}, \"warm_decode_calls\": {}, \"redecode_decode_calls\": {}}}\n",
        warm.as_secs_f64() * 1e3,
        redecode.as_secs_f64() * 1e3,
        redecode.as_secs_f64() / warm.as_secs_f64().max(1e-9),
        warm_stats.io.decode_calls,
        redecode_stats.io.decode_calls,
    ));
    s.push_str("}\n");
    s
}
