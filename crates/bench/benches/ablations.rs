//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. chunk pruning via R-tree vs a linear scan of the chunk table;
//! 2. vertical-fragment fan-in: L0 (18 files per AFC) vs Layout I
//!    (1 file) — the dominant layout effect in Figure 9;
//! 3. extraction batch size;
//! 4. per-query plan cost (phase 2) by layout complexity — validates
//!    the one-time-compile design;
//! 5. execution mode: columnar blocks vs the row-at-a-time pipeline.

use criterion::{criterion_group, criterion_main, Criterion};

use dv_bench::stage::{stage_ipars, stage_titan};
use dv_core::{ExecMode, QueryOptions, Virtualizer};
use dv_datagen::{IparsConfig, IparsLayout, TitanConfig};
use dv_index::Rect;
use dv_layout::segment::LoadedChunkIndex;

fn small_cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 20, grid_per_dir: 400, dirs: 2, nodes: 2, seed: 99 }
}

fn bench_index_ablation(c: &mut Criterion) {
    // Build a chunk index like Titan's and compare R-tree pruning with
    // the naive linear scan a DATAINDEX-less descriptor would force.
    let cfg = TitanConfig { points: 100_000, tiles: (16, 16, 8), nodes: 1, seed: 5 };
    let (base, _) = stage_titan("bench-ablation-titan", &cfg);
    let (_, entries) = dv_index::read_chunk_index(&base.join("tnode0/titan/titan.idx")).unwrap();
    let attrs = vec!["X".to_string(), "Y".to_string(), "Z".to_string()];
    let loaded = LoadedChunkIndex::new(attrs, entries.clone());
    let query = Rect::new(vec![0.0, 0.0, 0.0], vec![8000.0, 8000.0, 100.0]);

    let mut group = c.benchmark_group("ablation-chunk-index");
    group.bench_function("rtree", |b| b.iter(|| loaded.tree.query_collect(&query).len()));
    group.bench_function("linear", |b| {
        b.iter(|| entries.iter().filter(|e| e.rect().intersects(&query)).count())
    });
    group.finish();
}

fn bench_fanin(c: &mut Criterion) {
    // Same logical rows; m = 18 byte-runs per AFC (L0) vs m = 1
    // (Layout I).
    let cfg = small_cfg();
    let sql = "SELECT * FROM IparsData WHERE TIME > 5 AND TIME < 11";
    let mut group = c.benchmark_group("ablation-fanin");
    group.sample_size(10);
    for (name, layout) in [("m18-L0", IparsLayout::L0), ("m1-LayoutI", IparsLayout::I)] {
        let (base, desc) = stage_ipars(&format!("bench-fanin-{name}"), &cfg, layout);
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
        group.bench_function(name, |b| b.iter(|| v.query(sql).unwrap().0.len()));
    }
    group.finish();
}

fn bench_batch_size(c: &mut Criterion) {
    let cfg = small_cfg();
    let (base, desc) = stage_ipars("bench-batch", &cfg, IparsLayout::I);
    let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
    let sql = "SELECT * FROM IparsData WHERE SOIL > 0.5";
    let mut group = c.benchmark_group("ablation-batch-rows");
    group.sample_size(10);
    for batch in [256usize, 4096, 65536] {
        let opts = QueryOptions { batch_rows: batch, ..Default::default() };
        group.bench_function(format!("batch-{batch}"), |b| {
            b.iter(|| v.query_with(sql, &opts).unwrap().0[0].len())
        });
    }
    group.finish();
}

fn bench_plan_cost(c: &mut Criterion) {
    // Phase-2 planning alone (no I/O): complex multi-file layout vs
    // single file. The paper's design argument: per-query meta-data
    // work must stay cheap because compilation happened ahead of time.
    let cfg = small_cfg();
    let mut group = c.benchmark_group("ablation-plan-cost");
    for (name, layout) in [("L0", IparsLayout::L0), ("LayoutI", IparsLayout::I)] {
        let (base, desc) = stage_ipars(&format!("bench-plan-{name}"), &cfg, layout);
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
        let bq = v
            .service()
            .bind_sql("SELECT * FROM IparsData WHERE TIME > 5 AND TIME < 11 AND SOIL > 0.7")
            .unwrap();
        let compiled = v.service().compiled();
        group.bench_function(name, |b| b.iter(|| compiled.plan_query(&bq).unwrap().planned_rows()));
    }
    group.finish();
}

fn bench_exec_mode(c: &mut Criterion) {
    // The tentpole ablation: same query, same layout, columnar block
    // pipeline vs the original row pipeline.
    let cfg = small_cfg();
    let (base, desc) = stage_ipars("bench-exec-mode", &cfg, IparsLayout::I);
    let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
    let sql = "SELECT * FROM IparsData WHERE SOIL > 0.5";
    let mut group = c.benchmark_group("ablation-exec-mode");
    group.sample_size(10);
    for (name, exec) in [("row", ExecMode::RowAtATime), ("columnar", ExecMode::Columnar)] {
        let opts = QueryOptions { exec, ..Default::default() };
        group.bench_function(name, |b| b.iter(|| v.query_with(sql, &opts).unwrap().0[0].len()));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_index_ablation,
    bench_fanin,
    bench_batch_size,
    bench_plan_cost,
    bench_exec_mode
);
criterion_main!(benches);
