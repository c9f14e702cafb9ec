//! Codec differential tests: the same logical Ipars dataset stored as
//! fixed binary, CSV, zstd, or a mix of all three must return
//! *bit-identical* rows — same rows, same order — across both engines,
//! prune on/off, and thread counts {1, 8} with injected morsel jitter.
//! Plus: a cold query decodes every CSV/zstd file it touches exactly
//! once however many fetch groups, workers and prefetchers want it, a
//! warm one decodes nothing, a rewritten file is decoded again, and a
//! truncated CSV file or corrupted zstd frame surfaces as a clean
//! `DvError` (no panic) that releases the admission slot, so the
//! server recovers once the file is restored.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dv_bench::queries::ipars_queries;
use dv_core::{ExecMode, QueryOptions, Virtualizer};
use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_descriptor::ast::{DataAst, DatasetAst};
use dv_descriptor::{codec, CodecKind};
use dv_integration::scratch;
use dv_layout::{IoOptions, MorselPlan};

fn cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 30, grid_per_dir: 40, dirs: 2, nodes: 2, seed: 53 }
}

fn build(descriptor: &str, base: &Path) -> Virtualizer {
    Virtualizer::builder(descriptor).storage_base(base).max_intra_node_threads(8).build().unwrap()
}

fn opts(threads: usize, exec: ExecMode, no_prune: bool) -> QueryOptions {
    QueryOptions { intra_node_threads: threads, exec, no_prune, ..QueryOptions::default() }
}

/// Rewrite an all-binary dataset in place so its file bindings cycle
/// through all three codecs (binary, csv, zstd), re-encoding each
/// non-affine file from its binary bytes. Returns the descriptor with
/// the `CODEC` clauses.
fn transcode_mixed(base: &Path, descriptor: &str) -> String {
    const KINDS: [CodecKind; 3] =
        [CodecKind::FixedBinary, CodecKind::DelimitedText, CodecKind::ZstdSegment];
    fn assign(ds: &mut DatasetAst, next: &mut usize) {
        if let DataAst::Files(bindings) = &mut ds.data {
            for b in bindings {
                b.codec = KINDS[*next % KINDS.len()];
                *next += 1;
            }
        }
        for c in &mut ds.children {
            assign(c, next);
        }
    }
    let mut ast = dv_descriptor::parse_descriptor(descriptor).unwrap();
    let mut next = 0usize;
    assign(&mut ast.layout, &mut next);
    assert!(next >= 3, "need at least 3 file bindings to exercise every codec, got {next}");

    let model = dv_descriptor::resolve(&ast).unwrap();
    for f in &model.files {
        if f.codec.is_affine() {
            continue;
        }
        let path = base.join(&model.nodes[f.node]).join(&f.rel_path);
        let logical = fs::read(&path).unwrap();
        let physical = codec::encode_logical(f.codec, f, &model.attr_types, &logical).unwrap();
        fs::write(&path, physical).unwrap();
    }
    dv_descriptor::render(&ast)
}

/// First data file of the descriptor, for fault injection.
fn one_data_file(base: &Path, descriptor: &str) -> PathBuf {
    let model = dv_descriptor::compile(descriptor).unwrap();
    let f = &model.files[0];
    base.join(&model.nodes[f.node]).join(&f.rel_path)
}

/// The bench query set over {binary, csv, zstd} on Layout I and
/// {binary, mixed-codec} on L0 (18-way fan-in, so the mix spreads all
/// three codecs over one virtual table): every combination of engine,
/// prune, and thread count returns exactly the row-at-a-time serial
/// oracle's rows over the all-binary encoding. `DV_MORSEL_JITTER`
/// shuffles morsel completion order, so reassembly is stressed too.
#[test]
fn codec_backends_bit_match_rowatatime_oracle() {
    let cfg = cfg();
    std::env::set_var("DV_MORSEL_JITTER", "2");

    let mut groups: Vec<(&str, Vec<(&str, Virtualizer)>)> = Vec::new();

    let mut uniform = Vec::new();
    for (tag, kind) in [
        ("binary", CodecKind::FixedBinary),
        ("csv", CodecKind::DelimitedText),
        ("zstd", CodecKind::ZstdSegment),
    ] {
        let base = scratch(&format!("codec-diff-{tag}"));
        let descriptor = ipars::generate_with_codec(&base, &cfg, IparsLayout::I, kind).unwrap();
        uniform.push((tag, build(&descriptor, &base)));
    }
    groups.push(("layout-I", uniform));

    let base = scratch("codec-diff-mixed-bin");
    let descriptor = ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
    let bin = build(&descriptor, &base);
    let mixed_base = scratch("codec-diff-mixed");
    let mixed_bin = ipars::generate(&mixed_base, &cfg, IparsLayout::L0).unwrap();
    let mixed = transcode_mixed(&mixed_base, &mixed_bin);
    groups.push(("l0", vec![("binary", bin), ("mixed", build(&mixed, &mixed_base))]));

    for (group, variants) in &groups {
        for q in ipars_queries("IparsData", cfg.time_steps) {
            // The trusted oracle: the all-binary variant, serial,
            // row-at-a-time.
            let (oracle, _) =
                variants[0].1.query_with(&q.sql, &opts(1, ExecMode::RowAtATime, false)).unwrap();
            for (tag, v) in variants {
                for exec in [ExecMode::Columnar, ExecMode::RowAtATime] {
                    for no_prune in [false, true] {
                        for threads in [1usize, 8] {
                            let (tables, _) =
                                v.query_with(&q.sql, &opts(threads, exec, no_prune)).unwrap();
                            assert_eq!(
                                tables[0].rows, oracle[0].rows,
                                "{group}/{tag} q{} ({}) {exec:?} no_prune={no_prune} \
                                 threads={threads}: diverged from binary oracle",
                                q.no, q.what
                            );
                        }
                    }
                }
            }
        }
    }
    std::env::remove_var("DV_MORSEL_JITTER");
}

/// Large enough that a `SELECT *` splits into at least eight fetch
/// groups per node at every thread count (asserted below).
fn decode_once_cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 125, dirs: 2, nodes: 2, seed: 59 }
}

/// What a query's plan says about the decode work ahead: the distinct
/// non-affine files it touches, the bytes of their logical images, and
/// the fewest fetch groups any node splits into under `threads`.
fn planned_decodes(descriptor: &str, base: &Path, sql: &str, threads: usize) -> (u64, u64, usize) {
    let compiled = dv_layout::plan::compile_from_text(descriptor, base).unwrap();
    let model = &compiled.model;
    let udfs = dv_sql::UdfRegistry::with_builtins();
    let bound = dv_sql::bind(&dv_sql::parse(sql).unwrap(), &model.schema, &udfs).unwrap();
    let plan = compiled.plan_query(&bound).unwrap();
    let mut files = BTreeSet::new();
    let mut min_groups = usize::MAX;
    for np in &plan.node_plans {
        files.extend(np.afcs.iter().flat_map(|a| a.entries.iter().map(|e| e.file)));
        let groups = MorselPlan::build(&np.afcs, IoOptions::default().group_bytes, threads, 0);
        min_groups = min_groups.min(groups.groups.len());
    }
    let images = files.iter().map(|&f| &model.files[f]).filter(|f| !f.codec.is_affine());
    let (count, bytes) =
        images.fold((0, 0), |(n, b), f| (n + 1, b + f.expected_size(&model.attr_sizes).unwrap()));
    (count, bytes, min_groups)
}

/// The acceptance counters: a cold query over CSV or zstd decodes each
/// file it touches exactly once — not once per fetch group — whether
/// one worker walks the groups or eight race a prefetcher for them,
/// on either engine; the warm repeat is served from the cached images
/// without decoding. Rows match the binary serial row-at-a-time oracle
/// throughout.
#[test]
fn nonaffine_files_decode_once_per_cold_query() {
    let cfg = decode_once_cfg();
    std::env::set_var("DV_MORSEL_JITTER", "2");
    let bin_base = scratch("codec-once-binary");
    let bin = build(&ipars::generate(&bin_base, &cfg, IparsLayout::I).unwrap(), &bin_base);
    let sql = "SELECT * FROM IparsData";
    let (oracle, _) = bin.query_with(sql, &opts(1, ExecMode::RowAtATime, false)).unwrap();

    for (tag, kind) in [("csv", CodecKind::DelimitedText), ("zstd", CodecKind::ZstdSegment)] {
        let base = scratch(&format!("codec-once-{tag}"));
        let descriptor = ipars::generate_with_codec(&base, &cfg, IparsLayout::I, kind).unwrap();
        for threads in [1usize, 2, 8] {
            let (files, image_bytes, min_groups) =
                planned_decodes(&descriptor, &base, sql, threads);
            assert!(files >= 2 && min_groups >= 8, "{tag}: {files} files, {min_groups} groups");
            for readahead in [true, false] {
                for exec in [ExecMode::Columnar, ExecMode::RowAtATime] {
                    let what = format!("{tag} threads={threads} readahead={readahead} {exec:?}");
                    let o = QueryOptions {
                        io: IoOptions { readahead, ..IoOptions::default() },
                        ..opts(threads, exec, false)
                    };
                    // A fresh server: cold segment cache.
                    let v = build(&descriptor, &base);
                    let (cold_t, cold) = v.query_with(sql, &o).unwrap();
                    assert_eq!(cold_t[0].rows, oracle[0].rows, "{what}: cold rows");
                    assert_eq!(cold.io.decode_calls, files, "{what}: cold decodes");
                    assert_eq!(cold.io.decode_bytes, image_bytes, "{what}: cold decode bytes");

                    let (warm_t, warm) = v.query_with(sql, &o).unwrap();
                    assert_eq!(warm_t[0].rows, oracle[0].rows, "{what}: warm rows");
                    assert_eq!(warm.io.decode_calls, 0, "{what}: warm run decoded");
                    assert_eq!(warm.io.decode_bytes, 0, "{what}");
                    assert!(warm.io.cache_hit_rate() > 0.9, "{what}: {}", warm.io.cache_hit_rate());
                }
            }
        }
    }
}

/// The non-affine twin of `io_sched_diff`'s rewrite case: a CSV file
/// rewritten between two queries of one server is decoded again — its
/// cached image is not served — and the new values come back, while
/// the untouched file stays warm.
#[test]
fn rewritten_csv_file_is_redecoded() {
    let cfg = cfg();
    let sql = "SELECT * FROM IparsData";
    let bin_base = scratch("codec-rewrite-binary");
    let bin_desc = ipars::generate(&bin_base, &cfg, IparsLayout::I).unwrap();
    let base = scratch("codec-rewrite-csv");
    let descriptor =
        ipars::generate_with_codec(&base, &cfg, IparsLayout::I, CodecKind::DelimitedText).unwrap();
    let v = build(&descriptor, &base);
    let (before, cold) = v.query_with(sql, &QueryOptions::default()).unwrap();
    assert_eq!(cold.io.decode_calls, 2);

    // Overwrite the last stored value of one file's logical image, in
    // the binary twin as raw bytes and in the CSV file as text.
    let model = dv_descriptor::compile(&descriptor).unwrap();
    let f = &model.files[0];
    assert_eq!(model.attr_types[f.stored_attrs.last().unwrap()], dv_types::DataType::Float);
    let bin_victim = one_data_file(&bin_base, &bin_desc);
    let mut logical = fs::read(&bin_victim).unwrap();
    let at = logical.len() - 4;
    logical[at..].copy_from_slice(&12345.5f32.to_le_bytes());
    fs::write(&bin_victim, &logical).unwrap();
    let text = codec::encode_logical(f.codec, f, &model.attr_types, &logical).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    fs::write(one_data_file(&base, &descriptor), text).unwrap();

    let (oracle, _) =
        build(&bin_desc, &bin_base).query_with(sql, &opts(1, ExecMode::RowAtATime, false)).unwrap();
    let (after, stats) = v.query_with(sql, &QueryOptions::default()).unwrap();
    assert_ne!(after[0].rows, before[0].rows, "the rewrite must be visible");
    assert_eq!(after[0].rows, oracle[0].rows);
    assert_eq!(stats.io.decode_calls, 1, "only the rewritten file is decoded again");
    assert!(stats.io.cache_hit_bytes > 0, "the untouched file stays warm");
}

/// A repeated query over a zstd dataset at default options is served
/// from the segment cache's *decompressed* image — the warm run
/// performs zero frame decompressions.
#[test]
fn warm_zstd_reads_skip_redecompression() {
    let base = scratch("codec-diff-warm");
    let descriptor =
        ipars::generate_with_codec(&base, &cfg(), IparsLayout::I, CodecKind::ZstdSegment).unwrap();
    let v = build(&descriptor, &base);
    let sql = "SELECT * FROM IparsData";

    let (cold_t, cold) = v.query_with(sql, &QueryOptions::default()).unwrap();
    let (warm_t, warm) = v.query_with(sql, &QueryOptions::default()).unwrap();
    assert_eq!(cold_t[0].rows, warm_t[0].rows);
    assert!(cold.io.decode_calls > 0, "cold run must decompress");
    assert!(cold.io.decode_bytes > 0);
    assert_eq!(warm.io.decode_calls, 0, "warm run re-decompressed a cached segment");
    assert_eq!(warm.io.decode_bytes, 0);
    assert!(warm.io.cache_hit_rate() > 0.9, "hit rate {}", warm.io.cache_hit_rate());
}

/// Truncating a CSV file mid-record-stream fails the query with a
/// clean `DvError` naming the truncation — no panic — and releases the
/// single admission slot: once the file is restored, the same server
/// answers correctly again.
#[test]
fn truncated_csv_is_clean_error_and_releases_slot() {
    let cfg = cfg();
    let base = scratch("codec-diff-trunc-csv");
    let descriptor =
        ipars::generate_with_codec(&base, &cfg, IparsLayout::I, CodecKind::DelimitedText).unwrap();
    let v =
        Virtualizer::builder(&descriptor).storage_base(&base).max_concurrent(1).build().unwrap();
    let sql = "SELECT * FROM IparsData";
    let (full, _) = v.query(sql).unwrap();

    let victim = one_data_file(&base, &descriptor);
    let original = fs::read(&victim).unwrap();
    let kept: String = String::from_utf8(original.clone())
        .unwrap()
        .lines()
        .take(2)
        .map(|l| format!("{l}\n"))
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    fs::write(&victim, kept).unwrap();

    let err = v.query(sql).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("truncated"), "error must name the truncation: {msg}");

    // Slot released (max_concurrent = 1) and no stale cache: restoring
    // the file makes the very next query succeed with the full rows.
    std::thread::sleep(Duration::from_millis(20));
    fs::write(&victim, &original).unwrap();
    let (t, _) = v.query(sql).unwrap();
    assert_eq!(t.rows, full.rows, "post-restore result must match the original");
}

/// Corrupting a zstd frame (stomped magic) likewise fails cleanly,
/// releases the slot, and recovers on restore.
#[test]
fn corrupted_zstd_frame_is_clean_error_and_releases_slot() {
    let cfg = cfg();
    let base = scratch("codec-diff-corrupt-zstd");
    let descriptor =
        ipars::generate_with_codec(&base, &cfg, IparsLayout::I, CodecKind::ZstdSegment).unwrap();
    let v =
        Virtualizer::builder(&descriptor).storage_base(&base).max_concurrent(1).build().unwrap();
    let sql = "SELECT * FROM IparsData";
    let (full, _) = v.query(sql).unwrap();

    let victim = one_data_file(&base, &descriptor);
    let original = fs::read(&victim).unwrap();
    let mut bad = original.clone();
    bad[0] ^= 0xFF;
    std::thread::sleep(Duration::from_millis(20));
    fs::write(&victim, &bad).unwrap();

    let err = v.query(sql).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("zstd"), "error must name the codec: {msg}");

    std::thread::sleep(Duration::from_millis(20));
    fs::write(&victim, &original).unwrap();
    let (t, _) = v.query(sql).unwrap();
    assert_eq!(t.rows, full.rows, "post-restore result must match the original");
}
