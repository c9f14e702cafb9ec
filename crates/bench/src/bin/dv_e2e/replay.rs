//! The traced pass: one operation replayed single-threaded through
//! each layer's public entry point, a span around every call.
//!
//! The replay composes the same calls the service makes — parse, bind,
//! prepare, per-node plan + prune, morsel plan, scheduler fetch,
//! columnar extract, filter, then partition → absorb or fold → merge —
//! in schedule order on one thread, with no mover and no worker pool.
//! Its rows and digest are checked against the oracle, so it cannot
//! drift from the real path unnoticed. The entry points it calls are
//! pinned (README.md): changing one breaks the benchmark's build.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dv_core::{QueryOptions, Table, Virtualizer};
use dv_layout::prune::prune_afcs;
use dv_layout::{
    CompiledDataset, CostParams, CostReport, Extractor, IoScheduler, IoStats, MorselPlan,
    PruneVerdict, SegmentCache, SharedHandles,
};
use dv_sql::eval::EvalContext;
use dv_sql::{AggOutput, UdfRegistry};
use dv_storm::filter::filter_columns;
use dv_storm::partition::partition_columns;
use dv_types::{AggBlock, AggTable, ColumnBlock};

use crate::oracle::{self, Expected};
use crate::run::{self, ms};
use crate::stage::Staged;
use crate::stats::median;
use crate::trace::{self_times, Tracer};
use crate::workloads::Workload;

/// Replays with spans on a filled cache (one more, first, fills it).
pub const TRACED_REPLAYS: usize = 5;
/// Replays with spans off, for the tracing overhead.
const UNTRACED_REPLAYS: usize = 3;
const SERIAL_RUNS: usize = 3;

/// Work counts of one replayed operation, for the per-layer rates.
#[derive(Debug, Clone, Default)]
pub struct Work {
    pub extract_bytes: u64,
    pub filter_rows: u64,
    pub fold_rows: u64,
    pub absorb_rows: u64,
    pub csv_bytes: u64,
    pub chunks_total: u64,
    pub chunks_matched: u64,
}

pub struct Report {
    /// Median self time per span name per operation, milliseconds.
    pub layer_ms: BTreeMap<&'static str, f64>,
    pub work: Work,
    /// Median wall time of one traced replay (set-up included where
    /// the operation includes it).
    pub replay_ms: f64,
    /// Tracing overhead: fastest traced over fastest untraced, minus 1.
    pub overhead_share: f64,
    /// The real engine at `intra_node_threads 1`, `sequential_nodes`.
    pub serial_ms: f64,
    pub memcpy_mb_per_s: f64,
    /// Whether every verified replay matched the oracle.
    pub verdict: Result<(), String>,
    pub tracer: Tracer,
}

/// What a `Virtualizer` holds, rebuilt from the public parts so the
/// replay can reach below `query_with`.
struct Engine {
    compiled: Arc<CompiledDataset>,
    udfs: UdfRegistry,
    cache: Arc<SegmentCache>,
    handles: SharedHandles,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Replay `VirtualizerBuilder::build`: the real call as one span, its
/// three inner stages (timed on their own just before) as probes
/// inside it. Returns the engine assembled from those stages and the
/// duration of the real call.
fn replay_setup(t: &mut Tracer, staged: &Staged) -> Result<(Engine, Duration), String> {
    let e = |e: dv_types::DvError| e.to_string();
    let (model, d_desc) = timed(|| dv_descriptor::compile(&staged.descriptor));
    let model = Arc::new(model.map_err(e)?);
    let roots = model.nodes.iter().map(|n| staged.base.join(n)).collect();
    let (compiled, d_layout) = timed(|| CompiledDataset::compile(Arc::clone(&model), roots));
    let compiled = Arc::new(compiled.map_err(e)?);
    let (verified, d_verify) = timed(|| -> Result<(), String> {
        let ast = dv_descriptor::parse_descriptor(&staged.descriptor).map_err(e)?;
        let mut sizes = dv_lint::verify::ObservedSizes::new();
        for f in &model.files {
            if let Ok(md) = std::fs::metadata(compiled.file_path(f.id)) {
                sizes.insert((model.nodes[f.node].clone(), f.rel_path.clone()), md.len());
            }
        }
        let report = dv_lint::verify::verify_ast(&ast, Some(&model), Some(&sizes));
        compiled.set_certificate(report.certificate());
        Ok(())
    });
    verified?;

    let id = t.enter("core.build");
    let (built, d_build) = timed(|| run::build(staged));
    t.probe("descriptor.compile", d_desc);
    t.probe("layout.compile", d_layout);
    t.probe("lint.verify", d_verify);
    t.exit(id);
    drop(built?);

    let engine = Engine {
        compiled,
        udfs: UdfRegistry::with_builtins(),
        cache: Arc::new(SegmentCache::new(QueryOptions::default().io.cache_bytes)),
        handles: SharedHandles::new(),
    };
    Ok((engine, d_build))
}

/// Durations measured ahead of one query's replay, for work that
/// happens inside calls the replay cannot open.
struct Probes {
    /// Chunk-index lookups of each node's files (inside `plan_node`).
    index_lookup: Vec<Duration>,
    /// `CostReport::analyze` — not on the default path at all.
    cost_analyze: Duration,
    /// Mean `codec::decode_physical` time per non-affine file (inside
    /// the scheduler's miss path).
    decode_per_file: Duration,
}

fn measure_probes(
    eng: &Engine,
    w: &Workload,
    sql: &str,
    work: &mut Work,
) -> Result<Probes, String> {
    let e = |e: dv_types::DvError| e.to_string();
    let model = &eng.compiled.model;
    let bq = dv_sql::bind(&dv_sql::parse(sql).map_err(e)?, &model.schema, &eng.udfs).map_err(e)?;
    let prep = eng.compiled.prepare_query(&bq).map_err(e)?;

    let mut index_lookup = vec![Duration::ZERO; model.node_count()];
    let mut seen: Vec<*const dv_layout::segment::LoadedChunkIndex> = Vec::new();
    for f in &model.files {
        if let Some(index) = eng.compiled.chunk_index(f.id) {
            let (hits, d) = timed(|| index.matching_chunks(&prep.ranges));
            index_lookup[f.node] += d;
            // Files may share one index; count its chunks once.
            if !seen.contains(&std::ptr::from_ref(index)) {
                seen.push(std::ptr::from_ref(index));
                work.chunks_total += index.entries.len() as u64;
                work.chunks_matched += hits.len() as u64;
            }
        }
    }

    let plan = eng.compiled.plan_query(&bq).map_err(e)?;
    let params = CostParams::new(&w.opts.io, w.opts.client_processors, bq.predicate.is_some());
    let (report, cost_analyze) = timed(|| CostReport::analyze(&plan, &params));
    std::hint::black_box(report);

    let mut decode = Duration::ZERO;
    let mut decoded_files = 0u32;
    for f in model.files.iter().filter(|f| !f.codec.is_affine()) {
        let physical = std::fs::read(eng.compiled.file_path(f.id)).map_err(|e| e.to_string())?;
        let (logical, d) = timed(|| {
            dv_descriptor::codec::decode_physical(f.codec, f, &model.attr_types, &physical)
        });
        std::hint::black_box(logical.map_err(e)?);
        decode += d;
        decoded_files += 1;
        work.csv_bytes += physical.len() as u64;
    }
    let decode_per_file = decode.checked_div(decoded_files).unwrap_or_default();
    Ok(Probes { index_lookup, cost_analyze, decode_per_file })
}

/// Replay one query; returns its client tables.
fn replay_query(
    t: &mut Tracer,
    eng: &Engine,
    w: &Workload,
    sql: &str,
    probes: Option<&Probes>,
    work: &mut Work,
) -> Result<Vec<Table>, String> {
    let e = |e: dv_types::DvError| e.to_string();
    let compiled = &eng.compiled;
    let schema = &compiled.model.schema;
    if let Some(p) = probes {
        t.probe("layout.cost_analyze", p.cost_analyze);
    }

    let root = t.enter("core.query");
    let ast = t.call("sql.parse", || dv_sql::parse(sql)).map_err(e)?;
    let bq = t.call("sql.bind", || dv_sql::bind(&ast, schema, &eng.udfs)).map_err(e)?;
    let mut prep = t.call("layout.prepare", || compiled.prepare_query(&bq)).map_err(e)?;
    // Plan without pruning, then prune as a call of its own: the same
    // composition `plan_node` performs, with the seam exposed.
    prep.prune_enabled = false;

    let procs = w.opts.client_processors;
    let out_schema = bq.output_schema();
    let mut tables: Vec<Table> = (0..procs).map(|_| Table::empty(out_schema.clone())).collect();
    let cx = EvalContext::new(schema.len(), &prep.working.attrs, &eng.udfs);
    let mut agg = prep
        .agg
        .as_ref()
        .map(|a| (AggTable::new(&a.spec.funcs(), a.spec.group_by.len()), Vec::<AggBlock>::new()));

    for node in 0..compiled.model.node_count() {
        let id = t.enter("layout.plan_node");
        let planned = compiled.plan_node(&prep, node);
        if let Some(p) = probes {
            if !p.index_lookup[node].is_zero() {
                t.probe("index.lookup", p.index_lookup[node]);
            }
        }
        t.exit(id);
        let planned = planned.map_err(e)?;
        let (afcs, cert) = t.call("layout.prune", || {
            prune_afcs(prep.predicate.as_ref(), &prep.working, planned.afcs)
        });
        let plan = t.call("layout.morsel_build", || {
            MorselPlan::build(
                &afcs,
                w.opts.io.group_bytes,
                w.opts.intra_node_threads,
                w.opts.morsel_bytes,
            )
        });

        let extractor =
            Extractor::new(compiled, prep.working.attrs.len()).with_shared_handles(&eng.handles);
        let io_stats = Arc::new(IoStats::default());
        let scheduler = IoScheduler::new(
            extractor.clone(),
            w.opts.io.clone(),
            Some(Arc::clone(&eng.cache)),
            Arc::clone(&io_stats),
        );
        let mut partials =
            agg.as_ref().map(|(table, _)| AggBlock::new(node, table.key_width(), table.funcs()));

        for m in &plan.morsels {
            let mut cursor = m.base_rows;
            for g in plan.groups[m.groups.clone()].iter().cloned() {
                let before = io_stats.snapshot();
                let id = t.enter("layout.io_fetch_hit");
                let fetched = scheduler.fetch(&afcs[g.clone()]);
                let after = io_stats.snapshot();
                if let Some(p) = probes {
                    let decodes = (after.decode_calls - before.decode_calls) as u32;
                    if decodes > 0 {
                        t.probe("descriptor.csv_decode", p.decode_per_file * decodes);
                    }
                }
                if after.cache_hit_bytes - before.cache_hit_bytes
                    < after.bytes_used - before.bytes_used
                {
                    t.rename(id, "layout.io_fetch_miss");
                }
                t.exit(id);
                let fetched = fetched.map_err(e)?;

                // Batches of AFCs up to `batch_rows`; aggregates fold
                // one AFC at a time (the canonical float-fold unit).
                let batch_cap = if agg.is_some() { 0 } else { w.opts.batch_rows as u64 };
                let (group, verdicts) = (&afcs[g.clone()], &cert.verdicts[g]);
                let mut i = 0;
                while i < group.len() {
                    let id = t.enter("layout.extract");
                    let mut block = ColumnBlock::with_dtypes(node, &prep.working.dtypes);
                    let mut batched = 0u64;
                    let mut all_full = true;
                    let mut extracted = Ok(());
                    while extracted.is_ok()
                        && i < group.len()
                        && (batched == 0 || batched < batch_cap)
                    {
                        extracted =
                            extractor.extract_columns_fetched(&group[i], &mut block, &fetched);
                        work.extract_bytes += group[i].bytes_read();
                        all_full &= verdicts[i] == PruneVerdict::Full;
                        batched += group[i].num_rows;
                        i += 1;
                    }
                    t.exit(id);
                    extracted.map_err(e)?;

                    let seq = cursor;
                    cursor += block.len() as u64;
                    let predicate = if all_full { None } else { prep.predicate.as_ref() };
                    if predicate.is_some() {
                        work.filter_rows += block.len() as u64;
                    }
                    t.call("storm.filter", || filter_columns(&mut block, predicate, &cx));
                    if block.is_empty() {
                        continue;
                    }
                    match (&mut agg, &mut partials, &prep.agg) {
                        (Some((table, _)), Some(out), Some(a)) => {
                            work.fold_rows += t.call("types.agg_fold", || {
                                table.clear();
                                let rows = table.fold_block(&block, &a.group_pos, &a.arg_pos);
                                table.drain_into(seq, out);
                                rows
                            });
                        }
                        _ => {
                            let parts = t.call("storm.partition", || {
                                block.project(&prep.output_positions);
                                if procs == 1 {
                                    vec![block]
                                } else {
                                    partition_columns(block, &w.opts.partition, procs, seq)
                                }
                            });
                            work.absorb_rows +=
                                parts.iter().map(|p| p.selected() as u64).sum::<u64>();
                            t.call("types.absorb", || {
                                for (table, part) in tables.iter_mut().zip(parts) {
                                    table.absorb_columns(part);
                                }
                            });
                        }
                    }
                }
            }
        }
        if let (Some((_, blocks)), Some(out)) = (&mut agg, partials) {
            blocks.push(out);
        }
    }

    // Aggregates: merge the per-AFC partials in (node, seq) order —
    // the order they were produced in here — and finalize sorted by
    // key, as the absorber does when every node is done.
    if let (Some((_, blocks)), Some(a)) = (&agg, &prep.agg) {
        t.call("types.absorb", || {
            let spec = &a.spec;
            let mut merged = AggTable::new(&spec.funcs(), spec.group_by.len());
            for b in blocks {
                for entry in 0..b.len() {
                    merged.merge_entry(b.keys[entry], &b.states_at(entry));
                }
            }
            let group_dtypes = spec.group_dtypes(schema);
            for i in merged.sorted_indices(&group_dtypes) {
                let keys = merged.key_values(i, &group_dtypes);
                let row = spec
                    .output
                    .iter()
                    .map(|o| match *o {
                        AggOutput::Group(k) => keys[k],
                        AggOutput::Agg(n) => {
                            merged.accs[n].finalize(i, spec.result_dtype(n, schema))
                        }
                    })
                    .collect();
                tables[0].rows.push(row);
            }
            work.absorb_rows += tables[0].rows.len() as u64;
        });
    }
    t.exit(root);
    Ok(tables)
}

/// One replayed operation: wall milliseconds on the operation's path
/// (probes are measured outside it) and its work counts. The set-up is
/// replayed on every traced operation for its spans; its engine is
/// kept only where the operation itself starts from a fresh one.
fn replay_op(
    t: &mut Tracer,
    staged: &Staged,
    w: &Workload,
    want: &[Expected],
    engine: &mut Option<Engine>,
    traced: bool,
    check: bool,
) -> Result<(f64, Work), String> {
    t.next_op();
    let mut wall = Duration::ZERO;
    let mut work = Work::default();
    let need_engine = engine.is_none() || w.fresh_per_op;
    if need_engine || traced {
        let (eng, build) = replay_setup(t, staged)?;
        if w.fresh_per_op {
            wall += build;
        }
        if need_engine {
            *engine = Some(eng);
        }
    }
    let eng = engine.as_ref().expect("engine was just built");
    for (q, want) in w.queries.iter().zip(want) {
        let probes = if traced { Some(measure_probes(eng, w, &q.sql, &mut work)?) } else { None };
        let (tables, d) = timed(|| replay_query(t, eng, w, &q.sql, probes.as_ref(), &mut work));
        wall += d;
        let tables = tables?;
        if check {
            oracle::verify(&tables, want, true).map_err(|e| format!("replay of {}: {e}", q.sql))?;
        }
    }
    Ok((ms(wall), work))
}

/// The real engine in its serial configuration, for the coverage and
/// speed-up ratios: median operation time over a few runs.
fn serial_ms(staged: &Staged, w: &Workload, want: &[Expected]) -> Result<f64, String> {
    let opts = QueryOptions { intra_node_threads: 1, sequential_nodes: true, ..w.opts.clone() };
    let warm: Option<Virtualizer> = if w.fresh_per_op { None } else { Some(run::build(staged)?) };
    let mut runs = Vec::new();
    // One untimed pass first so a cache-resident workload is resident.
    for i in 0..=SERIAL_RUNS {
        let mut busy = Duration::ZERO;
        let fresh;
        let v = match &warm {
            Some(v) => v,
            None => {
                let (built, d) = timed(|| run::build(staged));
                busy += d;
                fresh = built?;
                &fresh
            }
        };
        for (q, want) in w.queries.iter().zip(want) {
            let (out, d) = timed(|| v.query_with(&q.sql, &opts));
            busy += d;
            let (tables, _) = out.map_err(|e| e.to_string())?;
            oracle::verify(&tables, want, false)?;
        }
        if i > 0 {
            runs.push(ms(busy));
        }
    }
    Ok(median(&runs))
}

/// Largest cache the host reports for cpu0, bytes (32 MiB when sysfs
/// has none).
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let s = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let s = s.trim();
            let (digits, unit) =
                s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
            let n: usize = digits.parse().ok()?;
            Some(match unit {
                "K" => n << 10,
                "M" => n << 20,
                _ => n,
            })
        })
        .max()
        .unwrap_or(32 << 20)
}

/// Large-buffer `memcpy` bandwidth of this host, MB/s of bytes copied:
/// the yardstick `layout.extract_frac_memcpy` divides by. Buffers are
/// 4x the last-level cache (64 to 512 MiB) so the copy runs from
/// memory; best of five. `--smoke` passes a small `len` instead.
pub fn memcpy_mb_per_s(len: Option<usize>) -> f64 {
    let len = len.unwrap_or_else(|| (4 * llc_bytes()).clamp(64 << 20, 512 << 20));
    let src = vec![0x5Au8; len];
    let mut dst = vec![0u8; len];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    len as f64 / 1e6 / best
}

/// Run the traced pass for `w`.
pub fn traced_pass(
    staged: &Staged,
    w: &Workload,
    want: &[Expected],
    memcpy_mb_per_s: f64,
) -> Result<Report, String> {
    let serial_ms = serial_ms(staged, w, want)?;

    let mut tracer = Tracer::new(true);
    let mut engine = None;
    let mut walls = Vec::new();
    let mut work = Work::default();
    let mut verdict = Ok(());
    // Replay 0 runs on a fresh cache (every fetch misses) and fills it;
    // the rest see the cache in its steady state. Untraced replays are
    // interleaved with them so both see the same host weather.
    let mut off = Tracer::new(false);
    let mut untraced = Vec::new();
    for i in 0..=TRACED_REPLAYS {
        let check = i == 0 || i == TRACED_REPLAYS;
        let mut step =
            replay_op(&mut tracer, staged, w, want, &mut engine, true, check).map(|(wall, wk)| {
                if i > 0 {
                    walls.push(wall);
                }
                work = wk;
            });
        if step.is_ok() && (1..=UNTRACED_REPLAYS).contains(&i) {
            step = replay_op(&mut off, staged, w, want, &mut engine, false, false)
                .map(|(wall, _)| untraced.push(wall));
        }
        if let Err(e) = step {
            verdict = Err(e);
            break;
        }
    }

    // Per span name: median over the steady replays of the summed self
    // time; a name seen only in the cold replay (the miss path of a
    // cache-resident workload) reports that one sample.
    let per_op = self_times(tracer.spans());
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (op, names) in &per_op {
        for (name, ns) in names {
            let slot = by_name.entry(name).or_default();
            if *op == 1 { &mut slot.0 } else { &mut slot.1 }.push(*ns as f64 / 1e6);
        }
    }
    let layer_ms = by_name
        .into_iter()
        .map(|(name, (cold, steady))| {
            (name, median(if steady.is_empty() { &cold } else { &steady }))
        })
        .collect();

    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_share = if walls.is_empty() || untraced.is_empty() {
        0.0
    } else {
        fastest(&walls) / fastest(&untraced) - 1.0
    };
    Ok(Report {
        layer_ms,
        work,
        replay_ms: if walls.is_empty() { 0.0 } else { median(&walls) },
        overhead_share,
        serial_ms,
        memcpy_mb_per_s,
        verdict,
        tracer,
    })
}
