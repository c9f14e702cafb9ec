//! Shared helpers for the cross-crate integration tests.

use std::path::PathBuf;
use std::sync::OnceLock;

use dv_core::{CostParams, CostReport, QueryOptions, QueryStats, Virtualizer};
use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_layout::{NodePlan, RuntimeCounters};
use dv_types::{Schema, Table, Value};

pub mod reference;
pub mod resolve_ref;

/// Fresh scratch directory unique to a test.
pub fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dv-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `QueryOptions::default()` under CI's environment matrix, read once
/// per test binary: `DV_THREADS=<n>` sets `intra_node_threads` and
/// `DV_MORSEL_JITTER=<ms>` sets `morsel_jitter_ms`. Every suite CI
/// re-runs under those variables builds its options from this; a test
/// that needs a setting of its own writes it into the copy.
pub fn query_options() -> QueryOptions {
    static OPTIONS: OnceLock<QueryOptions> = OnceLock::new();
    OPTIONS
        .get_or_init(|| {
            let var = |name| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
            let mut opts = QueryOptions::default();
            if let Some(n) = var("DV_THREADS") {
                opts.intra_node_threads = (n as usize).max(1);
            }
            if let Some(ms) = var("DV_MORSEL_JITTER") {
                opts.morsel_jitter_ms = ms;
            }
            opts
        })
        .clone()
}

/// Run `sql` and assert that every runtime counter stayed within the
/// static dv-cost bound of its plan — the soundness contract of
/// `crates/layout/src/cost.rs`, checked on every query of the
/// differential suites. The report is rebuilt exactly as the admission
/// path builds it: same prep (prune toggle applied), same
/// per-node plans, same cost parameters.
pub fn query_checked(v: &Virtualizer, sql: &str, opts: &QueryOptions) -> (Vec<Table>, QueryStats) {
    let bq = v.service().bind_sql(sql).unwrap();
    let compiled = v.service().compiled();
    let mut prep = compiled.prepare_query(&bq).unwrap();
    prep.prune_enabled = !opts.no_prune;
    let plans: Vec<NodePlan> =
        (0..compiled.model.node_count()).map(|n| compiled.plan_node(&prep, n).unwrap()).collect();
    let params = CostParams::new(&opts.io, opts.client_processors, bq.predicate.is_some());
    let report = CostReport::analyze_nodes(
        &plans,
        &prep.working,
        &prep.output_positions,
        prep.agg.as_ref(),
        &params,
    );

    let (tables, stats) = v.query_with(sql, opts).unwrap();
    let violations = report.validate(&RuntimeCounters {
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
    });
    assert!(
        violations.is_empty(),
        "{sql} under {opts:?}: runtime counters escaped their static bounds: {}",
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
    );
    (tables, stats)
}

/// Generate an Ipars dataset and build a virtualizer over it.
pub fn ipars_virtualizer(tag: &str, cfg: &IparsConfig, layout: IparsLayout) -> Virtualizer {
    let base = scratch(&format!("{tag}-{}", layout.tag()));
    let descriptor = ipars::generate(&base, cfg, layout).expect("generate");
    Virtualizer::builder(&descriptor).storage_base(&base).build().expect("compile")
}

/// Evaluate a predicate + projection over the logical row set directly
/// (the trusted oracle).
pub fn ipars_oracle(
    cfg: &IparsConfig,
    schema: &Schema,
    keep: impl Fn(&[Value]) -> bool,
    project: &[&str],
) -> Table {
    let idx: Vec<usize> = project.iter().map(|p| schema.index_of(p).unwrap()).collect();
    let mut t = Table::empty(schema.project(&idx));
    for row in cfg.all_rows() {
        if keep(&row) {
            t.rows.push(idx.iter().map(|&i| row[i]).collect());
        }
    }
    t
}
