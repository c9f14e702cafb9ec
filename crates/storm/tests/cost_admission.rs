//! Cost-based admission: statically over-budget queries are rejected
//! with a DV-coded error before any fragment runs, while in-budget
//! queries on the same server produce results bit-identical to a
//! no-budget run.

use std::path::PathBuf;
use std::sync::Arc;

use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_layout::plan::compile_from_text;
use dv_sql::UdfRegistry;
use dv_storm::{QueryOptions, QueryService, QueryStats, ServiceConfig};
use dv_types::{DvError, Table};

fn tmpbase(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dv-storm-cost-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Single-table query with default options.
fn execute_table(svc: &QueryService, sql: &str) -> dv_types::Result<(Table, QueryStats)> {
    let (mut tables, stats) = svc.execute(sql, &QueryOptions::default())?;
    Ok((tables.pop().expect("one client processor"), stats))
}

fn servers(tag: &str, config: ServiceConfig) -> (QueryService, QueryService) {
    let cfg = IparsConfig::tiny();
    let base = tmpbase(tag);
    let desc = ipars::generate(&base, &cfg, IparsLayout::I).unwrap();
    let compiled = Arc::new(compile_from_text(&desc, &base).unwrap());
    let plain = QueryService::new(
        Arc::clone(&compiled),
        UdfRegistry::with_builtins(),
        &ServiceConfig::default(),
    );
    let budgeted = QueryService::new(compiled, UdfRegistry::with_builtins(), &config);
    (plain, budgeted)
}

#[test]
fn over_budget_query_rejected_with_dv401() {
    let (_, budgeted) =
        servers("dv401", ServiceConfig { max_plan_bytes: Some(8), ..ServiceConfig::default() });
    let err = execute_table(&budgeted, "SELECT * FROM IparsData").unwrap_err();
    assert!(err.is_cost_rejected(), "expected cost rejection, got: {err}");
    assert!(err.to_string().contains("[DV401]"), "{err}");
}

#[test]
fn over_budget_group_query_rejected_with_dv404() {
    // SOIL is a stored float: its group-cardinality hull is unbounded
    // below the row count, so a tiny memory budget must reject.
    let (_, budgeted) =
        servers("dv404", ServiceConfig { max_group_memory: Some(16), ..ServiceConfig::default() });
    let err =
        execute_table(&budgeted, "SELECT SOIL, COUNT(*) FROM IparsData GROUP BY SOIL").unwrap_err();
    assert!(matches!(err, DvError::CostBudget { code: "DV404", .. }), "got: {err}");

    // A scan with no aggregation has no group state to bound — the
    // same budget admits it.
    let (table, _) = execute_table(&budgeted, "SELECT TIME FROM IparsData WHERE TIME < 0").unwrap();
    assert_eq!(table.len(), 0);
}

#[test]
fn in_budget_query_is_bit_identical_to_no_budget_run() {
    let (plain, budgeted) = servers(
        "identical",
        ServiceConfig {
            max_plan_bytes: Some(u64::MAX),
            max_group_memory: Some(u64::MAX),
            ..ServiceConfig::default()
        },
    );
    let opts = QueryOptions::default();
    for sql in [
        "SELECT * FROM IparsData",
        "SELECT REL, TIME, SOIL FROM IparsData WHERE TIME >= 2 AND SOIL > 0.4",
        "SELECT REL, COUNT(*), AVG(SOIL) FROM IparsData GROUP BY REL",
    ] {
        let (want, want_stats) = plain.execute(sql, &opts).unwrap();
        let (got, got_stats) = budgeted.execute(sql, &opts).unwrap();
        assert_eq!(want.len(), got.len(), "{sql}");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.rows, g.rows, "{sql}");
        }
        assert_eq!(want_stats.rows_scanned, got_stats.rows_scanned, "{sql}");
        assert_eq!(want_stats.rows_selected, got_stats.rows_selected, "{sql}");
        assert_eq!(want_stats.bytes_read, got_stats.bytes_read, "{sql}");
    }
}
