//! End-to-end tests: generate tiny datasets, run SQL through the full
//! service stack, verify against independently computed references.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dv_datagen::{ipars, titan, IparsConfig, IparsLayout, TitanConfig};
use dv_layout::plan::compile_from_text;
use dv_sql::UdfRegistry;
use dv_storm::{
    BandwidthModel, PartitionStrategy, QueryOptions, QueryService, QueryStats, ServiceConfig,
};
use dv_types::{Schema, Table, Value};

fn tmpbase(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dv-storm-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn service(compiled: dv_layout::CompiledDataset) -> QueryService {
    QueryService::new(Arc::new(compiled), UdfRegistry::with_builtins(), &ServiceConfig::default())
}
/// Single-table query with default options.
fn execute_table(svc: &QueryService, sql: &str) -> dv_types::Result<(Table, QueryStats)> {
    let (mut tables, stats) = svc.execute(sql, &QueryOptions::default())?;
    Ok((tables.pop().expect("one client processor"), stats))
}

fn ipars_server(base: &Path, cfg: &IparsConfig, layout: IparsLayout) -> QueryService {
    let desc = ipars::generate(base, cfg, layout).unwrap();
    let compiled = compile_from_text(&desc, base).unwrap();
    service(compiled)
}

/// Reference evaluation: filter + project the full logical row set in
/// plain Rust.
fn ipars_reference(
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

#[test]
fn full_scan_matches_reference_all_layouts() {
    let cfg = IparsConfig::tiny();
    for layout in IparsLayout::all() {
        let base = tmpbase(&format!("scan-{}", layout.tag()));
        let server = ipars_server(&base, &cfg, layout);
        let (table, stats) = execute_table(&server, "SELECT * FROM IparsData").unwrap();
        assert_eq!(table.len() as u64, cfg.rows(), "{}", layout.label());
        assert_eq!(stats.rows_scanned, cfg.rows());
        assert_eq!(stats.rows_selected, cfg.rows());

        let all_names: Vec<&str> =
            server.model().schema.attributes().iter().map(|a| a.name.as_str()).collect();
        let reference = ipars_reference(&cfg, &server.model().schema, |_| true, &all_names);
        assert!(table.same_rows(&reference), "{} full scan mismatch", layout.label());
    }
}

#[test]
fn filtered_query_matches_reference_all_layouts() {
    let cfg = IparsConfig::tiny();
    let schema_probe = {
        let base = tmpbase("probe");
        let server = ipars_server(&base, &cfg, IparsLayout::I);
        server.model().schema.clone()
    };
    let soil_idx = schema_probe.index_of("SOIL").unwrap();
    let time_idx = schema_probe.index_of("TIME").unwrap();
    let rel_idx = schema_probe.index_of("REL").unwrap();

    let sql = "SELECT REL, TIME, X, SOIL FROM IparsData \
               WHERE REL = 1 AND TIME >= 2 AND SOIL > 0.4";
    let reference = ipars_reference(
        &cfg,
        &schema_probe,
        |row| {
            row[rel_idx].as_f64() == 1.0
                && row[time_idx].as_f64() >= 2.0
                && row[soil_idx].as_f64() > 0.4
        },
        &["REL", "TIME", "X", "SOIL"],
    );
    assert!(!reference.is_empty(), "reference should select something");

    for layout in IparsLayout::all() {
        let base = tmpbase(&format!("filter-{}", layout.tag()));
        let server = ipars_server(&base, &cfg, layout);
        let (table, _) = execute_table(&server, sql).unwrap();
        assert!(
            table.same_rows(&reference),
            "{}: got {} rows, reference {}",
            layout.label(),
            table.len(),
            reference.len()
        );
    }
}

#[test]
fn udf_filter_matches_reference() {
    let cfg = IparsConfig::tiny();
    let base = tmpbase("udf");
    let server = ipars_server(&base, &cfg, IparsLayout::V);
    let schema = server.model().schema.clone();
    let (vx, vy, vz) = (
        schema.index_of("OILVX").unwrap(),
        schema.index_of("OILVY").unwrap(),
        schema.index_of("OILVZ").unwrap(),
    );
    let sql = "SELECT REL, TIME FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) <= 40.0";
    let reference = ipars_reference(
        &cfg,
        &schema,
        |row| {
            let (x, y, z) = (row[vx].as_f64(), row[vy].as_f64(), row[vz].as_f64());
            (x * x + y * y + z * z).sqrt() <= 40.0
        },
        &["REL", "TIME"],
    );
    let (table, stats) = execute_table(&server, sql).unwrap();
    assert!(table.same_rows(&reference));
    assert!(stats.rows_selected < stats.rows_scanned);
}

#[test]
fn pruning_reduces_bytes_read() {
    let cfg = IparsConfig::tiny();
    let base = tmpbase("prune");
    let server = ipars_server(&base, &cfg, IparsLayout::L0);
    let (_, full) = execute_table(&server, "SELECT * FROM IparsData").unwrap();
    let (_, pruned) =
        execute_table(&server, "SELECT * FROM IparsData WHERE TIME = 1 AND REL = 0").unwrap();
    assert!(pruned.bytes_read < full.bytes_read / 2);
    assert_eq!(pruned.rows_scanned, 8); // 2 dirs × 4 grid points
}

#[test]
fn partitioned_execution_conserves_rows() {
    let cfg = IparsConfig::tiny();
    let base = tmpbase("part");
    let server = ipars_server(&base, &cfg, IparsLayout::I);
    let opts = QueryOptions {
        client_processors: 4,
        partition: PartitionStrategy::RoundRobin,
        ..Default::default()
    };
    let (tables, stats) = server.execute("SELECT * FROM IparsData", &opts).unwrap();
    assert_eq!(tables.len(), 4);
    let total: usize = tables.iter().map(|t| t.len()).sum();
    assert_eq!(total as u64, cfg.rows());
    assert_eq!(stats.rows_selected, cfg.rows());
    // Round-robin is balanced within one block per node.
    let max = tables.iter().map(|t| t.len()).max().unwrap();
    let min = tables.iter().map(|t| t.len()).min().unwrap();
    assert!(max - min <= cfg.rows() as usize / 4, "unbalanced: {max} vs {min}");
}

#[test]
fn hash_partition_groups_by_attr() {
    let cfg = IparsConfig::tiny();
    let base = tmpbase("hashpart");
    let server = ipars_server(&base, &cfg, IparsLayout::I);
    // Output columns: REL at position 0.
    let opts = QueryOptions {
        client_processors: 2,
        partition: PartitionStrategy::HashAttr { position: 0 },
        ..Default::default()
    };
    let (tables, _) = server.execute("SELECT REL, TIME FROM IparsData", &opts).unwrap();
    for t in &tables {
        let rels: std::collections::BTreeSet<i64> =
            t.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        // Each processor sees at most the distinct RELs that hash to it;
        // no REL may appear on two processors.
        for other in &tables {
            if std::ptr::eq(t, other) {
                continue;
            }
            let other_rels: std::collections::BTreeSet<i64> =
                other.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
            assert!(rels.is_disjoint(&other_rels) || rels == other_rels && rels.is_empty());
        }
    }
}

#[test]
fn remote_client_bandwidth_slows_transfer() {
    let cfg = IparsConfig::tiny();
    let base = tmpbase("remote");
    let server = ipars_server(&base, &cfg, IparsLayout::I);
    let local = QueryOptions::default();
    let remote = QueryOptions {
        bandwidth: Some(BandwidthModel {
            bytes_per_sec: 50_000.0,
            latency: std::time::Duration::from_millis(1),
        }),
        ..Default::default()
    };
    let sql = "SELECT * FROM IparsData";
    let (t1, s1) = server.execute(sql, &local).unwrap();
    let (t2, s2) = server.execute(sql, &remote).unwrap();
    assert!(t1[0].same_rows(&t2[0]));
    assert_eq!(s1.bytes_moved, s2.bytes_moved);
    // 48 rows × 86 bytes ≈ 4.1 kB at 50 kB/s ≈ 80 ms.
    assert!(s2.exec_time > s1.exec_time + std::time::Duration::from_millis(20));
}

#[test]
fn intra_node_threads_same_result() {
    let cfg = IparsConfig::tiny();
    let base = tmpbase("intra");
    let server = ipars_server(&base, &cfg, IparsLayout::III);
    let opts = QueryOptions { intra_node_threads: 4, batch_rows: 4, ..Default::default() };
    let (par, _) = server.execute("SELECT * FROM IparsData WHERE SOIL > 0.3", &opts).unwrap();
    let (seq, _) = execute_table(&server, "SELECT * FROM IparsData WHERE SOIL > 0.3").unwrap();
    assert!(par[0].same_rows(&seq));
}

#[test]
fn titan_box_query_matches_reference() {
    let cfg = TitanConfig::tiny();
    let base = tmpbase("titan");
    let desc = titan::generate(&base, &cfg).unwrap();
    let compiled = compile_from_text(&desc, &base).unwrap();
    let server = service(compiled);

    let sql = "SELECT * FROM TitanData WHERE X >= 0 AND X <= 30000 AND Y >= 0 AND \
               Y <= 30000 AND Z >= 0 AND Z <= 300";
    let (table, stats) = execute_table(&server, sql).unwrap();

    let mut reference = Table::empty(server.model().schema.clone());
    for row in cfg.all_rows() {
        let (x, y, z) = (row[0].as_f64(), row[1].as_f64(), row[2].as_f64());
        if (0.0..=30000.0).contains(&x)
            && (0.0..=30000.0).contains(&y)
            && (0.0..=300.0).contains(&z)
        {
            reference.rows.push(row);
        }
    }
    assert!(!reference.is_empty());
    assert!(table.same_rows(&reference));
    // The chunk index must have pruned something: fewer rows scanned
    // than the full dataset.
    assert!(stats.rows_scanned < cfg.points as u64);
}

#[test]
fn titan_sensor_filter_matches_reference() {
    let cfg = TitanConfig { nodes: 2, ..TitanConfig::tiny() };
    let base = tmpbase("titan-s1");
    let desc = titan::generate(&base, &cfg).unwrap();
    let compiled = compile_from_text(&desc, &base).unwrap();
    let server = service(compiled);

    let (table, stats) = execute_table(&server, "SELECT * FROM TitanData WHERE S1 < 0.25").unwrap();
    let expected = cfg.all_rows().filter(|r| r[3].as_f64() < 0.25).count();
    assert_eq!(table.len(), expected);
    // Sensor filters cannot prune chunks: full scan.
    assert_eq!(stats.rows_scanned, cfg.points as u64);
}

#[test]
fn titan_distance_udf() {
    let cfg = TitanConfig::tiny();
    let base = tmpbase("titan-dist");
    let desc = titan::generate(&base, &cfg).unwrap();
    let compiled = compile_from_text(&desc, &base).unwrap();
    let server = service(compiled);

    let (table, _) =
        execute_table(&server, "SELECT X, Y, Z FROM TitanData WHERE DISTANCE(X, Y, Z) < 20000.0")
            .unwrap();
    let expected = cfg
        .all_rows()
        .filter(|r| {
            let (x, y, z) = (r[0].as_f64(), r[1].as_f64(), r[2].as_f64());
            (x * x + y * y + z * z).sqrt() < 20000.0
        })
        .count();
    assert_eq!(table.len(), expected);
}

#[test]
fn empty_result_is_clean() {
    let cfg = IparsConfig::tiny();
    let base = tmpbase("empty");
    let server = ipars_server(&base, &cfg, IparsLayout::II);
    let (table, stats) =
        execute_table(&server, "SELECT * FROM IparsData WHERE TIME > 100000").unwrap();
    assert!(table.is_empty());
    assert_eq!(stats.rows_scanned, 0);
    assert_eq!(stats.bytes_read, 0);
}

#[test]
fn sequential_nodes_same_result_and_busy_times() {
    let cfg = IparsConfig::tiny();
    let base = tmpbase("seqnodes");
    let server = ipars_server(&base, &cfg, IparsLayout::I);
    let opts = QueryOptions { sequential_nodes: true, ..Default::default() };
    let sql = "SELECT * FROM IparsData WHERE SOIL > 0.2";
    let (seq_tables, seq_stats) = server.execute(sql, &opts).unwrap();
    let (par_table, par_stats) = execute_table(&server, sql).unwrap();
    assert!(seq_tables[0].same_rows(&par_table));
    // One busy sample per node in both modes.
    assert_eq!(seq_stats.node_busy.len(), 2);
    assert_eq!(par_stats.node_busy.len(), 2);
    // Each node plans inside its own busy time.
    for stats in [&seq_stats, &par_stats] {
        let busiest = stats.node_busy.iter().max().copied().unwrap_or_default();
        assert!(stats.node_plan_time > std::time::Duration::ZERO, "{stats}");
        assert!(stats.node_plan_time <= busiest, "{stats}");
    }
    // Simulated parallel time is bounded by total wall time in
    // sequential mode (it takes the max, not the sum).
    assert!(seq_stats.simulated_parallel_time() <= seq_stats.total_time());
}
