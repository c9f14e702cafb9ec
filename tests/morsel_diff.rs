//! Morsel-parallelism differential tests: results must be
//! *bit-identical* to the serial reference executor's
//! (`dv_integration::reference`) — same rows in the same order per
//! client partition — across thread counts, steal orders (shuffled
//! with injected per-morsel jitter), layouts, prune on/off, and mover
//! back-pressure (a sender that finds the channel full rebuilds its
//! block's rows itself; the absorber adopts them in `(node, seq)`
//! order). Plus: a cancelled parallel scan leaves no orphaned workers,
//! and a skewed schedule spreads bytes evenly over the pool (the bug
//! the morsel scheduler replaces: count-based chunking serialized
//! behind the biggest file).

use std::io::Write;
use std::time::Duration;

use dv_bench::queries::ipars_queries;
use dv_core::{BandwidthModel, PartitionStrategy, QueryOptions, SubmitOptions, Virtualizer};
use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_handwritten::HandIparsL0;
use dv_integration::{query_checked, query_options, reference, scratch};
use dv_layout::MorselPlan;
use dv_sql::{bind, parse, UdfRegistry};

fn cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 41 }
}

fn opts(threads: usize, no_prune: bool) -> QueryOptions {
    QueryOptions { intra_node_threads: threads, no_prune, ..query_options() }
}

/// Every (layout × prune × thread-count) configuration of the engine
/// returns exactly the reference's tables: same rows, same order.
/// Jitter (`morsel_jitter_ms`) injects a deterministic pseudo-random
/// sleep per morsel, so the parallel runs complete morsels in
/// thoroughly shuffled orders — the (node, seq) reassembly must still
/// reconstruct schedule order bit-for-bit.
#[test]
fn parallel_results_bit_match_serial_across_layouts_and_engines() {
    let queries = [
        "SELECT * FROM IparsData",
        "SELECT REL, TIME, SOIL, PGAS FROM IparsData WHERE TIME <= 25 AND SOIL > 0.3",
    ];
    for layout in IparsLayout::all() {
        let base = scratch(&format!("morsel-diff-{}", layout.tag()));
        let descriptor = ipars::generate(&base, &cfg(), layout).unwrap();
        let v = Virtualizer::builder(&descriptor)
            .storage_base(&base)
            .max_intra_node_threads(8)
            .build()
            .unwrap();
        for sql in queries {
            for no_prune in [false, true] {
                let oracle = reference::execute(&v, sql, &opts(1, no_prune));
                for threads in [1usize, 2, 8] {
                    let o = QueryOptions { morsel_jitter_ms: 2, ..opts(threads, no_prune) };
                    let (tables, _) = query_checked(&v, sql, &o);
                    assert_eq!(tables.len(), oracle.len());
                    for (t, o) in tables.iter().zip(&oracle) {
                        assert_eq!(
                            t.rows,
                            o.rows,
                            "{} no_prune={no_prune} threads={threads}: \
                             output diverged from the reference",
                            layout.tag()
                        );
                    }
                }
            }
        }
    }
}

/// Partitioned delivery is also steal-order independent: with several
/// client processors, each processor's partition matches the
/// reference's exactly (round-robin keys on plan-time scanned
/// ordinals, not on arrival order).
#[test]
fn partitioned_delivery_is_thread_count_independent() {
    let base = scratch("morsel-parts");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .max_intra_node_threads(8)
        .build()
        .unwrap();
    let sql = "SELECT REL, TIME, SOIL FROM IparsData WHERE SOIL > 0.2";
    for strategy in [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::HashAttr { position: 2 },
        PartitionStrategy::RangeAttr { position: 2, bounds: vec![0.5] },
    ] {
        let po = |threads: usize| QueryOptions {
            client_processors: 3,
            partition: strategy.clone(),
            intra_node_threads: threads,
            ..query_options()
        };
        let oracle = reference::execute(&v, sql, &po(1));
        for threads in [1usize, 2, 8] {
            let (tables, stats) = query_checked(&v, sql, &po(threads));
            for (p, (t, o)) in tables.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    t.rows, o.rows,
                    "{strategy:?} threads={threads}: processor {p} partition diverged"
                );
            }
            assert!(stats.morsels.workers > 0, "pool stats recorded");
        }
    }
}

/// Cancelling a parallel scan mid-flight: the query ends with
/// `Cancelled`, every pool worker stops (the admission slot is
/// released, so the next query runs), and no orphaned worker keeps
/// the server busy.
#[test]
fn mid_scan_cancellation_stops_all_workers_and_frees_slot() {
    let base = scratch("morsel-cancel");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .max_concurrent(1)
        .max_intra_node_threads(8)
        .build()
        .unwrap();
    // A link slow enough that the transfer takes many seconds: the
    // cancel must interrupt the scan, not race it to completion.
    let slow = QueryOptions {
        intra_node_threads: 8,
        bandwidth: Some(BandwidthModel {
            bytes_per_sec: 64.0 * 1024.0,
            latency: Duration::from_millis(1),
        }),
        ..query_options()
    };
    let handle = v.submit("SELECT * FROM IparsData", &slow, &SubmitOptions::default()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    handle.cancel();
    let err = handle.wait().unwrap_err();
    assert!(err.is_cancelled(), "expected cancellation, got: {err}");

    // Slot released and workers gone: the next query (behind the
    // single admission slot) completes promptly and correctly.
    for _ in 0..200 {
        if v.service().running() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(v.service().running(), 0, "cancelled query must release its slot");
    let (table, _) = v.query("SELECT REL, TIME FROM IparsData WHERE TIME = 1").unwrap();
    assert!(!table.rows.is_empty());
}

/// A client link that costs the absorber a fixed 200 µs per block and
/// nothing per byte: with `mover_capacity: 1` every sender that has a
/// second block ready finds the channel full, whatever the host's
/// speed.
fn slow_absorber() -> Option<BandwidthModel> {
    Some(BandwidthModel { bytes_per_sec: 1e15, latency: Duration::from_micros(200) })
}

/// Forced back-pressure: a full mover channel changes *who* rebuilds a
/// block's rows (the blocked sender instead of the absorber), never
/// the result. Every (capacity × batch × threads) run under jitter
/// returns the reference's tables, row for row per client processor,
/// as does the serial, never-blocked run; senders rebuild rows only
/// when they were blocked; and the static cost bounds hold throughout.
#[test]
fn back_pressure_changes_who_rebuilds_rows_not_the_result() {
    let deliveries = [
        (1usize, PartitionStrategy::RoundRobin),
        (4, PartitionStrategy::RoundRobin),
        (4, PartitionStrategy::HashAttr { position: 2 }),
    ];
    for layout in [IparsLayout::I, IparsLayout::L0] {
        let base = scratch(&format!("morsel-backpressure-{}", layout.tag()));
        let descriptor = ipars::generate(&base, &cfg(), layout).unwrap();
        let v = Virtualizer::builder(&descriptor)
            .storage_base(&base)
            .max_intra_node_threads(8)
            .build()
            .unwrap();
        // Figure 8: the full scan and the three filter shapes.
        for q in ipars_queries("IparsData", cfg().time_steps).iter().take(4) {
            for (processors, partition) in &deliveries {
                let opts = |capacity: usize, batch_rows: usize, threads: usize| QueryOptions {
                    client_processors: *processors,
                    partition: partition.clone(),
                    mover_capacity: capacity,
                    batch_rows,
                    intra_node_threads: threads,
                    bandwidth: if capacity == 1 { slow_absorber() } else { None },
                    ..query_options()
                };
                let oracle = reference::execute(&v, &q.sql, &opts(64, 4096, 1));
                assert!(oracle.iter().any(|t| !t.rows.is_empty()), "q{}: degenerate diff", q.no);
                let (serial, stats) = query_checked(&v, &q.sql, &opts(64, 4096, 1));
                assert_eq!(stats.mover.sender_rebuilds, 0, "one thread never fills 64 slots");
                for (t, o) in serial.iter().zip(&oracle) {
                    assert_eq!(t.rows, o.rows, "q{}: serial engine vs reference", q.no);
                }

                for capacity in [1usize, 64] {
                    for batch_rows in [256usize, 4096] {
                        for threads in [1usize, 2, 8] {
                            let what = format!(
                                "{} q{} x{processors} {partition:?} capacity={capacity} \
                                 batch={batch_rows} threads={threads}",
                                layout.tag(),
                                q.no
                            );
                            let o = QueryOptions {
                                morsel_jitter_ms: 2,
                                ..opts(capacity, batch_rows, threads)
                            };
                            let (tables, stats) = query_checked(&v, &q.sql, &o);
                            assert_eq!(tables.len(), oracle.len(), "{what}");
                            for (p, (t, o)) in tables.iter().zip(&oracle).enumerate() {
                                assert_eq!(t.rows, o.rows, "{what}: processor {p} diverged");
                            }
                            let m = &stats.mover;
                            assert!(
                                m.sender_rebuilds <= m.blocked_sends,
                                "{what}: {} rebuilds, {} blocked sends",
                                m.sender_rebuilds,
                                m.blocked_sends
                            );
                            // The full scan in small blocks through one
                            // slot behind a slow absorber: the senders
                            // must have been put to work.
                            if (q.no, capacity, batch_rows) == (1, 1, 256) {
                                assert!(m.sends > 8, "{what}: {} sends", m.sends);
                                assert!(m.sender_rebuilds > 0, "{what}: no sender rebuilt rows");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Partial-aggregate blocks pushed through one slot behind a slow
/// absorber: the senders block, ship their partials as they are (no
/// sender rebuilds), and the merged result still matches the
/// hand-written fold bit for bit.
#[test]
fn blocked_partial_aggregate_senders_match_the_handwritten_fold() {
    let base = scratch("morsel-backpressure-agg");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .max_intra_node_threads(8)
        .build()
        .unwrap();
    let sql = "SELECT REL, TIME, COUNT(*), SUM(SOIL), MIN(PGAS), MAX(PGAS), AVG(SOIL) \
               FROM IparsData GROUP BY REL, TIME";
    let hand = HandIparsL0::new(base, cfg(), UdfRegistry::with_builtins());
    let bq = bind(&parse(sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
    let expect = hand.execute_agg(&bq).unwrap();
    // One-byte morsels: every fetch group is its own morsel and ships
    // its own partial block, so the 2 × 8 senders contend for the slot.
    let opts = QueryOptions {
        mover_capacity: 1,
        morsel_bytes: 1,
        intra_node_threads: 8,
        bandwidth: slow_absorber(),
        ..query_options()
    };
    let (tables, stats) = query_checked(&v, sql, &opts);
    assert_eq!(tables[0].rows, expect.rows);
    for (got, want) in tables[0].rows.iter().zip(&expect.rows) {
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.as_f64().to_bits(), b.as_f64().to_bits(), "{got:?} vs {want:?}");
        }
    }
    assert!(stats.mover.agg_blocks > 0, "the nodes must have shipped partials");
    assert!(stats.mover.blocked_sends > 0, "the channel must have filled");
    assert_eq!(stats.mover.sender_rebuilds, 0, "partial blocks are never rebuilt into rows");
}

/// Cancelling while every sender sits behind a full one-slot channel:
/// the blocked senders give up without first rebuilding the rows of a
/// dead query, the query ends `Cancelled`, its slot comes back, and
/// the same `Virtualizer` then answers exactly as before.
#[test]
fn cancellation_with_blocked_senders_frees_slot_and_leaves_server_intact() {
    let base = scratch("morsel-cancel-blocked");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .max_concurrent(1)
        .max_intra_node_threads(8)
        .build()
        .unwrap();
    let sql = "SELECT * FROM IparsData";
    let opts = QueryOptions {
        intra_node_threads: 8,
        mover_capacity: 1,
        batch_rows: 256,
        ..query_options()
    };
    let (before, _) = v.query_with(sql, &opts).unwrap();

    // A link so slow the absorber spends seconds on its first block:
    // all 2 × 8 senders pile up behind the single slot.
    let stalled = QueryOptions {
        bandwidth: Some(BandwidthModel {
            bytes_per_sec: 16.0 * 1024.0,
            latency: Duration::from_millis(1),
        }),
        ..opts.clone()
    };
    let handle = v.submit(sql, &stalled, &SubmitOptions::default()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    handle.cancel();
    let err = handle.wait().unwrap_err();
    assert!(err.is_cancelled(), "expected cancellation, got: {err}");

    for _ in 0..200 {
        if v.service().running() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(v.service().running(), 0, "cancelled query must release its slot");
    let (after, _) = v.query_with(sql, &opts).unwrap();
    assert_eq!(after[0].rows, before[0].rows, "the server answers as before the cancellation");
}

/// Build a single-node dataset whose per-directory extents shrink
/// steeply: directory 0 holds ~6× the bytes of directory 7. Under the
/// old count-based chunk striping the worker that drew directory 0's
/// AFCs did ~6× the work; byte-budgeted morsels plus stealing must
/// spread bytes nearly evenly.
fn generate_skewed(tag: &str) -> (std::path::PathBuf, String) {
    let base = scratch(tag);
    let dirs = 8usize;
    let times = 16usize;
    let mut descriptor = String::from(
        "[SKEW]\nTIME = int\nVAL = float\nAUX = float\n\n[SkewData]\nDatasetDescription = SKEW\n",
    );
    for d in 0..dirs {
        descriptor.push_str(&format!("DIR[{d}] = node0/skew.d{d}\n"));
    }
    descriptor.push_str(
        "\nDATASET \"SkewData\" {\n  DATATYPE { SKEW }\n  DATAINDEX { TIME }\n  DATA { DATASET var_val DATASET var_aux }\n",
    );
    for (name, file) in [("var_val", "val.dat"), ("var_aux", "aux.dat")] {
        descriptor.push_str(&format!(
            "  DATASET \"{name}\" {{\n    DATASPACE {{ LOOP TIME 1:{times}:1 {{ LOOP GRID 1:(8000-960*$DIRID):1 {{ {} }} }} }}\n    DATA {{ DIR[$DIRID]/{file} DIRID = 0:{}:1 }}\n  }}\n",
            if name == "var_val" { "VAL" } else { "AUX" },
            dirs - 1,
        ));
    }
    descriptor.push_str("}\n");
    for d in 0..dirs {
        let dir = base.join("node0").join(format!("skew.d{d}"));
        std::fs::create_dir_all(&dir).unwrap();
        let rows = 8000 - 960 * d;
        for file in ["val.dat", "aux.dat"] {
            let mut w = std::io::BufWriter::new(std::fs::File::create(dir.join(file)).unwrap());
            for t in 0..times {
                for g in 0..rows {
                    let x = (d * 1_000_000 + t * 10_000 + g) as f32 * 1e-3;
                    w.write_all(&x.to_le_bytes()).unwrap();
                }
            }
            w.flush().unwrap();
        }
    }
    (base, descriptor)
}

/// The skew regression itself: one hugely oversized directory plus
/// progressively smaller ones. The pool must (a) return exactly the
/// serial rows and (b) plan the busiest worker's byte share close to
/// the mean — under count-based chunking it carried ~6× the mean. The
/// balance is asserted on what the scheduler decides (`assign`), not
/// on which bytes each OS thread ended up running: on a host with
/// fewer cores than workers, stealing rightly moves work off threads
/// the OS started late.
#[test]
fn skewed_schedule_balances_worker_bytes() {
    let (base, descriptor) = generate_skewed("morsel-skew");
    let v = Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .max_intra_node_threads(4)
        .build()
        .unwrap();
    let sql = "SELECT TIME, VAL FROM SkewData";
    let serial = QueryOptions { intra_node_threads: 1, ..query_options() };
    let oracle = reference::execute(&v, sql, &serial);

    let par = QueryOptions { intra_node_threads: 4, ..query_options() };
    let (tables, stats) = query_checked(&v, sql, &par);
    assert_eq!(tables[0].rows, oracle[0].rows, "skewed parallel scan diverged from the reference");

    // The one node's schedule, planned exactly as the executor plans it.
    let plan = v.service().compiled().plan_query(&v.service().bind_sql(sql).unwrap()).unwrap();
    let [np] = plan.node_plans.as_slice() else { panic!("skew dataset has one node") };
    let morsels = MorselPlan::build(&np.afcs, par.io.group_bytes, 4, par.morsel_bytes);
    let workers = morsels.worker_count(4);
    assert_eq!(stats.morsels.planned, morsels.morsels.len() as u64, "same plan as the executor");
    assert_eq!(stats.morsels.workers, workers as u64);
    assert_eq!(workers, 4, "pool must actually be parallel");
    assert!(
        morsels.morsels.len() > workers,
        "schedule must split finer than the pool: {} morsels for {workers} workers",
        morsels.morsels.len()
    );
    // Byte balance: the busiest worker's planned bytes stay within 2×
    // the fair share, and no worker starts empty. (Count-based chunking
    // put ~6 shares on the directory-0 worker.)
    let planned: Vec<u64> = morsels
        .assign(workers)
        .iter()
        .map(|q| q.iter().map(|&m| morsels.morsels[m].bytes).sum())
        .collect();
    let fair = morsels.total_bytes / workers as u64;
    let busiest = *planned.iter().max().unwrap();
    assert!(busiest <= 2 * fair, "planned byte skew: {planned:?} vs fair share {fair}");
    assert!(planned.iter().all(|&b| b > 0), "every worker must get work: {planned:?}");
}
