//! Stress tests for the query service plane: concurrent clients over
//! one shared server must get bit-identical results to serial runs,
//! cancellation must free admission slots and leave no orphaned work,
//! per-query cache accounting must stay consistent under sharing, and
//! a panicking UDF must surface as a query error without killing the
//! server.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dv_bench::queries::ipars_queries;
use dv_core::{BandwidthModel, DvError, IoOptions, QueryOptions, SubmitOptions, Virtualizer};
use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_integration::{query_options, scratch};
use dv_layout::MorselPlan;

fn cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 99 }
}

fn build(tag: &str, max_concurrent: usize) -> Virtualizer {
    let base = scratch(tag);
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .max_concurrent(max_concurrent)
        .build()
        .unwrap()
}

/// A link slow enough that a full-scan transfer takes many seconds —
/// cancellation tests must interrupt it mid-move, never win by racing
/// a fast query to completion.
fn crawl() -> QueryOptions {
    QueryOptions {
        bandwidth: Some(BandwidthModel {
            bytes_per_sec: 64.0 * 1024.0,
            latency: Duration::from_millis(1),
        }),
        ..query_options()
    }
}

/// N client threads running the mixed benchmark workload concurrently
/// get exactly the rows the serial runs got (canonical-sorted
/// bit-match), and the admission limit is never exceeded.
#[test]
fn concurrent_clients_bit_match_serial() {
    let v = Arc::new(build("stress-bitmatch", 4));
    let queries: Vec<String> =
        ipars_queries("IparsData", cfg().time_steps).into_iter().map(|q| q.sql).take(4).collect();
    let serial: Vec<_> = queries
        .iter()
        .map(|sql| v.query_with(sql, &query_options()).unwrap().0.remove(0))
        .collect();

    let max_running_seen = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for client in 0..8usize {
            let v = Arc::clone(&v);
            let queries = &queries;
            let serial = &serial;
            let seen = Arc::clone(&max_running_seen);
            scope.spawn(move || {
                for (i, sql) in queries.iter().enumerate() {
                    // Rotate the starting query per client so different
                    // queries genuinely overlap.
                    let i = (i + client) % queries.len();
                    let handle =
                        v.submit(&queries[i], &query_options(), &SubmitOptions::default()).unwrap();
                    seen.fetch_max(v.service().running(), Ordering::Relaxed);
                    let (mut tables, stats) = handle.wait().unwrap();
                    let table = tables.remove(0);
                    assert!(
                        table.same_rows(&serial[i]),
                        "client {client} query {i} ({sql}): {} rows vs {} serial",
                        table.len(),
                        serial[i].len()
                    );
                    assert!(stats.query_id > 0);
                }
            });
        }
    });
    assert!(max_running_seen.load(Ordering::Relaxed) <= 4, "admission limit exceeded");
    assert_eq!(v.service().running(), 0, "all slots released");
    assert_eq!(v.service().queued(), 0, "no waiter left behind");
}

/// Concurrent clients × morsel-parallel node pools: every query runs
/// with an explicit 8-thread pool (stealing active inside each node)
/// while 8 clients hammer the shared server — results must still be
/// bit-identical to the serial oracle, now in exact row order, not
/// just as a sorted multiset.
#[test]
fn concurrent_morsel_pools_bit_match_serial_in_order() {
    let base = scratch("stress-morsel");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Arc::new(
        Virtualizer::builder(&descriptor)
            .storage_base(&base)
            .max_concurrent(4)
            .max_intra_node_threads(8)
            .build()
            .unwrap(),
    );
    let pool = QueryOptions { intra_node_threads: 8, ..query_options() };
    let serial = QueryOptions { intra_node_threads: 1, ..query_options() };
    let queries: Vec<String> =
        ipars_queries("IparsData", cfg().time_steps).into_iter().map(|q| q.sql).take(4).collect();
    let oracle: Vec<_> =
        queries.iter().map(|sql| v.query_with(sql, &serial).unwrap().0.remove(0)).collect();

    std::thread::scope(|scope| {
        for client in 0..8usize {
            let v = Arc::clone(&v);
            let queries = &queries;
            let oracle = &oracle;
            let pool = &pool;
            scope.spawn(move || {
                for (i, _) in queries.iter().enumerate() {
                    let i = (i + client) % queries.len();
                    let (mut tables, stats) = v.query_with(&queries[i], pool).unwrap();
                    let table = tables.remove(0);
                    assert_eq!(
                        table.rows, oracle[i].rows,
                        "client {client} query {i}: morsel-parallel rows diverged from serial"
                    );
                    assert!(stats.morsels.planned > 0, "morsel plan recorded");
                }
            });
        }
    });
    assert_eq!(v.service().running(), 0, "all slots released");
}

/// A timed-out query returns `Cancelled`, releases its admission slot,
/// and the very next query on the same server succeeds — no orphaned
/// cluster job holds the slot or wedges the workers.
#[test]
fn timeout_frees_slot_and_server_survives() {
    let v = build("stress-timeout", 1);
    let sub = SubmitOptions { timeout: Some(Duration::from_millis(40)), ..Default::default() };
    let handle = v.submit("SELECT * FROM IparsData", &crawl(), &sub).unwrap();
    let err = handle.wait().unwrap_err();
    assert!(err.is_cancelled(), "expected a cancellation, got: {err}");
    assert!(err.to_string().contains("deadline exceeded"), "{err}");

    assert_eq!(v.service().running(), 0, "timed-out query must release its slot");
    assert_eq!(v.service().queued(), 0);
    let (table, _) = v.query("SELECT REL, TIME FROM IparsData WHERE TIME = 1").unwrap();
    assert!(!table.rows.is_empty(), "server must keep serving after a timeout");
}

/// Dropping a session handle without waiting cancels the query
/// (client-side drop abort); an explicit `cancel()` by id does too.
#[test]
fn client_drop_and_explicit_cancel_abort_the_query() {
    let v = build("stress-drop", 2);

    // Drop abort: the handle goes away, the token must trip.
    let handle = v.submit("SELECT * FROM IparsData", &crawl(), &SubmitOptions::default()).unwrap();
    let token = handle.cancel_token().clone();
    drop(handle);
    assert!(token.is_cancelled(), "dropping an unwaited session must cancel it");

    // Explicit cancel by id through the service.
    let handle = v.submit("SELECT * FROM IparsData", &crawl(), &SubmitOptions::default()).unwrap();
    let id = handle.id();
    assert!(v.service().cancel(id), "live query id must be cancellable");
    let err = handle.wait().unwrap_err();
    assert!(err.is_cancelled(), "{err}");

    // Both sessions are gone; the server is idle and healthy.
    deadline_assert(|| v.service().running() == 0, "slots drain after aborts");
    assert!(v.query("SELECT REL FROM IparsData WHERE TIME = 1").is_ok());
}

/// Per-query I/O accounting stays consistent when queries share the
/// segment cache: on the cache-enabled path every issued byte is a
/// recorded miss, every miss is inserted, and hits+misses cover the
/// cache traffic — with no cross-query bleed making a query's counters
/// internally inconsistent.
#[test]
fn shared_cache_accounting_is_consistent_per_query() {
    let v = Arc::new(build("stress-cache", 4));
    let sql = "SELECT REL, TIME, SOIL FROM IparsData WHERE TIME <= 20";

    let snaps: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let v = Arc::clone(&v);
                scope.spawn(move || {
                    let (_, stats) = v.query_with(sql, &query_options()).unwrap();
                    stats.io
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut total_miss = 0;
    for (i, io) in snaps.iter().enumerate() {
        assert_eq!(
            io.bytes_issued, io.cache_miss_bytes,
            "query {i}: every issued byte is a cache miss on the cached path"
        );
        assert_eq!(io.cache_miss_bytes, io.cache_insert_bytes, "query {i}: every miss is inserted");
        assert!(io.cache_hit_bytes + io.cache_miss_bytes > 0, "query {i}: cache traffic recorded");
        total_miss += io.cache_miss_bytes;
    }
    // The four identical queries share one cache: collectively they
    // must not have read the dataset four times over.
    let solo = snaps[0].cache_hit_bytes + snaps[0].cache_miss_bytes;
    assert!(
        total_miss < 4 * solo,
        "sharing must deduplicate reads: {total_miss} miss bytes vs {solo} per query"
    );
}

/// A UDF that panics mid-filter becomes a query error naming the
/// panic, the cluster workers survive, and the same server answers the
/// next query normally.
#[test]
fn panicking_udf_is_a_query_error_not_a_dead_server() {
    let base = scratch("stress-panic");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .udf("BOOM", Some(1), |a| {
            if a[0] > -1.0 {
                panic!("udf exploded");
            }
            a[0]
        })
        .build()
        .unwrap();

    let err = v.query("SELECT REL FROM IparsData WHERE BOOM(SOIL) > 0.5").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("panicked") && msg.contains("udf exploded"), "{msg}");

    assert_eq!(v.service().running(), 0, "failed query must release its slot");
    let (table, _) = v.query("SELECT REL, TIME FROM IparsData WHERE TIME = 1").unwrap();
    assert!(!table.rows.is_empty(), "server must survive a panicking fragment");
}

/// A panic on pool worker 0 — which runs on the node's fragment thread,
/// inside the scope that joins its pool peers — must not wedge the
/// node. Worker 0 dies mid-way through a morsel of several fetch
/// groups while its peer keeps claiming. The query must end in an error
/// naming the panic, its admission slot must come back, and the same
/// server must answer the next query exactly as before. A watchdog
/// turns a regression into a failure, not a hang.
#[test]
fn worker_zero_panic_is_a_query_error() {
    let base = scratch("stress-panic-worker0");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Arc::new(
        Virtualizer::builder(&descriptor)
            .storage_base(&base)
            .max_intra_node_threads(2)
            .udf("BOOM0", Some(1), |a| {
                // Pool peers are unnamed threads; worker 0 is the
                // cluster node's own `storm-node-N` thread.
                if std::thread::current().name().is_some_and(|n| n.starts_with("storm-node-")) {
                    panic!("worker zero exploded");
                }
                a[0]
            })
            .build()
            .unwrap(),
    );
    let opts = QueryOptions {
        intra_node_threads: 2,
        morsel_bytes: 4096,
        io: IoOptions { group_bytes: 1024, ..IoOptions::default() },
        ..query_options()
    };
    let boom = "SELECT REL, TIME, SOIL FROM IparsData WHERE BOOM0(SOIL) > 0.5";
    let plain = "SELECT REL, TIME, SOIL FROM IparsData WHERE SOIL > 0.5";

    // The schedule the executor will build: two workers per node, and
    // worker 0's first morsel spans several fetch groups.
    let plan = v.service().compiled().plan_query(&v.service().bind_sql(boom).unwrap()).unwrap();
    for np in &plan.node_plans {
        let mp = MorselPlan::build(&np.afcs, opts.io.group_bytes, 2, opts.morsel_bytes);
        assert_eq!(mp.worker_count(2), 2, "node {}: {} morsels", np.node, mp.morsels.len());
        assert!(mp.morsels[0].groups.len() >= 3, "node {}: {:?}", np.node, mp.morsels[0]);
    }

    let (before, _) = v.query_with(plain, &opts).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let server = Arc::clone(&v);
    let query_opts = opts.clone();
    let client = std::thread::spawn(move || {
        let _ = tx.send(server.query_with(boom, &query_opts).map(|_| ()));
    });
    let result =
        rx.recv_timeout(Duration::from_secs(60)).expect("query hung after a worker-0 panic");
    client.join().expect("client thread");
    let err = result.unwrap_err();
    assert!(matches!(err, DvError::Runtime(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("panicked") && msg.contains("worker zero exploded"), "{msg}");

    deadline_assert(|| v.service().running() == 0, "failed query releases its slot");
    let (after, _) = v.query_with(plain, &opts).unwrap();
    assert_eq!(after[0].rows, before[0].rows, "the server answers as before the panic");
}

/// The absorber streams: with in-order per-node block arrival
/// (single worker per node) the reorder buffer holds at most the
/// in-flight morsels' blocks, never the whole result. The old
/// buffer-everything-then-sort absorber would peak at every data
/// block of the query; the watermark drain must stay well below that.
#[test]
fn absorber_reorder_buffer_is_bounded_by_inflight_blocks() {
    let v = build("stress-absorber", 4);
    // Small blocks + small morsels: many sends, many MorselDone
    // watermark advances.
    let opts = QueryOptions {
        intra_node_threads: 1,
        batch_rows: 100,
        morsel_bytes: 16 * 1024,
        ..query_options()
    };
    let (tables, stats) = v.query_with("SELECT * FROM IparsData", &opts).unwrap();
    assert!(!tables[0].rows.is_empty());
    assert!(
        stats.mover.sends > 20,
        "need many blocks for a meaningful bound: {}",
        stats.mover.sends
    );
    assert!(
        stats.mover.peak_buffered_blocks * 3 <= stats.mover.sends,
        "streaming absorber must not buffer the whole result: peak {} of {} sends",
        stats.mover.peak_buffered_blocks,
        stats.mover.sends
    );

    // Parallel workers with steal jitter still drain incrementally;
    // the result stays bit-identical (covered by morsel_diff) and the
    // peak can never exceed the total data sends.
    let jittered = QueryOptions {
        intra_node_threads: 8,
        batch_rows: 100,
        morsel_jitter_ms: 1,
        ..query_options()
    };
    let (_, par) = v.query_with("SELECT * FROM IparsData", &jittered).unwrap();
    assert!(par.mover.peak_buffered_blocks <= par.mover.sends);

    // Aggregate queries never enter the reorder buffer at all: the
    // nodes ship partials, which the absorber only collects.
    let (_, agg) = v
        .query_with(
            "SELECT REL, TIME, AVG(SOIL) FROM IparsData GROUP BY REL, TIME",
            &QueryOptions { intra_node_threads: 8, ..query_options() },
        )
        .unwrap();
    assert_eq!(agg.mover.peak_buffered_blocks, 0, "aggregation must not buffer data blocks");
}

/// Poll `cond` for up to two seconds before failing — session threads
/// are detached, so slot release may trail `wait()` by a scheduling
/// quantum.
fn deadline_assert(cond: impl Fn() -> bool, what: &str) {
    for _ in 0..200 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}
