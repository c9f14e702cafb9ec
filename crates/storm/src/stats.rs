//! Query execution statistics, gathered across services.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dv_layout::IoSnapshot;

use crate::mover::MoverSnapshot;

/// Shared atomic morsel-scheduler counters for one query, aggregated
/// across all node pools and snapshotted into `QueryStats::morsels`.
#[derive(Debug)]
pub struct MorselStats {
    /// Morsels planned across all node schedules.
    pub planned: AtomicU64,
    /// Morsels a worker stole from another worker's queue.
    pub stolen: AtomicU64,
    /// Workers started across all node pools.
    pub workers: AtomicU64,
    /// Largest adaptive byte target any node planned with.
    pub target_bytes: AtomicU64,
    /// Fewest bytes any single worker processed (skew floor).
    pub worker_bytes_min: AtomicU64,
    /// Most bytes any single worker processed (skew ceiling).
    pub worker_bytes_max: AtomicU64,
    /// Total worker time spent in the pool but not executing a morsel
    /// (claim/steal scans plus idle tail while peers finish).
    pub pool_wait_ns: AtomicU64,
}

impl Default for MorselStats {
    fn default() -> MorselStats {
        MorselStats {
            planned: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            target_bytes: AtomicU64::new(0),
            // Folded with `fetch_min`; MAX means "no worker reported".
            worker_bytes_min: AtomicU64::new(u64::MAX),
            worker_bytes_max: AtomicU64::new(0),
            pool_wait_ns: AtomicU64::new(0),
        }
    }
}

impl MorselStats {
    /// Copy the counters into a plain snapshot.
    pub fn snapshot(&self) -> MorselSnapshot {
        let min = self.worker_bytes_min.load(Ordering::Relaxed);
        MorselSnapshot {
            planned: self.planned.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            target_bytes: self.target_bytes.load(Ordering::Relaxed),
            worker_bytes_min: if min == u64::MAX { 0 } else { min },
            worker_bytes_max: self.worker_bytes_max.load(Ordering::Relaxed),
            pool_wait: Duration::from_nanos(self.pool_wait_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time view of [`MorselStats`], carried in
/// `QueryStats::morsels`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorselSnapshot {
    /// Morsels planned across all node schedules.
    pub planned: u64,
    /// Morsels a worker stole from another worker's queue.
    pub stolen: u64,
    /// Workers started across all node pools.
    pub workers: u64,
    /// Largest adaptive byte target any node planned with.
    pub target_bytes: u64,
    /// Fewest bytes any single worker processed.
    pub worker_bytes_min: u64,
    /// Most bytes any single worker processed.
    pub worker_bytes_max: u64,
    /// Total worker time in the pool but not executing a morsel.
    pub pool_wait: Duration,
}

/// Counters and timings of one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Id the query service assigned this execution (0 when the query
    /// ran outside the service plane, e.g. in unit tests).
    pub query_id: u64,
    /// Time spent queued in admission before an execution slot opened.
    pub queue_wait: Duration,
    /// Rows materialized by the extraction service (before filtering).
    pub rows_scanned: u64,
    /// Rows surviving the filtering service (= rows delivered).
    pub rows_selected: u64,
    /// Bytes read from data files.
    pub bytes_read: u64,
    /// Payload bytes shipped by the data mover.
    pub bytes_moved: u64,
    /// Aligned file chunks processed.
    pub afcs: u64,
    /// AFC groups planned before static pruning.
    pub groups_total: u64,
    /// AFC groups dropped as provably empty (no I/O issued for them).
    pub groups_pruned: u64,
    /// AFC groups whose predicate was provably true (filter skipped).
    pub groups_full: u64,
    /// Bytes the pruned groups would have read.
    pub bytes_avoided: u64,
    /// I/O scheduler counters: syscalls, bytes issued vs. used,
    /// coalescing, prefetch and cache behaviour.
    pub io: IoSnapshot,
    /// Data mover counters: sends, and how often/long the bounded
    /// transport back-pressured the node pipelines.
    pub mover: MoverSnapshot,
    /// Morsel scheduler counters: work planned, stolen, and how evenly
    /// the worker pools shared the bytes.
    pub morsels: MorselSnapshot,
    /// Time spent planning (phase 2: grouping + AFC alignment).
    pub plan_time: Duration,
    /// Wall time of the parallel execute/transfer phase.
    pub exec_time: Duration,
    /// Per-node pipeline busy time (extract + filter + partition +
    /// move), indexed by completion order.
    pub node_busy: Vec<Duration>,
}

impl QueryStats {
    /// Total wall time.
    pub fn total_time(&self) -> Duration {
        self.plan_time + self.exec_time
    }

    /// Simulated cluster wall time: planning plus the slowest node's
    /// pipeline time. On a real N-node cluster the nodes run
    /// concurrently, so this is what a client would observe; on the
    /// single-core simulation host it is the faithful scaling metric
    /// (see DESIGN.md). Most accurate when the query ran with
    /// `QueryOptions::sequential_nodes`, which removes timesharing
    /// noise from the per-node measurements.
    pub fn simulated_parallel_time(&self) -> Duration {
        self.plan_time + self.node_busy.iter().copied().max().unwrap_or_default()
    }

    /// Selectivity of the filtering service.
    pub fn selectivity(&self) -> f64 {
        if self.rows_scanned == 0 {
            0.0
        } else {
            self.rows_selected as f64 / self.rows_scanned as f64
        }
    }
}

impl fmt::Display for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Aggregation pushdown line only when the query aggregated.
        let agg = if self.mover.agg_blocks > 0 {
            format!(
                "; agg: {} blocks, {} rows in -> {} groups out ({:.1}x reduction)",
                self.mover.agg_blocks,
                self.mover.agg_rows_in,
                self.mover.agg_groups_out,
                self.mover.agg_reduction().unwrap_or(0.0),
            )
        } else {
            String::new()
        };
        write!(
            f,
            "{} rows selected / {} scanned ({} AFCs, {} KiB read, {} KiB moved) in {:?}              (plan {:?}, exec {:?}; simulated cluster {:?}; prune: {}/{} groups pruned, {} full, {} KiB avoided; io: {} syscalls, coalesce {:.1}x, {} KiB issued / {} KiB used, cache hit {:.0}%, decode: {} calls, {} KiB, prefetch {}/{} waits; mover: {} sends, {} blocked {:?}, {} rebuilt by sender, peak buffer {}{agg}; morsels: {} planned, {} stolen, {} workers, {}..{} KiB/worker, pool wait {:?}; queued {:?})",
            self.rows_selected,
            self.rows_scanned,
            self.afcs,
            self.bytes_read / 1024,
            self.bytes_moved / 1024,
            self.total_time(),
            self.plan_time,
            self.exec_time,
            self.simulated_parallel_time(),
            self.groups_pruned,
            self.groups_total,
            self.groups_full,
            self.bytes_avoided / 1024,
            self.io.read_syscalls,
            self.io.coalesce_ratio(),
            self.io.bytes_issued / 1024,
            self.io.bytes_used / 1024,
            self.io.cache_hit_rate() * 100.0,
            self.io.decode_calls,
            self.io.decode_bytes / 1024,
            self.io.prefetch_hits,
            self.io.prefetch_waits,
            self.mover.sends,
            self.mover.blocked_sends,
            self.mover.send_wait,
            self.mover.sender_rebuilds,
            self.mover.peak_buffered_blocks,
            self.morsels.planned,
            self.morsels.stolen,
            self.morsels.workers,
            self.morsels.worker_bytes_min / 1024,
            self.morsels.worker_bytes_max / 1024,
            self.morsels.pool_wait,
            self.queue_wait,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_handles_zero() {
        let s = QueryStats::default();
        assert_eq!(s.selectivity(), 0.0);
        let s = QueryStats { rows_scanned: 100, rows_selected: 25, ..Default::default() };
        assert_eq!(s.selectivity(), 0.25);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = QueryStats {
            rows_scanned: 100,
            rows_selected: 40,
            bytes_read: 4096,
            afcs: 7,
            groups_total: 10,
            groups_pruned: 3,
            groups_full: 2,
            bytes_avoided: 8192,
            io: IoSnapshot {
                read_syscalls: 3,
                runs_scheduled: 12,
                bytes_issued: 2048,
                bytes_used: 4096,
                cache_hit_bytes: 1024,
                cache_miss_bytes: 1024,
                decode_calls: 2,
                decode_bytes: 6144,
                ..Default::default()
            },
            mover: crate::mover::MoverSnapshot {
                sends: 9,
                blocked_sends: 2,
                sender_rebuilds: 1,
                peak_buffered_blocks: 5,
                agg_blocks: 6,
                agg_rows_in: 1200,
                agg_groups_out: 48,
                ..Default::default()
            },
            morsels: MorselSnapshot {
                planned: 16,
                stolen: 3,
                workers: 4,
                worker_bytes_min: 1024,
                worker_bytes_max: 2048,
                ..Default::default()
            },
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("40 rows selected / 100 scanned"), "{text}");
        assert!(text.contains("7 AFCs"), "{text}");
        assert!(text.contains("3 syscalls"), "{text}");
        assert!(text.contains("coalesce 4.0x"), "{text}");
        assert!(text.contains("2 KiB issued / 4 KiB used"), "{text}");
        assert!(text.contains("cache hit 50%, decode: 2 calls, 6 KiB"), "{text}");
        assert!(text.contains("9 sends, 2 blocked"), "{text}");
        assert!(text.contains("1 rebuilt by sender, peak buffer 5"), "{text}");
        assert!(
            text.contains("6 blocks, 1200 rows in -> 48 groups out (25.0x reduction)"),
            "{text}"
        );
        assert!(text.contains("3/10 groups pruned, 2 full, 8 KiB avoided"), "{text}");
        assert!(text.contains("16 planned, 3 stolen, 4 workers, 1..2 KiB/worker"), "{text}");
    }

    #[test]
    fn morsel_snapshot_maps_untouched_min_to_zero() {
        let stats = MorselStats::default();
        let snap = stats.snapshot();
        assert_eq!(snap.worker_bytes_min, 0);
        stats.worker_bytes_min.fetch_min(512, Ordering::Relaxed);
        stats.worker_bytes_max.fetch_max(512, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.worker_bytes_min, 512);
        assert_eq!(snap.worker_bytes_max, 512);
    }

    #[test]
    fn total_time_sums_phases() {
        let s = QueryStats {
            plan_time: Duration::from_millis(2),
            exec_time: Duration::from_millis(40),
            ..Default::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(42));
    }
}
