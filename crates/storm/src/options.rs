//! Per-query execution options.
//!
//! Everything that shapes one query's execution is a field here; the
//! runtime reads no environment variables. The differential suites set
//! `morsel_jitter_ms` explicitly, and the CLI exposes `--threads` for
//! `intra_node_threads`.

use dv_layout::IoOptions;

use crate::mover::BandwidthModel;
use crate::partition::PartitionStrategy;

/// The default per-node worker count: the host's available parallelism.
pub fn default_intra_node_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Per-query execution options.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Number of client processors receiving partitions.
    pub client_processors: usize,
    /// Row distribution scheme (positions refer to *output* columns).
    pub partition: PartitionStrategy,
    /// Simulated link for remote clients (`None` = local, memory
    /// speed).
    pub bandwidth: Option<BandwidthModel>,
    /// Target rows per extracted block (AFCs are batched up to this).
    pub batch_rows: usize,
    /// Worker threads per node pool. Defaults to the host's available
    /// parallelism (see [`default_intra_node_threads`]); `1` is the
    /// explicit serial configuration (the paper's one-process-per-node
    /// setup). Results are bit-identical at any setting. Clamped at
    /// execution time by `ServiceConfig::max_intra_node_threads`.
    pub intra_node_threads: usize,
    /// Morsel size target in bytes for intra-node scheduling.
    /// `0` (the default) sizes adaptively: the node's schedule bytes
    /// spread over `threads × MORSELS_PER_THREAD` morsels, floored at
    /// 64 KiB (see [`dv_layout::adaptive_morsel_bytes`]).
    pub morsel_bytes: u64,
    /// Test hook: before each morsel a pool worker sleeps a
    /// deterministic pseudo-random `0..morsel_jitter_ms` milliseconds,
    /// keyed by `(node, morsel)`, so steal and completion orders vary
    /// wildly while results must not. `0` (the default) never sleeps.
    pub morsel_jitter_ms: u64,
    /// Run node pipelines one after another instead of concurrently.
    /// Results are identical; per-node busy times become free of
    /// timesharing noise, so `QueryStats::simulated_parallel_time`
    /// faithfully models an N-node cluster even on a single-core host
    /// (see DESIGN.md).
    pub sequential_nodes: bool,
    /// I/O scheduler knobs (coalescing gap, fetch-group size, segment
    /// cache budget).
    pub io: IoOptions,
    /// Capacity of the bounded mover channel (blocks in flight from
    /// node pipelines to the absorber before senders back-pressure).
    pub mover_capacity: usize,
    /// Disable static partition pruning for this query (ablation
    /// baseline).
    pub no_prune: bool,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            client_processors: 1,
            partition: PartitionStrategy::RoundRobin,
            bandwidth: None,
            batch_rows: 4 * 1024,
            intra_node_threads: default_intra_node_threads(),
            morsel_bytes: 0,
            morsel_jitter_ms: 0,
            sequential_nodes: false,
            io: IoOptions::default(),
            mover_capacity: 64,
            no_prune: false,
        }
    }
}
