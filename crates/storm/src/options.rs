//! Per-query execution options.

use dv_layout::IoOptions;

use crate::mover::BandwidthModel;
use crate::partition::PartitionStrategy;

/// The default per-node worker count: the host's available
/// parallelism, overridable with `DV_THREADS=<n>`.
pub fn default_intra_node_threads() -> usize {
    if let Some(n) = std::env::var("DV_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        return n.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Which engine the node pipeline runs. Results are identical; the
/// columnar engine is the default, the row engine is retained for the
/// ablation benchmark and as the oracle in differential tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Struct-of-arrays blocks, vectorized filtering, selection
    /// vectors; rows reconstituted only at the client boundary.
    #[default]
    Columnar,
    /// Legacy `Vec<Vec<Value>>` blocks filtered row-at-a-time.
    RowAtATime,
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
    /// setup and the differential-test oracle). Results are
    /// bit-identical at any setting. Clamped at execution time by
    /// `ServiceConfig::max_intra_node_threads`.
    pub intra_node_threads: usize,
    /// Morsel size target in bytes for intra-node scheduling.
    /// `0` (the default) sizes adaptively: the node's schedule bytes
    /// spread over `threads × MORSELS_PER_THREAD` morsels, floored at
    /// 64 KiB (see [`dv_layout::adaptive_morsel_bytes`]).
    pub morsel_bytes: u64,
    /// Run node pipelines one after another instead of concurrently.
    /// Results are identical; per-node busy times become free of
    /// timesharing noise, so `QueryStats::simulated_parallel_time`
    /// faithfully models an N-node cluster even on a single-core host
    /// (see DESIGN.md).
    pub sequential_nodes: bool,
    /// Which execution engine to run (columnar by default).
    pub exec: ExecMode,
    /// I/O scheduler knobs (coalescing, readahead, segment cache).
    pub io: IoOptions,
    /// Capacity of the bounded mover channel (blocks in flight from
    /// node pipelines to the absorber before senders back-pressure).
    pub mover_capacity: usize,
    /// Disable static partition pruning for this query (ablation
    /// baseline).
    pub no_prune: bool,
    /// Disable aggregation pushdown for this query (ablation
    /// baseline). Nodes ship
    /// filtered projected rows and the absorber aggregates client-side
    /// over the identical per-AFC fold units, so results stay
    /// bit-identical across modes.
    pub no_agg_pushdown: bool,
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
            sequential_nodes: false,
            exec: ExecMode::default(),
            io: IoOptions::default(),
            mover_capacity: 64,
            no_prune: false,
            no_agg_pushdown: false,
        }
    }
}
