//! The query service plane: admission, sessions, and the staged
//! execution loop.
//!
//! [`QueryService`] is the front end of the STORM runtime. It assigns
//! each query a [`QueryId`], admits it through the shared
//! [`Admission`] gate (priority-then-FIFO, bounded concurrency), and
//! runs it as a *session*: plan centrally, fan plan fragments out to
//! the per-node [`ExecutorService`]s, and absorb mover blocks until
//! every node reports done. Sessions are either blocking
//! ([`QueryService::execute_with`], caller's thread) or detached
//! ([`QueryService::submit`], own thread + [`SessionHandle`]).
//! Dropping a handle without taking the result cancels the query —
//! the client-side-drop abort path.
//!
//! Every session carries a [`CancelToken`] threaded through admission,
//! extraction, I/O scheduling, filtering, and the mover; the drain
//! loop always waits for all node `Done` reports, so a cancelled query
//! leaves no orphaned cluster jobs, and its RAII admission slot and
//! per-query channels/file state are released on every exit path.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver};
use dv_layout::io::IoStats;
use dv_layout::{
    AggPrep, CompiledDataset, CostParams, CostReport, Extractor, IoOptions, RuntimeCounters,
    SegmentCache, SharedHandles,
};
use dv_sql::{bind, parse, AggOutput, BoundExpr, BoundQuery, UdfRegistry};
use dv_types::{
    AggBlock, AggTable, CancelToken, ColumnBlock, DvError, Result, RowBlock, Rows, Schema, Table,
};

use crate::admission::Admission;
use crate::cluster::Cluster;
use crate::executor::{AggExec, ExecutorService, NodeWorker};
use crate::mover::{absorb_transfer, MoverMessage, MoverStats};
use crate::options::QueryOptions;
use crate::stats::{MorselStats, QueryStats};

/// Identifier the service assigns to each admitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Service-level configuration, fixed at server construction.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queries admitted concurrently; the rest queue (min 1).
    pub max_concurrent: usize,
    /// Ceiling on `QueryOptions::intra_node_threads` — a per-query
    /// request above this is clamped at execution time, so one greedy
    /// query cannot oversubscribe a shared server. Defaults to the
    /// host's available parallelism.
    pub max_intra_node_threads: usize,
    /// Cost-based admission: reject any query whose *static* planned
    /// byte bound (`CostReport::bytes_read`, the exact post-prune
    /// payload) exceeds this budget, with a DV401-coded error, before
    /// any fragment is dispatched. `None` disables the check.
    pub max_plan_bytes: Option<u64>,
    /// Cost-based admission: reject any query whose static absorber
    /// group-memory bound (`CostReport::group_memory_hi`) exceeds this
    /// budget, with a DV404-coded error. `None` disables the check.
    pub max_group_memory: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_concurrent: 4,
            max_intra_node_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_plan_bytes: None,
            max_group_memory: None,
        }
    }
}

/// Per-submission options, orthogonal to [`QueryOptions`] (which
/// shapes execution): how the query enters and leaves the service.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Admission priority; higher values are admitted first, ties
    /// break FIFO.
    pub priority: u8,
    /// Deadline for the whole query (queue wait included); expiry
    /// cancels it with [`DvError::Cancelled`].
    pub timeout: Option<Duration>,
    /// Externally supplied cancellation token (a fresh one is made
    /// when absent). The timeout, if any, still applies on top.
    pub cancel: Option<CancelToken>,
}

impl SubmitOptions {
    fn token(&self) -> CancelToken {
        match (&self.cancel, self.timeout) {
            (Some(t), None) => t.clone(),
            (Some(t), Some(timeout)) => t.child_with_deadline(Some(Instant::now() + timeout)),
            (None, Some(timeout)) => CancelToken::with_timeout(timeout),
            (None, None) => CancelToken::new(),
        }
    }
}

/// Everything shared by all sessions of one server: the compiled
/// dataset, UDFs, the simulated cluster and its per-node executors,
/// and the cross-query caches (segment cache, open-file pool).
pub(crate) struct ServerCore {
    pub compiled: Arc<CompiledDataset>,
    pub udfs: Arc<UdfRegistry>,
    pub segment_cache: Arc<SegmentCache>,
    pub shared_handles: SharedHandles,
    pub executors: Vec<ExecutorService>,
    /// Server-wide ceiling on per-query intra-node worker threads.
    pub max_intra_node_threads: usize,
    /// Cost-based admission byte budget (see [`ServiceConfig`]).
    pub max_plan_bytes: Option<u64>,
    /// Cost-based admission group-memory budget (see [`ServiceConfig`]).
    pub max_group_memory: Option<u64>,
}

impl ServerCore {
    pub fn new(
        compiled: Arc<CompiledDataset>,
        udfs: UdfRegistry,
        config: &ServiceConfig,
    ) -> ServerCore {
        let nodes = compiled.model.node_count();
        let cluster = Arc::new(Cluster::new(nodes));
        let executors =
            (0..nodes).map(|node| ExecutorService::new(node, Arc::clone(&cluster))).collect();
        ServerCore {
            compiled,
            udfs: Arc::new(udfs),
            segment_cache: Arc::new(SegmentCache::new(IoOptions::default().cache_bytes)),
            shared_handles: SharedHandles::new(),
            executors,
            max_intra_node_threads: config.max_intra_node_threads.max(1),
            max_plan_bytes: config.max_plan_bytes,
            max_group_memory: config.max_group_memory,
        }
    }
}

/// The front-end service: admission, session tracking, execution.
#[derive(Clone)]
pub struct QueryService {
    core: Arc<ServerCore>,
    admission: Arc<Admission>,
    next_id: Arc<AtomicU64>,
    /// Cancel tokens of live sessions, keyed by query id — the
    /// service-side view used by [`QueryService::cancel`].
    sessions: Arc<Mutex<HashMap<u64, CancelToken>>>,
}

impl QueryService {
    /// Start the service for one compiled dataset: per-node executors,
    /// the cross-query caches, and the admission gate.
    pub fn new(
        compiled: Arc<CompiledDataset>,
        udfs: UdfRegistry,
        config: &ServiceConfig,
    ) -> QueryService {
        QueryService {
            core: Arc::new(ServerCore::new(compiled, udfs, config)),
            admission: Admission::new(config.max_concurrent),
            next_id: Arc::new(AtomicU64::new(0)),
            sessions: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Queries currently executing.
    pub fn running(&self) -> usize {
        self.admission.running()
    }

    /// Queries waiting for an execution slot.
    pub fn queued(&self) -> usize {
        self.admission.queued()
    }

    /// The configured concurrency limit.
    pub fn max_concurrent(&self) -> usize {
        self.admission.max_concurrent()
    }

    /// Ids of sessions the service is tracking (queued or running).
    pub fn active(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self
            .sessions
            .lock()
            .expect("session table poisoned")
            .keys()
            .map(|&id| QueryId(id))
            .collect();
        ids.sort();
        ids
    }

    /// Cancel a tracked session by id; `false` if unknown (already
    /// finished or never existed).
    pub fn cancel(&self, id: QueryId) -> bool {
        match self.sessions.lock().expect("session table poisoned").get(&id.0) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// The dataset model served.
    pub fn model(&self) -> &dv_descriptor::DatasetModel {
        &self.core.compiled.model
    }

    /// The compiled dataset (for plan inspection / codegen rendering).
    pub fn compiled(&self) -> &CompiledDataset {
        &self.core.compiled
    }

    /// Parse + bind a query against the served schema.
    pub fn bind_sql(&self, sql: &str) -> Result<BoundQuery> {
        let q = parse(sql)?;
        bind(&q, &self.core.compiled.model.schema, &self.core.udfs)
    }

    /// Execute on the caller's thread with default submission options.
    pub fn execute(&self, sql: &str, opts: &QueryOptions) -> Result<(Vec<Table>, QueryStats)> {
        self.execute_with(sql, opts, &SubmitOptions::default())
    }

    /// Execute on the caller's thread: bind, admit, run, absorb.
    pub fn execute_with(
        &self,
        sql: &str,
        opts: &QueryOptions,
        sub: &SubmitOptions,
    ) -> Result<(Vec<Table>, QueryStats)> {
        let bq = self.bind_sql(sql)?;
        self.execute_bound_with(&bq, opts, sub)
    }

    /// Execute a pre-bound query on the caller's thread.
    pub fn execute_bound_with(
        &self,
        bq: &BoundQuery,
        opts: &QueryOptions,
        sub: &SubmitOptions,
    ) -> Result<(Vec<Table>, QueryStats)> {
        let id = self.fresh_id();
        let cancel = sub.token();
        let _session = SessionGuard::register(&self.sessions, id, cancel.clone());
        self.run_admitted(id, bq, opts, sub.priority, &cancel)
    }

    /// Submit a detached session: binding happens here (so syntax and
    /// binding errors surface synchronously), execution on its own
    /// thread. The returned handle is the only way to the result;
    /// dropping it un-taken cancels the query.
    pub fn submit(
        &self,
        sql: &str,
        opts: &QueryOptions,
        sub: &SubmitOptions,
    ) -> Result<SessionHandle> {
        let bq = self.bind_sql(sql)?;
        let id = self.fresh_id();
        let cancel = sub.token();
        let (tx, rx) = bounded::<Result<(Vec<Table>, QueryStats)>>(1);
        let service = self.clone();
        let opts = opts.clone();
        let priority = sub.priority;
        let session_cancel = cancel.clone();
        // Register before the thread exists so the id is cancellable
        // the moment `submit` returns; the guard travels with the
        // session and deregisters on any exit.
        let guard = SessionGuard::register(&self.sessions, id, cancel.clone());
        std::thread::Builder::new()
            .name(format!("dv-session-{id}"))
            .spawn(move || {
                let _session = guard;
                let result = service.run_admitted(id, &bq, &opts, priority, &session_cancel);
                // A dropped handle means nobody wants the result.
                let _ = tx.send(result);
            })
            .map_err(|e| DvError::Runtime(format!("spawn session thread: {e}")))?;
        Ok(SessionHandle { id, cancel, rx, taken: false })
    }

    fn fresh_id(&self) -> QueryId {
        QueryId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// The session body: queue for admission, execute. The caller
    /// holds the [`SessionGuard`]; the admission slot acquired here is
    /// RAII, so it is released however this returns.
    fn run_admitted(
        &self,
        id: QueryId,
        bq: &BoundQuery,
        opts: &QueryOptions,
        priority: u8,
        cancel: &CancelToken,
    ) -> Result<(Vec<Table>, QueryStats)> {
        let wait_start = Instant::now();
        let _slot = self.admission.acquire(priority, cancel)?;
        let queue_wait = wait_start.elapsed();
        let (tables, mut stats) = run_session(&self.core, bq, opts, cancel)?;
        stats.query_id = id.0;
        stats.queue_wait = queue_wait;
        Ok((tables, stats))
    }
}

/// RAII registration of a session in the service's tracking table.
struct SessionGuard {
    sessions: Arc<Mutex<HashMap<u64, CancelToken>>>,
    id: u64,
}

impl SessionGuard {
    fn register(
        sessions: &Arc<Mutex<HashMap<u64, CancelToken>>>,
        id: QueryId,
        token: CancelToken,
    ) -> SessionGuard {
        sessions.lock().expect("session table poisoned").insert(id.0, token);
        SessionGuard { sessions: Arc::clone(sessions), id: id.0 }
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.sessions.lock().expect("session table poisoned").remove(&self.id);
    }
}

/// A detached session's client-side handle.
///
/// Holds the query's cancel token and the one-shot result channel.
/// [`SessionHandle::wait`] consumes the handle and blocks for the
/// result; dropping the handle without waiting cancels the query —
/// a disappearing client aborts its scan instead of leaking work.
pub struct SessionHandle {
    id: QueryId,
    cancel: CancelToken,
    rx: Receiver<Result<(Vec<Table>, QueryStats)>>,
    taken: bool,
}

impl SessionHandle {
    /// The service-assigned query id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// A clone of the session's cancel token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Request cancellation (the session ends with
    /// [`DvError::Cancelled`] unless it already finished).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the session finishes and take its result.
    pub fn wait(mut self) -> Result<(Vec<Table>, QueryStats)> {
        self.taken = true;
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(DvError::Runtime("session thread terminated without a result".into())),
        }
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        if !self.taken {
            self.cancel.cancel();
        }
    }
}

/// A block as shipped by a node pipeline, awaiting ordered absorption.
enum Shipped {
    Rows(RowBlock),
    Cols(ColumnBlock),
    /// Rows the sender already rebuilt from its columnar block (it
    /// found the mover channel full); adopted as they are.
    Built(Rows),
}

/// Aggregation half of the absorber: per-AFC partials collected from
/// the nodes (pushdown) or computed here on arrival (ablation), merged
/// and finalized deterministically when every node is done.
struct AbsorbAgg {
    /// Positions of group keys / aggregate arguments within *shipped*
    /// blocks (= the query projection) — used only in ablation mode,
    /// where the nodes ship filtered projected rows.
    group_pos: Vec<usize>,
    arg_pos: Vec<Option<usize>>,
    /// Reusable per-block fold table (ablation mode).
    scratch: AggTable,
    /// Partial-aggregate blocks, merged in `(node, seq)` order at the
    /// end. Each `(node, seq, key)` entry appears exactly once.
    parts: Vec<AggBlock>,
}

/// Client-side streaming reassembly of mover blocks.
///
/// Blocks arrive in whatever order morsel workers and stealing produced
/// them; every block carries its source node and plan-time sequence tag
/// (the starting scanned ordinal). Instead of buffering the whole
/// result and stable-sorting at the end, the absorber drains
/// incrementally: each node's advisory [`MoverMessage::MorselDone`]
/// markers build a contiguous-coverage watermark `W(n)` — the prefix
/// `[0, W)` of the node's scanned ordinals whose morsels all completed.
/// A buffered block with `seq < W(n)` can never be preceded by a
/// still-in-flight one, so it moves into its per-(processor, node)
/// output run immediately; peak buffered blocks track what is genuinely
/// in flight, not the result size. Correctness never depends on the
/// markers: a node's `Done` drains its remainder unconditionally, and
/// per-node runs concatenated in node order equal the old global
/// `(node, seq)` sort exactly.
struct Absorber<'a> {
    node_count: usize,
    /// `[processor][node]` reorder buffers keyed by sequence tag.
    buf: Vec<Vec<BTreeMap<u64, Shipped>>>,
    /// `[processor][node]` output runs, drained in ascending seq.
    runs: Vec<Vec<Table>>,
    /// Per node: completed-morsel spans (`base → rows`) not yet folded
    /// into the watermark.
    spans: Vec<BTreeMap<u64, u64>>,
    /// Per node: contiguous-coverage watermark.
    watermark: Vec<u64>,
    buffered: u64,
    mover_stats: &'a MoverStats,
    agg: Option<AbsorbAgg>,
}

impl<'a> Absorber<'a> {
    fn new(
        processors: usize,
        node_count: usize,
        output_schema: &Schema,
        agg: Option<AbsorbAgg>,
        mover_stats: &'a MoverStats,
    ) -> Absorber<'a> {
        Absorber {
            node_count,
            buf: (0..processors)
                .map(|_| (0..node_count).map(|_| BTreeMap::new()).collect())
                .collect(),
            runs: (0..processors)
                .map(|_| (0..node_count).map(|_| Table::empty(output_schema.clone())).collect())
                .collect(),
            spans: (0..node_count).map(|_| BTreeMap::new()).collect(),
            watermark: vec![0; node_count],
            buffered: 0,
            mover_stats,
            agg,
        }
    }

    /// A data block arrived. Aggregate-ablation queries fold it into a
    /// per-block partial immediately (one block = one AFC = one
    /// canonical fold unit — nothing is buffered); everything else
    /// enters the reorder buffer until its watermark covers it.
    fn on_data(&mut self, processor: usize, node: usize, seq: u64, shipped: Shipped) {
        if let Some(agg) = &mut self.agg {
            agg.scratch.clear();
            match &shipped {
                Shipped::Rows(b) => {
                    for row in &b.rows {
                        agg.scratch.fold_values(row, &agg.group_pos, &agg.arg_pos);
                    }
                }
                Shipped::Cols(b) => {
                    agg.scratch.fold_block(b, &agg.group_pos, &agg.arg_pos);
                }
                Shipped::Built(_) => unreachable!("aggregate blocks are never sender-rebuilt"),
            }
            let mut out = AggBlock::new(node, agg.scratch.key_width(), agg.scratch.funcs());
            agg.scratch.drain_into(seq, &mut out);
            agg.parts.push(out);
            return;
        }
        self.buf[processor][node].insert(seq, shipped);
        self.buffered += 1;
        self.mover_stats.note_buffered(self.buffered);
    }

    /// A partial-aggregate block arrived (pushdown mode).
    fn on_agg(&mut self, block: AggBlock) {
        if let Some(agg) = &mut self.agg {
            agg.parts.push(block);
        }
    }

    /// Advance `node`'s watermark with a completed-morsel span and
    /// drain every buffered block it now covers.
    fn on_morsel_done(&mut self, node: usize, base: u64, rows: u64) {
        self.spans[node].insert(base, rows);
        let mut w = self.watermark[node];
        while let Some(r) = self.spans[node].remove(&w) {
            w += r;
        }
        self.watermark[node] = w;
        self.drain_node(node, w);
    }

    /// Unconditional drain when `node` reports done — the safety net
    /// that makes correctness independent of the advisory markers.
    fn on_node_done(&mut self, node: usize) {
        self.drain_node(node, u64::MAX);
    }

    fn drain_node(&mut self, node: usize, below: u64) {
        for p in 0..self.buf.len() {
            let map = &mut self.buf[p][node];
            let rest = if below == u64::MAX { BTreeMap::new() } else { map.split_off(&below) };
            let ready = std::mem::replace(map, rest);
            for (_, shipped) in ready {
                self.buffered -= 1;
                match shipped {
                    Shipped::Rows(b) => self.runs[p][node].absorb(b),
                    Shipped::Cols(b) => self.runs[p][node].absorb_columns(b),
                    Shipped::Built(mut rows) => self.runs[p][node].rows.append(&mut rows),
                }
            }
        }
    }

    /// Move the per-node runs into the client tables, node-major —
    /// exactly the old global `(node, seq)` order.
    fn finish(mut self, tables: &mut [Table]) -> Option<AbsorbAgg> {
        for node in 0..self.node_count {
            self.on_node_done(node);
        }
        for (p, t) in tables.iter_mut().enumerate() {
            for node in 0..self.node_count {
                t.rows.append(&mut self.runs[p][node].rows);
            }
        }
        self.agg
    }
}

/// Merge the collected per-AFC partials in ascending `(node, seq)`
/// order and finalize into result rows sorted by decoded group key —
/// the deterministic fold tree shared by every engine, thread count and
/// pushdown mode.
fn finalize_agg(agg: AbsorbAgg, prep: &AggPrep, schema: &Schema, out: &mut Table) {
    let spec = &prep.spec;
    let mut order: Vec<(usize, usize)> =
        agg.parts.iter().enumerate().flat_map(|(p, b)| (0..b.len()).map(move |e| (p, e))).collect();
    order.sort_by_key(|&(p, e)| (agg.parts[p].source_node, agg.parts[p].seqs[e]));
    let mut table = AggTable::new(&spec.funcs(), spec.group_by.len());
    for (p, e) in order {
        let b = &agg.parts[p];
        table.merge_entry(b.keys[e], &b.states_at(e));
    }
    let group_dtypes = spec.group_dtypes(schema);
    for i in table.sorted_indices(&group_dtypes) {
        let keys = table.key_values(i, &group_dtypes);
        let row: Vec<dv_types::Value> = spec
            .output
            .iter()
            .map(|o| match *o {
                AggOutput::Group(k) => keys[k],
                AggOutput::Agg(a) => table.accs[a].finalize(i, spec.result_dtype(a, schema)),
            })
            .collect();
        out.rows.push(row);
    }
}

/// Execute one admitted session: central planning, fragment fan-out
/// via the per-node executors, and the absorb loop, threaded with the
/// session's cancel token.
pub(crate) fn run_session(
    core: &Arc<ServerCore>,
    bq: &BoundQuery,
    opts: &QueryOptions,
    cancel: &CancelToken,
) -> Result<(Vec<Table>, QueryStats)> {
    if opts.client_processors == 0 {
        return Err(DvError::Runtime("client_processors must be >= 1".into()));
    }
    // Clamp the per-query worker request to the server-wide ceiling.
    let mut opts = opts.clone();
    opts.intra_node_threads = opts.intra_node_threads.clamp(1, core.max_intra_node_threads);
    let opts = &opts;
    let mut stats = QueryStats::default();
    cancel.check()?;

    // Phase 2a: central planning (range analysis, working row).
    let plan_start = Instant::now();
    let mut prep = core.compiled.prepare_query(bq)?;
    if opts.no_prune {
        prep.prune_enabled = false;
    }
    if opts.no_agg_pushdown {
        prep.agg_pushdown = false;
    }
    let prep = Arc::new(prep);

    // Phase 2a': cost-based admission (dv-cost). When a budget is
    // configured — or `DV_COST_VALIDATE=1` asks for drain-time bound
    // checking — plan every node centrally, derive the static
    // [`CostReport`], and reject statically over-budget queries with a
    // DV-coded error before any fragment is dispatched. The plans are
    // reused by the dispatch closure, so admitted queries pay the
    // analysis but never plan twice.
    let budgeted = core.max_plan_bytes.is_some() || core.max_group_memory.is_some();
    let cost_validate = cost_validate_enabled();
    let (pre_planned, cost_report) = if budgeted || cost_validate {
        let node_count = core.compiled.model.node_count();
        let plans: Vec<dv_layout::NodePlan> = (0..node_count)
            .map(|node| core.compiled.plan_node(&prep, node))
            .collect::<Result<_>>()?;
        let params = CostParams::new(&opts.io, opts.client_processors, bq.predicate.is_some());
        let report = CostReport::analyze_nodes(
            &plans,
            &prep.working,
            &prep.output_positions,
            prep.agg.as_ref(),
            prep.agg_pushdown,
            &params,
        );
        if let Some(budget) = core.max_plan_bytes {
            if report.bytes_read.hi > budget {
                return Err(DvError::CostBudget {
                    code: "DV401",
                    message: format!(
                        "static byte bound {} exceeds the {budget}-byte plan budget",
                        report.bytes_read.hi
                    ),
                });
            }
        }
        if let Some(budget) = core.max_group_memory {
            let need = report.group_memory_hi();
            if need > budget {
                return Err(DvError::CostBudget {
                    code: "DV404",
                    message: format!(
                        "static group-memory bound {need} exceeds the \
                         {budget}-byte memory budget"
                    ),
                });
            }
        }
        (Some(Arc::new(plans)), Some(report))
    } else {
        (None, None)
    };
    stats.plan_time = plan_start.elapsed();

    // Per-query aggregation context shared by all node workers. With
    // pushdown on, each worker folds morsels into per-AFC partial
    // tables and ships compact aggregate blocks; with it off, the
    // nodes ship filtered projected rows (one block per AFC) and the
    // absorber computes the identical per-AFC partials on arrival.
    let agg_exec: Option<Arc<AggExec>> = prep.agg.as_ref().map(|a| {
        Arc::new(AggExec {
            funcs: a.spec.funcs(),
            group_pos: a.group_pos.clone(),
            arg_pos: a.arg_pos.clone(),
            pushdown: prep.agg_pushdown,
        })
    });
    // Absorber-side fold positions index into *shipped* blocks, whose
    // columns follow the query projection (sorted dedup of group keys
    // and aggregate arguments).
    let absorb_agg = prep.agg.as_ref().map(|a| {
        let ppos = |attr: usize| {
            bq.projection
                .iter()
                .position(|&x| x == attr)
                .expect("aggregate attr missing from projection")
        };
        AbsorbAgg {
            group_pos: a.spec.group_by.iter().map(|&g| ppos(g)).collect(),
            arg_pos: a.spec.aggs.iter().map(|ag| ag.arg.map(ppos)).collect(),
            scratch: AggTable::new(&a.spec.funcs(), a.spec.group_by.len()),
            parts: Vec::new(),
        }
    });

    let output_schema = bq.output_schema();
    let schema_len = core.compiled.model.schema.len();
    let working_attrs = Arc::new(prep.working.attrs.clone());
    let working_dtypes = Arc::new(prep.working.dtypes.clone());
    let output_positions = Arc::new(prep.output_positions.clone());
    let predicate: Arc<Option<BoundExpr>> = Arc::new(bq.predicate.clone());
    // Per-query extractor over the server's shared open-file pool,
    // checkpointed on this session's cancel token.
    let extractor = Extractor::new(&core.compiled, prep.working.attrs.len())
        .with_shared_handles(&core.shared_handles)
        .with_cancel(cancel.clone());

    let rows_scanned = Arc::new(AtomicU64::new(0));
    let rows_selected = Arc::new(AtomicU64::new(0));
    let bytes_read = Arc::new(AtomicU64::new(0));
    let bytes_moved = Arc::new(AtomicU64::new(0));
    let afc_count = Arc::new(AtomicU64::new(0));
    let prune_total = Arc::new(AtomicU64::new(0));
    let prune_pruned = Arc::new(AtomicU64::new(0));
    let prune_full = Arc::new(AtomicU64::new(0));
    let prune_bytes_avoided = Arc::new(AtomicU64::new(0));
    let io_stats = Arc::new(IoStats::default());
    let mover_stats = Arc::new(MoverStats::default());
    let morsel_stats = Arc::new(MorselStats::default());

    // The mover is the only inter-stage transport: a bounded typed
    // channel, so a slow absorber back-pressures the node pipelines.
    let (tx, rx) = bounded::<MoverMessage>(opts.mover_capacity.max(1));
    let exec_start = Instant::now();
    let node_count = core.compiled.model.node_count();
    let mut tables: Vec<Table> =
        (0..opts.client_processors).map(|_| Table::empty(output_schema.clone())).collect();
    let mut first_error: Option<DvError> = None;
    let mut node_busy: Vec<std::time::Duration> = Vec::with_capacity(node_count);

    let dispatch = |node: usize, tx: &crossbeam::channel::Sender<MoverMessage>| {
        let compiled = Arc::clone(&core.compiled);
        let prep = Arc::clone(&prep);
        let pre = pre_planned.clone();
        let worker = NodeWorker {
            node,
            extractor: extractor.clone(),
            udfs: Arc::clone(&core.udfs),
            predicate: Arc::clone(&predicate),
            working_attrs: Arc::clone(&working_attrs),
            working_dtypes: Arc::clone(&working_dtypes),
            output_positions: Arc::clone(&output_positions),
            schema_len,
            opts: opts.clone(),
            cancel: cancel.clone(),
            rows_scanned: Arc::clone(&rows_scanned),
            rows_selected: Arc::clone(&rows_selected),
            bytes_read: Arc::clone(&bytes_read),
            bytes_moved: Arc::clone(&bytes_moved),
            afc_count: Arc::clone(&afc_count),
            prune_total: Arc::clone(&prune_total),
            prune_pruned: Arc::clone(&prune_pruned),
            prune_full: Arc::clone(&prune_full),
            prune_bytes_avoided: Arc::clone(&prune_bytes_avoided),
            io_stats: Arc::clone(&io_stats),
            mover_stats: Arc::clone(&mover_stats),
            morsel_stats: Arc::clone(&morsel_stats),
            segment_cache: Arc::clone(&core.segment_cache),
            agg: agg_exec.clone(),
        };
        let worker_tx = tx.clone();
        // Phase 2b (the node's generated index function) runs inside
        // the fragment and counts as this node's work.
        core.executors[node].spawn_fragment(tx.clone(), move || match &pre {
            // Cost-admitted sessions already planned every node
            // centrally; reuse that plan instead of planning twice.
            Some(plans) => {
                let np = &plans[node];
                worker.record_prune(&np.prune);
                worker.run(&np.afcs, &np.prune.verdicts, &worker_tx)
            }
            None => compiled.plan_node(&prep, node).and_then(|np| {
                worker.record_prune(&np.prune);
                worker.run(&np.afcs, &np.prune.verdicts, &worker_tx)
            }),
        });
    };

    // Streaming ordered reassembly (see `Absorber` above): morsel
    // workers ship in whatever order stealing produced, but every
    // block carries its node and plan-time sequence tag (the starting
    // scanned ordinal), so draining per-node buffers in ascending seq
    // and concatenating runs node-major reconstructs exactly the
    // serial schedule order. This is what makes results bit-identical
    // across thread counts and steal orders — without holding the
    // whole result in the reorder buffer.
    let mut absorber =
        Absorber::new(opts.client_processors, node_count, &output_schema, absorb_agg, &mover_stats);

    // Drain messages until `want` Done messages arrive. Always drains
    // to completion — a cancelled query still collects every node's
    // Done, so no fragment is left running or blocked on the mover.
    // The simulated client link is charged here, on the absorbing
    // side: concurrent sessions overlap their transfer stalls, and a
    // cancelled one skips the remaining sleeps (the error surfaces
    // from the final checkpoint) while still collecting every Done.
    let drain = |want: usize,
                 absorber: &mut Absorber,
                 node_busy: &mut Vec<std::time::Duration>,
                 first_error: &mut Option<DvError>| {
        let mut done = 0usize;
        for msg in rx.iter() {
            match msg {
                MoverMessage::Block { processor, seq, block } => {
                    let _ = absorb_transfer(opts.bandwidth.as_ref(), block.wire_bytes(), cancel);
                    absorber.on_data(processor, block.source_node, seq, Shipped::Rows(block));
                }
                MoverMessage::Columns { processor, seq, block } => {
                    let _ = absorb_transfer(opts.bandwidth.as_ref(), block.wire_bytes(), cancel);
                    absorber.on_data(processor, block.source_node, seq, Shipped::Cols(block));
                }
                MoverMessage::Rows { processor, node, seq, wire_bytes, rows } => {
                    let _ = absorb_transfer(opts.bandwidth.as_ref(), wire_bytes, cancel);
                    absorber.on_data(processor, node, seq, Shipped::Built(rows));
                }
                MoverMessage::Agg { block, .. } => {
                    let _ = absorb_transfer(opts.bandwidth.as_ref(), block.wire_bytes(), cancel);
                    absorber.on_agg(block);
                }
                MoverMessage::MorselDone { node, base, rows } => {
                    absorber.on_morsel_done(node, base, rows);
                }
                MoverMessage::Done { node, result, busy } => {
                    absorber.on_node_done(node);
                    done += 1;
                    node_busy.push(busy);
                    if let Err(e) = result {
                        first_error.get_or_insert(e);
                    }
                    if done == want {
                        break;
                    }
                }
            }
        }
    };

    if opts.sequential_nodes {
        for node in 0..node_count {
            dispatch(node, &tx);
            drain(1, &mut absorber, &mut node_busy, &mut first_error);
        }
    } else {
        for node in 0..node_count {
            dispatch(node, &tx);
        }
        drain(node_count, &mut absorber, &mut node_busy, &mut first_error);
    }
    drop(tx);
    stats.exec_time = exec_start.elapsed();
    stats.node_busy = node_busy;
    if let Some(e) = first_error {
        return Err(e);
    }
    // All nodes succeeded, but a deadline may have expired between
    // their last checkpoint and here; a cancelled query must not
    // return a (possibly complete) result as if nothing happened.
    cancel.check()?;

    // Move the drained runs into the client tables; for aggregate
    // queries, merge and finalize the collected partials instead —
    // aggregate results are always delivered whole to processor 0.
    let agg_state = absorber.finish(&mut tables);
    if let (Some(agg), Some(aprep)) = (agg_state, prep.agg.as_ref()) {
        finalize_agg(agg, aprep, &core.compiled.model.schema, &mut tables[0]);
    }

    stats.rows_scanned = rows_scanned.load(Ordering::Relaxed);
    stats.rows_selected = rows_selected.load(Ordering::Relaxed);
    stats.bytes_read = bytes_read.load(Ordering::Relaxed);
    stats.bytes_moved = bytes_moved.load(Ordering::Relaxed);
    stats.afcs = afc_count.load(Ordering::Relaxed);
    stats.groups_total = prune_total.load(Ordering::Relaxed);
    stats.groups_pruned = prune_pruned.load(Ordering::Relaxed);
    stats.groups_full = prune_full.load(Ordering::Relaxed);
    stats.bytes_avoided = prune_bytes_avoided.load(Ordering::Relaxed);
    stats.io = io_stats.snapshot();
    stats.mover = mover_stats.snapshot();
    stats.morsels = morsel_stats.snapshot();

    // DV_COST_VALIDATE=1: assert, on every successful drain, that each
    // runtime counter stayed within its static bound — the soundness
    // contract of the dv-cost analysis, checked end to end.
    if let Some(report) = &cost_report {
        if cost_validate {
            let counters = RuntimeCounters {
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
            };
            let violations = report.validate(&counters);
            if !violations.is_empty() {
                let list = violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ");
                return Err(DvError::Runtime(format!(
                    "DV_COST_VALIDATE: runtime counters escaped their static bounds: {list}"
                )));
            }
        }
    }
    Ok((tables, stats))
}

/// True when the environment asks every session to check its runtime
/// counters against the static cost bounds at drain time.
fn cost_validate_enabled() -> bool {
    std::env::var("DV_COST_VALIDATE").map(|v| v == "1").unwrap_or(false)
}
