//! Per-node executor services.
//!
//! An [`ExecutorService`] runs one node's plan fragments on that
//! node's long-lived [`Cluster`] worker. It owns the contract between
//! the service plane and the cluster: every spawned fragment reports
//! completion with a `MoverMessage::Done` — even when it errors or
//! panics — so the session's drain loop can always account for all
//! nodes, and a panicking UDF becomes a query error instead of a dead
//! node thread.
//!
//! [`NodeWorker`] is the fragment body: morsel-driven parallel
//! execution of the node's AFC schedule. The schedule is split at
//! plan time into byte-budgeted, coalesce-group-aligned morsels
//! ([`dv_layout::MorselPlan`]); a pool of workers (sized by
//! `QueryOptions::intra_node_threads`, capped by the service config)
//! claims morsels from per-worker deques and steals from the most
//! loaded peer when its own runs dry, so one skewed file cannot
//! serialize the node. Results are bit-identical to serial execution
//! regardless of steal order because every morsel carries its
//! plan-time scanned-ordinal base: round-robin partitioning keys on
//! global scanned ordinals and every mover block is tagged with its
//! starting ordinal for ordered reassembly at the absorber. One
//! [`SharedPrefetcher`] per node serves the whole pool, so readahead
//! memory stays bounded by `IoOptions::prefetch_depth` — not by the
//! worker count. Workers checkpoint the query's [`CancelToken`] in
//! the claim/steal loop and at every block boundary.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use dv_layout::io::{FetchedGroup, IoScheduler, IoStats};
use dv_layout::{Afc, Extractor, Morsel, MorselPlan, PruneCertificate, PruneVerdict, SegmentCache};
use dv_sql::eval::EvalContext;
use dv_sql::{BoundExpr, UdfRegistry};
use dv_types::{
    AggBlock, AggFunc, AggTable, CancelToken, ColumnBlock, DataType, DvError, Result, RowBlock,
};

use crate::cluster::Cluster;
use crate::filter::{filter_block, filter_columns, project_block};
use crate::mover::{
    send_agg, send_block, send_columns, send_morsel_done, MoverMessage, MoverStats,
};
use crate::options::{ExecMode, QueryOptions};
use crate::partition::{partition_block, partition_columns};
use crate::stats::MorselStats;

/// One node's executor: dispatches plan fragments onto the node's
/// cluster worker and guarantees a `Done` report per fragment.
pub struct ExecutorService {
    node: usize,
    cluster: Arc<Cluster>,
}

impl ExecutorService {
    /// An executor for `node`, running on `cluster`'s worker threads.
    pub fn new(node: usize, cluster: Arc<Cluster>) -> ExecutorService {
        ExecutorService { node, cluster }
    }

    /// The node this executor serves.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Run `fragment` on this node's worker. The fragment's outcome —
    /// including a panic, converted to a runtime error — is always
    /// reported to `tx` as `MoverMessage::Done` with the fragment's
    /// busy time, so the session can never lose track of a node.
    pub fn spawn_fragment<F>(&self, tx: Sender<MoverMessage>, fragment: F)
    where
        F: FnOnce() -> Result<()> + Send + 'static,
    {
        let node = self.node;
        self.cluster.run_on(node, move || {
            let busy_start = Instant::now();
            let result = match catch_unwind(AssertUnwindSafe(fragment)) {
                Ok(r) => r,
                Err(payload) => Err(DvError::Runtime(format!(
                    "node {node} fragment panicked: {}",
                    panic_message(payload.as_ref())
                ))),
            };
            let _ = tx.send(MoverMessage::Done { node, result, busy: busy_start.elapsed() });
        });
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Per-morsel jitter for the steal-order shuffling test hook
/// (`DV_MORSEL_JITTER=<ms>`): a deterministic pseudo-random sleep in
/// `0..budget_ms`, keyed by `(node, morsel seq)` so runs are
/// reproducible while execution interleaving varies wildly.
fn morsel_jitter_ms(node: usize, seq: usize, budget_ms: u64) -> u64 {
    let mut h = (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (seq as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 29;
    h % budget_ms.max(1)
}

fn jitter_budget_ms() -> u64 {
    std::env::var("DV_MORSEL_JITTER").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Work-stealing morsel queues for one node's pool.
///
/// Each worker seeds from a contiguous, byte-balanced run of the
/// morsel plan ([`MorselPlan::assign`]) and pops from its own front
/// (schedule order, keeps its I/O sequential). A worker whose queue
/// runs dry steals from the *back* of the most-loaded victim (by
/// remaining bytes), taking the work its owner would reach last.
struct StealQueue {
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Remaining queued bytes per worker — the victim-selection
    /// heuristic. Maintained under the queue lock, read without it.
    remaining: Vec<AtomicU64>,
    /// Morsel byte weights, indexed by morsel id.
    weights: Vec<u64>,
    /// Raised on the first worker error so peers stop claiming.
    abort: AtomicBool,
}

impl StealQueue {
    fn new(plan: &MorselPlan, workers: usize) -> StealQueue {
        let weights: Vec<u64> = plan.morsels.iter().map(|m| m.bytes).collect();
        let mut queues = Vec::with_capacity(workers);
        let mut remaining = Vec::with_capacity(workers);
        for q in plan.assign(workers) {
            remaining.push(AtomicU64::new(q.iter().map(|&m| weights[m]).sum()));
            queues.push(Mutex::new(q.into_iter().collect()));
        }
        StealQueue { queues, remaining, weights, abort: AtomicBool::new(false) }
    }

    fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    fn pop(&self, q: usize, front: bool) -> Option<usize> {
        let mut guard = self.queues[q].lock().expect("morsel queue poisoned");
        match if front { guard.pop_front() } else { guard.pop_back() } {
            Some(m) => {
                self.remaining[q].fetch_sub(self.weights[m], Ordering::Relaxed);
                Some(m)
            }
            None => {
                // Settle the counter so victim scans converge even if
                // a stale `remaining` read raced a concurrent pop.
                self.remaining[q].store(0, Ordering::Relaxed);
                None
            }
        }
    }

    /// Next morsel for `wid`: own queue first, else steal. Returns the
    /// morsel id and whether it was stolen; `None` when every queue is
    /// empty (zero-weight morsels are always drained by their owner,
    /// so an owner never exits while its own queue holds work).
    fn claim(&self, wid: usize) -> Option<(usize, bool)> {
        if let Some(m) = self.pop(wid, true) {
            return Some((m, false));
        }
        loop {
            let mut best = None;
            let mut best_bytes = 0u64;
            for (v, rem) in self.remaining.iter().enumerate() {
                if v == wid {
                    continue;
                }
                let b = rem.load(Ordering::Relaxed);
                if b > best_bytes {
                    best_bytes = b;
                    best = Some(v);
                }
            }
            let v = best?;
            if let Some(m) = self.pop(v, false) {
                return Some((m, true));
            }
        }
    }
}

/// The single per-node prefetcher serving the whole worker pool.
///
/// One background thread walks the node's coalesce groups in schedule
/// order, keeping at most `depth` fetched groups in flight or parked
/// — readahead memory is bounded by `IoOptions::prefetch_depth`
/// regardless of worker count (the old design ran one prefetcher per
/// stripe thread). Workers [`SharedPrefetcher::take`] the group they
/// need: a parked group is a prefetch hit; a group the prefetcher is
/// mid-fetch on is waited for (counted as a prefetch wait); anything
/// else the worker claims and fetches synchronously through the same
/// shared [`IoScheduler`], so per-query segment-cache accounting stays
/// on one scheduler per node.
struct SharedPrefetcher<'a> {
    scheduler: &'a IoScheduler,
    afcs: &'a [Afc],
    groups: &'a [Range<usize>],
    io_stats: &'a IoStats,
    depth: usize,
    state: Mutex<PrefetchState>,
    /// Signaled when a parked group is consumed or shutdown is raised.
    space: Condvar,
    /// Signaled when an in-flight fetch lands (or shutdown).
    ready: Condvar,
}

struct PrefetchState {
    /// Fetched groups parked until a worker takes them.
    parked: HashMap<usize, Result<FetchedGroup>>,
    /// Groups handed out (taken or being fetched synchronously by a
    /// worker) — the prefetcher skips them.
    claimed: Vec<bool>,
    /// The group the prefetcher is currently reading, if any.
    inflight: Option<usize>,
    /// The prefetcher's scan cursor over the group list.
    next: usize,
    /// Parked + in-flight groups, bounded by `depth`.
    occupancy: usize,
    shutdown: bool,
}

impl<'a> SharedPrefetcher<'a> {
    fn new(
        scheduler: &'a IoScheduler,
        afcs: &'a [Afc],
        groups: &'a [Range<usize>],
        io_stats: &'a IoStats,
        depth: usize,
    ) -> SharedPrefetcher<'a> {
        SharedPrefetcher {
            scheduler,
            afcs,
            groups,
            io_stats,
            depth: depth.max(1),
            state: Mutex::new(PrefetchState {
                parked: HashMap::new(),
                claimed: vec![false; groups.len()],
                inflight: None,
                next: 0,
                occupancy: 0,
                shutdown: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
        }
    }

    /// The prefetcher thread body. Exits on shutdown, at the end of
    /// the schedule, or after parking a failed fetch (the taker
    /// surfaces the error; fetching further groups would waste I/O).
    fn run(&self) {
        loop {
            let g = {
                let mut st = self.state.lock().expect("prefetch state poisoned");
                loop {
                    if st.shutdown {
                        return;
                    }
                    while st.next < self.groups.len()
                        && (st.claimed[st.next] || st.parked.contains_key(&st.next))
                    {
                        st.next += 1;
                    }
                    if st.next >= self.groups.len() {
                        return;
                    }
                    if st.occupancy >= self.depth {
                        st = self.space.wait(st).expect("prefetch state poisoned");
                        continue;
                    }
                    let g = st.next;
                    st.next += 1;
                    st.inflight = Some(g);
                    st.occupancy += 1;
                    break g;
                }
            };
            let fetched = self.scheduler.fetch(&self.afcs[self.groups[g].clone()]);
            let failed = fetched.is_err();
            let mut st = self.state.lock().expect("prefetch state poisoned");
            st.inflight = None;
            st.parked.insert(g, fetched);
            self.ready.notify_all();
            if failed || st.shutdown {
                return;
            }
        }
    }

    /// Hand group `g` to the calling worker (parked, awaited, or
    /// fetched synchronously — see the type docs).
    fn take(&self, g: usize) -> Result<FetchedGroup> {
        let mut wait_start: Option<Instant> = None;
        let record_wait = |start: Option<Instant>| {
            if let Some(s) = start {
                self.io_stats
                    .prefetch_wait_ns
                    .fetch_add(s.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        };
        let mut st = self.state.lock().expect("prefetch state poisoned");
        loop {
            if let Some(r) = st.parked.remove(&g) {
                st.claimed[g] = true;
                st.occupancy -= 1;
                self.space.notify_all();
                drop(st);
                if wait_start.is_none() {
                    self.io_stats.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                }
                record_wait(wait_start);
                return r;
            }
            if st.inflight == Some(g) {
                if wait_start.is_none() {
                    wait_start = Some(Instant::now());
                    self.io_stats.prefetch_waits.fetch_add(1, Ordering::Relaxed);
                }
                st = self.ready.wait(st).expect("prefetch state poisoned");
                continue;
            }
            // Not parked, not in flight: fetch it on this worker.
            st.claimed[g] = true;
            drop(st);
            record_wait(wait_start);
            return self.scheduler.fetch(&self.afcs[self.groups[g].clone()]);
        }
    }

    /// Wake and retire the prefetcher thread (idempotent). Runs while
    /// a panic unwinds, so a poisoned lock is taken over, not a
    /// second panic.
    fn shutdown(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        self.space.notify_all();
        self.ready.notify_all();
    }
}

/// Calls [`SharedPrefetcher::shutdown`] when dropped, so every way out
/// of the pool — including unwinding — releases the prefetcher thread.
struct ShutdownOnDrop<'p, 'a>(&'p SharedPrefetcher<'a>);

impl Drop for ShutdownOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Accumulator-table entries buffered in a worker's outgoing
/// [`AggBlock`] before it is handed to the mover. Large enough to
/// amortize per-message overhead, small enough that partials stream
/// out during the scan instead of piling up per worker.
const AGG_FLUSH_ENTRIES: usize = 4096;

/// Per-query aggregation context for one node's workers: the functions
/// to fold plus the positions of group keys and arguments inside
/// *working* columns (folding runs before output projection).
pub(crate) struct AggExec {
    pub funcs: Vec<AggFunc>,
    pub group_pos: Vec<usize>,
    pub arg_pos: Vec<Option<usize>>,
    /// `true` = nodes fold per-AFC partials and ship accumulators;
    /// `false` = ablation mode, nodes ship filtered rows (one block
    /// per AFC so the absorber can reproduce the same fold tree).
    pub pushdown: bool,
}

/// One worker's in-flight aggregation state for the current morsel:
/// a reusable per-AFC fold table and the outgoing block of drained
/// partials. Every AFC is folded whole by exactly one worker, so each
/// `(seq, key)` entry is produced exactly once per query — the
/// node-side "merge" across workers is pure union, never a float add.
struct AggSink {
    table: AggTable,
    out: AggBlock,
    rows_in: u64,
}

impl AggSink {
    fn new(node: usize, agg: &AggExec) -> AggSink {
        let key_width = agg.group_pos.len();
        AggSink {
            table: AggTable::new(&agg.funcs, key_width),
            out: AggBlock::new(node, key_width, &agg.funcs),
            rows_in: 0,
        }
    }
}

/// Everything one node needs to run the extraction → filter →
/// partition → move pipeline for one query.
pub(crate) struct NodeWorker {
    pub node: usize,
    pub extractor: Extractor,
    pub udfs: Arc<UdfRegistry>,
    pub predicate: Arc<Option<BoundExpr>>,
    pub working_attrs: Arc<Vec<usize>>,
    pub working_dtypes: Arc<Vec<DataType>>,
    pub output_positions: Arc<Vec<usize>>,
    pub schema_len: usize,
    pub opts: QueryOptions,
    pub cancel: CancelToken,
    pub rows_scanned: Arc<AtomicU64>,
    pub rows_selected: Arc<AtomicU64>,
    pub bytes_read: Arc<AtomicU64>,
    pub bytes_moved: Arc<AtomicU64>,
    pub afc_count: Arc<AtomicU64>,
    pub prune_total: Arc<AtomicU64>,
    pub prune_pruned: Arc<AtomicU64>,
    pub prune_full: Arc<AtomicU64>,
    pub prune_bytes_avoided: Arc<AtomicU64>,
    pub io_stats: Arc<IoStats>,
    pub mover_stats: Arc<MoverStats>,
    pub morsel_stats: Arc<MorselStats>,
    pub segment_cache: Arc<SegmentCache>,
    /// Aggregation context (`None` = plain scan query).
    pub agg: Option<Arc<AggExec>>,
}

impl NodeWorker {
    /// Fold a node plan's prune accounting into the session counters.
    pub(crate) fn record_prune(&self, cert: &PruneCertificate) {
        self.prune_total.fetch_add(cert.groups_total, Ordering::Relaxed);
        self.prune_pruned.fetch_add(cert.groups_pruned, Ordering::Relaxed);
        self.prune_full.fetch_add(cert.groups_full, Ordering::Relaxed);
        self.prune_bytes_avoided.fetch_add(cert.bytes_avoided, Ordering::Relaxed);
    }

    /// Run the node's AFC schedule morsel-parallel. `verdicts` is
    /// parallel to `afcs` (the plan's [`PruneCertificate`]); `Full`
    /// chunks skip the filter kernel whenever an entire batch is
    /// provably satisfying.
    pub(crate) fn run(
        &self,
        afcs: &[Afc],
        verdicts: &[PruneVerdict],
        tx: &Sender<MoverMessage>,
    ) -> Result<()> {
        debug_assert_eq!(afcs.len(), verdicts.len());
        let threads = self.opts.intra_node_threads.max(1);
        let plan =
            MorselPlan::build(afcs, self.opts.io.group_bytes, threads, self.opts.morsel_bytes);
        let workers = plan.worker_count(threads);
        if workers == 0 {
            return Ok(());
        }
        self.morsel_stats.planned.fetch_add(plan.morsels.len() as u64, Ordering::Relaxed);
        self.morsel_stats.workers.fetch_add(workers as u64, Ordering::Relaxed);
        self.morsel_stats.target_bytes.fetch_max(plan.target_bytes, Ordering::Relaxed);

        // One shared [`IoScheduler`] per node — the only source of
        // bytes for either engine — and (with readahead on) one
        // [`SharedPrefetcher`] serving every pool worker.
        let scheduler = IoScheduler::new(
            self.extractor.clone(),
            self.opts.io.clone(),
            Some(Arc::clone(&self.segment_cache)),
            Arc::clone(&self.io_stats),
        )
        .with_cancel(self.cancel.clone());

        if !self.opts.io.readahead || plan.groups.len() < 2 {
            let fetch = |gi: usize| scheduler.fetch(&afcs[plan.groups[gi].clone()]);
            return self.run_pool(&plan, workers, &|m: &Morsel| {
                self.run_morsel(afcs, verdicts, &plan, m, &fetch, tx)
            });
        }

        let prefetcher = SharedPrefetcher::new(
            &scheduler,
            afcs,
            &plan.groups,
            &self.io_stats,
            self.opts.io.prefetch_depth,
        );
        std::thread::scope(|scope| {
            let pf = &prefetcher;
            scope.spawn(move || pf.run());
            // Worker 0 runs on this thread: however `run_pool` exits —
            // return or unwind — the prefetcher must be woken out of
            // its condvar waits, or the scope never joins it.
            let _shutdown = ShutdownOnDrop(pf);
            let fetch = |gi: usize| pf.take(gi);
            self.run_pool(&plan, workers, &|m: &Morsel| {
                self.run_morsel(afcs, verdicts, &plan, m, &fetch, tx)
            })
        })
    }

    /// Run the pool: `workers` threads (the fragment thread counts as
    /// worker 0) claiming and stealing morsels until the plan drains.
    /// A single worker runs the same claim loop inline — the serial
    /// path and the parallel path share every line of semantics.
    fn run_pool<F>(&self, plan: &MorselPlan, workers: usize, run_morsel: &F) -> Result<()>
    where
        F: Fn(&Morsel) -> Result<()> + Sync,
    {
        let queue = StealQueue::new(plan, workers);
        let jitter_ms = jitter_budget_ms();
        if workers == 1 {
            return self.worker_loop(0, &queue, plan, jitter_ms, run_morsel);
        }
        std::thread::scope(|scope| {
            let queue = &queue;
            let mut handles = Vec::with_capacity(workers - 1);
            for wid in 1..workers {
                handles.push(
                    scope.spawn(move || self.worker_loop(wid, queue, plan, jitter_ms, run_morsel)),
                );
            }
            let mut first = self.worker_loop(0, queue, plan, jitter_ms, run_morsel).err();
            for h in handles {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        first.get_or_insert(e);
                    }
                    Err(payload) => {
                        first.get_or_insert(DvError::Runtime(format!(
                            "node {} morsel worker panicked: {}",
                            self.node,
                            panic_message(payload.as_ref())
                        )));
                    }
                }
            }
            match first {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })
    }

    /// One worker's life: claim (or steal) morsels until the queues
    /// drain, an error aborts the pool, or the query is cancelled.
    /// The cancel checkpoint sits inside the claim loop, so a
    /// cancelled query stops before touching the next morsel on every
    /// worker — no orphaned work behind a dead session.
    fn worker_loop<F>(
        &self,
        wid: usize,
        queue: &StealQueue,
        plan: &MorselPlan,
        jitter_ms: u64,
        run_morsel: &F,
    ) -> Result<()>
    where
        F: Fn(&Morsel) -> Result<()> + Sync,
    {
        let span_start = Instant::now();
        let mut active = Duration::ZERO;
        let mut bytes = 0u64;
        let result = loop {
            if queue.aborted() {
                break Ok(());
            }
            if let Err(e) = self.cancel.check() {
                break Err(e);
            }
            let Some((m, stolen)) = queue.claim(wid) else { break Ok(()) };
            if stolen {
                self.morsel_stats.stolen.fetch_add(1, Ordering::Relaxed);
            }
            let morsel = &plan.morsels[m];
            if jitter_ms > 0 {
                std::thread::sleep(Duration::from_millis(morsel_jitter_ms(
                    self.node, morsel.seq, jitter_ms,
                )));
            }
            let work_start = Instant::now();
            let r = run_morsel(morsel);
            active += work_start.elapsed();
            bytes += morsel.bytes;
            if let Err(e) = r {
                break Err(e);
            }
        };
        if result.is_err() {
            queue.abort();
        }
        self.morsel_stats.worker_bytes_min.fetch_min(bytes, Ordering::Relaxed);
        self.morsel_stats.worker_bytes_max.fetch_max(bytes, Ordering::Relaxed);
        self.morsel_stats.pool_wait_ns.fetch_add(
            span_start.elapsed().saturating_sub(active).as_nanos() as u64,
            Ordering::Relaxed,
        );
        result
    }

    /// One morsel of either engine: fetch each of its coalesce groups
    /// (via `fetch` — the shared prefetcher or a synchronous scheduler
    /// call) and hand the bytes to the engine's block body. The
    /// scanned-ordinal cursor starts at the morsel's plan-time base.
    fn run_morsel(
        &self,
        afcs: &[Afc],
        verdicts: &[PruneVerdict],
        plan: &MorselPlan,
        m: &Morsel,
        fetch: &(dyn Fn(usize) -> Result<FetchedGroup> + Sync),
        tx: &Sender<MoverMessage>,
    ) -> Result<()> {
        let cx = EvalContext::new(self.schema_len, &self.working_attrs, &self.udfs);
        let mut sink = self.new_sink();
        let mut cursor = m.base_rows;
        for gi in m.groups.clone() {
            self.cancel.check()?;
            let g = plan.groups[gi].clone();
            let fetched = fetch(gi)?;
            let (afcs, verdicts) = (&afcs[g.clone()], &verdicts[g]);
            match self.opts.exec {
                ExecMode::Columnar => {
                    self.decode_and_ship(afcs, verdicts, &fetched, &cx, &mut cursor, &mut sink, tx)?
                }
                ExecMode::RowAtATime => self.decode_and_ship_rows(
                    afcs,
                    verdicts,
                    &fetched,
                    &cx,
                    &mut cursor,
                    &mut sink,
                    tx,
                )?,
            }
        }
        self.finish_morsel(m, cursor, sink, tx)
    }

    /// Decode one fetched working-set group into blocks of at most
    /// `batch_rows` and run each through filter → project → partition
    /// → move. Aggregate queries cap every block at a single AFC — the
    /// canonical float-fold unit — so block sequence tags identify AFCs
    /// in pushdown and ablation mode alike.
    #[allow(clippy::too_many_arguments)]
    fn decode_and_ship(
        &self,
        afcs: &[Afc],
        verdicts: &[PruneVerdict],
        fetched: &FetchedGroup,
        cx: &EvalContext,
        cursor: &mut u64,
        sink: &mut Option<AggSink>,
        tx: &Sender<MoverMessage>,
    ) -> Result<()> {
        let batch_cap = if self.agg.is_some() { 0 } else { self.opts.batch_rows as u64 };
        let mut i = 0usize;
        while i < afcs.len() {
            let mut block = ColumnBlock::with_dtypes(self.node, &self.working_dtypes);
            let mut batched_rows = 0u64;
            let mut all_full = true;
            while i < afcs.len() && (batched_rows == 0 || batched_rows < batch_cap) {
                let afc = &afcs[i];
                self.extractor.extract_columns_fetched(afc, &mut block, fetched)?;
                self.bytes_read.fetch_add(afc.bytes_read(), Ordering::Relaxed);
                self.afc_count.fetch_add(1, Ordering::Relaxed);
                all_full &= verdicts[i] == PruneVerdict::Full;
                batched_rows += afc.num_rows;
                i += 1;
            }
            match sink {
                Some(s) => self.fold_columns(block, all_full, cx, cursor, s, tx)?,
                None => self.ship_columns(block, all_full, cx, cursor, tx)?,
            }
        }
        Ok(())
    }

    /// A fresh aggregation sink when this query folds node-side.
    fn new_sink(&self) -> Option<AggSink> {
        self.agg.as_ref().filter(|a| a.pushdown).map(|a| AggSink::new(self.node, a))
    }

    /// End-of-morsel bookkeeping: flush the aggregation sink (if any),
    /// then post the advisory `MorselDone` marker. `cursor` is the
    /// scanned ordinal after the morsel's last block, so `cursor - base`
    /// is exactly the morsel's pre-filter row span.
    fn finish_morsel(
        &self,
        m: &Morsel,
        cursor: u64,
        sink: Option<AggSink>,
        tx: &Sender<MoverMessage>,
    ) -> Result<()> {
        if let Some(mut s) = sink {
            self.flush_agg(&mut s, tx)?;
        }
        send_morsel_done(tx, self.node, m.base_rows, cursor - m.base_rows)
    }

    /// Filter one single-AFC block and fold the survivors into the
    /// worker's aggregation sink (pushdown path). The partials drain
    /// into the outgoing block tagged with the AFC's scanned ordinal;
    /// the absorber leftfolds them per group in `(node, seq)` order,
    /// reproducing the serial fold bit for bit.
    fn fold_columns(
        &self,
        mut block: ColumnBlock,
        skip_filter: bool,
        cx: &EvalContext,
        cursor: &mut u64,
        sink: &mut AggSink,
        tx: &Sender<MoverMessage>,
    ) -> Result<()> {
        self.cancel.check()?;
        let seq = *cursor;
        let scanned = block.len() as u64;
        *cursor += scanned;
        self.rows_scanned.fetch_add(scanned, Ordering::Relaxed);

        let predicate = if skip_filter { None } else { self.predicate.as_ref().as_ref() };
        filter_columns(&mut block, predicate, cx);
        self.rows_selected.fetch_add(block.selected() as u64, Ordering::Relaxed);
        if block.is_empty() {
            return Ok(());
        }

        let agg = self.agg.as_ref().expect("fold_columns requires aggregation context");
        sink.table.clear();
        sink.rows_in += sink.table.fold_block(&block, &agg.group_pos, &agg.arg_pos);
        sink.table.drain_into(seq, &mut sink.out);
        if sink.out.len() >= AGG_FLUSH_ENTRIES {
            self.flush_agg(sink, tx)?;
        }
        Ok(())
    }

    /// Ship the sink's buffered partials. Aggregate results are always
    /// delivered whole to client processor 0 (partitioning a handful
    /// of groups would only fragment them).
    fn flush_agg(&self, sink: &mut AggSink, tx: &Sender<MoverMessage>) -> Result<()> {
        if sink.out.is_empty() {
            sink.rows_in = 0;
            return Ok(());
        }
        let agg = self.agg.as_ref().expect("flush_agg requires aggregation context");
        let block = std::mem::replace(
            &mut sink.out,
            AggBlock::new(self.node, agg.group_pos.len(), &agg.funcs),
        );
        let bytes = send_agg(tx, 0, block, sink.rows_in, &self.mover_stats)?;
        self.bytes_moved.fetch_add(bytes as u64, Ordering::Relaxed);
        sink.rows_in = 0;
        Ok(())
    }

    /// Filter → project → partition → move one columnar block. When
    /// every AFC in the block carried a `Full` prune verdict the
    /// predicate is provably true for all rows, so the filter kernel
    /// runs with no predicate (select-all). `cursor` is the block's
    /// starting scanned ordinal; it advances by the block's pre-filter
    /// row count, keeping partition assignment and the mover sequence
    /// tag pure functions of the scan schedule.
    fn ship_columns(
        &self,
        mut block: ColumnBlock,
        skip_filter: bool,
        cx: &EvalContext,
        cursor: &mut u64,
        tx: &Sender<MoverMessage>,
    ) -> Result<()> {
        self.cancel.check()?;
        let seq = *cursor;
        let scanned = block.len() as u64;
        *cursor += scanned;
        self.rows_scanned.fetch_add(scanned, Ordering::Relaxed);

        let predicate = if skip_filter { None } else { self.predicate.as_ref().as_ref() };
        filter_columns(&mut block, predicate, cx);
        self.rows_selected.fetch_add(block.selected() as u64, Ordering::Relaxed);
        if block.is_empty() {
            return Ok(());
        }

        block.project(&self.output_positions);

        // A plain scan delivers these rows, so a sender facing a full
        // channel may rebuild them; an aggregate query without
        // pushdown has the absorber fold the block column-wise.
        let rows_for = self.agg.is_none().then_some(&self.cancel);
        if self.opts.client_processors == 1 {
            let bytes = send_columns(tx, 0, seq, block, rows_for, &self.mover_stats)?;
            self.bytes_moved.fetch_add(bytes as u64, Ordering::Relaxed);
        } else {
            let parts =
                partition_columns(block, &self.opts.partition, self.opts.client_processors, seq);
            for (p, part) in parts.into_iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                let bytes = send_columns(tx, p, seq, part, rows_for, &self.mover_stats)?;
                self.bytes_moved.fetch_add(bytes as u64, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The row-at-a-time block body (the differential oracle): decode
    /// one fetched group into row blocks and filter → project →
    /// partition → move each. Same scanned-ordinal semantics as the
    /// columnar body: the filter reports survivors' pre-filter indices
    /// and partition assignment keys on them.
    #[allow(clippy::too_many_arguments)]
    fn decode_and_ship_rows(
        &self,
        afcs: &[Afc],
        verdicts: &[PruneVerdict],
        fetched: &FetchedGroup,
        cx: &EvalContext,
        cursor: &mut u64,
        sink: &mut Option<AggSink>,
        tx: &Sender<MoverMessage>,
    ) -> Result<()> {
        let batch_cap = if self.agg.is_some() { 0 } else { self.opts.batch_rows as u64 };
        let mut i = 0usize;
        while i < afcs.len() {
            self.cancel.check()?;
            // Batch AFCs until the block reaches the target row count
            // (aggregate queries: exactly one AFC per block).
            let mut block = RowBlock::new(self.node);
            let mut batched_rows = 0u64;
            let mut all_full = true;
            while i < afcs.len() && (batched_rows == 0 || batched_rows < batch_cap) {
                let afc = &afcs[i];
                self.extractor.extract_rows_fetched(afc, &mut block, fetched)?;
                self.bytes_read.fetch_add(afc.bytes_read(), Ordering::Relaxed);
                self.afc_count.fetch_add(1, Ordering::Relaxed);
                all_full &= verdicts[i] == PruneVerdict::Full;
                batched_rows += afc.num_rows;
                i += 1;
            }
            let seq = *cursor;
            *cursor += batched_rows;
            self.rows_scanned.fetch_add(block.len() as u64, Ordering::Relaxed);

            let predicate = if all_full { None } else { self.predicate.as_ref().as_ref() };
            let kept = filter_block(&mut block, predicate, cx);
            self.rows_selected.fetch_add(block.len() as u64, Ordering::Relaxed);
            if block.is_empty() {
                continue;
            }

            if let Some(s) = sink.as_mut() {
                // Row-engine fold: same rows, same scan order, same
                // fold tree as the columnar kernel.
                let agg = self.agg.as_ref().expect("sink implies aggregation context");
                s.table.clear();
                for row in &block.rows {
                    s.table.fold_values(row, &agg.group_pos, &agg.arg_pos);
                }
                s.rows_in += block.rows.len() as u64;
                s.table.drain_into(seq, &mut s.out);
                if s.out.len() >= AGG_FLUSH_ENTRIES {
                    self.flush_agg(s, tx)?;
                }
                continue;
            }

            project_block(&mut block, &self.output_positions);

            if self.opts.client_processors == 1 {
                let bytes = send_block(tx, 0, seq, block, &self.mover_stats)?;
                self.bytes_moved.fetch_add(bytes as u64, Ordering::Relaxed);
            } else {
                let parts = partition_block(
                    block,
                    &self.opts.partition,
                    self.opts.client_processors,
                    seq,
                    Some(&kept),
                );
                for (p, part) in parts.into_iter().enumerate() {
                    if part.is_empty() {
                        continue;
                    }
                    let bytes = send_block(tx, p, seq, part, &self.mover_stats)?;
                    self.bytes_moved.fetch_add(bytes as u64, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn fragment_panic_reports_done_with_error() {
        let cluster = Arc::new(Cluster::new(1));
        let exec = ExecutorService::new(0, Arc::clone(&cluster));
        let (tx, rx) = unbounded();
        exec.spawn_fragment(tx, || panic!("udf exploded"));
        match rx.recv().unwrap() {
            MoverMessage::Done { node, result, .. } => {
                assert_eq!(node, 0);
                let err = result.unwrap_err();
                assert!(err.to_string().contains("udf exploded"), "{err}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The node worker survived the panic and still runs fragments.
        let (tx, rx) = unbounded();
        exec.spawn_fragment(tx, || Ok(()));
        match rx.recv().unwrap() {
            MoverMessage::Done { result, .. } => assert!(result.is_ok()),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn plan_of(weights: &[u64]) -> MorselPlan {
        let morsels: Vec<Morsel> = weights
            .iter()
            .enumerate()
            .map(|(i, &b)| Morsel {
                seq: i,
                afcs: i..i + 1,
                groups: i..i + 1,
                base_rows: 0,
                bytes: b,
            })
            .collect();
        MorselPlan {
            groups: (0..weights.len()).map(|i| i..i + 1).collect(),
            morsels,
            target_bytes: 1,
            total_bytes: weights.iter().sum(),
        }
    }

    #[test]
    fn steal_queue_drains_every_morsel_exactly_once() {
        let plan = plan_of(&[10, 10, 10, 10, 10, 10, 10, 10]);
        let queue = StealQueue::new(&plan, 2);
        let mut seen = Vec::new();
        // Worker 1 never claims: worker 0 must steal the other half.
        let mut steals = 0;
        while let Some((m, stolen)) = queue.claim(0) {
            seen.push(m);
            if stolen {
                steals += 1;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_eq!(steals, 4, "the whole second queue is stolen");
    }

    #[test]
    fn steal_queue_prefers_most_loaded_victim() {
        let plan = plan_of(&[1, 100, 100, 1]);
        // Three workers: w0 gets morsel 0.. assignment is byte-based;
        // build queues manually via claim behavior instead: drain w2's
        // own queue first so only w0/w1 hold work, then steal.
        let queue = StealQueue::new(&plan, 3);
        while queue.pop(2, true).is_some() {}
        // w2 steals: must come from the back of the heaviest remaining
        // queue, never a lighter one while a heavier exists.
        let heaviest_before: u64 =
            (0..2).map(|v| queue.remaining[v].load(Ordering::Relaxed)).max().unwrap();
        let (m, stolen) = queue.claim(2).unwrap();
        assert!(stolen);
        let victim_had = heaviest_before;
        assert!(
            plan.morsels[m].bytes <= victim_had,
            "stole morsel {m} from a queue that held {victim_had} bytes"
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for seq in 0..64 {
            let a = morsel_jitter_ms(3, seq, 7);
            let b = morsel_jitter_ms(3, seq, 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
        // Different morsels actually shuffle.
        let distinct: std::collections::HashSet<u64> =
            (0..64).map(|s| morsel_jitter_ms(0, s, 1000)).collect();
        assert!(distinct.len() > 8);
    }
}
