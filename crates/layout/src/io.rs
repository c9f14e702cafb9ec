//! The I/O scheduler: run coalescing, double-buffered readahead, and
//! a cross-query segment cache — the one path between data files and
//! decode. Every engine obtains bytes through [`IoScheduler::fetch`].
//!
//! AFC plans describe *what* to read — one byte run per entry. This
//! module decides *how*: the byte runs of a working set (a group of
//! consecutive AFCs bounded by [`IoOptions::group_bytes`]) are sorted
//! per file and merged into large coalesced reads when the gap between
//! neighbouring runs is at most [`IoOptions::coalesce_gap`]; decoded
//! columns are then sliced out of the merged buffers. A background
//! prefetch thread (bounded crossbeam channel) fetches group `g+1`
//! while group `g` decodes, and a byte-budgeted LRU cache keyed by
//! `(file, coalesced range)` lets repeated or overlapping queries hit
//! warm segments instead of re-reading flat files. Cache entries carry
//! the file's `(len, mtime_nanos)` generation and are invalidated when
//! the file changes on disk — nanosecond mtimes so that two rewrites
//! within the same second cannot serve stale bytes.
//!
//! A file in a non-affine codec (CSV, zstd) has byte offsets only in
//! its decoded image, so it is fetched whole: the cache holds the
//! image as one entry `(file, 0, logical size)` and every scheduled
//! range of the file slices it. However many fetch groups, pool
//! workers and prefetchers want the file, a cold query decodes it once
//! — a per-file guard in the node's scheduler makes concurrent missers
//! wait for one decode — and a warm query not at all. The cache budget
//! is the only memory bound: an image that does not fit it (or a
//! scheduler without a cache) is decoded by each fetch call that needs
//! it and dropped with that call's [`FetchedGroup`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dv_types::{CancelToken, DvError, Result};

use crate::afc::Afc;
use crate::extract::Extractor;

/// Tuning knobs for the I/O scheduler, carried in
/// `QueryOptions::io`. The defaults enable the full pipeline; the
/// ablation benchmark and differential tests turn parts off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoOptions {
    /// Merge two runs of the same file when the byte gap between them
    /// is at most this (gap bytes are read and discarded).
    pub coalesce_gap: u64,
    /// Target working-set size: consecutive AFCs are grouped until
    /// their runs sum to this many bytes, and each group is fetched as
    /// one schedule.
    pub group_bytes: u64,
    /// Prefetch the next group on a background thread while the
    /// current one decodes.
    pub readahead: bool,
    /// Bounded depth of the prefetch channel (fetched groups queued
    /// ahead of the decoder).
    pub prefetch_depth: usize,
    /// Byte budget of the cross-query segment cache; 0 disables it.
    pub cache_bytes: u64,
}

impl Default for IoOptions {
    fn default() -> IoOptions {
        IoOptions {
            coalesce_gap: 64 * 1024,
            group_bytes: 8 * 1024 * 1024,
            readahead: true,
            prefetch_depth: 2,
            cache_bytes: 64 * 1024 * 1024,
        }
    }
}

impl IoOptions {
    /// The baseline configuration of the one path: no gap bridging,
    /// no segment cache, no readahead (adjacent and overlapping runs
    /// still merge). Tests and benches use it as their reference arm.
    pub fn plain() -> IoOptions {
        IoOptions { coalesce_gap: 0, readahead: false, cache_bytes: 0, ..IoOptions::default() }
    }
}

/// Shared atomic I/O counters, aggregated across node workers during
/// one query and snapshotted into `QueryStats`.
#[derive(Debug, Default)]
pub struct IoStats {
    /// `read` syscalls issued against data files.
    pub read_syscalls: AtomicU64,
    /// AFC byte runs scheduled (the pre-coalescing read count).
    pub runs_scheduled: AtomicU64,
    /// Bytes actually read from the filesystem.
    pub bytes_issued: AtomicU64,
    /// Bytes of scheduled runs consumed by decoding.
    pub bytes_used: AtomicU64,
    /// Bytes served from the segment cache.
    pub cache_hit_bytes: AtomicU64,
    /// Bytes that missed the segment cache and were read.
    pub cache_miss_bytes: AtomicU64,
    /// Prefetched groups that were ready when the decoder asked.
    pub prefetch_hits: AtomicU64,
    /// Groups the decoder had to wait for.
    pub prefetch_waits: AtomicU64,
    /// Total time the decoder spent waiting on the prefetcher.
    pub prefetch_wait_ns: AtomicU64,
    /// Bytes this query inserted into the shared segment cache (its
    /// footprint in the cross-query budget).
    pub cache_insert_bytes: AtomicU64,
    /// Whole-file codec decodes (CSV parses, zstd inflations) run to
    /// satisfy cache misses on non-affine files. A warm segment cache
    /// serves every scheduled range without this counter moving.
    pub decode_calls: AtomicU64,
    /// Logical bytes produced by those decodes.
    pub decode_bytes: AtomicU64,
}

impl IoStats {
    /// Copy the counters into a plain snapshot.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            read_syscalls: self.read_syscalls.load(Ordering::Relaxed),
            runs_scheduled: self.runs_scheduled.load(Ordering::Relaxed),
            bytes_issued: self.bytes_issued.load(Ordering::Relaxed),
            bytes_used: self.bytes_used.load(Ordering::Relaxed),
            cache_hit_bytes: self.cache_hit_bytes.load(Ordering::Relaxed),
            cache_miss_bytes: self.cache_miss_bytes.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_waits: self.prefetch_waits.load(Ordering::Relaxed),
            prefetch_wait: Duration::from_nanos(self.prefetch_wait_ns.load(Ordering::Relaxed)),
            cache_insert_bytes: self.cache_insert_bytes.load(Ordering::Relaxed),
            decode_calls: self.decode_calls.load(Ordering::Relaxed),
            decode_bytes: self.decode_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of [`IoStats`], carried in `QueryStats::io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// `read` syscalls issued against data files.
    pub read_syscalls: u64,
    /// AFC byte runs scheduled (the pre-coalescing read count).
    pub runs_scheduled: u64,
    /// Bytes actually read from the filesystem.
    pub bytes_issued: u64,
    /// Bytes of scheduled runs consumed by decoding.
    pub bytes_used: u64,
    /// Bytes served from the segment cache.
    pub cache_hit_bytes: u64,
    /// Bytes that missed the segment cache and were read.
    pub cache_miss_bytes: u64,
    /// Prefetched groups ready when the decoder asked.
    pub prefetch_hits: u64,
    /// Groups the decoder had to wait for.
    pub prefetch_waits: u64,
    /// Total decoder time spent waiting on the prefetcher.
    pub prefetch_wait: Duration,
    /// Bytes this query inserted into the shared segment cache.
    pub cache_insert_bytes: u64,
    /// Whole-file codec decodes run to satisfy cache misses.
    pub decode_calls: u64,
    /// Logical bytes produced by those decodes.
    pub decode_bytes: u64,
}

impl IoSnapshot {
    /// Scheduled runs per syscall (≥ 1 when coalescing merges reads;
    /// 0 when nothing ran through the scheduler).
    pub fn coalesce_ratio(&self) -> f64 {
        if self.read_syscalls == 0 {
            0.0
        } else {
            self.runs_scheduled as f64 / self.read_syscalls as f64
        }
    }

    /// Fraction of scheduled segment bytes served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hit_bytes + self.cache_miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.cache_hit_bytes as f64 / total as f64
        }
    }
}

/// A file's on-disk identity at scheduling time; a change invalidates
/// cached segments of that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileGen {
    /// Byte length.
    pub len: u64,
    /// Modification time in nanoseconds since the Unix epoch.
    /// Whole-second granularity is not enough: a file rewritten twice
    /// within one second would keep its `(len, mtime)` pair and the
    /// cache would serve the first rewrite's bytes.
    pub mtime_nanos: u128,
}

/// One coalesced read: a contiguous byte range of one file covering
/// one or more scheduled runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescedRead {
    /// File id in the dataset model.
    pub file: usize,
    /// First byte of the merged range.
    pub start: u64,
    /// Length of the merged range.
    pub len: u64,
}

/// Static coalescing summary of an AFC list (used by `explain` and
/// the scheduler's accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceSummary {
    /// Byte runs scheduled before merging.
    pub runs: u64,
    /// Coalesced reads after merging.
    pub reads: u64,
    /// Bytes the runs consume (duplicates counted per run).
    pub bytes_used: u64,
    /// Bytes the merged reads fetch (duplicates and gaps collapsed).
    pub bytes_issued: u64,
}

/// Merge the byte runs of `afcs` into per-file coalesced reads. Runs
/// whose gap is at most `gap` merge; overlapping runs (e.g. a
/// coordinate file re-read by every AFC of a group) dedupe into one
/// read. The result is sorted by `(file, start)`.
pub fn coalesce_runs(afcs: &[Afc], gap: u64) -> Vec<CoalescedRead> {
    let mut runs: Vec<(usize, u64, u64)> = Vec::new();
    for afc in afcs {
        for e in &afc.entries {
            let len = afc.num_rows * e.stride;
            if len > 0 {
                runs.push((e.file, e.offset, e.offset + len));
            }
        }
    }
    runs.sort_unstable();
    let mut out: Vec<CoalescedRead> = Vec::new();
    for (file, start, end) in runs {
        match out.last_mut() {
            Some(last) if last.file == file && start <= last.start + last.len + gap => {
                let new_end = end.max(last.start + last.len);
                last.len = new_end - last.start;
            }
            _ => out.push(CoalescedRead { file, start, len: end - start }),
        }
    }
    out
}

/// Summarize what the scheduler would do for `afcs` without reading
/// anything.
pub fn coalesce_summary(afcs: &[Afc], gap: u64) -> CoalesceSummary {
    let reads = coalesce_runs(afcs, gap);
    let mut s = CoalesceSummary { reads: reads.len() as u64, ..Default::default() };
    s.bytes_issued = reads.iter().map(|r| r.len).sum();
    for afc in afcs {
        for e in &afc.entries {
            let len = afc.num_rows * e.stride;
            if len > 0 {
                s.runs += 1;
                s.bytes_used += len;
            }
        }
    }
    s
}

/// Split an AFC list into consecutive working-set groups of at most
/// `group_bytes` scheduled bytes each (always at least one AFC per
/// group). Returned as index ranges into `afcs`.
pub fn group_afcs(afcs: &[Afc], group_bytes: u64) -> Vec<std::ops::Range<usize>> {
    let mut groups = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, afc) in afcs.iter().enumerate() {
        let b = afc.bytes_read();
        if i > start && acc + b > group_bytes {
            groups.push(start..i);
            start = i;
            acc = 0;
        }
        acc += b;
    }
    if start < afcs.len() {
        groups.push(start..afcs.len());
    }
    groups
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SegKey {
    file: usize,
    start: u64,
    len: u64,
}

struct CacheEntry {
    data: Arc<Vec<u8>>,
    generation: FileGen,
    tick: u64,
}

struct CacheInner {
    budget: u64,
    used: u64,
    tick: u64,
    map: HashMap<SegKey, CacheEntry>,
    /// Last generation observed per file; a change purges the file.
    gens: HashMap<usize, FileGen>,
}

/// Cross-query segment cache: a byte-budgeted LRU over coalesced
/// reads, keyed by `(file, range)` and invalidated when the file's
/// `(len, mtime_nanos)` generation changes.
pub struct SegmentCache {
    inner: Mutex<CacheInner>,
}

impl SegmentCache {
    /// Create a cache with `budget` bytes of capacity.
    pub fn new(budget: u64) -> SegmentCache {
        SegmentCache {
            inner: Mutex::new(CacheInner {
                budget,
                used: 0,
                tick: 0,
                map: HashMap::new(),
                gens: HashMap::new(),
            }),
        }
    }

    /// Adjust the byte budget (evicting LRU entries if shrinking).
    pub fn set_budget(&self, budget: u64) {
        let mut inner = self.inner.lock().expect("segment cache poisoned");
        inner.budget = budget;
        Self::evict_to_fit(&mut inner, 0);
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().expect("segment cache poisoned").used
    }

    /// Record the current generation of `file`; if it changed since
    /// the last observation, purge that file's segments and report
    /// `true` (the caller should also drop any pooled file handle).
    pub fn observe_generation(&self, file: usize, generation: FileGen) -> bool {
        let mut inner = self.inner.lock().expect("segment cache poisoned");
        match inner.gens.insert(file, generation) {
            Some(prev) if prev == generation => false,
            None => false,
            Some(_) => {
                let mut freed = 0u64;
                inner.map.retain(|k, e| {
                    if k.file == file {
                        freed += e.data.len() as u64;
                        false
                    } else {
                        true
                    }
                });
                inner.used -= freed;
                true
            }
        }
    }

    /// Look up a coalesced range; hits bump recency. A generation
    /// mismatch (file changed since insert) evicts and misses.
    pub fn get(&self, read: &CoalescedRead, generation: FileGen) -> Option<Arc<Vec<u8>>> {
        let key = SegKey { file: read.file, start: read.start, len: read.len };
        let mut inner = self.inner.lock().expect("segment cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(e) if e.generation == generation => {
                e.tick = tick;
                Some(Arc::clone(&e.data))
            }
            Some(_) => {
                let e = inner.map.remove(&key).expect("entry present");
                inner.used -= e.data.len() as u64;
                None
            }
            None => None,
        }
    }

    /// Insert a fetched range, evicting LRU entries to fit the
    /// budget. Ranges larger than the whole budget are not cached.
    pub fn insert(&self, read: &CoalescedRead, generation: FileGen, data: Arc<Vec<u8>>) {
        let bytes = data.len() as u64;
        let mut inner = self.inner.lock().expect("segment cache poisoned");
        if bytes > inner.budget {
            return;
        }
        Self::evict_to_fit(&mut inner, bytes);
        inner.tick += 1;
        let entry = CacheEntry { data, generation, tick: inner.tick };
        let key = SegKey { file: read.file, start: read.start, len: read.len };
        if let Some(old) = inner.map.insert(key, entry) {
            inner.used -= old.data.len() as u64;
        }
        inner.used += bytes;
    }

    fn evict_to_fit(inner: &mut CacheInner, incoming: u64) {
        while inner.used + incoming > inner.budget && !inner.map.is_empty() {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("non-empty cache");
            let e = inner.map.remove(&oldest).expect("entry present");
            inner.used -= e.data.len() as u64;
        }
    }
}

/// Per file: `(start, data)` segments sorted by start; ranges are
/// disjoint.
type FileSegments = HashMap<usize, Vec<(u64, Arc<Vec<u8>>)>>;

/// The segments fetched for one working-set group, ready for slicing.
pub struct FetchedGroup {
    segs: FileSegments,
}

impl FetchedGroup {
    /// The bytes of run `[offset, offset+len)` of `file`, if the run
    /// was scheduled (it then lies inside exactly one segment).
    pub fn slice(&self, file: usize, offset: u64, len: u64) -> Option<&[u8]> {
        let segs = self.segs.get(&file)?;
        let idx = segs.partition_point(|(start, _)| *start <= offset).checked_sub(1)?;
        let (start, data) = &segs[idx];
        let rel = (offset - start) as usize;
        let end = rel.checked_add(len as usize)?;
        data.get(rel..end)
    }
}

/// One node worker's view of the I/O pipeline: coalesces, consults
/// the shared cache, and issues reads through the extractor's handle
/// pool. Created per query per node ("per-node scheduler instances").
pub struct IoScheduler {
    extractor: Extractor,
    opts: IoOptions,
    cache: Option<Arc<SegmentCache>>,
    stats: Arc<IoStats>,
    cancel: CancelToken,
    /// Per-file decode guards of the non-affine files this scheduler
    /// has missed on: whoever holds a file's guard is decoding it, and
    /// everyone else who wants that image waits for the result.
    decoding: Mutex<HashMap<usize, Arc<Mutex<()>>>>,
}

impl IoScheduler {
    /// Build a scheduler over `extractor`'s files. `cache` is the
    /// server's cross-query segment cache (ignored when
    /// `opts.cache_bytes` is 0).
    pub fn new(
        extractor: Extractor,
        opts: IoOptions,
        cache: Option<Arc<SegmentCache>>,
        stats: Arc<IoStats>,
    ) -> IoScheduler {
        let cache = if opts.cache_bytes == 0 { None } else { cache };
        IoScheduler {
            extractor,
            opts,
            cache,
            stats,
            cancel: CancelToken::new(),
            decoding: Mutex::new(HashMap::new()),
        }
    }

    /// Attach a query's cancellation token; [`IoScheduler::fetch`]
    /// checks it before every coalesced read.
    pub fn with_cancel(mut self, cancel: CancelToken) -> IoScheduler {
        self.cancel = cancel;
        self
    }

    /// Fetch one working-set group: coalesce its runs, serve what the
    /// cache holds, read the rest.
    pub fn fetch(&self, afcs: &[Afc]) -> Result<FetchedGroup> {
        let reads = coalesce_runs(afcs, self.opts.coalesce_gap);
        let mut runs = 0u64;
        let mut used = 0u64;
        for afc in afcs {
            for e in &afc.entries {
                let len = afc.num_rows * e.stride;
                if len > 0 {
                    runs += 1;
                    used += len;
                }
            }
        }
        self.stats.runs_scheduled.fetch_add(runs, Ordering::Relaxed);
        self.stats.bytes_used.fetch_add(used, Ordering::Relaxed);

        let mut gens: HashMap<usize, FileGen> = HashMap::new();
        // Whether the non-affine file whose ranges are being walked
        // was served from the cache (`reads` is sorted by file).
        let mut image_hit = false;
        let mut segs: FileSegments = HashMap::new();
        for read in &reads {
            self.cancel.check()?;
            let generation = match (self.cache.as_deref(), gens.get(&read.file)) {
                (None, _) => FileGen { len: 0, mtime_nanos: 0 },
                (Some(_), Some(g)) => *g,
                (Some(cache), None) => {
                    let g = self.extractor.file_generation(read.file)?;
                    if cache.observe_generation(read.file, g) {
                        // The file changed on disk: a pooled handle
                        // may point at the replaced inode.
                        self.extractor.invalidate_handle(read.file);
                    }
                    gens.insert(read.file, g);
                    g
                }
            };
            if !self.extractor.codec(read.file).is_affine() {
                // Non-affine codec: byte offsets only exist in the
                // decoded image, so the file's one segment is its whole
                // image at offset 0 and every scheduled range slices
                // it. The image comes from the segment cache or from
                // one decode shared with concurrent fetchers (see
                // `image`); its ranges are then all hits or all misses,
                // counted like any other range — in logical
                // coordinates, the range length and not physical file
                // bytes, so the static bound `bytes_issued ≤ bytes_used
                // + runs × gap` holds for every codec. Physical decode
                // work shows up in `decode_calls`/`decode_bytes`.
                if let Entry::Vacant(slot) = segs.entry(read.file) {
                    let (image, hit) = self.image(read.file, generation)?;
                    slot.insert(vec![(0, image)]);
                    image_hit = hit;
                }
                if image_hit {
                    self.stats.cache_hit_bytes.fetch_add(read.len, Ordering::Relaxed);
                } else {
                    self.stats.bytes_issued.fetch_add(read.len, Ordering::Relaxed);
                    if self.cache.is_some() {
                        self.stats.cache_miss_bytes.fetch_add(read.len, Ordering::Relaxed);
                    }
                }
                continue;
            }
            let data = match self.cache.as_deref().and_then(|c| c.get(read, generation)) {
                Some(hit) => {
                    self.stats.cache_hit_bytes.fetch_add(read.len, Ordering::Relaxed);
                    hit
                }
                None => {
                    let mut buf = vec![0u8; read.len as usize];
                    self.extractor.read_file_at(read.file, read.start, &mut buf)?;
                    self.stats.read_syscalls.fetch_add(1, Ordering::Relaxed);
                    let data = Arc::new(buf);
                    self.stats.bytes_issued.fetch_add(read.len, Ordering::Relaxed);
                    if let Some(cache) = self.cache.as_deref() {
                        self.stats.cache_miss_bytes.fetch_add(read.len, Ordering::Relaxed);
                        self.stats.cache_insert_bytes.fetch_add(read.len, Ordering::Relaxed);
                        cache.insert(read, generation, Arc::clone(&data));
                    }
                    data
                }
            };
            segs.entry(read.file).or_default().push((read.start, data));
        }
        // `reads` is sorted by (file, start), so per-file vectors are
        // already in start order.
        Ok(FetchedGroup { segs })
    }

    /// The whole logical image of non-affine `file`, and whether the
    /// segment cache served it. The cache is the memo: the image is one
    /// entry keyed `(file, 0, logical size)` under the same generation
    /// rule as any range, so a file is decoded once per cold query and
    /// not at all by a warm one. Fetchers of this scheduler that miss
    /// together queue on the file's decode guard and re-check the cache
    /// behind it, so they share one decode instead of racing their own.
    ///
    /// Memory stays inside the cache budget: an image the cache will
    /// not retain (larger than the budget, or no cache at all) is
    /// decoded by every fetch call that needs it and dropped with that
    /// call's [`FetchedGroup`]. A failed decode caches nothing.
    fn image(&self, file: usize, generation: FileGen) -> Result<(Arc<Vec<u8>>, bool)> {
        let Some(cache) = self.cache.as_deref() else {
            return Ok((self.decode(file)?, false));
        };
        let key = CoalescedRead { file, start: 0, len: self.extractor.logical_size(file)? };
        if let Some(hit) = cache.get(&key, generation) {
            return Ok((hit, true));
        }
        let guard = {
            let mut decoding = self.decoding.lock().expect("decode guards poisoned");
            Arc::clone(decoding.entry(file).or_default())
        };
        // The guard protects no data, only the order of decoders; a
        // holder that panicked leaves nothing half-written behind it.
        let _turn = guard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(hit) = cache.get(&key, generation) {
            return Ok((hit, true));
        }
        self.cancel.check()?;
        let image = self.decode(file)?;
        self.stats.cache_insert_bytes.fetch_add(key.len, Ordering::Relaxed);
        cache.insert(&key, generation, Arc::clone(&image));
        Ok((image, false))
    }

    /// Read and decode non-affine `file`, counting the work.
    fn decode(&self, file: usize) -> Result<Arc<Vec<u8>>> {
        let image = self.extractor.decode_physical_file(file)?;
        self.stats.read_syscalls.fetch_add(1, Ordering::Relaxed);
        self.stats.decode_calls.fetch_add(1, Ordering::Relaxed);
        self.stats.decode_bytes.fetch_add(image.len() as u64, Ordering::Relaxed);
        Ok(image)
    }
}

/// Error for a run the scheduler did not cover (a programming error
/// in grouping, surfaced instead of panicking on the hot path).
pub(crate) fn missed_run(file: usize, offset: u64, len: u64) -> DvError {
    DvError::Runtime(format!(
        "I/O scheduler missed scheduled run (file {file}, offset {offset}, len {len})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::afc::AfcEntry;

    fn afc(entries: Vec<(usize, u64, u64)>, rows: u64) -> Afc {
        Afc {
            num_rows: rows,
            entries: entries
                .into_iter()
                .map(|(file, offset, stride)| AfcEntry { file, offset, stride })
                .collect(),
            fields: Vec::new(),
            implicits: Vec::new(),
        }
    }

    #[test]
    fn adjacent_runs_merge() {
        // Two 40-byte runs back to back, plus one far away.
        let afcs =
            [afc(vec![(0, 0, 4)], 10), afc(vec![(0, 40, 4)], 10), afc(vec![(0, 10_000, 4)], 10)];
        let reads = coalesce_runs(&afcs, 64);
        assert_eq!(
            reads,
            vec![
                CoalescedRead { file: 0, start: 0, len: 80 },
                CoalescedRead { file: 0, start: 10_000, len: 40 },
            ]
        );
    }

    #[test]
    fn gap_threshold_bridges_small_holes() {
        let afcs = [afc(vec![(0, 0, 4)], 10), afc(vec![(0, 100, 4)], 10)];
        // Gap is 60 bytes: bridged at 64, split at 32.
        assert_eq!(coalesce_runs(&afcs, 64).len(), 1);
        assert_eq!(coalesce_runs(&afcs, 32).len(), 2);
        let merged = &coalesce_runs(&afcs, 64)[0];
        assert_eq!((merged.start, merged.len), (0, 140));
    }

    #[test]
    fn overlapping_runs_dedupe() {
        // The same coordinate-file range read by three AFCs.
        let afcs =
            [afc(vec![(1, 0, 8)], 100), afc(vec![(1, 0, 8)], 100), afc(vec![(1, 0, 8)], 100)];
        let reads = coalesce_runs(&afcs, 0);
        assert_eq!(reads, vec![CoalescedRead { file: 1, start: 0, len: 800 }]);
        let s = coalesce_summary(&afcs, 0);
        assert_eq!(s.runs, 3);
        assert_eq!(s.bytes_used, 2400);
        assert_eq!(s.bytes_issued, 800);
    }

    #[test]
    fn different_files_never_merge() {
        let afcs = [afc(vec![(0, 0, 4), (1, 0, 4)], 10)];
        assert_eq!(coalesce_runs(&afcs, u64::MAX / 4).len(), 2);
    }

    #[test]
    fn contained_run_does_not_shrink_segment() {
        // A short run fully inside a longer one must not truncate it.
        let afcs = [afc(vec![(0, 0, 100)], 10), afc(vec![(0, 200, 10)], 10)];
        let reads = coalesce_runs(&afcs, 0);
        assert_eq!(reads, vec![CoalescedRead { file: 0, start: 0, len: 1000 }]);
    }

    #[test]
    fn groups_respect_byte_budget() {
        let afcs: Vec<Afc> = (0..10).map(|i| afc(vec![(0, i * 400, 4)], 100)).collect();
        // Each AFC reads 400 bytes; budget 1000 → groups of 2.
        let groups = group_afcs(&afcs, 1000);
        assert_eq!(groups.len(), 5);
        assert!(groups.iter().all(|g| g.len() == 2));
        // An oversized AFC still gets its own group.
        let big = [afc(vec![(0, 0, 4)], 1_000_000)];
        assert_eq!(group_afcs(&big, 1000), vec![0..1]);
        assert!(group_afcs(&[], 1000).is_empty());
    }

    fn gen(len: u64) -> FileGen {
        FileGen { len, mtime_nanos: 0 }
    }

    #[test]
    fn cache_lru_evicts_by_budget() {
        let cache = SegmentCache::new(100);
        let r = |start: u64| CoalescedRead { file: 0, start, len: 40 };
        let data = Arc::new(vec![0u8; 40]);
        cache.insert(&r(0), gen(1), Arc::clone(&data));
        cache.insert(&r(40), gen(1), Arc::clone(&data));
        // Touch the first entry so the second is LRU.
        assert!(cache.get(&r(0), gen(1)).is_some());
        cache.insert(&r(80), gen(1), Arc::clone(&data));
        assert_eq!(cache.used_bytes(), 80);
        assert!(cache.get(&r(0), gen(1)).is_some());
        assert!(cache.get(&r(40), gen(1)).is_none(), "LRU entry evicted");
        assert!(cache.get(&r(80), gen(1)).is_some());
    }

    #[test]
    fn cache_rejects_stale_generation() {
        let cache = SegmentCache::new(1000);
        let r = CoalescedRead { file: 3, start: 0, len: 8 };
        cache.insert(&r, gen(8), Arc::new(vec![1u8; 8]));
        assert!(cache.get(&r, gen(8)).is_some());
        assert!(cache.get(&r, gen(9)).is_none(), "generation mismatch must miss");
        // The stale entry is gone entirely.
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn observe_generation_purges_changed_file() {
        let cache = SegmentCache::new(1000);
        let r0 = CoalescedRead { file: 0, start: 0, len: 8 };
        let r1 = CoalescedRead { file: 1, start: 0, len: 8 };
        cache.insert(&r0, gen(8), Arc::new(vec![0u8; 8]));
        cache.insert(&r1, gen(8), Arc::new(vec![0u8; 8]));
        assert!(!cache.observe_generation(0, gen(8)), "first observation is not a change");
        assert!(!cache.observe_generation(0, gen(8)));
        assert!(cache.observe_generation(0, gen(16)), "len change detected");
        assert!(cache.get(&r0, gen(16)).is_none());
        assert!(cache.get(&r1, gen(8)).is_some(), "other files untouched");
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = SegmentCache::new(10);
        let r = CoalescedRead { file: 0, start: 0, len: 100 };
        cache.insert(&r, gen(1), Arc::new(vec![0u8; 100]));
        assert_eq!(cache.used_bytes(), 0);
        assert!(cache.get(&r, gen(1)).is_none());
    }

    #[test]
    fn set_budget_shrinks() {
        let cache = SegmentCache::new(100);
        for i in 0..5 {
            let r = CoalescedRead { file: 0, start: i * 20, len: 20 };
            cache.insert(&r, gen(1), Arc::new(vec![0u8; 20]));
        }
        assert_eq!(cache.used_bytes(), 100);
        cache.set_budget(40);
        assert!(cache.used_bytes() <= 40);
    }

    #[test]
    fn fetched_group_slices_runs() {
        let mut segs = HashMap::new();
        segs.insert(0usize, vec![(100u64, Arc::new((0u8..=99).collect::<Vec<u8>>()))]);
        let g = FetchedGroup { segs };
        assert_eq!(g.slice(0, 100, 4), Some(&[0u8, 1, 2, 3][..]));
        assert_eq!(g.slice(0, 150, 2), Some(&[50u8, 51][..]));
        assert_eq!(g.slice(0, 90, 4), None, "before segment");
        assert_eq!(g.slice(0, 198, 4), None, "runs past segment end");
        assert_eq!(g.slice(1, 100, 4), None, "unknown file");
    }
}
