//! The generated *extraction function*: executing AFCs against the
//! filesystem.
//!
//! For each AFC, the extractor obtains one contiguous byte run per
//! entry (`num_rows × stride` bytes starting at the entry offset —
//! exactly the access pattern the paper describes) and then assembles
//! working rows or columns by decoding scheduled fields and supplying
//! implicit values. Runs always arrive as slices of an
//! [`crate::io::IoScheduler`]'s fetched segments; the scheduler in
//! turn reads files only through [`Extractor::read_file_at`].

use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use dv_descriptor::{codec, CodecKind, DatasetModel};
use dv_types::{CancelToken, ColumnBlock, ColumnData, ColumnGen, DvError, Result, RowBlock, Value};
use std::sync::RwLock;

use crate::afc::{Afc, ImplicitValue};
use crate::io::{missed_run, FetchedGroup, FileGen};
use crate::plan::CompiledDataset;

/// Maximum open file handles pooled per extractor.
const HANDLE_CACHE_CAP: usize = 256;

struct HandleSlot {
    file: Arc<File>,
    last_used: AtomicU64,
}

/// LRU-bounded pool of open file handles shared across worker
/// threads. Lookups take only the shared lock (recency is an atomic
/// tick); opens and evictions take the exclusive lock.
struct HandlePool {
    cap: usize,
    tick: AtomicU64,
    map: RwLock<HashMap<usize, HandleSlot>>,
}

impl HandlePool {
    fn new(cap: usize) -> HandlePool {
        HandlePool { cap, tick: AtomicU64::new(0), map: RwLock::new(HashMap::new()) }
    }

    fn get(&self, file: usize) -> Option<Arc<File>> {
        let map = self.map.read().expect("handle pool poisoned");
        let slot = map.get(&file)?;
        slot.last_used.store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        Some(Arc::clone(&slot.file))
    }

    fn insert(&self, file: usize, handle: Arc<File>) -> Arc<File> {
        let mut map = self.map.write().expect("handle pool poisoned");
        // A racing opener may have inserted already; keep whichever
        // handle is in the pool (both point at the same file).
        if let Some(slot) = map.get(&file) {
            return Arc::clone(&slot.file);
        }
        while map.len() >= self.cap {
            let oldest = map
                .iter()
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
                .expect("non-empty pool");
            map.remove(&oldest);
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        map.insert(file, HandleSlot { file: Arc::clone(&handle), last_used: AtomicU64::new(tick) });
        handle
    }

    fn remove(&self, file: usize) {
        self.map.write().expect("handle pool poisoned").remove(&file);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.read().expect("handle pool poisoned").len()
    }
}

/// A handle pool that outlives any one query: the server constructs
/// one per dataset and threads it into every query's extractors, so
/// concurrent queries share open descriptors instead of each opening
/// (and each counting against) their own. The pool stays LRU-bounded
/// at [`HANDLE_CACHE_CAP`] regardless of how many queries share it.
#[derive(Clone)]
pub struct SharedHandles {
    pool: Arc<HandlePool>,
}

impl SharedHandles {
    /// A fresh pool with the standard capacity.
    pub fn new() -> SharedHandles {
        SharedHandles { pool: Arc::new(HandlePool::new(HANDLE_CACHE_CAP)) }
    }
}

impl Default for SharedHandles {
    fn default() -> SharedHandles {
        SharedHandles::new()
    }
}

/// Executes AFCs on one node's files. Cloneable across worker threads;
/// the open-file pool is shared.
#[derive(Clone)]
pub struct Extractor {
    paths: Arc<Vec<PathBuf>>,
    /// The resolved model: per-file codecs and layouts for decoding
    /// non-affine files, attribute types for CSV cells.
    model: Arc<DatasetModel>,
    /// Working-row width (number of attributes to materialize).
    row_width: usize,
    handles: Arc<HandlePool>,
    /// Per-query cancellation flag, polled once per AFC decode so an
    /// abort or deadline takes effect mid-extraction.
    cancel: CancelToken,
}

impl Extractor {
    /// Build an extractor for a compiled dataset and a given working
    /// row width.
    pub fn new(compiled: &CompiledDataset, row_width: usize) -> Extractor {
        let paths = (0..compiled.model.files.len()).map(|i| compiled.file_path(i)).collect();
        Extractor {
            paths: Arc::new(paths),
            model: Arc::clone(&compiled.model),
            row_width,
            handles: Arc::new(HandlePool::new(HANDLE_CACHE_CAP)),
            cancel: CancelToken::new(),
        }
    }

    /// Attach a query's cancellation token; extraction checkpoints
    /// (one per AFC decode) report [`DvError::Cancelled`] once it trips.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Extractor {
        self.cancel = cancel;
        self
    }

    /// Share the server's cross-query open-file pool instead of this
    /// extractor's private one.
    pub fn with_shared_handles(mut self, shared: &SharedHandles) -> Extractor {
        self.handles = Arc::clone(&shared.pool);
        self
    }

    fn open(&self, file: usize) -> Result<Arc<File>> {
        if let Some(h) = self.handles.get(file) {
            return Ok(h);
        }
        let path = &self.paths[file];
        let handle =
            Arc::new(File::open(path).map_err(|e| DvError::io(path.display().to_string(), e))?);
        Ok(self.handles.insert(file, handle))
    }

    /// Read `buf.len()` bytes of `file` starting at `offset` — the
    /// only place a data file is read.
    pub fn read_file_at(&self, file: usize, offset: u64, buf: &mut [u8]) -> Result<()> {
        let handle = self.open(file)?;
        read_exact_at(&handle, buf, offset, &self.paths[file])
    }

    /// The file's current `(len, mtime_nanos)` generation, statted by
    /// path so a replaced file is observed even while an old handle is
    /// pooled.
    pub fn file_generation(&self, file: usize) -> Result<FileGen> {
        let path = &self.paths[file];
        let meta =
            std::fs::metadata(path).map_err(|e| DvError::io(path.display().to_string(), e))?;
        let mtime_nanos = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        Ok(FileGen { len: meta.len(), mtime_nanos })
    }

    /// Drop the pooled handle for `file` (called when its on-disk
    /// generation changed: the handle may point at a replaced inode).
    pub fn invalidate_handle(&self, file: usize) {
        self.handles.remove(file);
    }

    /// Storage codec of `file`.
    pub fn codec(&self, file: usize) -> CodecKind {
        self.model.files[file].codec
    }

    /// Byte size of `file`'s logical image as the layout promises it
    /// (an error for `CHUNKED` layouts, whose size is data-dependent
    /// and which only the binary codec stores).
    pub(crate) fn logical_size(&self, file: usize) -> Result<u64> {
        self.model.files[file].expected_size(&self.model.attr_sizes).ok_or_else(|| {
            DvError::Runtime(format!(
                "file {} has a data-dependent layout and no logical image",
                self.paths[file].display()
            ))
        })
    }

    /// Read the whole physical file and decode it to its logical
    /// fixed-stride image. Nothing is remembered here: the scheduler
    /// keeps the image in the segment cache (one entry per file), so a
    /// cold query calls this once per non-affine file and a warm one
    /// not at all. The image is exactly as long as the layout promises
    /// or this fails — every AFC offset into it was computed from that
    /// promise.
    pub fn decode_physical_file(&self, file: usize) -> Result<Arc<Vec<u8>>> {
        let promised = self.logical_size(file)?;
        let len = self.file_generation(file)?.len;
        let mut physical = vec![0u8; len as usize];
        self.read_file_at(file, 0, &mut physical)?;
        let f = &self.model.files[file];
        let logical = codec::decode_physical(f.codec, f, &self.model.attr_types, &physical)?;
        if logical.len() as u64 != promised {
            return Err(DvError::Runtime(format!(
                "file {} decodes to {} bytes but its layout promises {promised}",
                self.paths[file].display(),
                logical.len()
            )));
        }
        Ok(Arc::new(logical))
    }

    /// Per-entry slices of `afc` out of a fetched group's coalesced
    /// segments (no copies, no syscalls).
    fn fetched_runs<'g>(&self, afc: &Afc, group: &'g FetchedGroup) -> Result<Vec<&'g [u8]>> {
        afc.entries
            .iter()
            .map(|e| {
                let len = afc.num_rows * e.stride;
                group.slice(e.file, e.offset, len).ok_or_else(|| missed_run(e.file, e.offset, len))
            })
            .collect()
    }

    /// Decode one AFC into rows out of a fetched group, appending to
    /// `block` — the row engine's counterpart of
    /// [`Extractor::extract_columns_fetched`], kept as the oracle the
    /// columnar decode is differentially tested against.
    pub fn extract_rows_fetched(
        &self,
        afc: &Afc,
        block: &mut RowBlock,
        group: &FetchedGroup,
    ) -> Result<()> {
        self.cancel.check()?;
        let bufs = self.fetched_runs(afc, group)?;

        let n = afc.num_rows as usize;
        let start = block.rows.len();
        block.rows.reserve(n);
        let placeholder = Value::Char(0);
        for _ in 0..n {
            block.rows.push(vec![placeholder; self.row_width]);
        }
        let rows = &mut block.rows[start..];

        // Column-major, type-specialized decode: the dtype match and
        // entry lookups are hoisted out of the per-row loop.
        for f in &afc.fields {
            let stride = afc.entries[f.entry].stride as usize;
            let buf = bufs[f.entry];
            let pos = f.working_pos;
            let off = f.byte_off;
            macro_rules! fill {
                ($ctor:path, $ty:ty, $size:expr) => {{
                    for (r, row) in rows.iter_mut().enumerate() {
                        let at = r * stride + off;
                        row[pos] =
                            $ctor(<$ty>::from_le_bytes(buf[at..at + $size].try_into().unwrap()));
                    }
                }};
            }
            match f.dtype {
                dv_types::DataType::Char => {
                    for (r, row) in rows.iter_mut().enumerate() {
                        row[pos] = Value::Char(buf[r * stride + off]);
                    }
                }
                dv_types::DataType::Short => fill!(Value::Short, i16, 2),
                dv_types::DataType::Int => fill!(Value::Int, i32, 4),
                dv_types::DataType::Long => fill!(Value::Long, i64, 8),
                dv_types::DataType::Float => fill!(Value::Float, f32, 4),
                dv_types::DataType::Double => fill!(Value::Double, f64, 8),
            }
        }
        for (pos, imp) in &afc.implicits {
            match imp {
                ImplicitValue::Const(v) => {
                    for row in rows.iter_mut() {
                        row[*pos] = *v;
                    }
                }
                ImplicitValue::Affine { start, step, dtype } => {
                    for (r, row) in rows.iter_mut().enumerate() {
                        row[*pos] = Value::from_i64(*dtype, start + r as i64 * step);
                    }
                }
            }
        }
        Ok(())
    }

    /// Decode one AFC into typed columns out of an I/O scheduler's
    /// fetched group. Runs are sliced out of the coalesced segments
    /// without copying.
    pub fn extract_columns_fetched(
        &self,
        afc: &Afc,
        block: &mut ColumnBlock,
        group: &FetchedGroup,
    ) -> Result<()> {
        let bufs = self.fetched_runs(afc, group)?;
        self.decode_columns(afc, block, &bufs)
    }

    /// The columnar decode kernel — the one place a run becomes a
    /// column. Per (field, run), one length guard bounds every strided
    /// read (a run too short for the AFC's rows is an error, never a
    /// panic), and the field's native `Vec` then grows by a single
    /// `extend` over the guarded run: no per-row `Vec<Value>`, no
    /// placeholder pre-fill, no per-push capacity check. Implicit
    /// attributes append lazy generator runs instead of materializing
    /// anything.
    fn decode_columns(&self, afc: &Afc, block: &mut ColumnBlock, bufs: &[&[u8]]) -> Result<()> {
        debug_assert_eq!(block.columns.len(), self.row_width);
        self.cancel.check()?;
        let n = afc.num_rows as usize;
        for f in &afc.fields {
            let stride = afc.entries[f.entry].stride as usize;
            let buf = bufs[f.entry];
            let off = f.byte_off;
            let col = block.columns[f.working_pos].append_data();
            macro_rules! fill {
                ($variant:ident, $ty:ty, $size:expr) => {{
                    let ColumnData::$variant(v) = col else {
                        return Err(DvError::Runtime(format!(
                            "column {} type mismatch decoding {:?}",
                            f.working_pos, f.dtype
                        )));
                    };
                    if n > 0 {
                        let need = (n - 1) * stride + off + $size;
                        let Some(run) = buf.get(..need) else {
                            return Err(DvError::Runtime(format!(
                                "run of {} bytes too short for {n} rows (need {need})",
                                buf.len()
                            )));
                        };
                        v.extend((0..n).map(|r| {
                            <$ty>::from_le_bytes(
                                run[r * stride + off..][..$size].try_into().unwrap(),
                            )
                        }));
                    }
                }};
            }
            match f.dtype {
                dv_types::DataType::Char => fill!(Char, u8, 1),
                dv_types::DataType::Short => fill!(Short, i16, 2),
                dv_types::DataType::Int => fill!(Int, i32, 4),
                dv_types::DataType::Long => fill!(Long, i64, 8),
                dv_types::DataType::Float => fill!(Float, f32, 4),
                dv_types::DataType::Double => fill!(Double, f64, 8),
            }
        }
        Self::append_implicits(afc, block, n);
        Ok(())
    }

    /// Append implicit-attribute generator runs and advance the block.
    fn append_implicits(afc: &Afc, block: &mut ColumnBlock, n: usize) {
        for (pos, imp) in &afc.implicits {
            let gen = match imp {
                ImplicitValue::Const(v) => ColumnGen::Const(*v),
                ImplicitValue::Affine { start, step, .. } => {
                    ColumnGen::Affine { start: *start, step: *step }
                }
            };
            block.columns[*pos].push_run(n, gen);
        }
        block.advance_rows(n);
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64, path: &Path) -> Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset).map_err(|e| DvError::io(path.display().to_string(), e))
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64, path: &Path) -> Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))
        .and_then(|_| f.read_exact(buf))
        .map_err(|e| DvError::io(path.display().to_string(), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{group_afcs, IoOptions, IoScheduler, IoStats, SegmentCache};
    use dv_sql::{bind, parse, UdfRegistry};
    use dv_types::Row;
    use std::io::Write;
    use std::path::Path;

    const DESC: &str = r#"
[IPARS]
REL = short int
TIME = int
X = float
SOIL = float

[IparsData]
DatasetDescription = IPARS
DIR[0] = n0/d

DATASET "IparsData" {
  DATATYPE { IPARS }
  DATAINDEX { REL TIME }
  DATA { DATASET coords DATASET vars }
  DATASET "coords" {
    DATASPACE { LOOP GRID 1:4:1 { X } }
    DATA { DIR[0]/COORDS }
  }
  DATASET "vars" {
    DATASPACE {
      LOOP TIME 1:3:1 {
        LOOP GRID 1:4:1 { SOIL }
      }
    }
    DATA { DIR[0]/DATA$REL REL = 0:1:1 }
  }
}
"#;

    /// Write the little dataset DESC describes and return its base dir.
    fn write_dataset(base: &Path) {
        let dir = base.join("n0/d");
        std::fs::create_dir_all(&dir).unwrap();
        // COORDS: X = 10.0, 20.0, 30.0, 40.0.
        let mut f = std::fs::File::create(dir.join("COORDS")).unwrap();
        for g in 1..=4 {
            f.write_all(&((g as f32) * 10.0).to_le_bytes()).unwrap();
        }
        // DATA{rel}: SOIL = rel*1000 + time*10 + grid, per time, grid.
        for rel in 0..2 {
            let mut f = std::fs::File::create(dir.join(format!("DATA{rel}"))).unwrap();
            for t in 1..=3 {
                for g in 1..=4 {
                    let v = (rel * 1000 + t * 10 + g) as f32;
                    f.write_all(&v.to_le_bytes()).unwrap();
                }
            }
        }
    }

    /// Fetch `afcs` as one group through a cache-less scheduler — how
    /// these unit tests reach files.
    fn fetch_plain(ex: &Extractor, afcs: &[Afc]) -> Result<FetchedGroup> {
        IoScheduler::new(ex.clone(), IoOptions::plain(), None, Arc::new(IoStats::default()))
            .fetch(afcs)
    }

    fn extract_all(ex: &Extractor, afcs: &[Afc], node: usize) -> Result<RowBlock> {
        let fetched = fetch_plain(ex, afcs)?;
        let mut block = RowBlock::new(node);
        for afc in afcs {
            ex.extract_rows_fetched(afc, &mut block, &fetched)?;
        }
        Ok(block)
    }

    fn extract_all_columns(
        ex: &Extractor,
        afcs: &[Afc],
        node: usize,
        dtypes: &[dv_types::DataType],
    ) -> Result<ColumnBlock> {
        let fetched = fetch_plain(ex, afcs)?;
        let mut block = ColumnBlock::with_dtypes(node, dtypes);
        for afc in afcs {
            ex.extract_columns_fetched(afc, &mut block, &fetched)?;
        }
        Ok(block)
    }

    fn run(sql: &str, base: &Path) -> Vec<Row> {
        run_desc(DESC, sql, base)
    }

    fn tmpbase(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dv-extract-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// DESC with `CODEC csv` on COORDS and `CODEC zstd` on DATA$REL.
    fn codec_desc() -> String {
        DESC.replace("DIR[0]/COORDS", "DIR[0]/COORDS CODEC csv")
            .replace("REL = 0:1:1", "REL = 0:1:1 CODEC zstd")
    }

    /// Re-encode every non-affine file of `desc` in place: the binary
    /// bytes written by `write_dataset` become the logical image.
    fn transcode_dataset(desc: &str, base: &Path) {
        let compiled = crate::plan::compile_from_text(desc, base).unwrap();
        for f in compiled.model.files.iter().filter(|f| !f.codec.is_affine()) {
            let path = compiled.file_path(f.id);
            let logical = std::fs::read(&path).unwrap();
            let physical =
                codec::encode_logical(f.codec, f, &compiled.model.attr_types, &logical).unwrap();
            std::fs::write(&path, physical).unwrap();
        }
    }

    fn run_desc(desc: &str, sql: &str, base: &Path) -> Vec<Row> {
        let compiled = crate::plan::compile_from_text(desc, base).unwrap();
        let q = parse(sql).unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let mut rows = Vec::new();
        for np in &plan.node_plans {
            let block = extract_all(&ex, &np.afcs, np.node).unwrap();
            rows.extend(block.rows);
        }
        rows.sort();
        rows
    }

    #[test]
    fn mixed_codec_table_matches_binary() {
        // One virtual table spanning a CSV file and zstd files must
        // return bit-identical rows to the all-binary layout.
        let bin = tmpbase("codec-bin");
        write_dataset(&bin);
        let mixed = tmpbase("codec-mixed");
        write_dataset(&mixed);
        let desc = codec_desc();
        transcode_dataset(&desc, &mixed);
        // The transcode really changed the bytes on disk.
        assert_ne!(
            std::fs::read(bin.join("n0/d/COORDS")).unwrap(),
            std::fs::read(mixed.join("n0/d/COORDS")).unwrap()
        );
        for sql in [
            "SELECT * FROM IparsData",
            "SELECT SOIL FROM IparsData WHERE REL = 0 AND TIME = 1",
            "SELECT X FROM IparsData WHERE TIME = 2",
        ] {
            assert_eq!(run(sql, &bin), run_desc(&desc, sql, &mixed), "{sql}");
        }
    }

    #[test]
    fn scheduled_codec_extraction_matches_direct() {
        let base = tmpbase("codec-sched");
        write_dataset(&base);
        let desc = codec_desc();
        transcode_dataset(&desc, &base);
        let compiled = crate::plan::compile_from_text(&desc, &base).unwrap();
        let q = parse("SELECT * FROM IparsData").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let opts =
            IoOptions { coalesce_gap: 64 * 1024, cache_bytes: 1 << 20, ..IoOptions::default() };
        let cache = Some(Arc::new(SegmentCache::new(1 << 20)));
        let stats = Arc::new(IoStats::default());
        let mut decode_calls_cold = 0;
        for round in 0..2 {
            for np in &plan.node_plans {
                let sched =
                    IoScheduler::new(ex.clone(), opts.clone(), cache.clone(), Arc::clone(&stats));
                // Reference: rows decoded under the plain configuration.
                let plain = extract_all(&ex, &np.afcs, np.node).unwrap();
                let mut via = ColumnBlock::with_dtypes(np.node, &plan.working.dtypes);
                for g in group_afcs(&np.afcs, opts.group_bytes) {
                    let fetched = sched.fetch(&np.afcs[g.clone()]).unwrap();
                    for afc in &np.afcs[g] {
                        ex.extract_columns_fetched(afc, &mut via, &fetched).unwrap();
                    }
                }
                assert_eq!(via.len(), plain.len());
                for (i, a) in plain.rows.iter().enumerate() {
                    let b: Row = via.columns.iter().map(|c| c.value_at(i)).collect();
                    assert_eq!(a, &b, "row {i} round {round}");
                }
            }
            let snap = stats.snapshot();
            if round == 0 {
                decode_calls_cold = snap.decode_calls;
                assert!(snap.decode_calls > 0, "cold fetch must decode");
                assert!(snap.decode_bytes > 0);
            } else {
                // Warm reads come out of the segment cache as already
                // decompressed bytes: zero re-decompression.
                assert_eq!(snap.decode_calls, decode_calls_cold, "warm fetch must not decode");
                assert!(snap.cache_hit_bytes > 0);
            }
        }
    }

    #[test]
    fn racing_fetchers_share_one_decode() {
        // Eight threads fetch every AFC of the plan as a group of its
        // own through one scheduler, released together: each CSV/zstd
        // file is still decoded exactly once, and everyone else is
        // served the cached image.
        let base = tmpbase("codec-race");
        write_dataset(&base);
        let desc = codec_desc();
        transcode_dataset(&desc, &base);
        let compiled = crate::plan::compile_from_text(&desc, &base).unwrap();
        let q = parse("SELECT * FROM IparsData").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let np = &plan.node_plans[0];
        let expect = extract_all(&ex, &np.afcs, np.node).unwrap();

        let stats = Arc::new(IoStats::default());
        let sched = IoScheduler::new(
            ex.clone(),
            IoOptions::default(),
            Some(Arc::new(SegmentCache::new(1 << 20))),
            Arc::clone(&stats),
        );
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let mut block = RowBlock::new(np.node);
                    for afc in &np.afcs {
                        let fetched = sched.fetch(std::slice::from_ref(afc)).unwrap();
                        ex.extract_rows_fetched(afc, &mut block, &fetched).unwrap();
                    }
                    assert_eq!(block.rows, expect.rows);
                });
            }
        });
        let snap = stats.snapshot();
        let files = &compiled.model.files;
        assert!(files.iter().all(|f| !f.codec.is_affine()));
        assert_eq!(snap.decode_calls, files.len() as u64, "one decode per file");
        assert_eq!(snap.decode_bytes, 16 + 48 + 48);
        assert_eq!(snap.read_syscalls, snap.decode_calls);
        assert_eq!(snap.cache_insert_bytes, snap.decode_bytes);
    }

    #[test]
    fn cache_budget_counts_decompressed_bytes() {
        // Regression: the cache must charge the *stored* (decompressed)
        // length against its byte budget. A high-compression-ratio zstd
        // file whose physical size fits the budget but whose logical
        // image does not must not be retained.
        let base = tmpbase("codec-budget");
        let dir = base.join("n0/d");
        std::fs::create_dir_all(&dir).unwrap();
        let desc = r#"
[ZERO]
GRID = int
X = float

[ZeroData]
DatasetDescription = ZERO
DIR[0] = n0/d

DATASET "ZeroData" {
  DATATYPE { ZERO }
  DATAINDEX { GRID }
  DATA { DATASET zero }
  DATASET "zero" {
    DATASPACE { LOOP GRID 1:8192:1 { X } }
    DATA { DIR[0]/Z CODEC zstd }
  }
}
"#;
        // 8192 zero floats: 32 KiB logical, RLE-compressed to a frame
        // far below the 1 KiB cache budget.
        let compiled = crate::plan::compile_from_text(desc, &base).unwrap();
        let f = &compiled.model.files[0];
        let logical = vec![0u8; 8192 * 4];
        let physical =
            codec::encode_logical(f.codec, f, &compiled.model.attr_types, &logical).unwrap();
        assert!(physical.len() < 256, "RLE frame should be tiny, got {}", physical.len());
        std::fs::write(dir.join("Z"), &physical).unwrap();

        let q = parse("SELECT X FROM ZeroData").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let budget = 1024u64;
        let opts = IoOptions { cache_bytes: budget, ..IoOptions::default() };
        let cache = Arc::new(SegmentCache::new(budget));
        let stats = Arc::new(IoStats::default());
        let np = &plan.node_plans[0];
        for _ in 0..2 {
            let sched = IoScheduler::new(
                ex.clone(),
                opts.clone(),
                Some(Arc::clone(&cache)),
                Arc::clone(&stats),
            );
            for g in group_afcs(&np.afcs, opts.group_bytes) {
                sched.fetch(&np.afcs[g]).unwrap();
            }
        }
        let snap = stats.snapshot();
        assert!(
            cache.used_bytes() <= budget,
            "cache holds {} bytes over a {} byte budget",
            cache.used_bytes(),
            budget
        );
        assert_eq!(snap.cache_hit_bytes, 0, "oversized decompressed segment must not be served");
        assert_eq!(snap.decode_calls, 2, "both fetches re-decode when the entry cannot fit");
        assert_eq!(snap.decode_bytes, 2 * 8192 * 4);
    }

    #[test]
    fn truncated_nonaffine_file_is_clean_error() {
        // The descriptor promises 12 logical rows per DATA file; a CSV
        // file that decodes shorter must surface DvError, not panic.
        let base = tmpbase("codec-short");
        write_dataset(&base);
        let desc = codec_desc();
        transcode_dataset(&desc, &base);
        let coords = base.join("n0/d/COORDS");
        let text = std::fs::read_to_string(&coords).unwrap();
        let keep: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&coords, format!("{}\n", keep.join("\n"))).unwrap();
        let compiled = crate::plan::compile_from_text(&desc, &base).unwrap();
        let q = parse("SELECT X FROM IparsData").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let err = plan
            .node_plans
            .iter()
            .map(|np| extract_all(&ex, &np.afcs, np.node))
            .collect::<Result<Vec<_>>>()
            .unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn wrong_size_zstd_image_names_file_and_sizes() {
        // A frame that inflates cleanly but to half the bytes the
        // layout promises is the file's fault, not the scheduler's:
        // the error names the file and both sizes.
        let base = tmpbase("codec-wrong-size");
        write_dataset(&base);
        let desc = codec_desc();
        transcode_dataset(&desc, &base);
        let data0 = base.join("n0/d/DATA0");
        std::fs::write(&data0, codec::zstd_compress(&[0u8; 24])).unwrap();
        let compiled = crate::plan::compile_from_text(&desc, &base).unwrap();
        let q = parse("SELECT SOIL FROM IparsData WHERE REL = 0").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let err = plan
            .node_plans
            .iter()
            .map(|np| extract_all(&ex, &np.afcs, np.node))
            .collect::<Result<Vec<_>>>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("DATA0"), "{err}");
        assert!(err.contains("24") && err.contains("48"), "{err}");
        assert!(!err.contains("missed scheduled run"), "{err}");
    }

    #[test]
    fn decoded_length_is_checked_against_layout() {
        // The scheduler keys a file's image by the size the layout
        // promises, so the extractor refuses an image of any other
        // length — reached here through a model whose size table
        // disagrees with its type table.
        let base = tmpbase("codec-size-check");
        write_dataset(&base);
        let desc = codec_desc();
        transcode_dataset(&desc, &base);
        let compiled = crate::plan::compile_from_text(&desc, &base).unwrap();
        let fid = compiled.model.files.iter().find(|f| f.rel_path.ends_with("COORDS")).unwrap().id;
        let honest = Extractor::new(&compiled, 4);
        assert_eq!(honest.decode_physical_file(fid).unwrap().len(), 16);

        let mut model = (*compiled.model).clone();
        model.attr_sizes.insert("X".to_string(), 8);
        let lying = CompiledDataset::compile(Arc::new(model), compiled.roots.clone()).unwrap();
        let err = Extractor::new(&lying, 4).decode_physical_file(fid).unwrap_err().to_string();
        assert!(err.contains("COORDS"), "{err}");
        assert!(err.contains("16 bytes") && err.contains("promises 32"), "{err}");
    }

    #[test]
    fn run_outside_the_fetched_group_is_an_error() {
        // Decoding an AFC the group was not fetched for must surface
        // the scheduler's `missed_run`, never read foreign bytes.
        let base = tmpbase("missed-run");
        write_dataset(&base);
        let compiled = crate::plan::compile_from_text(DESC, &base).unwrap();
        let q = parse("SELECT SOIL FROM IparsData").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let afcs = &plan.node_plans[0].afcs;
        assert!(afcs.len() >= 2);
        let fetched = fetch_plain(&ex, &afcs[..1]).unwrap();
        let mut block = RowBlock::new(0);
        let err = ex.extract_rows_fetched(afcs.last().unwrap(), &mut block, &fetched).unwrap_err();
        assert!(err.to_string().contains("missed scheduled run"), "{err}");
    }

    #[test]
    fn full_scan_materializes_all_rows() {
        let base = tmpbase("full");
        write_dataset(&base);
        let rows = run("SELECT * FROM IparsData", &base);
        // 2 REL × 3 TIME × 4 GRID.
        assert_eq!(rows.len(), 24);
        // Row layout: REL, TIME, X, SOIL (working = all four).
        let first = &rows[0];
        assert_eq!(first[0], Value::Short(0));
        assert_eq!(first[1], Value::Int(1));
        assert_eq!(first[2], Value::Float(10.0));
        assert_eq!(first[3], Value::Float(11.0));
        let last = &rows[23];
        assert_eq!(last[0], Value::Short(1));
        assert_eq!(last[1], Value::Int(3));
        assert_eq!(last[2], Value::Float(40.0));
        assert_eq!(last[3], Value::Float(1034.0));
    }

    #[test]
    fn range_query_extracts_subset() {
        let base = tmpbase("range");
        write_dataset(&base);
        let rows = run("SELECT * FROM IparsData WHERE TIME = 2 AND REL = 1", &base);
        assert_eq!(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Value::Short(1));
            assert_eq!(row[1], Value::Int(2));
            assert_eq!(row[2], Value::Float((i as f32 + 1.0) * 10.0));
            assert_eq!(row[3], Value::Float(1021.0 + i as f32));
        }
    }

    #[test]
    fn projection_only_working_attrs() {
        let base = tmpbase("proj");
        write_dataset(&base);
        let rows = run("SELECT SOIL FROM IparsData WHERE REL = 0 AND TIME = 1", &base);
        // Working set is {REL, TIME, SOIL}: the predicate reads REL and
        // TIME even though pruning already captured them.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].len(), 3);
    }

    #[test]
    fn columnar_extraction_matches_rows() {
        let base = tmpbase("columnar");
        write_dataset(&base);
        let compiled = crate::plan::compile_from_text(DESC, &base).unwrap();
        let sqls = [
            "SELECT * FROM IparsData",
            "SELECT SOIL FROM IparsData WHERE REL = 0 AND TIME = 1",
            "SELECT X FROM IparsData WHERE TIME = 2",
        ];
        for sql in sqls {
            let q = parse(sql).unwrap();
            let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
            let plan = compiled.plan_query(&b).unwrap();
            let ex = Extractor::new(&compiled, plan.working.attrs.len());
            for np in &plan.node_plans {
                // Both decoders read the same fetched group.
                let fetched = fetch_plain(&ex, &np.afcs).unwrap();
                let mut rows = RowBlock::new(np.node);
                let mut cols = ColumnBlock::with_dtypes(np.node, &plan.working.dtypes);
                for afc in &np.afcs {
                    ex.extract_rows_fetched(afc, &mut rows, &fetched).unwrap();
                    ex.extract_columns_fetched(afc, &mut cols, &fetched).unwrap();
                }
                assert_eq!(cols.len(), rows.len(), "{sql}");
                let rebuilt: Vec<Row> = (0..cols.len())
                    .map(|i| cols.columns.iter().map(|c| c.value_at(i)).collect())
                    .collect();
                assert_eq!(rebuilt, rows.rows, "{sql}");
            }
        }
    }

    #[test]
    fn scheduled_extraction_matches_direct_reads() {
        // Every knob combination of the I/O scheduler decodes columns
        // equal to the rows decoded under the plain configuration.
        let base = tmpbase("sched");
        write_dataset(&base);
        let compiled = crate::plan::compile_from_text(DESC, &base).unwrap();
        let q = parse("SELECT * FROM IparsData").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        for (gap, cache_bytes) in [(0u64, 0u64), (64 * 1024, 0), (64 * 1024, 1 << 20)] {
            let opts = IoOptions { coalesce_gap: gap, cache_bytes, ..IoOptions::default() };
            let cache = Some(Arc::new(SegmentCache::new(cache_bytes.max(1))));
            let stats = Arc::new(IoStats::default());
            for np in &plan.node_plans {
                let sched =
                    IoScheduler::new(ex.clone(), opts.clone(), cache.clone(), Arc::clone(&stats));
                let plain = extract_all(&ex, &np.afcs, np.node).unwrap();
                let mut via_sched = ColumnBlock::with_dtypes(np.node, &plan.working.dtypes);
                for g in group_afcs(&np.afcs, opts.group_bytes) {
                    let fetched = sched.fetch(&np.afcs[g.clone()]).unwrap();
                    for afc in &np.afcs[g] {
                        ex.extract_columns_fetched(afc, &mut via_sched, &fetched).unwrap();
                    }
                }
                assert_eq!(via_sched.len(), plain.len());
                for (i, a) in plain.rows.iter().enumerate() {
                    let b: Row = via_sched.columns.iter().map(|c| c.value_at(i)).collect();
                    assert_eq!(a, &b, "row {i} gap={gap} cache={cache_bytes}");
                }
            }
            let snap = stats.snapshot();
            assert!(snap.read_syscalls > 0);
            assert!(snap.runs_scheduled >= snap.read_syscalls);
        }
    }

    /// Every `DataType` stored in one interleaved record, so each
    /// field's stride (27 bytes) exceeds its size; `REL` and `TIME`
    /// arrive as implicit runs.
    const ALL_TYPES_DESC: &str = r#"
[ALL]
REL = short int
TIME = int
C = char
S = short int
I = int
L = long int
F = float
D = double

[AllData]
DatasetDescription = ALL
DIR[0] = n0/d

DATASET "AllData" {
  DATATYPE { ALL }
  DATAINDEX { REL TIME }
  DATA { DATASET recs }
  DATASET "recs" {
    DATASPACE {
      LOOP TIME 1:3:1 {
        LOOP GRID 1:5:1 { C S I L F D }
      }
    }
    DATA { DIR[0]/REC$REL REL = 0:1:1 }
  }
}
"#;

    fn write_all_types(base: &Path) {
        let dir = base.join("n0/d");
        std::fs::create_dir_all(&dir).unwrap();
        for rel in 0..2i64 {
            let mut f = std::fs::File::create(dir.join(format!("REC{rel}"))).unwrap();
            for t in 1..=3i64 {
                for g in 1..=5i64 {
                    let x = rel * 100 + t * 10 + g;
                    let mut rec = Vec::new();
                    Value::Char((x * 7) as u8).encode(&mut rec);
                    Value::Short(-(x as i16) * 200).encode(&mut rec);
                    Value::Int(-(x as i32) * 1_000_003).encode(&mut rec);
                    Value::Long((x << 40) - 7).encode(&mut rec);
                    Value::Float(x as f32 * -0.375).encode(&mut rec);
                    Value::Double(x as f64 * 1e9 + 0.125).encode(&mut rec);
                    f.write_all(&rec).unwrap();
                }
            }
        }
    }

    /// A cell's exact type and bytes (`Value`'s `==` compares across
    /// types by numeric value).
    fn cell(v: Value) -> (dv_types::DataType, Vec<u8>) {
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        (v.data_type(), bytes)
    }

    #[test]
    fn decode_kernel_matches_row_oracle() {
        // The columnar kernel equals the row oracle cell by cell for
        // all six types, at n = 0, 1 and every row of each AFC.
        let base = tmpbase("kernel-oracle");
        write_all_types(&base);
        let compiled = crate::plan::compile_from_text(ALL_TYPES_DESC, &base).unwrap();
        let q = parse("SELECT * FROM AllData").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let mut decoded = Vec::new();
        for np in &plan.node_plans {
            let fetched = fetch_plain(&ex, &np.afcs).unwrap();
            for full in &np.afcs {
                assert!(full.num_rows > 1, "fixture must have multi-row AFCs");
                for f in &full.fields {
                    assert!(full.entries[f.entry].stride as usize > f.dtype.size());
                    decoded.push(f.dtype);
                }
                for n in [0, 1, full.num_rows] {
                    let afc = Afc { num_rows: n, ..full.clone() };
                    let mut rows = RowBlock::new(np.node);
                    let mut cols = ColumnBlock::with_dtypes(np.node, &plan.working.dtypes);
                    ex.extract_rows_fetched(&afc, &mut rows, &fetched).unwrap();
                    ex.extract_columns_fetched(&afc, &mut cols, &fetched).unwrap();
                    assert_eq!(rows.rows.len(), n as usize);
                    assert_eq!(cols.len(), n as usize);
                    for (i, row) in rows.rows.iter().enumerate() {
                        for (c, want) in row.iter().enumerate() {
                            let got = cols.columns[c].value_at(i);
                            assert_eq!(cell(got), cell(*want), "n={n} row {i} column {c}");
                        }
                    }
                }
            }
        }
        use dv_types::DataType::*;
        for t in [Char, Short, Int, Long, Float, Double] {
            assert!(decoded.contains(&t), "{t:?} never decoded: {decoded:?}");
        }
    }

    #[test]
    fn decode_kernel_guards_short_runs() {
        // A run shorter than the AFC demands must error — through a
        // truncated file and at the kernel's own length guard.
        let base = tmpbase("kernel-short");
        write_dataset(&base);
        let full = std::fs::read(base.join("n0/d/DATA0")).unwrap();
        std::fs::write(base.join("n0/d/DATA0"), &full[..full.len() / 2]).unwrap();
        let compiled = crate::plan::compile_from_text(DESC, &base).unwrap();
        let q = parse("SELECT * FROM IparsData WHERE REL = 0").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let result: Result<Vec<ColumnBlock>> = plan
            .node_plans
            .iter()
            .map(|np| extract_all_columns(&ex, &np.afcs, np.node, &plan.working.dtypes))
            .collect();
        assert!(result.is_err());

        // The kernel's own length guard, reached directly: every run
        // one byte short of what the AFC's rows need.
        let afc = &plan.node_plans[0].afcs[0];
        let short: Vec<Vec<u8>> =
            afc.entries.iter().map(|e| vec![0u8; (afc.num_rows * e.stride) as usize - 1]).collect();
        let bufs: Vec<&[u8]> = short.iter().map(|b| b.as_slice()).collect();
        let mut block = ColumnBlock::with_dtypes(0, &plan.working.dtypes);
        let err = ex.decode_columns(afc, &mut block, &bufs).unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
    }

    #[test]
    fn handle_pool_is_bounded() {
        let pool = HandlePool::new(4);
        let base = tmpbase("pool");
        write_dataset(&base);
        let f = Arc::new(File::open(base.join("n0/d/COORDS")).unwrap());
        for i in 0..100 {
            pool.insert(i, Arc::clone(&f));
        }
        assert_eq!(pool.len(), 4, "pool must evict down to capacity");
        // Recently used entries survive eviction.
        assert!(pool.get(99).is_some());
        pool.insert(1000, Arc::clone(&f));
        assert!(pool.get(99).is_some(), "just-touched handle kept");
        pool.remove(99);
        assert!(pool.get(99).is_none());
    }

    #[test]
    fn missing_file_is_io_error() {
        let base = tmpbase("missing");
        write_dataset(&base);
        std::fs::remove_file(base.join("n0/d/DATA1")).unwrap();
        let compiled = crate::plan::compile_from_text(DESC, &base).unwrap();
        let q = parse("SELECT * FROM IparsData").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let mut failed = false;
        for np in &plan.node_plans {
            if extract_all(&ex, &np.afcs, np.node).is_err() {
                failed = true;
            }
        }
        assert!(failed);
    }

    #[test]
    fn short_file_is_io_error() {
        // A file shorter than the descriptor promises must surface as
        // an I/O error, not silent zero rows.
        let base = tmpbase("short");
        write_dataset(&base);
        let full = std::fs::read(base.join("n0/d/DATA0")).unwrap();
        std::fs::write(base.join("n0/d/DATA0"), &full[..full.len() / 2]).unwrap();
        let compiled = crate::plan::compile_from_text(DESC, &base).unwrap();
        let q = parse("SELECT * FROM IparsData WHERE REL = 0").unwrap();
        let b = bind(&q, &compiled.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let plan = compiled.plan_query(&b).unwrap();
        let ex = Extractor::new(&compiled, plan.working.attrs.len());
        let result: Result<Vec<RowBlock>> =
            plan.node_plans.iter().map(|np| extract_all(&ex, &np.afcs, np.node)).collect();
        assert!(result.is_err());
    }

    #[test]
    fn same_second_rewrite_changes_generation() {
        // Regression: generations keyed on whole-second mtimes let a
        // same-length file rewritten twice within one second keep its
        // generation, so the segment cache served the first rewrite's
        // bytes. Nanosecond mtimes must observe the change well inside
        // the second.
        let base = tmpbase("gen");
        write_dataset(&base);
        let compiled = crate::plan::compile_from_text(DESC, &base).unwrap();
        let ex = Extractor::new(&compiled, 4);
        let fid = compiled.model.files.iter().find(|f| f.rel_path.ends_with("DATA0")).unwrap().id;
        let path = compiled.file_path(fid);
        let bytes = std::fs::read(&path).unwrap();

        // First rewrite of the second.
        std::fs::write(&path, &bytes).unwrap();
        let g1 = ex.file_generation(fid).unwrap();
        let cache = SegmentCache::new(1 << 20);
        assert!(!cache.observe_generation(fid, g1));
        let read = crate::io::CoalescedRead { file: fid, start: 0, len: 8 };
        cache.insert(&read, g1, Arc::new(bytes[..8].to_vec()));
        assert!(cache.get(&read, g1).is_some());

        // Second rewrite, same length, still within the same second
        // (bounded retry: filesystem timestamps tick coarsely, but far
        // finer than a second).
        let start = std::time::Instant::now();
        let mut g2 = g1;
        while g2 == g1 && start.elapsed() < std::time::Duration::from_millis(900) {
            std::fs::write(&path, &bytes).unwrap();
            g2 = ex.file_generation(fid).unwrap();
            if g2 == g1 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        assert_ne!(g1, g2, "sub-second rewrite must change the file generation");
        assert_eq!(g1.len, g2.len);
        assert!(cache.observe_generation(fid, g2), "new generation must purge the file");
        assert!(cache.get(&read, g2).is_none());
    }
}
