//! Columnar blocks: the struct-of-arrays unit of data flow through the
//! STORM pipeline.
//!
//! A [`ColumnBlock`] holds one typed vector per working attribute plus
//! an optional *selection vector* naming the rows that survived
//! filtering. Services operate column-at-a-time: extraction decodes
//! fields straight from read buffers into typed vectors, filtering
//! produces a [`Bitmap`] and stores it as a selection (no data moves),
//! and rows are reconstituted exactly once, by the one column→row
//! kernel ([`ColumnBlock::to_rows`]) — at the client boundary
//! ([`crate::Table::absorb_columns`]), or on a mover sender that found
//! its channel full.
//!
//! Implicit attributes (constant over an AFC, or affine in the row
//! ordinal) are kept as *lazy runs* — generator descriptions appended
//! per chunk — and materialize only when something actually gathers or
//! enumerates their values.

use crate::datatype::DataType;
use crate::row::Rows;
use crate::value::Value;

/// A dense, typed vector of cell values — one physical column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Char(Vec<u8>),
    Short(Vec<i16>),
    Int(Vec<i32>),
    Long(Vec<i64>),
    Float(Vec<f32>),
    Double(Vec<f64>),
}

impl ColumnData {
    /// An empty vector of the given type.
    pub fn empty(dtype: DataType) -> ColumnData {
        match dtype {
            DataType::Char => ColumnData::Char(Vec::new()),
            DataType::Short => ColumnData::Short(Vec::new()),
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Long => ColumnData::Long(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Double => ColumnData::Double(Vec::new()),
        }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Char(v) => v.len(),
            ColumnData::Short(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Long(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Double(v) => v.len(),
        }
    }

    /// True when no values are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at index `i` (panics out of bounds).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnData::Char(v) => Value::Char(v[i]),
            ColumnData::Short(v) => Value::Short(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Long(v) => Value::Long(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
        }
    }

    /// Append one value; must match the vector's type.
    #[inline]
    pub fn push_value(&mut self, v: Value) {
        match (self, v) {
            (ColumnData::Char(d), Value::Char(x)) => d.push(x),
            (ColumnData::Short(d), Value::Short(x)) => d.push(x),
            (ColumnData::Int(d), Value::Int(x)) => d.push(x),
            (ColumnData::Long(d), Value::Long(x)) => d.push(x),
            (ColumnData::Float(d), Value::Float(x)) => d.push(x),
            (ColumnData::Double(d), Value::Double(x)) => d.push(x),
            (_, v) => panic!("type mismatch pushing {v:?} into typed column"),
        }
    }

    /// Reserve room for `n` more values.
    pub fn reserve(&mut self, n: usize) {
        match self {
            ColumnData::Char(v) => v.reserve(n),
            ColumnData::Short(v) => v.reserve(n),
            ColumnData::Int(v) => v.reserve(n),
            ColumnData::Long(v) => v.reserve(n),
            ColumnData::Float(v) => v.reserve(n),
            ColumnData::Double(v) => v.reserve(n),
        }
    }

    /// Transpose kernel, dense part: one typed loop per (type, pick
    /// kind), no per-cell dispatch.
    fn scatter(&self, picks: Picks<'_>, out: &mut [Value], stride: usize) {
        macro_rules! typed {
            ($v:expr, $wrap:expr) => {
                match picks {
                    Picks::Range(a, b) => scatter(out, stride, $v[a..b].iter().copied(), $wrap),
                    Picks::Sel(idx) => {
                        scatter(out, stride, idx.iter().map(|&i| $v[i as usize]), $wrap)
                    }
                }
            };
        }
        match self {
            ColumnData::Char(v) => typed!(v, Value::Char),
            ColumnData::Short(v) => typed!(v, Value::Short),
            ColumnData::Int(v) => typed!(v, Value::Int),
            ColumnData::Long(v) => typed!(v, Value::Long),
            ColumnData::Float(v) => typed!(v, Value::Float),
            ColumnData::Double(v) => typed!(v, Value::Double),
        }
    }
}

/// The block rows one tile of the transpose reads, ascending: a
/// contiguous range when every row is selected, else a piece of the
/// selection vector.
#[derive(Clone, Copy)]
enum Picks<'a> {
    Range(usize, usize),
    Sel(&'a [u32]),
}

impl<'a> Picks<'a> {
    fn len(self) -> usize {
        match self {
            Picks::Range(a, b) => b - a,
            Picks::Sel(idx) => idx.len(),
        }
    }

    fn first(self) -> Option<usize> {
        match self {
            Picks::Range(a, b) => (a < b).then_some(a),
            Picks::Sel(idx) => idx.first().map(|&i| i as usize),
        }
    }

    /// The picks below block row `row`, and the rest.
    fn split_at_row(self, row: usize) -> (Picks<'a>, Picks<'a>) {
        match self {
            Picks::Range(a, b) => {
                let mid = row.clamp(a, b);
                (Picks::Range(a, mid), Picks::Range(mid, b))
            }
            Picks::Sel(idx) => {
                let (lo, hi) = idx.split_at(idx.partition_point(|&i| (i as usize) < row));
                (Picks::Sel(lo), Picks::Sel(hi))
            }
        }
    }
}

/// Write `wrap(x)` for each `x` of `src` into every `stride`-th cell of
/// `out` — one column's share of a row-major tile.
#[inline]
fn scatter<T>(
    out: &mut [Value],
    stride: usize,
    src: impl Iterator<Item = T>,
    wrap: impl Fn(T) -> Value,
) {
    for (cell, x) in out.iter_mut().step_by(stride).zip(src) {
        *cell = wrap(x);
    }
}

/// Generator for rows an AFC supplies without reading bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnGen {
    /// The same value for every row of the run.
    Const(Value),
    /// Row `k` of the run carries `start + k*step`, converted to the
    /// column's type exactly like the row-at-a-time extractor does.
    Affine { start: i64, step: i64 },
}

impl ColumnGen {
    /// Value of row `k` within the run.
    #[inline]
    pub fn value_at(&self, k: usize, dtype: DataType) -> Value {
        match self {
            ColumnGen::Const(v) => *v,
            ColumnGen::Affine { start, step } => Value::from_i64(dtype, start + k as i64 * step),
        }
    }
}

/// One lazily-materialized run of generated rows.
#[derive(Debug, Clone, PartialEq)]
pub struct LazyRun {
    /// First block row the run covers.
    pub start: usize,
    /// Rows covered.
    pub len: usize,
    /// How the values are produced.
    pub gen: ColumnGen,
}

/// One column: a dense decoded prefix (possibly empty) followed by
/// zero or more lazy runs. Appending decoded data after a lazy run
/// materializes the runs first, so the split point only moves forward.
#[derive(Debug, Clone)]
pub struct Column {
    dtype: DataType,
    data: ColumnData,
    runs: Vec<LazyRun>,
}

impl Column {
    /// A fresh empty column of the given type.
    pub fn new(dtype: DataType) -> Column {
        Column { dtype, data: ColumnData::empty(dtype), runs: Vec::new() }
    }

    /// The column's scalar type.
    #[inline]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Total rows (decoded + lazy).
    #[inline]
    pub fn len(&self) -> usize {
        match self.runs.last() {
            Some(r) => r.start + r.len,
            None => self.data.len(),
        }
    }

    /// True when the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense prefix and the lazy suffix, for kernels that want to
    /// specialize over both representations.
    #[inline]
    pub fn parts(&self) -> (&ColumnData, &[LazyRun]) {
        (&self.data, &self.runs)
    }

    /// Mutable access to the dense vector for appending decoded
    /// values; any lazy runs are materialized first so the dense part
    /// stays a prefix.
    pub fn append_data(&mut self) -> &mut ColumnData {
        if !self.runs.is_empty() {
            self.materialize();
        }
        &mut self.data
    }

    /// Append a lazy run of `len` generated rows.
    pub fn push_run(&mut self, len: usize, gen: ColumnGen) {
        if len == 0 {
            return;
        }
        self.runs.push(LazyRun { start: self.len(), len, gen });
    }

    /// Convert every lazy run into dense values.
    pub fn materialize(&mut self) {
        let runs = std::mem::take(&mut self.runs);
        let total: usize = runs.iter().map(|r| r.len).sum();
        self.data.reserve(total);
        for r in &runs {
            for k in 0..r.len {
                self.data.push_value(r.gen.value_at(k, self.dtype));
            }
        }
    }

    /// The value at block row `i`.
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        if i < self.data.len() {
            return self.data.value_at(i);
        }
        // Binary search the runs by start row.
        let at = self.runs.partition_point(|r| r.start + r.len <= i);
        let r = &self.runs[at];
        debug_assert!(i >= r.start && i < r.start + r.len);
        r.gen.value_at(i - r.start, self.dtype)
    }

    /// All values as `f64` in row order (the view predicate kernels
    /// and partitioning compare on).
    pub fn f64_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        match &self.data {
            ColumnData::Char(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Short(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Int(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Long(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Float(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Double(v) => out.extend(v.iter().copied()),
        }
        for r in &self.runs {
            match r.gen {
                ColumnGen::Const(v) => {
                    let x = v.as_f64();
                    out.extend(std::iter::repeat_n(x, r.len));
                }
                ColumnGen::Affine { .. } => {
                    out.extend((0..r.len).map(|k| r.gen.value_at(k, self.dtype).as_f64()));
                }
            }
        }
        out
    }

    /// Transpose kernel, one column of one tile: the `k`-th picked row
    /// lands in `out[k * stride]`. The dense prefix goes through its
    /// typed slice; each lazy run the picks reach is filled from its
    /// generator, never materialized.
    fn scatter(&self, picks: Picks<'_>, out: &mut [Value], stride: usize) {
        let (dense, mut lazy) = picks.split_at_row(self.data.len());
        // A tile wholly past the dense prefix leaves an empty range
        // that need not lie inside the dense slice.
        if dense.len() > 0 {
            self.data.scatter(dense, out, stride);
        }
        let mut done = dense.len();
        while let Some(row) = lazy.first() {
            let run = &self.runs[self.runs.partition_point(|r| r.start + r.len <= row)];
            let (here, rest) = lazy.split_at_row(run.start + run.len);
            let cells = &mut out[done * stride..];
            let at = |row: usize| run.gen.value_at(row - run.start, self.dtype);
            match (run.gen, here) {
                (ColumnGen::Const(v), _) => scatter(cells, stride, 0..here.len(), |_| v),
                (_, Picks::Range(a, b)) => scatter(cells, stride, a..b, at),
                (_, Picks::Sel(idx)) => scatter(cells, stride, idx.iter(), |&i| at(i as usize)),
            }
            done += here.len();
            lazy = rest;
        }
    }

    /// Selected values as `f64` (partitioning reads one column this
    /// way).
    pub fn f64s(&self, sel: Option<&[u32]>) -> Vec<f64> {
        match sel {
            None => self.f64_vec(),
            Some(idx) => idx.iter().map(|&i| self.value_at(i as usize).as_f64()).collect(),
        }
    }

    /// Gather the rows named by the ascending index list into a fresh
    /// dense column (lazy constants stay lazy — a gather of a constant
    /// run is still constant).
    pub fn gather(&self, idx: &[u32]) -> Column {
        // Fast path: one constant run covering everything stays lazy.
        if self.data.is_empty() && self.runs.len() == 1 {
            if let ColumnGen::Const(_) = self.runs[0].gen {
                let mut out = Column::new(self.dtype);
                out.push_run(idx.len(), self.runs[0].gen);
                return out;
            }
        }
        let mut data = ColumnData::empty(self.dtype);
        data.reserve(idx.len());
        for &i in idx {
            data.push_value(self.value_at(i as usize));
        }
        Column { dtype: self.dtype, data, runs: Vec::new() }
    }
}

/// Cells per tile of the transpose kernel (16 KiB of `Value`s): small
/// enough that a tile stays in L1 while every column writes into it.
/// Measured on `dv_e2e` `scan_deliver` (EXPERIMENTS.md, "Result
/// delivery"): `types.absorb_ms` 127 tiled, 197 with one whole-block
/// tile, 295 filling row by row through per-column cursors.
const TILE_CELLS: usize = 1024;

/// Tiles per slab the kernel hands out: at most 64 KiB of `Value`s, so
/// a slab is always an ordinary heap chunk. One slab per block (0.7–1.4
/// MB) is at or above glibc's `mmap` threshold, which moves with what
/// the process freed before: the same query then either recycles its
/// result memory or unmaps and re-faults it every time, run by run
/// (EXPERIMENTS.md, "Result delivery": `window_manyfiles` 43–713 page
/// faults per query and ten runs' `queries_per_s` spread over 18.8 /s,
/// against 30–41 faults and 6.0 /s with 64 KiB slabs; `scan_deliver`
/// reads the same either way).
const SLAB_TILES: usize = 4;

/// A batch of rows in columnar form — the columnar sibling of
/// [`crate::RowBlock`].
#[derive(Debug, Clone)]
pub struct ColumnBlock {
    /// Identifier of the cluster node that produced the block.
    pub source_node: usize,
    /// One column per working attribute, all the same length.
    pub columns: Vec<Column>,
    /// Total rows extracted into the block.
    len: usize,
    /// Ascending row indices that passed the filter; `None` = all.
    sel: Option<Vec<u32>>,
}

impl ColumnBlock {
    /// An empty block with one column per working-attribute type.
    pub fn with_dtypes(source_node: usize, dtypes: &[DataType]) -> ColumnBlock {
        ColumnBlock {
            source_node,
            columns: dtypes.iter().map(|&d| Column::new(d)).collect(),
            len: 0,
            sel: None,
        }
    }

    /// Assemble a block from equal-length columns (all rows selected).
    pub fn from_columns(source_node: usize, columns: Vec<Column>) -> ColumnBlock {
        let len = columns.first().map(|c| c.len()).unwrap_or(0);
        debug_assert!(columns.iter().all(|c| c.len() == len));
        ColumnBlock { source_node, columns, len, sel: None }
    }

    /// Total rows extracted (before selection).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Rows that pass the current selection.
    #[inline]
    pub fn selected(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.len,
        }
    }

    /// True when no rows are selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.selected() == 0
    }

    /// The selection vector, if any.
    #[inline]
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Install a selection (`None` keeps every row). Indices must be
    /// ascending and in range — the filter service produces them from
    /// a bitmap, which guarantees both.
    pub fn set_selection(&mut self, sel: Option<Vec<u32>>) {
        debug_assert!(sel
            .as_ref()
            .map(|s| s.windows(2).all(|w| w[0] < w[1])
                && s.last().map(|&i| (i as usize) < self.len).unwrap_or(true))
            .unwrap_or(true));
        self.sel = sel;
    }

    /// The selected row indices, materialized.
    pub fn selected_rows(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.clone(),
            None => (0..self.len as u32).collect(),
        }
    }

    /// Record that every column grew by `n` rows (one extracted AFC).
    pub fn advance_rows(&mut self, n: usize) {
        self.len += n;
        debug_assert!(self.columns.iter().all(|c| c.len() == self.len));
    }

    /// Approximate wire size of the *selected* rows — the unit the
    /// data-mover bandwidth model charges, matching
    /// [`crate::RowBlock::wire_bytes`].
    pub fn wire_bytes(&self) -> usize {
        let row_bytes: usize = self.columns.iter().map(|c| c.dtype().size()).sum();
        self.selected() * row_bytes
    }

    /// The one column→row kernel: transpose the selected rows into
    /// exact-capacity row-major slabs of [`SLAB_TILES`] tiles each (the
    /// last one shorter). Works a tile of rows at a time so the strided
    /// writes of each column stay in cache: the tile is appended as
    /// filler, then every column overwrites its cells through
    /// [`Column::scatter`].
    pub fn to_rows(&self) -> Rows {
        let width = self.columns.len();
        let n = self.selected();
        assert!(width > 0 || n == 0, "a block without columns has no rows to deliver");
        let tile_rows = (TILE_CELLS / width.max(1)).max(1);
        let mut rows = Rows::new(width);
        let mut done = 0;
        while done < n {
            let slab_end = n.min(done + SLAB_TILES * tile_rows);
            let mut cells: Vec<Value> = Vec::with_capacity((slab_end - done) * width);
            while done < slab_end {
                let t = tile_rows.min(slab_end - done);
                let picks = match &self.sel {
                    None => Picks::Range(done, done + t),
                    Some(sel) => Picks::Sel(&sel[done..done + t]),
                };
                let base = cells.len();
                cells.resize(base + t * width, Value::Char(0));
                let tile = &mut cells[base..];
                for (c, col) in self.columns.iter().enumerate() {
                    col.scatter(picks, &mut tile[c..], width);
                }
                done += t;
            }
            rows.push_slab(cells);
        }
        rows
    }

    /// Project working columns to output order, in place. Duplicated
    /// positions clone; the selection is untouched (it indexes rows,
    /// not columns).
    pub fn project(&mut self, output_positions: &[usize]) {
        if output_positions.len() == self.columns.len()
            && output_positions.iter().enumerate().all(|(i, &p)| i == p)
        {
            return;
        }
        let old = std::mem::take(&mut self.columns);
        let mut slots: Vec<Option<Column>> = old.into_iter().map(Some).collect();
        self.columns = output_positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if output_positions[i + 1..].contains(&p) {
                    slots[p].clone().expect("projection position out of range")
                } else {
                    slots[p].take().expect("projection position out of range")
                }
            })
            .collect();
    }
}

/// A fixed-size bitmap over the rows of one block — the result type of
/// the vectorized predicate kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All bits clear.
    pub fn new_false(len: usize) -> Bitmap {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// All bits set.
    pub fn new_true(len: usize) -> Bitmap {
        let mut b = Bitmap { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.trim();
        b
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn trim(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set every bit in `[start, end)` (constant-run fast path): whole
    /// words, with a masked head and tail.
    pub fn set_range(&mut self, start: usize, end: usize) {
        debug_assert!(end <= self.len);
        if start >= end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            self.words[first + 1..last].fill(u64::MAX);
            self.words[last] |= tail;
        }
    }

    /// `self &= other`.
    pub fn and(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`.
    pub fn or(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self = !self` (bits past `len` stay clear).
    pub fn not(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim();
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Ascending indices of set bits — the selection vector.
    pub fn indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push((wi * 64 + b) as u32);
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.value_at(i)).collect()
    }

    #[test]
    fn bitmap_ops() {
        let mut a = Bitmap::new_false(70);
        a.set(0);
        a.set(65);
        assert!(a.get(0) && a.get(65) && !a.get(64));
        assert_eq!(a.count(), 2);
        assert_eq!(a.indices(), vec![0, 65]);

        let t = Bitmap::new_true(70);
        assert_eq!(t.count(), 70);
        let mut n = t.clone();
        n.not();
        assert_eq!(n.count(), 0);

        let mut o = a.clone();
        o.or(&t);
        assert_eq!(o.count(), 70);
        o.and(&a);
        assert_eq!(o.indices(), vec![0, 65]);
    }

    #[test]
    fn set_range_equals_the_per_bit_loop() {
        // Starts and ends on and off word boundaries, inside one word
        // and across several, empty and full.
        let len = 200;
        let edges = [0, 1, 5, 63, 64, 65, 100, 127, 128, 129, 191, 192, 199, 200];
        for &start in &edges {
            for &end in &edges {
                let mut fast = Bitmap::new_false(len);
                fast.set(7);
                fast.set(150);
                let mut slow = fast.clone();
                fast.set_range(start, end);
                for i in start..end {
                    slow.set(i);
                }
                assert_eq!(fast, slow, "[{start}, {end})");
            }
        }
        let mut full = Bitmap::new_false(len);
        full.set_range(0, len);
        assert_eq!(full, Bitmap::new_true(len));
    }

    #[test]
    fn lazy_runs_materialize_like_generators() {
        let mut c = Column::new(DataType::Int);
        c.push_run(3, ColumnGen::Const(Value::Int(7)));
        c.push_run(2, ColumnGen::Affine { start: 10, step: 2 });
        assert_eq!(c.len(), 5);
        assert_eq!(c.value_at(1), Value::Int(7));
        assert_eq!(c.value_at(3), Value::Int(10));
        assert_eq!(c.value_at(4), Value::Int(12));
        assert_eq!(c.f64_vec(), vec![7.0, 7.0, 7.0, 10.0, 12.0]);
        // Appending decoded data materializes the lazy prefix.
        c.append_data().push_value(Value::Int(99));
        assert_eq!(c.len(), 6);
        assert_eq!(c.value_at(4), Value::Int(12));
        assert_eq!(c.value_at(5), Value::Int(99));
    }

    #[test]
    fn affine_truncates_like_row_extractor() {
        // Short wraps exactly as Value::from_i64 does on the row path.
        let mut c = Column::new(DataType::Short);
        c.push_run(2, ColumnGen::Affine { start: 65536 + 5, step: 1 });
        assert_eq!(c.value_at(0), Value::Short(5));
        assert_eq!(c.f64_vec(), vec![5.0, 6.0]);
    }

    #[test]
    fn gather_walks_data_and_runs() {
        let mut c = Column::new(DataType::Double);
        c.append_data().push_value(Value::Double(0.5));
        c.append_data().push_value(Value::Double(1.5));
        c.push_run(3, ColumnGen::Affine { start: 10, step: 5 });
        let g = c.gather(&[1, 2, 4]);
        assert_eq!(values(&g), vec![Value::Double(1.5), Value::Double(10.0), Value::Double(20.0)]);
        // Pure constant column stays lazy under gather.
        let mut k = Column::new(DataType::Int);
        k.push_run(100, ColumnGen::Const(Value::Int(3)));
        let gk = k.gather(&[5, 50]);
        let (data, runs) = gk.parts();
        assert!(data.is_empty());
        assert_eq!(runs.len(), 1);
        assert_eq!(values(&gk), vec![Value::Int(3), Value::Int(3)]);
    }

    #[test]
    fn block_selection_and_wire_bytes() {
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Double]);
        for i in 0..4 {
            b.columns[0].append_data().push_value(Value::Int(i));
            b.columns[1].append_data().push_value(Value::Double(i as f64));
        }
        b.advance_rows(4);
        assert_eq!(b.wire_bytes(), 4 * 12);
        b.set_selection(Some(vec![1, 3]));
        assert_eq!(b.selected(), 2);
        assert_eq!(b.wire_bytes(), 2 * 12);
        assert_eq!(b.selected_rows(), vec![1, 3]);
        let want: Rows =
            [vec![Value::Int(1), Value::Double(1.0)], vec![Value::Int(3), Value::Double(3.0)]]
                .into_iter()
                .collect();
        assert_eq!(b.to_rows(), want);
    }

    #[test]
    fn projection_reorders_and_duplicates() {
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Float]);
        b.columns[0].append_data().push_value(Value::Int(1));
        b.columns[1].append_data().push_value(Value::Float(2.0));
        b.advance_rows(1);
        b.project(&[1, 0, 1]);
        assert_eq!(b.columns.len(), 3);
        assert_eq!(b.columns[0].value_at(0), Value::Float(2.0));
        assert_eq!(b.columns[1].value_at(0), Value::Int(1));
        assert_eq!(b.columns[2].value_at(0), Value::Float(2.0));
    }

    #[test]
    fn identity_projection_is_noop() {
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Float]);
        b.columns[0].append_data().push_value(Value::Int(1));
        b.columns[1].append_data().push_value(Value::Float(2.0));
        b.advance_rows(1);
        b.project(&[0, 1]);
        assert_eq!(b.columns.len(), 2);
        assert_eq!(b.columns[0].value_at(0), Value::Int(1));
    }

    /// The transpose kernel against `Column::value_at`, cell by cell,
    /// over random blocks.
    mod kernel {
        use super::*;
        use proptest::prelude::*;

        const DTYPES: [DataType; 6] = [
            DataType::Char,
            DataType::Short,
            DataType::Int,
            DataType::Long,
            DataType::Float,
            DataType::Double,
        ];

        fn mix(seed: u64, k: u64) -> i64 {
            let mut h = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (h ^ (h >> 29)) as i64
        }

        /// One column, independent of the block length it will be cut
        /// to: type, quarters of the block that are dense, the lazy
        /// runs that share the rest by weight, a seed for dense cells.
        #[derive(Debug, Clone)]
        struct ColRecipe {
            dtype: DataType,
            dense_quarters: usize,
            runs: Vec<(usize, ColumnGen)>,
            seed: u64,
        }

        impl ColRecipe {
            fn build(&self, n: usize) -> Column {
                let mut c = Column::new(self.dtype);
                let dense = n * self.dense_quarters / 4;
                for k in 0..dense {
                    // Floats take raw bit patterns (NaNs, infinities,
                    // signed zeros included).
                    let raw = mix(self.seed, k as u64);
                    c.append_data().push_value(match self.dtype {
                        DataType::Float => Value::Float(f32::from_bits(raw as u32)),
                        DataType::Double => Value::Double(f64::from_bits(raw as u64)),
                        dtype => Value::from_i64(dtype, raw),
                    });
                }
                let lazy = n - dense;
                let total: usize = self.runs.iter().map(|r| r.0).sum();
                let mut left = lazy;
                for (i, &(weight, gen)) in self.runs.iter().enumerate() {
                    let len = if i + 1 == self.runs.len() {
                        left
                    } else {
                        (lazy * weight / total).min(left)
                    };
                    let gen = match gen {
                        ColumnGen::Const(v) => {
                            ColumnGen::Const(Value::from_i64(self.dtype, v.as_i64().unwrap()))
                        }
                        affine => affine,
                    };
                    c.push_run(len, gen);
                    left -= len;
                }
                assert_eq!(c.len(), n);
                c
            }
        }

        fn arb_gen() -> impl Strategy<Value = ColumnGen> {
            // Starts around the `Short` limits make `Affine` wrap.
            let start = prop_oneof![-100i64..100, 32_700i64..32_800, 65_500i64..65_600];
            prop_oneof![
                any::<i32>().prop_map(|v| ColumnGen::Const(Value::Long(v as i64))),
                (start, -3i64..4).prop_map(|(start, step)| ColumnGen::Affine { start, step }),
            ]
        }

        fn arb_col() -> impl Strategy<Value = ColRecipe> {
            (
                0usize..6,
                0usize..5,
                prop::collection::vec((1usize..50, arb_gen()), 1..5),
                any::<u64>(),
            )
                .prop_map(|(d, dense_quarters, runs, seed)| ColRecipe {
                    dtype: DTYPES[d],
                    dense_quarters,
                    runs,
                    seed,
                })
        }

        /// `None`, nothing, everything spelled out, or every row whose
        /// hash is divisible by `m`.
        #[derive(Debug, Clone, Copy)]
        enum SelRecipe {
            None,
            Empty,
            All,
            Sparse(u64, u64),
        }

        fn arb_sel() -> impl Strategy<Value = SelRecipe> {
            prop_oneof![
                Just(SelRecipe::None),
                Just(SelRecipe::Empty),
                Just(SelRecipe::All),
                (2u64..40, any::<u64>()).prop_map(|(m, seed)| SelRecipe::Sparse(m, seed)),
            ]
        }

        fn same_cell(a: Value, b: Value) -> bool {
            a.data_type() == b.data_type()
                && match (a, b) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                    _ => a.as_i64().unwrap() == b.as_i64().unwrap(),
                }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 192 }))]

            // Up to 2000 rows: several tiles at every width and several
            // slabs from three columns up, the last of each partial.
            #[test]
            fn transpose_equals_value_at(
                n in 0usize..2000,
                cols in prop::collection::vec(arb_col(), 1..6),
                sel in arb_sel(),
            ) {
                let mut block =
                    ColumnBlock::from_columns(3, cols.iter().map(|c| c.build(n)).collect());
                block.set_selection(match sel {
                    SelRecipe::None => None,
                    SelRecipe::Empty => Some(Vec::new()),
                    SelRecipe::All => Some((0..n as u32).collect()),
                    SelRecipe::Sparse(m, seed) => Some(
                        (0..n as u32).filter(|&i| (mix(seed, i as u64) as u64).is_multiple_of(m)).collect(),
                    ),
                });
                let picked = block.selected_rows();
                let rows = block.to_rows();
                prop_assert_eq!(rows.len(), picked.len());
                for (row, &i) in rows.iter().zip(&picked) {
                    prop_assert_eq!(row.len(), cols.len());
                    for (c, &cell) in row.iter().enumerate() {
                        let want = block.columns[c].value_at(i as usize);
                        prop_assert!(
                            same_cell(cell, want),
                            "row {i} column {c}: kernel {cell:?}, value_at {want:?}"
                        );
                    }
                }
            }
        }
    }
}
