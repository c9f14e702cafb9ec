//! Segment tables: a file's loop nest flattened into contiguous byte
//! runs, once per descriptor.
//!
//! A **segment** is the unit the aligner works with: a contiguous run
//! of `rows` fixed-width records inside one file, labelled with
//!
//! * the values of the outer loop variables that were peeled off to
//!   reach it (`coords`, e.g. `TIME = 42`), and
//! * an *inner signature* describing what one row means — an innermost
//!   loop (`GRID` over `201..=300`), a single record, or a chunk from a
//!   `CHUNKED` index.
//!
//! [`SegmentTable::build`] walks the whole loop nest with no query in
//! sight: every outer iteration, and every chunk of a `CHUNKED` index.
//! Queries never re-walk it. They select from the aligned chunks built
//! over the table (`plan.rs`): an outer-loop value the query's ranges
//! do not contain, or a chunk the R-tree lookup does not return, drops
//! the chunks built from it, and every offset stays where the full walk
//! put it.
//!
//! Names are interned to dense ids before anything is built, and each
//! distinct record layout (attribute list) is stored once and shared by
//! every segment that reads it.

use std::collections::HashMap;

use dv_descriptor::{FileModel, ResolvedItem};
use dv_index::{ChunkIndexEntry, RTree, Rect};
use dv_types::{DvError, IntervalSet, Result};

/// Name id of the chunk-ordinal coordinate of `CHUNKED` segments (no
/// attribute or variable can take it: it is interned first).
pub(crate) const CHUNK_VAR: u32 = 0;

/// One record layout: attribute name ids with their byte offsets
/// inside the record, and the record's size.
#[derive(Debug)]
pub(crate) struct Record {
    /// `(name id, byte offset)` per attribute, in byte order.
    pub attrs: Vec<(u32, usize)>,
    /// Bytes per record.
    pub stride: u64,
}

/// Dense ids for every attribute and loop-variable name, and every
/// distinct record layout, of one node's files.
#[derive(Debug)]
pub(crate) struct Interner {
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    records: Vec<Record>,
    record_ids: HashMap<Vec<u32>, u32>,
}

impl Interner {
    pub fn new() -> Interner {
        let mut i = Interner {
            names: Vec::new(),
            name_ids: HashMap::new(),
            records: Vec::new(),
            record_ids: HashMap::new(),
        };
        i.name("__CHUNK");
        i
    }

    /// Id of `name`, interning it on first sight.
    pub fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    /// Every interned name, indexed by id.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The record layout with id `id`.
    pub fn record(&self, id: u32) -> &Record {
        &self.records[id as usize]
    }

    /// Number of distinct record layouts.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Id of the record layout `attrs`, interning it on first sight.
    fn intern_record(
        &mut self,
        attrs: &[String],
        attr_sizes: &HashMap<String, usize>,
    ) -> Result<u32> {
        let key: Vec<u32> = attrs.iter().map(|a| self.name(a)).collect();
        if let Some(&id) = self.record_ids.get(&key) {
            return Ok(id);
        }
        let mut fields = Vec::with_capacity(attrs.len());
        let mut stride = 0usize;
        for (a, &id) in attrs.iter().zip(&key) {
            fields.push((id, stride));
            stride += *attr_sizes.get(a).ok_or_else(|| {
                DvError::DescriptorSemantic(format!("attribute `{a}` has no declared size"))
            })?;
        }
        let id = self.records.len() as u32;
        self.records.push(Record { attrs: fields, stride: stride as u64 });
        self.record_ids.insert(key, id);
        Ok(id)
    }
}

/// Inner structure of one segment row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum InnerSig {
    /// Rows correspond to an innermost loop over name id `var`: row `k`
    /// carries `var = lo + k*step`; the full loop has `hi` as its last
    /// value. Alignment requires identical signatures.
    Loop { var: u32, lo: i64, hi: i64, step: i64 },
    /// A single record outside any innermost loop.
    Record,
    /// Rows of one variable-length chunk (row values are data, not
    /// affine; no inner clipping possible).
    Chunk,
}

/// A contiguous run of fixed-width records in one file.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// `start..end` of the segment's coordinates in its table; read
    /// them with [`SegmentTable::coords`].
    coords: (u32, u32),
    /// Inner row structure.
    pub inner: InnerSig,
    /// Number of records.
    pub rows: u64,
    /// Record layout id in the [`Interner`].
    pub record: u32,
    /// Byte offset of record 0 in the file.
    pub offset: u64,
}

/// Every segment of one file, in file order.
#[derive(Debug)]
pub(crate) struct SegmentTable {
    pub segments: Vec<Segment>,
    /// Coordinates of every segment, back to back (consecutive
    /// segments with equal coordinates share one copy).
    coords: Vec<(u32, i64)>,
}

impl SegmentTable {
    /// Walk `file`'s whole layout. `chunk_index` must be provided for
    /// `CHUNKED` files (the compile phase loads it); `attr_sizes` gives
    /// the byte width of every attribute appearing in layouts.
    pub fn build(
        file: &FileModel,
        attr_sizes: &HashMap<String, usize>,
        chunk_index: Option<&LoadedChunkIndex>,
        interner: &mut Interner,
    ) -> Result<SegmentTable> {
        let mut w = Walk {
            file,
            attr_sizes,
            chunk_index,
            interner,
            offset: 0,
            out: SegmentTable { segments: Vec::new(), coords: Vec::new() },
        };
        w.walk(file.layout(), &mut Vec::new())?;
        Ok(w.out)
    }

    /// Outer loop `(name id, value)` pairs of `s`, sorted by id; a
    /// chunk's ordinal rides under [`CHUNK_VAR`].
    pub fn coords(&self, s: &Segment) -> &[(u32, i64)] {
        &self.coords[s.coords.0 as usize..s.coords.1 as usize]
    }
}

struct Walk<'a> {
    file: &'a FileModel,
    attr_sizes: &'a HashMap<String, usize>,
    chunk_index: Option<&'a LoadedChunkIndex>,
    interner: &'a mut Interner,
    offset: u64,
    out: SegmentTable,
}

impl Walk<'_> {
    fn push(
        &mut self,
        coords: &[(u32, i64)],
        inner: InnerSig,
        rows: u64,
        record: u32,
        offset: u64,
    ) {
        let t = &mut self.out;
        let start = t.coords.len();
        t.coords.extend_from_slice(coords);
        t.coords[start..].sort_unstable();
        let mut at = (start as u32, t.coords.len() as u32);
        if let Some(last) = t.segments.last() {
            if t.coords(last) == &t.coords[start..] {
                t.coords.truncate(start);
                at = last.coords;
            }
        }
        t.segments.push(Segment { coords: at, inner, rows, record, offset });
    }

    fn walk(&mut self, items: &[ResolvedItem], coords: &mut Vec<(u32, i64)>) -> Result<()> {
        for item in items {
            match item {
                ResolvedItem::Attrs(attrs) => {
                    let record = self.interner.intern_record(attrs, self.attr_sizes)?;
                    self.push(coords, InnerSig::Record, 1, record, self.offset);
                    self.offset += self.interner.record(record).stride;
                }
                ResolvedItem::Loop { var, lo, hi, step, body } => {
                    let iters = ResolvedItem::loop_iterations(*lo, *hi, *step);
                    let var = self.interner.name(var);
                    // Innermost loop over a single record: one segment.
                    if let [ResolvedItem::Attrs(attrs)] = body.as_slice() {
                        let record = self.interner.intern_record(attrs, self.attr_sizes)?;
                        let inner = InnerSig::Loop { var, lo: *lo, hi: *hi, step: *step };
                        self.push(coords, inner, iters, record, self.offset);
                        self.offset += iters * self.interner.record(record).stride;
                        continue;
                    }
                    // Structured body: peel every iteration.
                    dv_descriptor::model::items_byte_size(body, self.attr_sizes).ok_or_else(
                        || {
                            DvError::DescriptorSemantic(
                                "CHUNKED layout nested under a loop has no static size".into(),
                            )
                        },
                    )?;
                    for i in 0..iters {
                        coords.push((var, lo + i as i64 * step));
                        self.walk(body, coords)?;
                        coords.pop();
                    }
                }
                ResolvedItem::Chunked { attrs, .. } => {
                    let index = self.chunk_index.ok_or_else(|| {
                        DvError::Runtime(format!(
                            "file `{}` has a CHUNKED layout but its index was not loaded",
                            self.file.rel_path
                        ))
                    })?;
                    let record = self.interner.intern_record(attrs, self.attr_sizes)?;
                    for (ord, e) in index.entries.iter().enumerate() {
                        coords.push((CHUNK_VAR, ord as i64));
                        self.push(coords, InnerSig::Chunk, e.rows, record, e.offset);
                        coords.pop();
                    }
                }
            }
        }
        Ok(())
    }
}

/// A `CHUNKED` index loaded at compile time: entries plus an R-tree
/// over their bounding boxes, and the indexed attribute names in bound
/// order.
#[derive(Debug)]
pub struct LoadedChunkIndex {
    /// Attribute names corresponding to each bounds dimension.
    pub attrs: Vec<String>,
    /// All chunk entries, in file order.
    pub entries: Vec<ChunkIndexEntry>,
    /// R-tree over entry MBRs; payload is the entry ordinal.
    pub tree: RTree<usize>,
}

impl LoadedChunkIndex {
    /// Build from raw entries.
    pub fn new(attrs: Vec<String>, entries: Vec<ChunkIndexEntry>) -> LoadedChunkIndex {
        let dims = attrs.len();
        let rects: Vec<(Rect, usize)> =
            entries.iter().enumerate().map(|(i, e)| (e.rect(), i)).collect();
        let tree = RTree::bulk_load(dims, rects);
        LoadedChunkIndex { attrs, entries, tree }
    }

    /// Ordinals of chunks that can satisfy `ranges`, in file order.
    /// Uses the R-tree with the hull box of each attribute's interval
    /// set, then refines with exact interval overlap.
    pub fn matching_chunks(&self, ranges: &HashMap<String, IntervalSet>) -> Vec<usize> {
        let mut lo = Vec::with_capacity(self.attrs.len());
        let mut hi = Vec::with_capacity(self.attrs.len());
        for a in &self.attrs {
            match ranges.get(a).and_then(|s| s.bounds()) {
                Some((l, h)) => {
                    lo.push(l);
                    hi.push(h);
                }
                None if ranges.get(a).map(|s| s.is_empty()).unwrap_or(false) => {
                    // Empty constraint: nothing matches.
                    return Vec::new();
                }
                None => {
                    lo.push(f64::NEG_INFINITY);
                    hi.push(f64::INFINITY);
                }
            }
        }
        let query = Rect::new(lo, hi);
        let mut hits: Vec<usize> = Vec::new();
        self.tree.query(&query, |_, &ord| {
            let e = &self.entries[ord];
            let exact = self.attrs.iter().enumerate().all(|(d, a)| match ranges.get(a) {
                Some(set) => set.overlaps_closed(e.bounds[d].0, e.bounds[d].1),
                None => true,
            });
            if exact {
                hits.push(ord);
            }
        });
        hits.sort_unstable();
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::test_support::{afcs_of, afcs_with_index, const_at, ranges};
    use dv_descriptor::compile;
    use dv_types::{Interval, Value};

    const DESC: &str = r#"
[IPARS]
REL = short int
TIME = int
X = float
SOIL = float
SGAS = float

[IparsData]
DatasetDescription = IPARS
DIR[0] = n0/d

DATASET "IparsData" {
  DATATYPE { IPARS }
  DATAINDEX { REL TIME }
  DATA { DATASET coords DATASET vars }
  DATASET "coords" {
    DATASPACE { LOOP GRID 1:10:1 { X } }
    DATA { DIR[0]/COORDS }
  }
  DATASET "vars" {
    DATASPACE {
      LOOP TIME 1:20:1 {
        LOOP GRID 1:10:1 { SOIL SGAS }
      }
    }
    DATA { DIR[0]/DATA$REL REL = 0:1:1 }
  }
}
"#;

    fn table(m: &dv_descriptor::DatasetModel, path: &str) -> (SegmentTable, Interner) {
        let f = m.files.iter().find(|f| f.rel_path == path).unwrap();
        let mut names = Interner::new();
        let t = SegmentTable::build(f, &m.attr_sizes, None, &mut names).unwrap();
        (t, names)
    }

    fn attr_names(names: &Interner, record: u32) -> Vec<&str> {
        let r = names.record(record);
        r.attrs.iter().map(|&(id, _)| names.names()[id as usize].as_str()).collect()
    }

    /// The data file's `(TIME, offset)` pairs a query over `DATA0`
    /// (with `REL = 0`) selects, read from its AFC schedule.
    fn selected_data_segments(r: &[(&str, IntervalSet)]) -> Vec<(i64, u64)> {
        let mut r = r.to_vec();
        r.push(("REL", IntervalSet::points(&[0.0])));
        let afcs = afcs_of(DESC, &r, &["TIME", "SOIL"], 0).unwrap();
        afcs.iter()
            .map(|a| {
                assert_eq!(a.entries.len(), 1);
                let Value::Int(t) = const_at(a, 0) else { panic!("TIME is not an int const") };
                (t as i64, a.entries[0].offset)
            })
            .collect()
    }

    #[test]
    fn coords_file_single_segment() {
        let m = compile(DESC).unwrap();
        let (t, names) = table(&m, "d/COORDS");
        assert_eq!(t.segments.len(), 1);
        let s = &t.segments[0];
        assert_eq!(s.rows, 10);
        assert_eq!(names.record(s.record).stride, 4);
        assert_eq!(s.offset, 0);
        assert!(t.coords(s).is_empty());
        let grid = names.names().iter().position(|n| n == "GRID").unwrap() as u32;
        assert_eq!(s.inner, InnerSig::Loop { var: grid, lo: 1, hi: 10, step: 1 });
    }

    #[test]
    fn data_file_segment_per_time() {
        let m = compile(DESC).unwrap();
        let (t, names) = table(&m, "d/DATA0");
        let segs = &t.segments;
        assert_eq!(segs.len(), 20);
        // Offsets advance by 10 records × 8 bytes.
        assert_eq!(segs[0].offset, 0);
        assert_eq!(segs[1].offset, 80);
        let time = names.names().iter().position(|n| n == "TIME").unwrap() as u32;
        assert_eq!(t.coords(&segs[0]), [(time, 1)]);
        assert_eq!(t.coords(&segs[19]), [(time, 20)]);
        assert_eq!(attr_names(&names, segs[0].record), vec!["SOIL", "SGAS"]);
    }

    #[test]
    fn outer_loop_pruning_preserves_offsets() {
        let segs =
            selected_data_segments(&[("TIME", IntervalSet::single(Interval::closed(5.0, 7.0)))]);
        assert_eq!(segs.len(), 3);
        // TIME=5 is the 5th chunk (index 4): offset 4 × 80.
        assert_eq!(segs[0], (5, 320));
        assert_eq!(segs[2].1, 480);
    }

    #[test]
    fn empty_constraint_prunes_everything() {
        let segs = selected_data_segments(&[("TIME", IntervalSet::empty())]);
        assert!(segs.is_empty());
    }

    #[test]
    fn point_constraints_from_in_list() {
        let segs = selected_data_segments(&[("TIME", IntervalSet::points(&[3.0, 17.0]))]);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0, 3);
        assert_eq!(segs[1].0, 17);
    }

    #[test]
    fn chunked_file_uses_index() {
        let idx = LoadedChunkIndex::new(
            vec!["X".into()],
            vec![
                ChunkIndexEntry { bounds: vec![(0.0, 9.0)], offset: 0, rows: 10 },
                ChunkIndexEntry { bounds: vec![(10.0, 19.0)], offset: 80, rows: 10 },
                ChunkIndexEntry { bounds: vec![(20.0, 29.0)], offset: 160, rows: 4 },
            ],
        );
        let text = r#"
[T]
X = float
S1 = float

[TitanData]
DatasetDescription = T
DIR[0] = n0/t

DATASET "TitanData" {
  DATATYPE { T }
  DATAINDEX { X }
  DATA { DATASET c }
  DATASET "c" {
    DATASPACE { CHUNKED INDEXFILE "DIR[0]/t.idx" { X S1 } }
    DATA { DIR[0]/t.dat }
  }
}
"#;
        let m = compile(text).unwrap();
        let f = &m.files[0];
        assert!(f.is_chunked());
        // The table holds every chunk; the query selects through the
        // R-tree.
        let mut names = Interner::new();
        let t = SegmentTable::build(f, &m.attr_sizes, Some(&idx), &mut names).unwrap();
        assert_eq!(t.segments.len(), 3);
        assert_eq!(t.coords(&t.segments[1]), [(CHUNK_VAR, 1)]);
        let r = [("X", IntervalSet::single(Interval::closed(12.0, 25.0)))];
        assert_eq!(idx.matching_chunks(&ranges(&r)), vec![1, 2]);
        let afcs = afcs_with_index(text, idx, &r, &["X", "S1"]).unwrap();
        assert_eq!(afcs.len(), 2);
        assert_eq!(afcs[0].entries[0].offset, 80);
        assert_eq!(afcs[0].num_rows, 10);
        assert_eq!(afcs[1].entries[0].offset, 160);
        assert_eq!(afcs[1].num_rows, 4);

        // Missing index is an error.
        assert!(SegmentTable::build(f, &m.attr_sizes, None, &mut Interner::new()).is_err());
    }

    #[test]
    fn mixed_record_and_loop_body() {
        let text = r#"
[S]
A = int
B = int

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S HDR = long int }
  DATASET "leaf" {
    DATASPACE {
      HDR
      LOOP T 1:3:1 {
        LOOP G 1:5:1 { A }
        LOOP G 1:5:1 { B }
      }
    }
    DATA { DIR[0]/f }
  }
  DATA { DATASET leaf }
}
"#;
        let m = compile(text).unwrap();
        let mut names = Interner::new();
        let t = SegmentTable::build(&m.files[0], &m.attr_sizes, None, &mut names).unwrap();
        let segs = &t.segments;
        // 1 header record + 3 time-steps × 2 arrays.
        assert_eq!(segs.len(), 7);
        assert_eq!(segs[0].inner, InnerSig::Record);
        assert_eq!(names.record(segs[0].record).stride, 8);
        // First A-array starts after the 8-byte header.
        assert_eq!(segs[1].offset, 8);
        assert_eq!(attr_names(&names, segs[1].record), vec!["A"]);
        // B-array of the same time-step follows 5×4 bytes later.
        assert_eq!(segs[2].offset, 28);
        assert_eq!(attr_names(&names, segs[2].record), vec!["B"]);
        assert_eq!(t.coords(&segs[1]), t.coords(&segs[2]));
        // Next time-step.
        assert_eq!(segs[3].offset, 48);
    }
}
