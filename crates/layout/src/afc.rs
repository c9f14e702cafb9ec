//! Aligned File Chunks — `Process_File_Groups` of the paper's Figure 5.
//!
//! [`JoinedGroup::build`] runs once per descriptor, for every file group
//! of a node's plan catalog. It joins the files' segment tables into
//! *partials*: tuples of byte runs (one or more per file — array layouts
//! contribute several runs from the *same* file) whose layouts are
//! identical and whose implicit attributes are consistent. Reading
//! `num_rows × stride_i` bytes from each run in lock-step materializes
//! `num_rows` table rows. The join is a hash join on the segments'
//! common coordinate variables — semantically the paper's "cartesian
//! product between S_1..S_m, discard inconsistent combinations",
//! without the exponential enumeration.
//!
//! [`JoinedGroup::select`] runs per query: it drops the partials whose
//! coordinates the query's ranges exclude, computes one field and
//! implicit schedule per partial *shape* for the query's working set,
//! and instantiates the surviving partials as [`Afc`]s, clipping the
//! inner loop where the query constrains it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use dv_descriptor::DatasetModel;
use dv_types::{DataType, DvError, IntervalSet, Result, Value};

use crate::segment::{InnerSig, Interner, SegmentTable, CHUNK_VAR};
/// How a working-row position is filled without reading bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum ImplicitValue {
    /// Constant over the whole AFC (file-name or outer-loop implied).
    Const(Value),
    /// Row `k` carries `start + k*step` (inner-loop implied), encoded
    /// with the attribute's schema type.
    Affine { start: i64, step: i64, dtype: DataType },
}

/// One byte run of an AFC.
#[derive(Debug, Clone, PartialEq)]
pub struct AfcEntry {
    /// File id in the dataset model.
    pub file: usize,
    /// Byte offset of row 0.
    pub offset: u64,
    /// Bytes per row.
    pub stride: u64,
}

/// A stored field decoded from an entry's bytes into a working row.
#[derive(Debug, Clone, PartialEq)]
pub struct AfcField {
    /// Index into [`Afc::entries`].
    pub entry: usize,
    /// Byte offset of the field within one row's stride.
    pub byte_off: usize,
    /// Scalar type to decode.
    pub dtype: DataType,
    /// Destination position in the working row.
    pub working_pos: usize,
}

/// One aligned file chunk, fully scheduled for extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct Afc {
    /// Rows materialized by this chunk.
    pub num_rows: u64,
    /// Byte runs to read in lock-step.
    pub entries: Vec<AfcEntry>,
    /// Stored-field decode schedule.
    pub fields: Vec<AfcField>,
    /// Implicit values per working position.
    pub implicits: Vec<(usize, ImplicitValue)>,
}

impl Afc {
    /// Total bytes this AFC reads from disk.
    pub fn bytes_read(&self) -> u64 {
        self.entries.iter().map(|e| self.num_rows * e.stride).sum()
    }
}

/// Query-independent description of the working row: which schema
/// attributes the execution materializes, in schema order.
#[derive(Debug, Clone)]
pub struct WorkingSet {
    /// Schema attribute indices, ascending.
    pub attrs: Vec<usize>,
    /// Attribute names matching `attrs`.
    pub names: Vec<String>,
    /// Types matching `attrs`.
    pub dtypes: Vec<DataType>,
    /// Name → working position (hot lookup during planning).
    positions: HashMap<String, usize>,
}

impl WorkingSet {
    /// Build from schema attribute indices (sorted, deduped by the
    /// binder).
    pub fn new(model: &DatasetModel, attrs: Vec<usize>) -> WorkingSet {
        let names: Vec<String> =
            attrs.iter().map(|&i| model.schema.attr_at(i).name.clone()).collect();
        let dtypes = attrs.iter().map(|&i| model.schema.attr_at(i).dtype).collect();
        let positions = names.iter().enumerate().map(|(p, n)| (n.clone(), p)).collect();
        WorkingSet { attrs, names, dtypes, positions }
    }

    /// Working position of the attribute named `name`, if any.
    #[inline]
    pub fn position_of(&self, name: &str) -> Option<usize> {
        self.positions.get(name).copied()
    }
}

/// What one query asks of a node's plan catalog, in the catalog's
/// interned-name space.
pub(crate) struct QueryView<'a> {
    working: &'a WorkingSet,
    /// Working position per name id.
    pos_of: Vec<Option<usize>>,
    /// Range constraint per name id.
    range_of: Vec<Option<&'a IntervalSet>>,
    /// Per record id: does the record store an attribute the query
    /// needs?
    record_needed: Vec<bool>,
}

impl<'a> QueryView<'a> {
    pub fn new(
        names: &Interner,
        working: &'a WorkingSet,
        ranges: &'a HashMap<String, IntervalSet>,
    ) -> QueryView<'a> {
        let pos_of: Vec<Option<usize>> =
            names.names().iter().map(|n| working.position_of(n)).collect();
        let range_of = names.names().iter().map(|n| ranges.get(n)).collect();
        let record_needed = (0..names.record_count() as u32)
            .map(|r| names.record(r).attrs.iter().any(|&(a, _)| pos_of[a as usize].is_some()))
            .collect();
        QueryView { working, pos_of, range_of, record_needed }
    }

    /// Does record `record` store an attribute the query needs?
    pub fn needs_record(&self, record: u32) -> bool {
        self.record_needed[record as usize]
    }

    /// Does the query admit outer-loop value `value` of variable `var`?
    pub fn admits(&self, var: u32, value: i64) -> bool {
        self.range_of[var as usize].is_none_or(|set| set.contains(value as f64))
    }
}

/// What buckets a segment: its coordinates, signature and row count.
type BucketKey<'a> = (&'a [(u32, i64)], InnerSig, u64);

/// A file's segments bucketed by `(coords, signature, rows)`: array
/// layouts put several attribute runs of the same logical chunk in one
/// bucket.
#[derive(Debug)]
pub(crate) struct Bucket {
    /// The bucket's first segment: its coordinates, signature and row
    /// count key the bucket.
    seg: u32,
    /// The bucket's other segments, in file order (usually none).
    more: Vec<u32>,
}

impl Bucket {
    fn segs(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        std::iter::once(self.seg).chain(self.more.iter().copied())
    }
}

/// Bucket one file's segment table.
pub(crate) fn buckets(table: &SegmentTable) -> Vec<Bucket> {
    let n = table.segments.len();
    let mut out: Vec<Bucket> = Vec::with_capacity(n);
    let mut lookup: HashMap<BucketKey<'_>, usize> = HashMap::with_capacity(n);
    for (i, s) in table.segments.iter().enumerate() {
        match lookup.entry((table.coords(s), s.inner, s.rows)) {
            Entry::Occupied(b) => out[*b.get()].more.push(i as u32),
            Entry::Vacant(e) => {
                e.insert(out.len());
                out.push(Bucket { seg: i as u32, more: Vec::new() });
            }
        }
    }
    out
}

/// One file of a group under the join: its segment table and buckets.
#[derive(Clone, Copy)]
pub(crate) struct Side<'a> {
    pub table: &'a SegmentTable,
    pub buckets: &'a [Bucket],
}

impl Side<'_> {
    /// `(coords, signature, rows)` of bucket `b`.
    fn key(&self, b: &Bucket) -> BucketKey<'_> {
        let s = &self.table.segments[b.seg as usize];
        (self.table.coords(s), s.inner, s.rows)
    }
}

/// Join state while folding the files of a group together.
struct Joined {
    coords: Vec<(u32, i64)>,
    sig: InnerSig,
    rows: u64,
    /// `(slot, segment)` runs accumulated so far.
    runs: Vec<(u32, u32)>,
}

impl Joined {
    fn extend(&mut self, coords: &[(u32, i64)], segs: impl Iterator<Item = u32>, slot: u32) {
        let before = self.coords.len();
        for &(v, x) in coords {
            if !self.coords[..before].iter().any(|&(cv, _)| cv == v) {
                self.coords.push((v, x));
            }
        }
        if self.coords.len() > before {
            self.coords.sort_unstable();
        }
        self.runs.extend(segs.map(|s| (slot, s)));
    }
}

/// Everything the partials of one shape share: coordinate names,
/// inner signature, and the `(slot, record)` of every run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shape {
    /// Coordinate name ids, ascending.
    vars: Vec<u32>,
    sig: InnerSig,
    /// Rows per partial (0 for chunks, whose row counts vary).
    rows: u64,
    runs: Vec<(u32, u32)>,
}

/// One aligned chunk of a group before clipping and projection.
#[derive(Debug)]
struct Partial {
    shape: u32,
    rows: u64,
    /// Start of the coordinate values (one per shape var) in
    /// [`JoinedGroup::coords`].
    coords: u32,
    /// Start of the run offsets (one per shape run) in
    /// [`JoinedGroup::offsets`].
    offsets: u32,
}

/// One file group, joined once per descriptor.
#[derive(Debug)]
pub(crate) struct JoinedGroup {
    /// Model file ids, in group order; a run's slot indexes this.
    files: Vec<usize>,
    /// `(name id, value)` of every binding variable of the group's
    /// files, first file first.
    env: Vec<(u32, i64)>,
    shapes: Vec<Shape>,
    /// Every partial, in join order.
    partials: Vec<Partial>,
    coords: Vec<i64>,
    offsets: Vec<u64>,
}

impl JoinedGroup {
    /// Join the files of one group (`files` and `sides` are parallel,
    /// in group order).
    pub fn build(
        model: &DatasetModel,
        files: &[usize],
        sides: &[Side<'_>],
        names: &mut Interner,
    ) -> Result<JoinedGroup> {
        let mut env: Vec<(u32, i64)> = Vec::new();
        for &f in files {
            for (var, &val) in &model.files[f].env {
                let id = names.name(var);
                match env.iter().find(|&&(v, _)| v == id) {
                    Some(&(_, prev)) if prev != val => {
                        return Err(DvError::Alignment(format!(
                            "implicit attribute `{var}` is inconsistent across the group \
                             ({prev} vs {val})"
                        )));
                    }
                    Some(_) => {}
                    None => env.push((id, val)),
                }
            }
        }
        let mut g = JoinedGroup {
            files: files.to_vec(),
            env,
            shapes: Vec::new(),
            partials: Vec::new(),
            coords: Vec::new(),
            offsets: Vec::new(),
        };
        // A file with no segments at all: the group yields no rows.
        if sides.iter().any(|s| s.buckets.is_empty()) {
            return Ok(g);
        }
        let mut shape_ids: HashMap<Shape, u32> = HashMap::new();
        if let [side] = sides {
            // One file: its buckets are the partials.
            for b in side.buckets {
                let (coords, sig, rows) = side.key(b);
                g.push(&mut shape_ids, sides, coords, sig, rows, b.segs().map(|s| (0, s)));
            }
            return Ok(g);
        }

        // Every partial gathers about one bucket's runs per file.
        let runs_hint: usize = sides.iter().map(|s| s.buckets[0].segs().count()).sum();
        let mut acc: Vec<Joined> = sides[0]
            .buckets
            .iter()
            .map(|b| {
                let (coords, sig, rows) = sides[0].key(b);
                let mut runs = Vec::with_capacity(runs_hint);
                runs.extend(b.segs().map(|s| (0, s)));
                Joined { coords: coords.to_vec(), sig, rows, runs }
            })
            .collect();
        for (slot, &next) in sides.iter().enumerate().skip(1) {
            acc = join_step(acc, next, slot as u32);
            if acc.is_empty() {
                // Every side had segments but nothing aligned: the
                // layouts of the group are structurally incompatible.
                let names: Vec<&str> =
                    files.iter().map(|&f| model.files[f].rel_path.as_str()).collect();
                return Err(DvError::Alignment(format!(
                    "no aligned file chunks between {{{}}}: layouts or implicit attributes do \
                     not match",
                    names.join(", ")
                )));
            }
        }
        for p in &acc {
            g.push(&mut shape_ids, sides, &p.coords, p.sig, p.rows, p.runs.iter().copied());
        }
        Ok(g)
    }

    /// Append one partial, interning its shape.
    fn push(
        &mut self,
        shape_ids: &mut HashMap<Shape, u32>,
        sides: &[Side<'_>],
        coords: &[(u32, i64)],
        sig: InnerSig,
        rows: u64,
        runs: impl Iterator<Item = (u32, u32)> + Clone,
    ) {
        let seg = |(slot, seg): (u32, u32)| &sides[slot as usize].table.segments[seg as usize];
        let shape_rows = if sig == InnerSig::Chunk { 0 } else { rows };
        // Consecutive partials almost always share a shape.
        let same = |s: &Shape| {
            s.sig == sig
                && s.rows == shape_rows
                && s.vars.iter().eq(coords.iter().map(|(v, _)| v))
                && s.runs.iter().copied().eq(runs.clone().map(|r| (r.0, seg(r).record)))
        };
        let shape = match self.partials.last() {
            Some(last) if same(&self.shapes[last.shape as usize]) => last.shape,
            _ => {
                let shape = Shape {
                    vars: coords.iter().map(|&(v, _)| v).collect(),
                    sig,
                    rows: shape_rows,
                    runs: runs.clone().map(|r| (r.0, seg(r).record)).collect(),
                };
                let next = self.shapes.len() as u32;
                *shape_ids.entry(shape).or_insert_with_key(|shape| {
                    self.shapes.push(shape.clone());
                    next
                })
            }
        };
        self.partials.push(Partial {
            shape,
            rows,
            coords: self.coords.len() as u32,
            offsets: self.offsets.len() as u32,
        });
        self.coords.extend(coords.iter().map(|&(_, x)| x));
        self.offsets.extend(runs.map(|r| seg(r).offset));
    }

    /// Instantiate the partials the query selects, in join order.
    ///
    /// * `needed[slot]` — the file stores an attribute the query needs.
    ///   Runs holding nothing the query needs are never read, and a
    ///   partial whose run of such a file holds nothing needed is
    ///   dropped. A file storing nothing needed (it participates only
    ///   to define cardinality, e.g. `SELECT REL, TIME`) keeps all its
    ///   runs for structure; their field-less entries are dropped.
    /// * `chunks[slot]` — for a `CHUNKED` file, the chunk ordinals the
    ///   R-tree returned for the query.
    pub fn select(
        &self,
        q: &QueryView<'_>,
        names: &Interner,
        needed: &[bool],
        chunks: &[Option<&[bool]>],
        out: &mut Vec<Afc>,
    ) -> Result<()> {
        let mut plans: Vec<Option<ShapePlan<'_>>> = (0..self.shapes.len()).map(|_| None).collect();
        for p in &self.partials {
            let shape = &self.shapes[p.shape as usize];
            let plan = plans[p.shape as usize]
                .get_or_insert_with(|| ShapePlan::new(self, shape, q, names, needed));
            if !plan.active {
                continue;
            }
            let coords = &self.coords[p.coords as usize..][..shape.vars.len()];
            if !plan.checks.iter().all(|&(i, set)| set.contains(coords[i] as f64)) {
                continue;
            }
            if let Some(i) = plan.chunk {
                if !chunks.iter().flatten().all(|set| set[coords[i] as usize]) {
                    continue;
                }
            }
            let schedule = plan.schedule.as_ref().map_err(|m| DvError::Alignment(m.clone()))?;
            for &(i, val) in &plan.env_checks {
                if coords[i] != val {
                    return Err(DvError::Alignment(format!(
                        "implicit attribute `{}` is inconsistent ({val} vs {})",
                        names.names()[shape.vars[i] as usize],
                        coords[i]
                    )));
                }
            }
            schedule.instantiate(p, &self.offsets[p.offsets as usize..], coords, out);
        }
        Ok(())
    }
}

/// One join step: extend every accumulated partial with each matching
/// bucket of the next file (`slot`). Two sides match when they agree on
/// the coordinate variables they share, on the inner signature and on
/// the row count.
fn join_step(acc: Vec<Joined>, next: Side<'_>, slot: u32) -> Vec<Joined> {
    let same_vars = |coords: &[(u32, i64)], vars: &[u32]| {
        coords.len() == vars.len() && coords.iter().zip(vars).all(|(c, v)| c.0 == *v)
    };
    // The next file's buckets by coordinate-variable set (one set for
    // every layout with a uniform loop nest).
    let mut classes: Vec<(Vec<u32>, Vec<usize>)> = Vec::new();
    for (i, b) in next.buckets.iter().enumerate() {
        let coords = next.key(b).0;
        match classes.iter_mut().find(|(v, _)| same_vars(coords, v)) {
            Some((_, members)) => members.push(i),
            None => classes.push((coords.iter().map(|&(v, _)| v).collect(), vec![i])),
        }
    }
    // Per class, its buckets sorted by their key on the variables the
    // class shares with the accumulated side; rebuilt only when the
    // accumulated variable set changes.
    let mut p_vars: Option<Vec<u32>> = None;
    let mut indexes: Vec<KeyIndex> = Vec::new();
    let mut probe: Vec<i64> = Vec::new();
    let mut out: Vec<Joined> = Vec::with_capacity(acc.len());
    let mut matches: Vec<usize> = Vec::new();
    for mut p in acc {
        if !p_vars.as_ref().is_some_and(|v| same_vars(&p.coords, v)) {
            let vars: Vec<u32> = p.coords.iter().map(|&(v, _)| v).collect();
            indexes = classes
                .iter()
                .map(|(b_vars, members)| KeyIndex::new(&vars, b_vars, members, next))
                .collect();
            p_vars = Some(vars);
        }
        matches.clear();
        for index in &indexes {
            join_key(&mut probe, &p.coords, &index.common, p.sig, p.rows);
            matches.extend(index.get(&probe));
        }
        if indexes.len() > 1 {
            matches.sort_unstable();
        }
        // 1:1 alignment is the overwhelmingly common case: the last
        // match consumes the partial instead of cloning it.
        let Some((&last, rest)) = matches.split_last() else { continue };
        let extend = |p: &mut Joined, m: usize| {
            let b = &next.buckets[m];
            p.extend(next.key(b).0, b.segs(), slot);
        };
        for &m in rest {
            let mut q =
                Joined { coords: p.coords.clone(), sig: p.sig, rows: p.rows, runs: p.runs.clone() };
            extend(&mut q, m);
            out.push(q);
        }
        extend(&mut p, last);
        out.push(p);
    }
    out
}

/// The join key, flattened into `out`: the values of `common` in
/// `coords`, then the signature and the row count (fixed width for one
/// `common`).
fn join_key(out: &mut Vec<i64>, coords: &[(u32, i64)], common: &[u32], sig: InnerSig, rows: u64) {
    out.clear();
    out.extend(coords.iter().filter(|(v, _)| common.contains(v)).map(|&(_, x)| x));
    out.extend(match sig {
        InnerSig::Loop { var, lo, hi, step } => [0, var as i64, lo, hi, step],
        InnerSig::Record => [1, 0, 0, 0, 0],
        InnerSig::Chunk => [2, 0, 0, 0, 0],
    });
    out.push(rows as i64);
}

/// One class of buckets sorted by join key, for binary-search probes.
struct KeyIndex {
    /// Variables the class shares with the accumulated side.
    common: Vec<u32>,
    /// Key width.
    width: usize,
    /// Each member's key, back to back, in member order.
    keys: Vec<i64>,
    /// `(member position, bucket)` sorted by key, then bucket.
    order: Vec<(usize, usize)>,
}

impl KeyIndex {
    fn new(p_vars: &[u32], b_vars: &[u32], members: &[usize], next: Side<'_>) -> KeyIndex {
        let common: Vec<u32> = p_vars.iter().copied().filter(|v| b_vars.contains(v)).collect();
        let width = common.len() + 6;
        let mut keys = Vec::with_capacity(members.len() * width);
        let mut probe = Vec::with_capacity(width);
        for &i in members {
            let (coords, sig, rows) = next.key(&next.buckets[i]);
            join_key(&mut probe, coords, &common, sig, rows);
            keys.extend_from_slice(&probe);
        }
        let mut order: Vec<(usize, usize)> = members.iter().copied().enumerate().collect();
        let key = |k: usize| &keys[k * width..(k + 1) * width];
        order.sort_unstable_by(|a, b| key(a.0).cmp(key(b.0)).then(a.1.cmp(&b.1)));
        KeyIndex { common, width, keys, order }
    }

    /// Buckets whose key equals `probe`, ascending.
    fn get<'a>(&'a self, probe: &'a [i64]) -> impl Iterator<Item = usize> + 'a {
        let key = |k: usize| &self.keys[k * self.width..(k + 1) * self.width];
        let first = self.order.partition_point(|&(k, _)| key(k) < probe);
        self.order[first..].iter().take_while(move |&&(k, _)| key(k) == probe).map(|&(_, b)| b)
    }
}

/// Where an implicit working position gets its value.
#[derive(Debug)]
enum Source {
    /// A binding-variable constant of the group.
    Const(Value),
    /// The partial's value of coordinate `i`.
    Coord(usize, DataType),
    /// The inner loop variable: affine over the chunk's rows.
    Inner { step: i64, dtype: DataType },
}

/// One shape's treatment under one query.
struct ShapePlan<'a> {
    /// False when a file that stores needed attributes contributes only
    /// runs that store none.
    active: bool,
    /// `(coordinate index, constraint)` of every constrained outer
    /// loop variable.
    checks: Vec<(usize, &'a IntervalSet)>,
    /// Coordinate index of the chunk ordinal, for `CHUNKED` files.
    chunk: Option<usize>,
    /// `(coordinate index, value)` of every coordinate that is also a
    /// binding variable of the group: the two must agree.
    env_checks: Vec<(usize, i64)>,
    /// The decode schedule, or why the group cannot supply the working
    /// row (raised only when a partial of the shape is selected).
    schedule: std::result::Result<Schedule, String>,
}

impl<'a> ShapePlan<'a> {
    fn new(
        g: &JoinedGroup,
        shape: &Shape,
        q: &QueryView<'a>,
        names: &Interner,
        needed: &[bool],
    ) -> ShapePlan<'a> {
        let active = (0..g.files.len() as u32).all(|slot| {
            !needed[slot as usize]
                || shape.runs.iter().any(|&(s, r)| s == slot && q.needs_record(r))
        });
        let mut checks = Vec::new();
        let mut chunk = None;
        let mut env_checks = Vec::new();
        for (i, &var) in shape.vars.iter().enumerate() {
            if var == CHUNK_VAR {
                chunk = Some(i);
            } else if let Some(set) = q.range_of[var as usize] {
                checks.push((i, set));
            }
            if let Some(&(_, val)) = g.env.iter().find(|&&(v, _)| v == var) {
                env_checks.push((i, val));
            }
        }
        let schedule = Schedule::new(g, shape, q, names);
        ShapePlan { active, checks, chunk, env_checks, schedule }
    }
}

/// The field and implicit schedule of one shape for one working set.
struct Schedule {
    /// `(run, file, stride)` of every run that decodes a field.
    entries: Vec<(usize, usize, u64)>,
    fields: Vec<AfcField>,
    /// Implicit sources, in working-position order.
    implicits: Vec<(usize, Source)>,
    /// First inner value (`lo` of an inner loop, else 0).
    inner_lo: i64,
    /// Inner-loop clipping: `(first row, rows, inner value of the first
    /// row)` of every accepted run; `None` when the inner variable is
    /// unconstrained.
    clip: Option<Vec<(u64, u64, i64)>>,
}

impl Schedule {
    fn new(
        g: &JoinedGroup,
        shape: &Shape,
        q: &QueryView<'_>,
        names: &Interner,
    ) -> std::result::Result<Schedule, String> {
        let working = q.working;
        let mut covered = vec![false; working.attrs.len()];
        let mut cover = |pos: Option<usize>| -> Option<usize> {
            let pos = pos?;
            (!std::mem::replace(&mut covered[pos], true)).then_some(pos)
        };
        let mut entries = Vec::new();
        let mut fields: Vec<AfcField> = Vec::new();
        for (run, &(slot, rec)) in shape.runs.iter().enumerate() {
            let record = names.record(rec);
            let before = fields.len();
            for &(attr, byte_off) in &record.attrs {
                if let Some(pos) = cover(q.pos_of[attr as usize]) {
                    fields.push(AfcField {
                        entry: entries.len(),
                        byte_off,
                        dtype: working.dtypes[pos],
                        working_pos: pos,
                    });
                }
            }
            if fields.len() > before {
                entries.push((run, g.files[slot as usize], record.stride));
            }
        }

        // Implicit values: binding variables, then outer-loop
        // coordinates, then the inner loop variable.
        let mut implicits = Vec::new();
        for &(var, val) in &g.env {
            if let Some(pos) = cover(q.pos_of[var as usize]) {
                implicits.push((pos, Source::Const(Value::from_i64(working.dtypes[pos], val))));
            }
        }
        for (i, &var) in shape.vars.iter().enumerate() {
            if let Some(pos) = cover(q.pos_of[var as usize]) {
                implicits.push((pos, Source::Coord(i, working.dtypes[pos])));
            }
        }
        let (mut inner_lo, mut clip) = (0, None);
        if let InnerSig::Loop { var, lo, step, .. } = shape.sig {
            if let Some(pos) = cover(q.pos_of[var as usize]) {
                implicits.push((pos, Source::Inner { step, dtype: working.dtypes[pos] }));
            }
            inner_lo = lo;
            clip = q.range_of[var as usize].map(|set| clip_runs(set, lo, step, shape.rows));
        }
        if let Some(missing) = covered.iter().position(|c| !c) {
            return Err(format!(
                "attribute `{}` is needed by the query but is neither stored in nor implied by \
                 the file group",
                working.names[missing]
            ));
        }
        implicits.sort_unstable_by_key(|&(pos, _)| pos);
        Ok(Schedule { entries, fields, implicits, inner_lo, clip })
    }

    fn instantiate(&self, p: &Partial, offsets: &[u64], coords: &[i64], out: &mut Vec<Afc>) {
        let afc = |first: u64, num_rows: u64, inner_start: i64| Afc {
            num_rows,
            entries: self
                .entries
                .iter()
                .map(|&(run, file, stride)| AfcEntry {
                    file,
                    offset: offsets[run] + first * stride,
                    stride,
                })
                .collect(),
            fields: self.fields.clone(),
            implicits: self
                .implicits
                .iter()
                .map(|(pos, src)| {
                    let v = match *src {
                        Source::Const(v) => ImplicitValue::Const(v),
                        Source::Coord(i, dtype) => {
                            ImplicitValue::Const(Value::from_i64(dtype, coords[i]))
                        }
                        Source::Inner { step, dtype } => {
                            ImplicitValue::Affine { start: inner_start, step, dtype }
                        }
                    };
                    (*pos, v)
                })
                .collect(),
        };
        match &self.clip {
            None => out.push(afc(0, p.rows, self.inner_lo)),
            Some(runs) => out.extend(runs.iter().map(|&(k, rows, start)| afc(k, rows, start))),
        }
    }
}

/// Split `rows` inner-loop rows (row `k` carries `lo + k*step`) into
/// the maximal runs whose values `set` accepts.
fn clip_runs(set: &IntervalSet, lo: i64, step: i64, rows: u64) -> Vec<(u64, u64, i64)> {
    let accepts = |k: u64| set.contains((lo + k as i64 * step) as f64);
    let mut out = Vec::new();
    let mut k = 0u64;
    while k < rows {
        while k < rows && !accepts(k) {
            k += 1;
        }
        if k >= rows {
            break;
        }
        let start = k;
        while k < rows && accepts(k) {
            k += 1;
        }
        out.push((start, k - start, lo + start as i64 * step));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::test_support::afcs_of;
    use dv_types::Interval;

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

    const ALL: &[&str] = &["REL", "TIME", "X", "SOIL", "SGAS"];

    /// AFCs of the group `{COORDS, DATA0}` (the query fixes `REL = 0`).
    fn setup(r: &[(&str, IntervalSet)], working: &[&str]) -> Vec<Afc> {
        let mut r = r.to_vec();
        r.push(("REL", IntervalSet::points(&[0.0])));
        afcs_of(DESC, &r, working, 0).unwrap()
    }

    #[test]
    fn full_scan_produces_one_afc_per_time() {
        // Working set: all five attributes.
        let afcs = setup(&[], ALL);
        assert_eq!(afcs.len(), 20);
        let a = &afcs[0];
        assert_eq!(a.num_rows, 10);
        // Two entries: COORDS X-run and DATA0 SOIL/SGAS-run.
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].stride + a.entries[1].stride, 4 + 8);
        // Stored fields: X, SOIL, SGAS.
        assert_eq!(a.fields.len(), 3);
        // Implicit: REL const (env), TIME const (coord).
        assert_eq!(a.implicits.len(), 2);
        assert_eq!(a.bytes_read(), 10 * 12);
    }

    #[test]
    fn time_range_prunes_afcs() {
        let afcs = setup(&[("TIME", IntervalSet::single(Interval::closed(5.0, 7.0)))], ALL);
        assert_eq!(afcs.len(), 3);
        // The COORDS entry repeats at offset 0 in each AFC; the data
        // entry advances.
        assert_eq!(afcs[0].entries[0].offset, 0);
        assert_eq!(afcs[0].entries[1].offset, 4 * 80);
    }

    #[test]
    fn inner_clipping_splits_runs() {
        // GRID is not a schema attribute, but clip via an artificial
        // constraint to exercise run splitting.
        let afcs = setup(
            &[
                ("GRID", IntervalSet::points(&[2.0, 3.0, 7.0])),
                ("TIME", IntervalSet::points(&[1.0])),
            ],
            ALL,
        );
        // TIME=1 only; GRID runs {2,3} and {7}.
        assert_eq!(afcs.len(), 2);
        assert_eq!(afcs[0].num_rows, 2);
        // Run starts at k=1 (GRID=2): offsets advance one stride.
        assert_eq!(afcs[0].entries[0].offset, 4);
        assert_eq!(afcs[0].entries[1].offset, 8);
        assert_eq!(afcs[1].num_rows, 1);
        assert_eq!(afcs[1].entries[0].offset, 6 * 4);
    }

    #[test]
    fn projection_skips_unneeded_entries() {
        // Query only needs SOIL and TIME: the COORDS file contributes
        // nothing and its entry is dropped.
        let afcs = setup(&[], &["TIME", "SOIL"]);
        assert_eq!(afcs.len(), 20);
        assert_eq!(afcs[0].entries.len(), 1);
        // SOIL is at byte 0 of the 8-byte record; SGAS is skipped.
        assert_eq!(afcs[0].fields.len(), 1);
        assert_eq!(afcs[0].fields[0].byte_off, 0);
        // TIME arrives as an implicit constant.
        assert_eq!(afcs[0].implicits.len(), 1);
    }

    #[test]
    fn uncovered_attr_is_error() {
        // Working set includes X but node 0's group has only the data
        // file: COORDS lives on node 1.
        let desc = DESC
            .replace("DIR[0] = n0/d", "DIR[0] = n0/d\nDIR[1] = n1/d")
            .replace("DIR[0]/COORDS", "DIR[1]/COORDS");
        let e = afcs_of(&desc, &[], &["X", "SOIL"], 0).unwrap_err().to_string();
        assert!(e.contains('X'), "{e}");
    }

    #[test]
    fn misaligned_layouts_rejected() {
        // A COORDS file with 11 grid points cannot align with data
        // files of 10.
        let bad = DESC.replace("LOOP GRID 1:10:1 { X }", "LOOP GRID 1:11:1 { X }");
        let e = afcs_of(&bad, &[], ALL, 0).unwrap_err().to_string();
        assert!(e.contains("aligned"), "{e}");
    }

    #[test]
    fn affine_implicit_for_inner_schema_attr() {
        // A per-cell time series: the innermost loop is TIME itself.
        let text = r#"
[S]
TIME = int
V = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATASET "leaf" {
    DATASPACE { LOOP TIME 10:14:2 { V } }
    DATA { DIR[0]/series }
  }
  DATA { DATASET leaf }
}
"#;
        let afcs = afcs_of(text, &[], &["TIME", "V"], 0).unwrap();
        assert_eq!(afcs.len(), 1);
        assert_eq!(afcs[0].num_rows, 3);
        let (pos, imp) = &afcs[0].implicits[0];
        assert_eq!(*pos, 0);
        assert_eq!(*imp, ImplicitValue::Affine { start: 10, step: 2, dtype: DataType::Int });
    }
}
