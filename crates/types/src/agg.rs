//! Partial aggregation: group keys, accumulator columns, and the fold
//! / merge / finalize kernels shared by every engine.
//!
//! The pushdown pipeline ships *accumulators*, not rows: each node
//! folds the rows of one aligned file chunk (AFC) into a small hash
//! table of per-group accumulator states, and the mover carries those
//! states — `O(groups)` per chunk — instead of `O(rows)` of filtered
//! data. The absorber merges partials and finalizes `AVG` as
//! `sum / count`.
//!
//! # Determinism
//!
//! Floating-point addition is not associative, so "the sum of a group"
//! is only well-defined once a fold tree is fixed. The canonical fold
//! unit is the AFC: its boundaries are decided at plan time and an AFC
//! is never split across workers, so the partial state of one
//! `(node, chunk)` pair is a pure function of the data regardless of
//! thread count or steal order. The absorber then left-folds partials
//! per group in ascending `(node, chunk ordinal)` order. The first
//! contribution to a group *copies* the partial state (never
//! `0.0 + x`, which would flush `-0.0`), so chunks that contribute
//! nothing — pruned, filtered empty — are invisible to the fold and
//! prune on/off produces bit-identical aggregates.
//!
//! # The key-segment fold
//!
//! Inside a chunk, [`AggTable::fold_block`] never turns a cell into a
//! [`Value`]. It walks the selected rows in *key segments*: maximal
//! spans over which every `GROUP BY` column keeps one representation —
//! its dense prefix or one lazy run ([`Column::pieces`], the
//! selection-aware column visitor). The paper's implicit attributes
//! (`REL` from the file name, `TIME` from a `LOOP`) arrive as constant
//! runs over the whole chunk, so a chunk grouped by them is one
//! segment and probes the group table once. Stored and affine keys are
//! read per row from their typed slice or generator and probed row by
//! row. Either way each aggregate then folds the segment's rows in one
//! typed loop per (accumulator, column type, selection or range).
//! Segments ascend and rows ascend within each, so every group sees
//! its rows in scan order, group slots open in first-row order and a
//! group's first value is copied: the states are bit-identical to
//! [`AggTable::fold_row`] over the same rows, one by one.
//!
//! # NaN policy
//!
//! Group keys compare by bit pattern with every NaN canonicalized to
//! one quiet-NaN code, so NaN-valued rows form a single group.
//! `SUM`/`AVG` propagate NaN (IEEE addition); `MIN`/`MAX` use
//! `f64::total_cmp`, under which NaN sorts above every number.

use std::collections::HashMap;

use crate::column::{Column, ColumnBlock, Picks};
use crate::datatype::DataType;
use crate::value::Value;

/// Maximum number of `GROUP BY` columns (binder-enforced); keys are
/// fixed-width arrays so hashing never allocates.
pub const MAX_GROUP_COLS: usize = 8;

/// A group key: one canonical `f64` bit code per `GROUP BY` column,
/// unused trailing slots zero.
pub type GroupKey = [u64; MAX_GROUP_COLS];

/// The canonical quiet-NaN bit pattern all NaN keys collapse to.
const CANON_NAN: u64 = 0x7ff8_0000_0000_0000;

/// Canonical bit code of one key component.
#[inline]
pub fn key_code(v: f64) -> u64 {
    if v.is_nan() {
        CANON_NAN
    } else {
        v.to_bits()
    }
}

/// Decode a key component back into a schema-typed value.
#[inline]
pub fn key_value(code: u64, ty: DataType) -> Value {
    Value::from_f64(ty, f64::from_bits(code))
}

/// The aggregate functions of the SQL subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    /// SQL spelling, as the parser accepts and `Display` regenerates.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    /// Result type: `COUNT` is an exact `long`, `SUM`/`AVG` widen to
    /// `double`, `MIN`/`MAX` keep the argument's type.
    pub fn result_dtype(&self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Long,
            AggFunc::Sum | AggFunc::Avg => DataType::Double,
            AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Double),
        }
    }

    /// Parse a SQL aggregate function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        }
    }
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One group × one aggregate's scalar accumulator state — the unit the
/// mover ships and the absorber merges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccState {
    Count(i64),
    Sum(f64),
    Min(f64),
    Max(f64),
    Avg { sum: f64, count: i64 },
}

impl AccState {
    /// Wire size in bytes (for the mover's bandwidth model).
    pub fn wire_bytes(&self) -> usize {
        match self {
            AccState::Avg { .. } => 16,
            _ => 8,
        }
    }
}

/// A struct-of-arrays column of accumulator states: slot `i` holds the
/// state of group `i` for one aggregate of the query.
#[derive(Debug, Clone)]
pub enum AccCol {
    Count(Vec<i64>),
    Sum(Vec<f64>),
    Min(Vec<f64>),
    Max(Vec<f64>),
    Avg { sum: Vec<f64>, count: Vec<i64> },
}

impl AccCol {
    /// An empty accumulator column for `func`.
    pub fn new(func: AggFunc) -> AccCol {
        match func {
            AggFunc::Count => AccCol::Count(Vec::new()),
            AggFunc::Sum => AccCol::Sum(Vec::new()),
            AggFunc::Min => AccCol::Min(Vec::new()),
            AggFunc::Max => AccCol::Max(Vec::new()),
            AggFunc::Avg => AccCol::Avg { sum: Vec::new(), count: Vec::new() },
        }
    }

    /// Number of group slots.
    pub fn len(&self) -> usize {
        match self {
            AccCol::Count(v) => v.len(),
            AccCol::Sum(v) | AccCol::Min(v) | AccCol::Max(v) => v.len(),
            AccCol::Avg { sum, .. } => sum.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Initialize a new group slot from its first row value.
    #[inline]
    fn push_first(&mut self, x: f64) {
        match self {
            AccCol::Count(v) => v.push(1),
            AccCol::Sum(v) | AccCol::Min(v) | AccCol::Max(v) => v.push(x),
            AccCol::Avg { sum, count } => {
                sum.push(x);
                count.push(1);
            }
        }
    }

    /// Fold one more row value into group slot `i`.
    #[inline]
    fn fold_into(&mut self, i: usize, x: f64) {
        match self {
            AccCol::Count(v) => v[i] += 1,
            AccCol::Sum(v) => v[i] += x,
            AccCol::Min(v) => v[i] = min_step(v[i], x),
            AccCol::Max(v) => v[i] = max_step(v[i], x),
            AccCol::Avg { sum, count } => {
                sum[i] += x;
                count[i] += 1;
            }
        }
    }

    /// Empty every slot, keeping the allocations.
    fn clear(&mut self) {
        match self {
            AccCol::Count(v) => v.clear(),
            AccCol::Sum(v) | AccCol::Min(v) | AccCol::Max(v) => v.clear(),
            AccCol::Avg { sum, count } => {
                sum.clear();
                count.clear();
            }
        }
    }

    /// Fold one key segment's picked rows of `arg` (`None` only for
    /// `COUNT(*)`): one typed loop per (accumulator kind, column type,
    /// pick kind), no per-row `Value` and no per-row dispatch.
    fn fold_segment(&mut self, slots: Slots<'_>, arg: Option<&Column>, rows: Picks<'_>) {
        let arg = || arg.expect("only COUNT takes `*`");
        match self {
            AccCol::Count(v) => count_into(v, slots, rows.len()),
            AccCol::Sum(v) => fold_values(v, slots, arg(), rows, |a, x| a + x),
            AccCol::Min(v) => fold_values(v, slots, arg(), rows, min_step),
            AccCol::Max(v) => fold_values(v, slots, arg(), rows, max_step),
            AccCol::Avg { sum, count } => {
                fold_values(sum, slots, arg(), rows, |a, x| a + x);
                count_into(count, slots, rows.len());
            }
        }
    }

    /// Append a shipped partial state as a new group slot (the
    /// copy-on-first-contribution step of the absorber fold).
    pub fn push_state(&mut self, s: AccState) {
        match (self, s) {
            (AccCol::Count(v), AccState::Count(c)) => v.push(c),
            (AccCol::Sum(v), AccState::Sum(x)) => v.push(x),
            (AccCol::Min(v), AccState::Min(x)) => v.push(x),
            (AccCol::Max(v), AccState::Max(x)) => v.push(x),
            (AccCol::Avg { sum, count }, AccState::Avg { sum: s, count: c }) => {
                sum.push(s);
                count.push(c);
            }
            _ => panic!("accumulator column / state kind mismatch"),
        }
    }

    /// Merge a shipped partial state into existing group slot `i`.
    pub fn merge_state(&mut self, i: usize, s: AccState) {
        match (self, s) {
            (AccCol::Count(v), AccState::Count(c)) => v[i] += c,
            (AccCol::Sum(v), AccState::Sum(x)) => v[i] += x,
            (AccCol::Min(v), AccState::Min(x)) => v[i] = min_step(v[i], x),
            (AccCol::Max(v), AccState::Max(x)) => v[i] = max_step(v[i], x),
            (AccCol::Avg { sum, count }, AccState::Avg { sum: s, count: c }) => {
                sum[i] += s;
                count[i] += c;
            }
            _ => panic!("accumulator column / state kind mismatch"),
        }
    }

    /// The scalar state of group slot `i`.
    pub fn state_at(&self, i: usize) -> AccState {
        match self {
            AccCol::Count(v) => AccState::Count(v[i]),
            AccCol::Sum(v) => AccState::Sum(v[i]),
            AccCol::Min(v) => AccState::Min(v[i]),
            AccCol::Max(v) => AccState::Max(v[i]),
            AccCol::Avg { sum, count } => AccState::Avg { sum: sum[i], count: count[i] },
        }
    }

    /// Finalize group slot `i` into an output value of `dtype` (the
    /// aggregate's result type — see [`AggFunc::result_dtype`]).
    pub fn finalize(&self, i: usize, dtype: DataType) -> Value {
        match self {
            AccCol::Count(v) => Value::Long(v[i]),
            AccCol::Sum(v) => Value::Double(v[i]),
            AccCol::Min(v) | AccCol::Max(v) => Value::from_f64(dtype, v[i]),
            AccCol::Avg { sum, count } => Value::Double(sum[i] / count[i] as f64),
        }
    }
}

/// `MIN` under `total_cmp` (a positive NaN above every number, a
/// negative one below).
#[inline]
fn min_step(acc: f64, x: f64) -> f64 {
    if x.total_cmp(&acc).is_lt() {
        x
    } else {
        acc
    }
}

/// `MAX` under `total_cmp`.
#[inline]
fn max_step(acc: f64, x: f64) -> f64 {
    if x.total_cmp(&acc).is_gt() {
        x
    } else {
        acc
    }
}

/// The group slots of one key segment's picked rows: one slot for the
/// whole segment, or one per row. A slot equal to the accumulator's
/// length is a group this row opens.
#[derive(Clone, Copy)]
enum Slots<'a> {
    One(usize),
    Each(&'a [u32]),
}

/// Add `n` rows (one per slot entry) to a count column.
#[inline]
fn count_into(v: &mut Vec<i64>, slots: Slots<'_>, n: usize) {
    match slots {
        Slots::One(s) if s == v.len() => v.push(n as i64),
        Slots::One(s) => v[s] += n as i64,
        Slots::Each(each) => {
            for &s in each {
                match v.get_mut(s as usize) {
                    Some(c) => *c += 1,
                    None => v.push(1),
                }
            }
        }
    }
}

/// Fold the picked rows of `col` into a float accumulator column with
/// `step`, in row order. A group's first value is copied, never
/// combined, so `-0.0` and NaN payloads survive as `fold_row` keeps
/// them.
#[inline]
fn fold_values(
    v: &mut Vec<f64>,
    slots: Slots<'_>,
    col: &Column,
    rows: Picks<'_>,
    step: impl Fn(f64, f64) -> f64,
) {
    match slots {
        Slots::One(s) => {
            let mut acc = v.get(s).copied();
            for piece in col.pieces(rows) {
                piece.for_each_f64(|_, x| {
                    acc = Some(match acc {
                        Some(a) => step(a, x),
                        None => x,
                    })
                });
            }
            let acc = acc.expect("a key segment picks at least one row");
            match v.get_mut(s) {
                Some(a) => *a = acc,
                None => v.push(acc),
            }
        }
        Slots::Each(each) => {
            let mut slots = each.iter();
            for piece in col.pieces(rows) {
                piece.for_each_f64(|_, x| {
                    let s = *slots.next().expect("one slot per picked row") as usize;
                    match v.get_mut(s) {
                        Some(a) => *a = step(*a, x),
                        None => v.push(x),
                    }
                });
            }
        }
    }
}

/// A hash-aggregation table: group keys → accumulator columns. Used
/// per-chunk at the nodes (then drained into an [`AggBlock`]) and as
/// the final merge table at the absorber.
#[derive(Debug)]
pub struct AggTable {
    funcs: Vec<AggFunc>,
    key_width: usize,
    map: HashMap<GroupKey, u32>,
    /// Group keys in insertion order (slot `i` ↔ `keys[i]`).
    pub keys: Vec<GroupKey>,
    /// One accumulator column per aggregate of the query.
    pub accs: Vec<AccCol>,
    /// Per-row key path scratch: one segment's row keys and their
    /// group slots.
    row_keys: Vec<GroupKey>,
    row_slots: Vec<u32>,
}

impl AggTable {
    pub fn new(funcs: &[AggFunc], key_width: usize) -> AggTable {
        assert!(key_width <= MAX_GROUP_COLS, "group key too wide");
        AggTable {
            funcs: funcs.to_vec(),
            key_width,
            map: HashMap::new(),
            keys: Vec::new(),
            accs: funcs.iter().map(|&f| AccCol::new(f)).collect(),
            row_keys: Vec::new(),
            row_slots: Vec::new(),
        }
    }

    pub fn funcs(&self) -> &[AggFunc] {
        &self.funcs
    }

    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// Number of groups seen so far.
    pub fn groups(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Reset for the next chunk, keeping allocations.
    pub fn clear(&mut self) {
        self.map.clear();
        self.keys.clear();
        for acc in &mut self.accs {
            acc.clear();
        }
    }

    /// The slot of `key`, opening a new group (key only; accumulators
    /// grow when they fold the group's first row) if it is unseen.
    #[inline]
    fn probe(&mut self, key: GroupKey) -> usize {
        let next = self.keys.len();
        let slot = *self.map.entry(key).or_insert(next as u32) as usize;
        if slot == next {
            self.keys.push(key);
        }
        slot
    }

    /// Fold one row: `args[a]` is the `f64` argument of aggregate `a`
    /// (`COUNT(*)` passes a dummy). Rows must arrive in scan order.
    #[inline]
    pub fn fold_row(&mut self, key: GroupKey, args: &[f64]) {
        let i = self.probe(key);
        for (acc, &x) in self.accs.iter_mut().zip(args) {
            if i == acc.len() {
                acc.push_first(x);
            } else {
                acc.fold_into(i, x);
            }
        }
    }

    /// Fold the selected rows of a columnar block. `group_pos` /
    /// `arg_pos` index into the block's columns (`None` = `COUNT(*)`).
    /// Returns the number of rows folded.
    ///
    /// The rows are walked in *key segments*: maximal spans over which
    /// every `GROUP BY` column keeps one representation (its dense
    /// prefix, or one lazy run). Where every key is a constant run —
    /// the implicit attributes of an AFC — the segment probes the
    /// group table once; elsewhere each row's key is read from its
    /// typed slice or generator and probed. Each aggregate then folds
    /// the segment's rows in one typed loop. Segments ascend and rows
    /// ascend within them, so every group sees its rows in scan order
    /// and opens its slot where `fold_row` would: the result is
    /// bit-identical to folding row by row.
    pub fn fold_block(
        &mut self,
        block: &ColumnBlock,
        group_pos: &[usize],
        arg_pos: &[Option<usize>],
    ) -> u64 {
        let mut rest = block.picks();
        while !rest.is_empty() {
            let mut end = block.len();
            let mut key: GroupKey = [0; MAX_GROUP_COLS];
            let mut constant = true;
            for (k, &p) in group_pos.iter().enumerate() {
                let piece =
                    block.columns[p].pieces(rest).next().expect("picked rows lie in pieces");
                end = end.min(piece.end_row());
                match piece.constant() {
                    Some(v) => key[k] = key_code(v.as_f64()),
                    None => constant = false,
                }
            }
            let (rows, after) = rest.split_at_row(end);
            rest = after;
            let slots = if constant {
                Slots::One(self.probe(key))
            } else {
                self.probe_rows(block, group_pos, rows);
                Slots::Each(&self.row_slots)
            };
            for (acc, arg) in self.accs.iter_mut().zip(arg_pos) {
                acc.fold_segment(slots, arg.map(|p| &block.columns[p]), rows);
            }
        }
        block.selected() as u64
    }

    /// The per-row key path: read each key column's codes for `rows`
    /// (one representation per column here), then probe row by row.
    fn probe_rows(&mut self, block: &ColumnBlock, group_pos: &[usize], rows: Picks<'_>) {
        self.row_keys.clear();
        self.row_keys.resize(rows.len(), [0; MAX_GROUP_COLS]);
        for (k, &p) in group_pos.iter().enumerate() {
            let mut keys = self.row_keys.iter_mut();
            for piece in block.columns[p].pieces(rows) {
                piece.for_each_f64(|_, x| {
                    keys.next().expect("one key per picked row")[k] = key_code(x)
                });
            }
        }
        self.row_slots.clear();
        for r in 0..self.row_keys.len() {
            let slot = self.probe(self.row_keys[r]);
            self.row_slots.push(slot as u32);
        }
    }

    /// Merge a shipped partial entry. New groups copy the state
    /// verbatim; existing groups fold it in. Callers must present
    /// entries in ascending canonical `(node, chunk)` order — this is
    /// what makes the merged float state deterministic.
    pub fn merge_entry(&mut self, key: GroupKey, states: &[AccState]) {
        let i = self.probe(key);
        for (acc, &s) in self.accs.iter_mut().zip(states) {
            if i == acc.len() {
                acc.push_state(s);
            } else {
                acc.merge_state(i, s);
            }
        }
    }

    /// Drain this chunk's partials into an outgoing block, tagging
    /// every entry with the chunk's starting scanned ordinal `seq`,
    /// then reset for the next chunk. Returns the number of entries.
    pub fn drain_into(&mut self, seq: u64, out: &mut AggBlock) -> u64 {
        let n = self.keys.len();
        for i in 0..n {
            out.seqs.push(seq);
            out.keys.push(self.keys[i]);
            for (o, a) in out.accs.iter_mut().zip(&self.accs) {
                o.push_state(a.state_at(i));
            }
        }
        self.clear();
        n as u64
    }

    /// Group slots sorted by decoded key value (`total_cmp`
    /// lexicographic) — the deterministic output order.
    pub fn sorted_indices(&self, group_dtypes: &[DataType]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.keys.len()).collect();
        idx.sort_by(|&a, &b| {
            for (k, &ty) in group_dtypes.iter().enumerate() {
                let va = key_value(self.keys[a][k], ty);
                let vb = key_value(self.keys[b][k], ty);
                let c = va.total_cmp(&vb);
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        });
        idx
    }

    /// Decoded key values of group slot `i`.
    pub fn key_values(&self, i: usize, group_dtypes: &[DataType]) -> Vec<Value> {
        group_dtypes.iter().enumerate().map(|(k, &ty)| key_value(self.keys[i][k], ty)).collect()
    }
}

/// A compact block of shipped partial-aggregate entries: parallel
/// arrays of chunk ordinals, group keys, and accumulator columns.
#[derive(Debug, Clone)]
pub struct AggBlock {
    /// Producing cluster node.
    pub source_node: usize,
    /// Number of live `GROUP BY` columns in each key.
    pub key_width: usize,
    /// Starting scanned ordinal of the chunk each entry came from.
    pub seqs: Vec<u64>,
    /// Group keys, parallel to `seqs`.
    pub keys: Vec<GroupKey>,
    /// One accumulator column per aggregate, each `seqs.len()` long.
    pub accs: Vec<AccCol>,
}

impl AggBlock {
    pub fn new(source_node: usize, key_width: usize, funcs: &[AggFunc]) -> AggBlock {
        AggBlock {
            source_node,
            key_width,
            seqs: Vec::new(),
            keys: Vec::new(),
            accs: funcs.iter().map(|&f| AccCol::new(f)).collect(),
        }
    }

    /// Number of partial entries.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Wire size in bytes: per entry, the chunk ordinal, the live key
    /// columns, and each accumulator state.
    pub fn wire_bytes(&self) -> usize {
        let per_entry: usize = 8
            + self.key_width * 8
            + self
                .accs
                .iter()
                .map(|a| if a.is_empty() { 8 } else { a.state_at(0).wire_bytes() })
                .sum::<usize>();
        self.len() * per_entry
    }

    /// The accumulator states of entry `i`.
    pub fn states_at(&self, i: usize) -> Vec<AccState> {
        self.accs.iter().map(|a| a.state_at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(funcs: &[AggFunc]) -> AggTable {
        AggTable::new(funcs, 1)
    }

    #[test]
    fn fold_and_finalize_basics() {
        let mut t =
            table(&[AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg]);
        for (k, x) in [(1.0, 2.0), (1.0, 4.0), (2.0, -1.0)] {
            let mut key: GroupKey = [0; MAX_GROUP_COLS];
            key[0] = key_code(k);
            t.fold_row(key, &[x, x, x, x, x]);
        }
        assert_eq!(t.groups(), 2);
        let idx = t.sorted_indices(&[DataType::Double]);
        let g1 = idx[0]; // key 1.0
        assert_eq!(t.key_values(g1, &[DataType::Double]), vec![Value::Double(1.0)]);
        assert_eq!(t.accs[0].finalize(g1, DataType::Long), Value::Long(2));
        assert_eq!(t.accs[1].finalize(g1, DataType::Double), Value::Double(6.0));
        assert_eq!(t.accs[2].finalize(g1, DataType::Double), Value::Double(2.0));
        assert_eq!(t.accs[3].finalize(g1, DataType::Double), Value::Double(4.0));
        assert_eq!(t.accs[4].finalize(g1, DataType::Double), Value::Double(3.0));
    }

    #[test]
    fn nan_keys_collapse_to_one_group() {
        let mut t = table(&[AggFunc::Count]);
        for bits in [f64::NAN.to_bits(), f64::NAN.to_bits() | 1, (-f64::NAN).to_bits()] {
            let mut key: GroupKey = [0; MAX_GROUP_COLS];
            key[0] = key_code(f64::from_bits(bits));
            t.fold_row(key, &[0.0]);
        }
        assert_eq!(t.groups(), 1);
        assert_eq!(t.accs[0].finalize(0, DataType::Long), Value::Long(3));
    }

    #[test]
    fn min_max_total_cmp_handles_nan() {
        let mut t = table(&[AggFunc::Min, AggFunc::Max]);
        let key: GroupKey = [0; MAX_GROUP_COLS];
        for x in [3.0, f64::NAN, -7.0] {
            t.fold_row(key, &[x, x]);
        }
        assert_eq!(t.accs[0].finalize(0, DataType::Double), Value::Double(-7.0));
        // NaN sorts above every number under total_cmp.
        let Value::Double(mx) = t.accs[1].finalize(0, DataType::Double) else { panic!() };
        assert!(mx.is_nan());
    }

    #[test]
    fn merge_first_contribution_copies_state() {
        // -0.0 survives the copy; a 0.0 + x init would flush it.
        let mut t = table(&[AggFunc::Sum]);
        let key: GroupKey = [0; MAX_GROUP_COLS];
        t.merge_entry(key, &[AccState::Sum(-0.0)]);
        let Value::Double(s) = t.accs[0].finalize(0, DataType::Double) else { panic!() };
        assert_eq!(s.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn drain_round_trips_through_block() {
        let funcs = [AggFunc::Sum, AggFunc::Avg];
        let mut t = table(&funcs);
        let mut k1: GroupKey = [0; MAX_GROUP_COLS];
        k1[0] = key_code(5.0);
        t.fold_row(k1, &[1.5, 1.5]);
        t.fold_row(k1, &[2.5, 2.5]);
        let mut out = AggBlock::new(3, 1, &funcs);
        assert_eq!(t.drain_into(42, &mut out), 1);
        assert!(t.is_empty());
        assert_eq!(out.len(), 1);
        assert_eq!(out.seqs, vec![42]);
        assert_eq!(
            out.states_at(0),
            vec![AccState::Sum(4.0), AccState::Avg { sum: 4.0, count: 2 }]
        );
        // 8 (seq) + 8 (key) + 8 (sum) + 16 (avg).
        assert_eq!(out.wire_bytes(), 40);

        let mut merged = table(&funcs);
        for i in 0..out.len() {
            merged.merge_entry(out.keys[i], &out.states_at(i));
        }
        assert_eq!(merged.accs[0].finalize(0, DataType::Double), Value::Double(4.0));
        assert_eq!(merged.accs[1].finalize(0, DataType::Double), Value::Double(2.0));
    }

    #[test]
    fn fold_block_matches_fold_row() {
        use crate::column::ColumnBlock;
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Float]);
        let rows = [(1, 0.5f32), (2, 1.5), (1, f32::NAN), (2, -0.5), (1, 2.0)];
        for (k, x) in rows {
            b.columns[0].append_data().push_value(Value::Int(k));
            b.columns[1].append_data().push_value(Value::Float(x));
        }
        b.advance_rows(rows.len());
        b.set_selection(Some(vec![0, 2, 3, 4])); // drop row 1

        let funcs = [AggFunc::Count, AggFunc::Sum];
        let mut cols = AggTable::new(&funcs, 1);
        assert_eq!(cols.fold_block(&b, &[0], &[None, Some(1)]), 4);

        let mut byrow = AggTable::new(&funcs, 1);
        for i in [0, 2, 3, 4] {
            let mut key: GroupKey = [0; MAX_GROUP_COLS];
            key[0] = key_code(rows[i].0 as f64);
            byrow.fold_row(key, &[0.0, rows[i].1 as f64]);
        }
        // The key-1 sum takes in one NaN, whose payload must survive.
        assert_same(&cols, &byrow);
    }

    /// Equal keys in equal slot order, and bit-equal states.
    fn assert_same(got: &AggTable, want: &AggTable) {
        assert_same_but(got, want, |_, _| false);
    }

    /// [`assert_same`], except that a sum state of a slot and aggregate
    /// for which `nan_open(slot, agg)` holds need only be some NaN when
    /// the wanted one is. That is for sums that took in two or more
    /// NaNs: IEEE 754 leaves the payload of `NaN + NaN` open, and LLVM
    /// commutes an add to fold a load, so which operand's payload
    /// survives is up to codegen, in `fold_row` too.
    fn assert_same_but(got: &AggTable, want: &AggTable, nan_open: impl Fn(usize, usize) -> bool) {
        fn bits(s: AccState, loose: bool) -> (u64, u64) {
            let sum_bits = |x: f64| if loose && x.is_nan() { CANON_NAN } else { x.to_bits() };
            match s {
                AccState::Count(c) => (c as u64, 0),
                AccState::Min(x) | AccState::Max(x) => (x.to_bits(), 0),
                AccState::Sum(x) => (sum_bits(x), 0),
                AccState::Avg { sum, count } => (sum_bits(sum), count as u64),
            }
        }
        assert_eq!(got.keys, want.keys);
        for (j, (a, b)) in got.accs.iter().zip(&want.accs).enumerate() {
            assert_eq!(a.len(), got.keys.len());
            assert_eq!(b.len(), want.keys.len());
            for i in 0..a.len() {
                let loose = nan_open(i, j);
                assert_eq!(
                    bits(a.state_at(i), loose),
                    bits(b.state_at(i), loose),
                    "slot {i} aggregate {j}"
                );
            }
        }
    }

    #[test]
    fn sorted_output_is_by_decoded_key() {
        let mut t = table(&[AggFunc::Count]);
        for k in [3.0, -1.0, 2.0, f64::NAN] {
            let mut key: GroupKey = [0; MAX_GROUP_COLS];
            key[0] = key_code(k);
            t.fold_row(key, &[0.0]);
        }
        let idx = t.sorted_indices(&[DataType::Double]);
        let decoded: Vec<Value> =
            idx.iter().map(|&i| t.key_values(i, &[DataType::Double])[0]).collect();
        assert_eq!(decoded[0], Value::Double(-1.0));
        assert_eq!(decoded[1], Value::Double(2.0));
        assert_eq!(decoded[2], Value::Double(3.0));
        let Value::Double(last) = decoded[3] else { panic!() };
        assert!(last.is_nan());
    }

    #[test]
    fn result_dtypes() {
        assert_eq!(AggFunc::Count.result_dtype(None), DataType::Long);
        assert_eq!(AggFunc::Sum.result_dtype(Some(DataType::Float)), DataType::Double);
        assert_eq!(AggFunc::Min.result_dtype(Some(DataType::Short)), DataType::Short);
        assert_eq!(AggFunc::Avg.result_dtype(Some(DataType::Int)), DataType::Double);
    }

    /// `fold_block` against `fold_row` over random blocks: every
    /// column type, dense prefixes followed by constant and affine
    /// runs (`Short` starts that wrap included), NaN payloads and
    /// signed zeros as keys and as first values, any selection, 0–3
    /// keys and 0–4 aggregates.
    mod fold_kernel {
        use super::*;
        use crate::column::strategies::{arb_col, arb_sel};
        use crate::column::ColumnBlock;
        use proptest::prelude::*;

        const FUNCS: [AggFunc; 5] =
            [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

            #[test]
            fn fold_block_equals_fold_row(
                n in 0usize..400,
                cols in prop::collection::vec(arb_col(), 1..5),
                sel in arb_sel(),
                keys in prop::collection::vec(any::<usize>(), 0..4),
                aggs in prop::collection::vec((0usize..FUNCS.len(), any::<usize>(), any::<bool>()), 0..5),
            ) {
                let mut block =
                    ColumnBlock::from_columns(0, cols.iter().map(|c| c.build(n)).collect());
                block.set_selection(sel.build(n));
                let group_pos: Vec<usize> = keys.iter().map(|k| k % cols.len()).collect();
                let funcs: Vec<AggFunc> = aggs.iter().map(|a| FUNCS[a.0]).collect();
                let arg_pos: Vec<Option<usize>> = aggs
                    .iter()
                    .map(|&(f, c, star)| (FUNCS[f] != AggFunc::Count || !star).then_some(c % cols.len()))
                    .collect();
                // The reference reads the selected rows through the
                // transpose kernel.
                let rows = block.to_rows();
                let mut byrow = AggTable::new(&funcs, group_pos.len());
                let mut table = AggTable::new(&funcs, group_pos.len());
                // Non-finite arguments each group's aggregates took in. A
                // sum turns NaN only from a NaN argument or from ∞ − ∞,
                // which needs an infinite one, so with at most one such
                // argument a single NaN payload is in play and must match.
                let mut non_finite: HashMap<GroupKey, Vec<u32>> = HashMap::new();
                // The second pass finds every group already open.
                for _ in 0..2 {
                    prop_assert_eq!(table.fold_block(&block, &group_pos, &arg_pos), rows.len() as u64);
                    for row in &rows {
                        let mut key: GroupKey = [0; MAX_GROUP_COLS];
                        for (k, &p) in group_pos.iter().enumerate() {
                            key[k] = key_code(row[p].as_f64());
                        }
                        let args: Vec<f64> =
                            arg_pos.iter().map(|a| a.map_or(0.0, |p| row[p].as_f64())).collect();
                        let seen = non_finite.entry(key).or_insert_with(|| vec![0; args.len()]);
                        for (n, x) in seen.iter_mut().zip(&args) {
                            *n += u32::from(!x.is_finite());
                        }
                        byrow.fold_row(key, &args);
                    }
                    assert_same_but(&table, &byrow, |slot, agg| {
                        non_finite[&byrow.keys[slot]][agg] >= 2
                    });
                }
                // A cleared table folds like a fresh one.
                table.clear();
                table.fold_block(&block, &group_pos, &arg_pos);
                let mut fresh = AggTable::new(&funcs, group_pos.len());
                fresh.fold_block(&block, &group_pos, &arg_pos);
                assert_same(&table, &fresh);
            }
        }
    }
}
