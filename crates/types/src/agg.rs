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
//! # NaN policy
//!
//! Group keys compare by bit pattern with every NaN canonicalized to
//! one quiet-NaN code, so NaN-valued rows form a single group.
//! `SUM`/`AVG` propagate NaN (IEEE addition); `MIN`/`MAX` use
//! `f64::total_cmp`, under which NaN sorts above every number.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::column::ColumnBlock;
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
            AccCol::Min(v) => {
                if x.total_cmp(&v[i]).is_lt() {
                    v[i] = x;
                }
            }
            AccCol::Max(v) => {
                if x.total_cmp(&v[i]).is_gt() {
                    v[i] = x;
                }
            }
            AccCol::Avg { sum, count } => {
                sum[i] += x;
                count[i] += 1;
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
            (AccCol::Min(v), AccState::Min(x)) => {
                if x.total_cmp(&v[i]).is_lt() {
                    v[i] = x;
                }
            }
            (AccCol::Max(v), AccState::Max(x)) => {
                if x.total_cmp(&v[i]).is_gt() {
                    v[i] = x;
                }
            }
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
        for (acc, &f) in self.accs.iter_mut().zip(&self.funcs) {
            *acc = AccCol::new(f);
        }
    }

    /// Fold one row: `args[a]` is the `f64` argument of aggregate `a`
    /// (`COUNT(*)` passes a dummy). Rows must arrive in scan order.
    #[inline]
    pub fn fold_row(&mut self, key: GroupKey, args: &[f64]) {
        match self.map.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get() as usize;
                for (acc, &x) in self.accs.iter_mut().zip(args) {
                    acc.fold_into(i, x);
                }
            }
            Entry::Vacant(e) => {
                e.insert(self.keys.len() as u32);
                self.keys.push(key);
                for (acc, &x) in self.accs.iter_mut().zip(args) {
                    acc.push_first(x);
                }
            }
        }
    }

    /// Fold the selected rows of a columnar block. `group_pos` /
    /// `arg_pos` index into the block's columns (`None` = `COUNT(*)`).
    /// Returns the number of rows folded.
    pub fn fold_block(
        &mut self,
        block: &ColumnBlock,
        group_pos: &[usize],
        arg_pos: &[Option<usize>],
    ) -> u64 {
        let n = block.selected();
        if n == 0 {
            return 0;
        }
        let sel = block.selection();
        let key_cols: Vec<Vec<f64>> =
            group_pos.iter().map(|&p| block.columns[p].f64s(sel)).collect();
        let arg_cols: Vec<Option<Vec<f64>>> =
            arg_pos.iter().map(|o| o.map(|p| block.columns[p].f64s(sel))).collect();
        let mut args = vec![0.0f64; arg_pos.len()];
        for r in 0..n {
            let mut key: GroupKey = [0; MAX_GROUP_COLS];
            for (k, col) in key_cols.iter().enumerate() {
                key[k] = key_code(col[r]);
            }
            for (a, col) in arg_cols.iter().enumerate() {
                if let Some(v) = col {
                    args[a] = v[r];
                }
            }
            self.fold_row(key, &args);
        }
        n as u64
    }

    /// Merge a shipped partial entry. New groups copy the state
    /// verbatim; existing groups fold it in. Callers must present
    /// entries in ascending canonical `(node, chunk)` order — this is
    /// what makes the merged float state deterministic.
    pub fn merge_entry(&mut self, key: GroupKey, states: &[AccState]) {
        match self.map.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get() as usize;
                for (acc, &s) in self.accs.iter_mut().zip(states) {
                    acc.merge_state(i, s);
                }
            }
            Entry::Vacant(e) => {
                e.insert(self.keys.len() as u32);
                self.keys.push(key);
                for (acc, &s) in self.accs.iter_mut().zip(states) {
                    acc.push_state(s);
                }
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
        assert_eq!(cols.keys, byrow.keys);
        fn bits(s: AccState) -> (u64, u64) {
            match s {
                AccState::Count(c) => (c as u64, 0),
                AccState::Sum(x) | AccState::Min(x) | AccState::Max(x) => (x.to_bits(), 0),
                AccState::Avg { sum, count } => (sum.to_bits(), count as u64),
            }
        }
        for (a, b) in cols.accs.iter().zip(&byrow.accs) {
            for i in 0..a.len() {
                assert_eq!(bits(a.state_at(i)), bits(b.state_at(i)));
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
}
