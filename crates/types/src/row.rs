//! Materialized rows, row blocks, and result tables.
//!
//! The extraction service produces [`RowBlock`]s (batches of rows that
//! share a schema) or columnar blocks; the data-mover service ships
//! blocks to client processors; clients assemble them into a [`Table`].
//!
//! A table's rows live in [`Rows`]: a fixed row width and a list of
//! row-major *slabs* (`Vec<Value>`, each a whole number of rows). A
//! delivered scan is slabs of at most 64 KiB — one allocation per ~180
//! rows of 22 cells instead of one `Vec` per row — and joining results
//! ([`Rows::append`]) moves slab handles, never cells. Slabs are built
//! by the one column→row kernel ([`ColumnBlock::to_rows`]), whoever
//! runs it: the absorber by default, or a mover sender that found its
//! channel full. Slab boundaries are an allocation detail; iteration,
//! indexing and equality see only the logical row sequence.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

use crate::column::ColumnBlock;
use crate::schema::Schema;
use crate::value::Value;

/// One materialized row of the virtual table.
pub type Row = Vec<Value>;

/// A batch of rows sharing one (projected) schema.
///
/// Blocks are the unit of transfer between STORM services: extraction
/// emits blocks, filtering rewrites them in place, partition generation
/// tags them, and the data mover serializes them onto channels.
#[derive(Debug, Clone)]
pub struct RowBlock {
    /// Rows in extraction order.
    pub rows: Vec<Row>,
    /// Identifier of the cluster node that produced the block.
    pub source_node: usize,
}

impl RowBlock {
    /// Create a block originating at `source_node`.
    pub fn new(source_node: usize) -> RowBlock {
        RowBlock { rows: Vec::new(), source_node }
    }

    /// Create a block with pre-allocated row capacity.
    pub fn with_capacity(source_node: usize, cap: usize) -> RowBlock {
        RowBlock { rows: Vec::with_capacity(cap), source_node }
    }

    /// Number of rows in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the block has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate wire size in bytes (used by the data-mover bandwidth
    /// model to simulate remote-client transfers).
    pub fn wire_bytes(&self) -> usize {
        self.rows.iter().map(|r| r.iter().map(|v| v.size()).sum::<usize>()).sum()
    }
}

/// One row-major allocation of a [`Rows`]: `cells.len()` is a non-zero
/// multiple of the owner's width.
#[derive(Clone)]
struct Slab {
    /// Index, within the whole `Rows`, of the slab's first row.
    first: usize,
    cells: Vec<Value>,
}

/// The rows of a result: fixed width, row-major, stored in slabs.
///
/// Behaves like a sequence of `&[Value]` rows; where one slab ends and
/// the next begins is never observable. A row of the wrong width is a
/// panic, not a ragged table.
#[derive(Clone, Default)]
pub struct Rows {
    /// Cells per row. `0` means "not fixed yet" (a `Rows` collected
    /// from no rows does not know its width); the first row fixes it.
    width: usize,
    len: usize,
    slabs: Vec<Slab>,
}

impl Rows {
    /// No rows, each future row `width` cells wide.
    pub fn new(width: usize) -> Rows {
        Rows { width, len: 0, slabs: Vec::new() }
    }

    /// Adopt one slab of whole rows as is, after the rows already here
    /// (the transpose kernel's output).
    pub(crate) fn push_slab(&mut self, cells: Vec<Value>) {
        if cells.is_empty() {
            return;
        }
        assert!(
            cells.len().is_multiple_of(self.width),
            "a slab of {} cells does not hold whole rows of width {}",
            cells.len(),
            self.width
        );
        let first = self.len;
        self.len += cells.len() / self.width;
        self.slabs.push(Slab { first, cells });
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in order.
    pub fn iter(&self) -> RowsIter<'_> {
        RowsIter {
            slabs: self.slabs.iter(),
            cur: [].chunks_exact(1),
            width: self.width,
            remaining: self.len,
        }
    }

    /// Accept rows of `width` cells: fixes an unfixed width, panics on a
    /// mismatch.
    fn check_width(&mut self, width: usize) {
        assert!(width > 0, "a result row needs at least one cell");
        if self.width == 0 {
            self.width = width;
        }
        assert!(width == self.width, "row of width {width} added to rows of width {}", self.width);
    }

    /// Append one row (copied into the tail slab).
    pub fn push(&mut self, row: Row) {
        self.push_cells(&row);
    }

    fn push_cells(&mut self, row: &[Value]) {
        self.check_width(row.len());
        match self.slabs.last_mut() {
            Some(tail) => tail.cells.extend_from_slice(row),
            None => self.slabs.push(Slab { first: 0, cells: row.to_vec() }),
        }
        self.len += 1;
    }

    /// Move every row of `other` to the end of `self`, leaving `other`
    /// empty. Slab handles move; no cell is copied.
    pub fn append(&mut self, other: &mut Rows) {
        if other.is_empty() {
            return;
        }
        self.check_width(other.width);
        let base = self.len;
        self.slabs.extend(other.slabs.drain(..).map(|s| Slab { first: s.first + base, ..s }));
        self.len += std::mem::take(&mut other.len);
    }

    /// Sort the rows with `cmp` (unstable), compacting them into one
    /// slab.
    pub fn sort_unstable_by(&mut self, mut cmp: impl FnMut(&[Value], &[Value]) -> Ordering) {
        let mut order: Vec<&[Value]> = self.iter().collect();
        order.sort_unstable_by(|a, b| cmp(a, b));
        let mut cells = Vec::with_capacity(self.len * self.width);
        for row in order {
            cells.extend_from_slice(row);
        }
        *self = Rows::new(self.width);
        self.push_slab(cells);
    }

    /// Total encoded size of every cell.
    pub fn payload_bytes(&self) -> usize {
        self.slabs.iter().flat_map(|s| &s.cells).map(|v| v.size()).sum()
    }
}

/// Iterator over the rows of a [`Rows`].
#[derive(Clone)]
pub struct RowsIter<'a> {
    slabs: std::slice::Iter<'a, Slab>,
    cur: std::slice::ChunksExact<'a, Value>,
    width: usize,
    remaining: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        loop {
            if let Some(row) = self.cur.next() {
                self.remaining -= 1;
                return Some(row);
            }
            self.cur = self.slabs.next()?.cells.chunks_exact(self.width);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Value];
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

impl Index<usize> for Rows {
    type Output = [Value];

    fn index(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row index {i} out of range for {} rows", self.len);
        let slab = &self.slabs[self.slabs.partition_point(|s| s.first <= i) - 1];
        let at = (i - slab.first) * self.width;
        &slab.cells[at..at + self.width]
    }
}

impl Extend<Row> for Rows {
    fn extend<I: IntoIterator<Item = Row>>(&mut self, rows: I) {
        for row in rows {
            self.push_cells(&row);
        }
    }
}

impl FromIterator<Row> for Rows {
    fn from_iter<I: IntoIterator<Item = Row>>(rows: I) -> Rows {
        let mut out = Rows::default();
        out.extend(rows);
        out
    }
}

/// Equality is over the logical row sequence, wherever the slab
/// boundaries fall.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A complete query result: a projected schema plus all rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// Schema of the result (projection of the dataset schema).
    pub schema: Schema,
    /// All result rows, `schema.len()` cells each. Order is
    /// implementation-defined (parallel extraction), so comparisons
    /// sort first.
    pub rows: Rows,
}

impl Table {
    /// Create an empty result with the given schema.
    pub fn empty(schema: Schema) -> Table {
        let rows = Rows::new(schema.len());
        Table { schema, rows }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append all rows of a block (the row-at-a-time oracle engine's
    /// unit), copying them into the tail slab.
    pub fn absorb(&mut self, block: RowBlock) {
        self.rows.extend(block.rows);
    }

    /// Append the selected rows of a columnar block: transpose it into
    /// slabs ([`ColumnBlock::to_rows`]) and adopt them. A sender
    /// that already ran the kernel ships the `Rows` and the absorber
    /// appends those instead; either way rows are reconstituted exactly
    /// once.
    pub fn absorb_columns(&mut self, block: ColumnBlock) {
        self.rows.append(&mut block.to_rows());
    }

    /// Sort rows lexicographically — canonical order for comparing
    /// results produced by different execution strategies (hand-written
    /// vs generated vs minidb), which may emit rows in any order.
    pub fn sort_canonical(&mut self) {
        self.rows.sort_unstable_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let c = x.total_cmp(y);
                if c != Ordering::Equal {
                    return c;
                }
            }
            a.len().cmp(&b.len())
        });
    }

    /// True when `self` and `other` hold the same multiset of rows
    /// (sorts copies of both; intended for tests and verification, not
    /// hot paths).
    pub fn same_rows(&self, other: &Table) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut a = self.clone();
        let mut b = other.clone();
        a.sort_canonical();
        b.sort_canonical();
        a.rows == b.rows
    }

    /// Total payload bytes of the result (the "amount of data
    /// retrieved" metric of the paper's Figure 11).
    pub fn payload_bytes(&self) -> usize {
        self.rows.payload_bytes()
    }
}

impl fmt::Display for Table {
    /// Renders a bounded, pipe-separated preview (first 20 rows), the
    /// format the examples print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.schema.attributes().iter().map(|a| a.name.as_str()).collect();
        writeln!(f, "{}", names.join(" | "))?;
        for row in self.rows.iter().take(20) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "... ({} rows total)", self.rows.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Attribute;

    fn schema2() -> Schema {
        Schema::new(
            "T",
            vec![Attribute::new("a", DataType::Int), Attribute::new("b", DataType::Double)],
        )
        .unwrap()
    }

    #[test]
    fn block_wire_bytes() {
        let mut b = RowBlock::new(0);
        b.rows.push(vec![Value::Int(1), Value::Double(2.0)]);
        b.rows.push(vec![Value::Int(3), Value::Double(4.0)]);
        assert_eq!(b.wire_bytes(), 2 * (4 + 8));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn same_rows_ignores_order() {
        let s = schema2();
        let t1 = Table {
            schema: s.clone(),
            rows: vec![
                vec![Value::Int(1), Value::Double(1.0)],
                vec![Value::Int(2), Value::Double(2.0)],
            ]
            .into_iter()
            .collect(),
        };
        let t2 = Table {
            schema: s,
            rows: vec![
                vec![Value::Int(2), Value::Double(2.0)],
                vec![Value::Int(1), Value::Double(1.0)],
            ]
            .into_iter()
            .collect(),
        };
        assert!(t1.same_rows(&t2));
    }

    #[test]
    fn same_rows_detects_multiset_difference() {
        let s = schema2();
        let t1 = Table {
            schema: s.clone(),
            rows: vec![
                vec![Value::Int(1), Value::Double(1.0)],
                vec![Value::Int(1), Value::Double(1.0)],
            ]
            .into_iter()
            .collect(),
        };
        let t2 = Table {
            schema: s,
            rows: vec![
                vec![Value::Int(1), Value::Double(1.0)],
                vec![Value::Int(2), Value::Double(2.0)],
            ]
            .into_iter()
            .collect(),
        };
        assert!(!t1.same_rows(&t2));
    }

    #[test]
    fn absorb_accumulates() {
        let mut t = Table::empty(schema2());
        let mut b = RowBlock::new(1);
        b.rows.push(vec![Value::Int(9), Value::Double(0.5)]);
        t.absorb(b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.payload_bytes(), 12);
    }

    #[test]
    fn absorb_columns_reconstitutes_selected_rows() {
        use crate::column::ColumnBlock;
        let mut t = Table::empty(schema2());
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Double]);
        for i in 0..3 {
            b.columns[0].append_data().push_value(Value::Int(i));
            b.columns[1].append_data().push_value(Value::Double(i as f64));
        }
        b.advance_rows(3);
        b.set_selection(Some(vec![0, 2]));
        t.absorb_columns(b);
        let want: Rows =
            [vec![Value::Int(0), Value::Double(0.0)], vec![Value::Int(2), Value::Double(2.0)]]
                .into_iter()
                .collect();
        assert_eq!(t.rows, want);
    }

    #[test]
    fn display_truncates() {
        let mut t = Table::empty(schema2());
        for i in 0..25 {
            t.rows.push(vec![Value::Int(i), Value::Double(i as f64)]);
        }
        let text = t.to_string();
        assert!(text.contains("A | B"));
        assert!(text.contains("25 rows total"));
    }

    #[test]
    #[should_panic(expected = "row of width 3 added to rows of width 2")]
    fn pushing_a_wrong_width_row_panics() {
        let mut t = Table::empty(schema2());
        t.rows.push(vec![Value::Int(1), Value::Double(1.0), Value::Int(2)]);
    }

    #[test]
    #[should_panic(expected = "row of width 3 added to rows of width 2")]
    fn absorbing_a_wrong_width_block_panics() {
        let mut t = Table::empty(schema2());
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Double, DataType::Int]);
        for c in &mut b.columns {
            c.push_run(1, crate::ColumnGen::Affine { start: 0, step: 1 });
        }
        b.advance_rows(1);
        t.absorb_columns(b);
    }

    #[test]
    fn absorbed_slabs_are_exact_and_capped_and_append_moves_them() {
        let mut t = Table::empty(schema2());
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Double]);
        for c in &mut b.columns {
            c.push_run(5000, crate::ColumnGen::Affine { start: 0, step: 1 });
        }
        b.advance_rows(5000);
        t.absorb_columns(b);
        let slab_rows: Vec<usize> = t.rows.slabs.iter().map(|s| s.cells.len() / 2).collect();
        assert_eq!(slab_rows, [2048, 2048, 904], "full slabs, then the rest");
        for s in &t.rows.slabs {
            assert_eq!(s.cells.capacity(), s.cells.len());
            assert!(std::mem::size_of_val(&s.cells[..]) <= 64 * 1024);
        }
        let cells = t.rows.slabs[2].cells.as_ptr();

        let mut joined = Rows::new(2);
        joined.push(vec![Value::Int(-1), Value::Double(-1.0)]);
        joined.append(&mut t.rows);
        assert!(t.rows.is_empty());
        assert_eq!(joined.len(), 5001);
        assert_eq!(joined.slabs[3].cells.as_ptr(), cells, "append moves the slab, not its cells");
        assert_eq!(joined[2048], [Value::Int(2047), Value::Double(2047.0)]);
        assert_eq!(joined[5000], [Value::Int(4999), Value::Double(4999.0)]);
    }

    /// Random build sequences against a `Vec<Row>` model: whatever the
    /// slab boundaries, `Rows` is the same sequence of rows.
    mod model {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Push(u64),
            Extend(usize, u64),
            /// Append a `Rows` pushed together separately.
            Append(usize, u64),
            /// Absorb a columnar block of `n` rows, every `keep`-th
            /// selected (`0`: no selection vector).
            AbsorbColumns(usize, usize, u64),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                any::<u64>().prop_map(Op::Push),
                (0usize..5, any::<u64>()).prop_map(|(n, s)| Op::Extend(n, s)),
                (0usize..5, any::<u64>()).prop_map(|(n, s)| Op::Append(n, s)),
                (0usize..40, 0usize..4, any::<u64>())
                    .prop_map(|(n, keep, s)| Op::AbsorbColumns(n, keep, s)),
            ]
        }

        /// Column `c` is `Int` when even, `Double` when odd.
        fn cell(seed: u64, k: usize, c: usize) -> Value {
            let x = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as i32 + (k * 7 + c) as i32;
            if c.is_multiple_of(2) {
                Value::Int(x)
            } else {
                Value::Double(x as f64 / 4.0)
            }
        }

        fn row(seed: u64, k: usize, width: usize) -> Row {
            (0..width).map(|c| cell(seed, k, c)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

            #[test]
            fn rows_behave_like_a_vec_of_rows(
                width in 1usize..4,
                ops in prop::collection::vec(arb_op(), 0..12),
            ) {
                // The schema plays no part; only the width matters.
                let mut table = Table { schema: schema2(), rows: Rows::new(width) };
                let mut model: Vec<Row> = Vec::new();
                for op in &ops {
                    match *op {
                        Op::Push(seed) => {
                            table.rows.push(row(seed, 0, width));
                            model.push(row(seed, 0, width));
                        }
                        Op::Extend(n, seed) => {
                            table.rows.extend((0..n).map(|k| row(seed, k, width)));
                            model.extend((0..n).map(|k| row(seed, k, width)));
                        }
                        Op::Append(n, seed) => {
                            let mut other: Rows = (0..n).map(|k| row(seed, k, width)).collect();
                            table.rows.append(&mut other);
                            prop_assert!(other.is_empty());
                            model.extend((0..n).map(|k| row(seed, k, width)));
                        }
                        Op::AbsorbColumns(n, keep, seed) => {
                            let dtypes: Vec<DataType> = (0..width)
                                .map(|c| if c % 2 == 0 { DataType::Int } else { DataType::Double })
                                .collect();
                            let mut block = ColumnBlock::with_dtypes(0, &dtypes);
                            for k in 0..n {
                                for (c, col) in block.columns.iter_mut().enumerate() {
                                    col.append_data().push_value(cell(seed, k, c));
                                }
                            }
                            block.advance_rows(n);
                            if keep > 0 {
                                block.set_selection(Some((0..n as u32).step_by(keep).collect()));
                            }
                            model.extend(
                                block.selected_rows().iter().map(|&k| row(seed, k as usize, width)),
                            );
                            table.absorb_columns(block);
                        }
                    }
                }

                let rows = &table.rows;
                prop_assert_eq!(rows.len(), model.len());
                prop_assert_eq!(rows.is_empty(), model.is_empty());
                prop_assert_eq!(rows.iter().len(), model.len());
                prop_assert!(rows.iter().eq(model.iter().map(Vec::as_slice)));
                prop_assert!(rows.into_iter().eq(model.iter().map(Vec::as_slice)));
                for (i, want) in model.iter().enumerate() {
                    prop_assert_eq!(&rows[i], want.as_slice());
                }
                prop_assert_eq!(
                    table.payload_bytes(),
                    model.iter().flatten().map(|v| v.size()).sum::<usize>()
                );

                // Equality sees rows, not slabs: the same rows pushed
                // one by one compare equal both ways; one changed cell
                // or one missing row does not.
                let pushed: Rows = model.iter().cloned().collect();
                prop_assert!(*rows == pushed);
                prop_assert!(pushed == *rows);
                if let Some(last) = model.last_mut() {
                    last[0] = Value::Int(i32::MIN);
                    let changed: Rows = model.iter().cloned().collect();
                    prop_assert!(*rows != changed);
                    model.pop();
                    let shorter: Rows = model.into_iter().collect();
                    prop_assert!(*rows != shorter);
                }
            }
        }
    }
}
