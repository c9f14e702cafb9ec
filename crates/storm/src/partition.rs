//! Partition generation service.
//!
//! "The purpose of the partition generation service is to make it
//! possible for an application developer to implement the data
//! distribution scheme employed in the client program at the server"
//! (§2.3): selected rows are split among the client's processors
//! *before* transfer, so each processor receives exactly its share.

use dv_types::column::Picks;
use dv_types::{ColumnBlock, Value};

/// How rows are distributed over the client's processors.
#[derive(Debug, Clone)]
pub enum PartitionStrategy {
    /// Cycle rows over processors (default; balances load).
    RoundRobin,
    /// Hash one attribute (by working-row position) — rows with equal
    /// values land on the same processor.
    HashAttr { position: usize },
    /// Range-partition one attribute over `bounds`: processor `p`
    /// receives rows with `bounds[p-1] <= v < bounds[p]` (processor 0
    /// takes everything below `bounds[0]`, the last everything above).
    RangeAttr { position: usize, bounds: Vec<f64> },
}

impl PartitionStrategy {
    /// Processor index for a row whose scanned ordinal is
    /// `row_ordinal` — the per-row rule [`partition_columns`] applies
    /// to a whole block.
    #[inline]
    pub fn assign(&self, row_ordinal: u64, row: &[Value], processors: usize) -> usize {
        if processors <= 1 {
            return 0;
        }
        match self {
            PartitionStrategy::RoundRobin => (row_ordinal % processors as u64) as usize,
            PartitionStrategy::HashAttr { position } => {
                hash_processor(row[*position].as_f64(), processors)
            }
            PartitionStrategy::RangeAttr { position, bounds } => {
                range_processor(row[*position].as_f64(), bounds, processors)
            }
        }
    }
}

/// Hash a partition-key value to a processor. Mixes the bits of the
/// value; f64 -> u64 is stable for equal values (including
/// -0.0 == 0.0 normalization), so [`PartitionStrategy::assign`] and
/// [`partition_columns`] agree.
#[inline]
fn hash_processor(v: f64, processors: usize) -> usize {
    let bits = if v == 0.0 { 0u64 } else { v.to_bits() };
    let mut h = bits ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h % processors as u64) as usize
}

/// Range-partition a key value over sorted `bounds`.
#[inline]
fn range_processor(v: f64, bounds: &[f64], processors: usize) -> usize {
    bounds.partition_point(|b| *b <= v).min(processors - 1)
}

/// Split a columnar block's *selected* rows into per-processor
/// columnar blocks. Assignment reads only the key column, as `f64`s
/// straight from its typed pieces; the gather then copies each payload
/// column once, piece by piece ([`dv_types::Column::gather`]).
/// `base_ordinal` is the *scanned* ordinal of the block's first
/// pre-filter row — a plan-time quantity (rows materialized by all
/// earlier AFCs in the node's schedule) — and round-robin keys on it
/// plus each row's pre-filter index (the selection vector preserves
/// scanned positions), so assignment is independent of block
/// boundaries, batch sizes, thread counts, and morsel steal order.
pub fn partition_columns(
    block: ColumnBlock,
    strategy: &PartitionStrategy,
    processors: usize,
    base_ordinal: u64,
) -> Vec<ColumnBlock> {
    let mut idx: Vec<Vec<u32>> = (0..processors).map(|_| Vec::new()).collect();
    match strategy {
        PartitionStrategy::RoundRobin => {
            let mut put =
                |i: u32| idx[((base_ordinal + i as u64) % processors as u64) as usize].push(i);
            match block.picks() {
                Picks::Range(a, b) => (a as u32..b as u32).for_each(put),
                Picks::Sel(sel) => sel.iter().for_each(|&i| put(i)),
            }
        }
        PartitionStrategy::HashAttr { position } => {
            for piece in block.columns[*position].pieces(block.picks()) {
                piece.for_each_f64(|i, v| idx[hash_processor(v, processors)].push(i as u32));
            }
        }
        PartitionStrategy::RangeAttr { position, bounds } => {
            for piece in block.columns[*position].pieces(block.picks()) {
                piece.for_each_f64(|i, v| {
                    idx[range_processor(v, bounds, processors)].push(i as u32)
                });
            }
        }
    }
    idx.into_iter()
        .map(|ids| {
            let cols = block.columns.iter().map(|c| c.gather(&ids)).collect();
            ColumnBlock::from_columns(block.source_node, cols)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_types::DataType;

    /// `(Int k, Double k)` for each `k` in `keys`.
    fn block_of(keys: impl IntoIterator<Item = i32>) -> ColumnBlock {
        let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Double]);
        let mut n = 0;
        for k in keys {
            b.columns[0].append_data().push_value(Value::Int(k));
            b.columns[1].append_data().push_value(Value::Double(k as f64));
            n += 1;
        }
        b.advance_rows(n);
        b
    }

    fn block(n: i32) -> ColumnBlock {
        block_of(0..n)
    }

    /// Reconstitute a partition's rows for comparison.
    fn part_rows(p: &ColumnBlock) -> Vec<Vec<Value>> {
        p.to_rows().iter().map(<[Value]>::to_vec).collect()
    }

    fn row(k: i32) -> Vec<Value> {
        vec![Value::Int(k), Value::Double(k as f64)]
    }

    #[test]
    fn round_robin_balances() {
        let parts = partition_columns(block(10), &PartitionStrategy::RoundRobin, 3, 0);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn round_robin_continues_across_blocks() {
        let a = partition_columns(block(2), &PartitionStrategy::RoundRobin, 2, 0);
        let b = partition_columns(block(2), &PartitionStrategy::RoundRobin, 2, 2);
        // Second block continues the cycle: ordinals 2,3 → procs 0,1.
        assert_eq!(a[0].len(), 1);
        assert_eq!(part_rows(&b[0]), vec![row(0)]);
        assert_eq!(part_rows(&b[1]), vec![row(1)]);
    }

    #[test]
    fn hash_groups_equal_values() {
        let b = block_of([42, 42, 42, 42, 42, 7, 7, 7, 7, 7]);
        let parts = partition_columns(b, &PartitionStrategy::HashAttr { position: 0 }, 4, 0);
        // Each distinct value lands entirely on one processor.
        for v in [42, 7] {
            let counts: Vec<usize> = parts
                .iter()
                .map(|p| part_rows(p).iter().filter(|r| r[0] == Value::Int(v)).count())
                .collect();
            assert!(counts.contains(&5), "{v} split across processors: {counts:?}");
        }
    }

    #[test]
    fn hash_cross_type_equal_values_agree() {
        // Int 5 and Double 5.0 compare equal and must hash identically.
        let s = PartitionStrategy::HashAttr { position: 0 };
        let a = s.assign(0, &[Value::Int(5)], 8);
        let b = s.assign(0, &[Value::Double(5.0)], 8);
        assert_eq!(a, b);
    }

    #[test]
    fn range_partition_respects_bounds() {
        let s = PartitionStrategy::RangeAttr { position: 1, bounds: vec![3.0, 6.0] };
        let parts = partition_columns(block(10), &s, 3, 0);
        assert_eq!(part_rows(&parts[0]), (0..3).map(row).collect::<Vec<_>>());
        assert_eq!(part_rows(&parts[1]), (3..6).map(row).collect::<Vec<_>>());
        assert_eq!(part_rows(&parts[2]), (6..10).map(row).collect::<Vec<_>>());
    }

    #[test]
    fn single_processor_short_circuits() {
        let s = PartitionStrategy::HashAttr { position: 0 };
        assert_eq!(s.assign(9, &[Value::Int(1)], 1), 0);
    }

    /// What `assign` says row by row, for the selected rows of
    /// `block(n)` starting at scanned ordinal `base`.
    fn assigned(
        s: &PartitionStrategy,
        sel: &[u32],
        base: u64,
        procs: usize,
    ) -> Vec<Vec<Vec<Value>>> {
        let mut out = vec![Vec::new(); procs];
        for &i in sel {
            let r = row(i as i32);
            out[s.assign(base + i as u64, &r, procs)].push(r);
        }
        out
    }

    #[test]
    fn columnar_partition_matches_row_partition() {
        let strategies = [
            PartitionStrategy::RoundRobin,
            PartitionStrategy::HashAttr { position: 0 },
            PartitionStrategy::RangeAttr { position: 1, bounds: vec![3.0, 6.0] },
        ];
        let all: Vec<u32> = (0..10).collect();
        for s in strategies {
            let cols = partition_columns(block(10), &s, 3, 5);
            let got: Vec<_> = cols.iter().map(part_rows).collect();
            assert_eq!(got, assigned(&s, &all, 5, 3), "{s:?}");
        }
    }

    #[test]
    fn columnar_partition_honors_selection() {
        let mut b = block(10);
        // Keep only even rows, then round-robin over 2 processors.
        // Assignment keys on the *scanned* ordinal (the pre-filter
        // index), so every even-ordinal survivor lands on processor 0
        // — a plan-time function of the scan, independent of how the
        // surviving rows were batched or which worker shipped them.
        b.set_selection(Some(vec![0, 2, 4, 6, 8]));
        let parts = partition_columns(b, &PartitionStrategy::RoundRobin, 2, 0);
        assert_eq!(parts[0].len() + parts[1].len(), 5);
        assert_eq!(parts[0].len(), 5);
        assert_eq!(parts[1].len(), 0);
        assert_eq!(part_rows(&parts[0])[0], row(0));
        assert_eq!(part_rows(&parts[0])[1], row(2));
    }

    #[test]
    fn row_partition_with_ordinals_matches_columnar_selection() {
        // The same five survivors assigned row by row on their scanned
        // ordinals partition exactly like the columnar selection; a
        // different base shifts the whole block's assignment.
        let sel = vec![0u32, 2, 4, 6, 8];
        for base in [0u64, 1] {
            let mut b = block(10);
            b.set_selection(Some(sel.clone()));
            let parts = partition_columns(b, &PartitionStrategy::RoundRobin, 2, base);
            let got: Vec<_> = parts.iter().map(part_rows).collect();
            assert_eq!(got, assigned(&PartitionStrategy::RoundRobin, &sel, base, 2));
            assert_eq!(got[base as usize].len(), 5, "base {base}");
        }
    }
}
