//! Property tests for the partition generation service: no row is
//! lost or duplicated by any strategy, hash partitioning is
//! value-consistent, range partitioning respects its bounds.

use proptest::prelude::*;

use dv_storm::partition::partition_columns;
use dv_storm::PartitionStrategy;
use dv_types::{ColumnBlock, DataType, Value};

fn block_of(vals: &[(i32, f64)]) -> ColumnBlock {
    let mut b = ColumnBlock::with_dtypes(0, &[DataType::Int, DataType::Double]);
    for (a, x) in vals {
        b.columns[0].append_data().push_value(Value::Int(*a));
        b.columns[1].append_data().push_value(Value::Double(*x));
    }
    b.advance_rows(vals.len());
    b
}

fn rows(b: &ColumnBlock) -> Vec<Vec<Value>> {
    b.to_rows().iter().map(<[Value]>::to_vec).collect()
}

fn arb_strategy() -> impl Strategy<Value = PartitionStrategy> {
    prop_oneof![
        Just(PartitionStrategy::RoundRobin),
        (0usize..2).prop_map(|position| PartitionStrategy::HashAttr { position }),
        prop::collection::vec(-50.0f64..50.0, 0..4).prop_map(|mut bounds| {
            bounds.sort_by(f64::total_cmp);
            PartitionStrategy::RangeAttr { position: 1, bounds }
        }),
    ]
}

proptest! {
    #[test]
    fn partitioning_conserves_rows(
        vals in prop::collection::vec((-20i32..20, -50.0f64..50.0), 0..300),
        strategy in arb_strategy(),
        processors in 1usize..6,
        base in 0u64..100,
    ) {
        let parts = partition_columns(block_of(&vals), &strategy, processors, base);
        prop_assert_eq!(parts.len(), processors);

        // Conservation: the multiset of rows is unchanged.
        let mut merged: Vec<Vec<Value>> = parts.iter().flat_map(rows).collect();
        let mut original: Vec<Vec<Value>> = rows(&block_of(&vals));
        merged.sort();
        original.sort();
        prop_assert_eq!(merged, original);
    }

    #[test]
    fn hash_is_value_consistent(
        vals in prop::collection::vec(-5i32..5, 1..200),
        processors in 1usize..6,
    ) {
        let vals: Vec<(i32, f64)> = vals.iter().map(|v| (*v, 0.0)).collect();
        let parts = partition_columns(
            block_of(&vals),
            &PartitionStrategy::HashAttr { position: 0 },
            processors,
            0,
        );
        // No value appears on two different processors.
        let mut owner: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
        for (p, part) in parts.iter().enumerate() {
            for row in rows(part) {
                let v = row[0].as_i64().unwrap();
                if let Some(prev) = owner.insert(v, p) {
                    prop_assert_eq!(prev, p, "value {} split across processors", v);
                }
            }
        }
    }

    #[test]
    fn range_respects_bounds(
        vals in prop::collection::vec(-50.0f64..50.0, 1..200),
        raw_bounds in prop::collection::vec(-40.0f64..40.0, 1..4),
    ) {
        let mut bounds = raw_bounds;
        bounds.sort_by(f64::total_cmp);
        let processors = bounds.len() + 1;
        let vals: Vec<(i32, f64)> = vals.iter().map(|v| (0, *v)).collect();
        let strategy = PartitionStrategy::RangeAttr { position: 1, bounds: bounds.clone() };
        let parts = partition_columns(block_of(&vals), &strategy, processors, 0);
        for (p, part) in parts.iter().enumerate() {
            for row in rows(part) {
                let v = row[1].as_f64();
                if p > 0 {
                    prop_assert!(v >= bounds[p - 1], "proc {} got {} below {}", p, v, bounds[p - 1]);
                }
                if p < bounds.len() {
                    prop_assert!(v < bounds[p], "proc {} got {} at/above {}", p, v, bounds[p]);
                }
            }
        }
    }

    #[test]
    fn round_robin_is_balanced(
        n in 0usize..300,
        processors in 1usize..6,
    ) {
        let vals: Vec<(i32, f64)> = (0..n as i32).map(|i| (i, 0.0)).collect();
        let parts =
            partition_columns(block_of(&vals), &PartitionStrategy::RoundRobin, processors, 0);
        let max = parts.iter().map(|p| p.len()).max().unwrap_or(0);
        let min = parts.iter().map(|p| p.len()).min().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }
}
