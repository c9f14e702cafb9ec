//! Aggregation differential tests: GROUP BY results must be
//! *bit-identical* — same rows, same order, same float bit patterns —
//! to the serial reference executor's (`dv_integration::reference`)
//! across prune on/off and thread counts
//! (with injected per-morsel jitter shuffling steal orders). The
//! canonical fold unit is the aligned file chunk, so every
//! configuration folds the same tree; the reference and the
//! handwritten L0 oracle each replicate that tree from the raw files
//! with an accumulator implementation of their own.

use std::io::Write as _;

use dv_core::{QueryOptions, Virtualizer};
use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_handwritten::HandIparsL0;
use dv_integration::{query_checked, query_options, reference, scratch};
use dv_sql::{bind, parse, UdfRegistry};
use dv_types::{Table, Value};
use proptest::prelude::*;

fn cfg() -> IparsConfig {
    IparsConfig { realizations: 2, time_steps: 40, grid_per_dir: 50, dirs: 2, nodes: 2, seed: 93 }
}

fn opts(threads: usize, no_prune: bool) -> QueryOptions {
    QueryOptions { intra_node_threads: threads, no_prune, ..query_options() }
}

/// The engine's aggregate result (always delivered whole to processor 0).
fn run(v: &Virtualizer, sql: &str, opts: &QueryOptions) -> Table {
    query_checked(v, sql, opts).0.remove(0)
}

/// The reference executor's aggregate result.
fn run_reference(v: &Virtualizer, sql: &str) -> Table {
    reference::execute(v, sql, &query_options()).remove(0)
}

const AGG_QUERIES: &[&str] = &[
    "SELECT REL, TIME, COUNT(*), SUM(SOIL), MIN(PGAS), MAX(PGAS), AVG(SOIL) \
     FROM IparsData GROUP BY REL, TIME",
    "SELECT TIME, AVG(SOIL) FROM IparsData WHERE SOIL > 0.3 GROUP BY TIME",
    "SELECT COUNT(*), SUM(SOIL), MIN(SOIL), MAX(SOIL), AVG(PGAS) FROM IparsData",
    "SELECT REL FROM IparsData GROUP BY REL",
    "SELECT MAX(SOIL) FROM IparsData WHERE TIME <= 13 GROUP BY REL",
];

/// Require *bit* equality, not `total_cmp` equality: `assert_eq!` on
/// `Value` would already distinguish NaN payloads and -0.0, but spell
/// the comparison out so a future `PartialEq` loosening can't silently
/// weaken the suite.
fn assert_bit_identical(a: &Table, b: &Table, what: &str) {
    assert_eq!(a.rows.len(), b.rows.len(), "{what}: row count");
    for (i, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{what}: row {i} width");
        for (va, vb) in ra.iter().zip(rb) {
            let same = match (va, vb) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                _ => va == vb,
            };
            assert!(same, "{what}: row {i} diverged: {ra:?} vs {rb:?}");
        }
    }
}

/// Every (prune × thread-count) configuration of the engine
/// returns exactly the reference's result, bit for bit, even with
/// jitter shuffling morsel completion order.
#[test]
fn aggregates_bit_match_across_engines_prune_pushdown_threads() {
    let base = scratch("agg-diff-l0");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .max_intra_node_threads(8)
        .build()
        .unwrap();
    for sql in AGG_QUERIES {
        let oracle = run_reference(&v, sql);
        assert!(!oracle.rows.is_empty(), "{sql}: degenerate diff");
        for no_prune in [false, true] {
            for threads in [1usize, 2, 8] {
                let o = QueryOptions { morsel_jitter_ms: 2, ..opts(threads, no_prune) };
                assert_bit_identical(
                    &run(&v, sql, &o),
                    &oracle,
                    &format!("{sql} [no_prune={no_prune} threads={threads}]"),
                );
            }
        }
    }
}

/// The same fold tree replicated by hand from the raw L0 files, with
/// an independent accumulator implementation.
#[test]
fn aggregates_bit_match_handwritten_oracle() {
    let base = scratch("agg-diff-hand");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor)
        .storage_base(&base)
        .max_intra_node_threads(8)
        .build()
        .unwrap();
    let hand = HandIparsL0::new(base, cfg().clone(), UdfRegistry::with_builtins());
    for sql in AGG_QUERIES {
        let bq = bind(&parse(sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let expect = hand.execute_agg(&bq).unwrap();
        for threads in [1usize, 8] {
            assert_bit_identical(
                &run(&v, sql, &opts(threads, false)),
                &expect,
                &format!("{sql} [threads={threads}] vs handwritten"),
            );
        }
    }
}

/// The reference itself: its fold tree equals the handwritten one,
/// bit for bit, on every aggregate query over L0.
#[test]
fn reference_aggregates_match_handwritten() {
    let base = scratch("agg-diff-ref-hand");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let hand = HandIparsL0::new(base, cfg().clone(), UdfRegistry::with_builtins());
    for sql in AGG_QUERIES {
        let bq = bind(&parse(sql).unwrap(), v.schema(), &UdfRegistry::with_builtins()).unwrap();
        let expect = hand.execute_agg(&bq).unwrap();
        assert_bit_identical(&run_reference(&v, sql), &expect, &format!("{sql} [reference]"));
    }
}

/// A layout whose chunk boundaries differ from L0 (single all-in-one
/// file) still agrees with the reference across every configuration —
/// the fold tree is per-layout canonical, not global.
#[test]
fn aggregates_bit_match_on_other_layouts() {
    for layout in [IparsLayout::II, IparsLayout::V] {
        let base = scratch(&format!("agg-diff-{}", layout.tag()));
        let descriptor = ipars::generate(&base, &cfg(), layout).unwrap();
        let v = Virtualizer::builder(&descriptor)
            .storage_base(&base)
            .max_intra_node_threads(8)
            .build()
            .unwrap();
        let sql = AGG_QUERIES[0];
        let oracle = run_reference(&v, sql);
        for threads in [1usize, 8] {
            assert_bit_identical(
                &run(&v, sql, &opts(threads, false)),
                &oracle,
                &format!("{} [threads={threads}]", layout.tag()),
            );
        }
    }
}

/// A global aggregate over an empty selection returns an empty table
/// (SQL would say one NULL row; the subset has no NULLs — documented
/// in LANGUAGE.md).
#[test]
fn empty_selection_yields_empty_table() {
    let base = scratch("agg-diff-empty");
    let descriptor = ipars::generate(&base, &cfg(), IparsLayout::L0).unwrap();
    let v = Virtualizer::builder(&descriptor).storage_base(&base).build().unwrap();
    let sql = "SELECT COUNT(*), SUM(SOIL) FROM IparsData WHERE TIME > 90000";
    assert!(run(&v, sql, &opts(2, false)).rows.is_empty());
}

/// NaN-laden data: every NaN bit pattern collapses into one group key;
/// SUM/AVG propagate NaN; MIN/MAX use total_cmp (NaN above all
/// numbers); -0.0 and +0.0 form distinct groups. All of it stable
/// across thread counts, and equal to the reference.
#[test]
fn nan_and_signed_zero_groups() {
    const DESC: &str = r#"
[S]
TIME = int
V = float
W = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { TIME }
  DATA { DATASET leaf }
  DATASET "leaf" {
    DATASPACE { LOOP TIME 1:6:1 { LOOP G 1:4:1 { V W } } }
    DATA { DIR[0]/f0 }
  }
}
"#;
    let base = scratch("agg-diff-nan");
    let dir = base.join("n0").join("d");
    std::fs::create_dir_all(&dir).unwrap();
    // 6 times × 4 grid points × (V, W) f32 records. V cycles through
    // NaN (two payloads), ±0.0 and normals; W is a plain ramp.
    let v_vals: [f32; 8] = [
        f32::NAN,
        1.5,
        -0.0,
        f32::from_bits(0x7fc0_0001), // NaN, different payload
        0.0,
        2.5,
        f32::from_bits(0xffc0_0000), // negative NaN
        1.5,
    ];
    let mut bytes = Vec::new();
    for i in 0..24 {
        bytes.extend_from_slice(&v_vals[i % v_vals.len()].to_le_bytes());
        bytes.extend_from_slice(&(i as f32).to_le_bytes());
    }
    let mut f = std::fs::File::create(dir.join("f0")).unwrap();
    f.write_all(&bytes).unwrap();
    drop(f);

    let v =
        Virtualizer::builder(DESC).storage_base(&base).max_intra_node_threads(8).build().unwrap();
    let sql = "SELECT V, COUNT(*), SUM(W), MIN(W), MAX(V), AVG(W) FROM D GROUP BY V";
    let oracle = run_reference(&v, sql);
    // 3 NaN patterns collapse to one group; -0.0 and 0.0 stay apart:
    // groups are {NaN, -0.0, 0.0, 1.5, 2.5}.
    assert_eq!(oracle.rows.len(), 5, "{oracle}");
    let keys: Vec<f32> = oracle
        .rows
        .iter()
        .map(|r| match r[0] {
            Value::Float(x) => x,
            ref v => panic!("group key should be float, got {v:?}"),
        })
        .collect();
    assert_eq!(keys[0].to_bits(), (-0.0f32).to_bits(), "sorted order starts at -0.0");
    assert_eq!(keys[1].to_bits(), (0.0f32).to_bits());
    assert!(keys[4].is_nan(), "NaN group sorts last under total_cmp");
    // NaN group: 3 patterns × 3 full cycles = 9 rows.
    assert_eq!(oracle.rows[4][1], Value::Long(9));
    // MAX(V) of the 1.5 group is 1.5 exactly.
    assert_eq!(oracle.rows[2][4], Value::Float(1.5));

    for threads in [1usize, 2, 8] {
        let o = QueryOptions { morsel_jitter_ms: 1, ..opts(threads, false) };
        assert_bit_identical(&run(&v, sql, &o), &oracle, &format!("nan [threads={threads}]"));
    }
}

const PROP_CALLS: [&str; 6] =
    ["COUNT(*)", "SUM(SOIL)", "MIN(PGAS)", "MAX(SOIL)", "AVG(PGAS)", "AVG(SOIL)"];

/// A layout whose AFCs carry non-constant keys: one AFC per `TIME`,
/// inside which the inner loop variable `G` is an affine implicit
/// attribute and the stored `K` repeats a few values.
const RAMP_DESC: &str = r#"
[S]
TIME = int
G = short
K = int
W = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { TIME }
  DATA { DATASET leaf }
  DATASET "leaf" {
    DATASPACE { LOOP TIME 1:6:1 { LOOP G 1:40:1 { K W } } }
    DATA { DIR[0]/f0 }
  }
}
"#;

const RAMP_CALLS: [&str; 6] = ["COUNT(*)", "SUM(W)", "MIN(W)", "MAX(K)", "AVG(W)", "AVG(K)"];

/// The `RAMP_DESC` dataset, written once per test binary.
fn ramp_virtualizer() -> &'static Virtualizer {
    use std::sync::OnceLock;
    static V: OnceLock<Virtualizer> = OnceLock::new();
    V.get_or_init(|| {
        let base = scratch("agg-diff-ramp");
        let dir = base.join("n0").join("d");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        for i in 0..6 * 40i32 {
            bytes.extend_from_slice(&(i * 7 % 5).to_le_bytes());
            bytes.extend_from_slice(&(i as f32 * 0.37 - 20.0).to_le_bytes());
        }
        std::fs::write(dir.join("f0"), bytes).unwrap();
        Virtualizer::builder(RAMP_DESC)
            .storage_base(&base)
            .max_intra_node_threads(8)
            .build()
            .unwrap()
    })
}

/// The small L0 dataset the random GROUP BY properties share (built
/// on first use, cheap to keep).
fn l0_virtualizer() -> &'static Virtualizer {
    use std::sync::OnceLock;
    static V: OnceLock<Virtualizer> = OnceLock::new();
    V.get_or_init(|| {
        let base = scratch("agg-diff-prop");
        let small = IparsConfig {
            realizations: 2,
            time_steps: 6,
            grid_per_dir: 10,
            dirs: 2,
            nodes: 2,
            seed: 7,
        };
        let descriptor = ipars::generate(&base, &small, IparsLayout::L0).unwrap();
        Virtualizer::builder(&descriptor)
            .storage_base(&base)
            .max_intra_node_threads(8)
            .build()
            .unwrap()
    })
}

/// Run `SELECT group, calls FROM table [pred] GROUP BY group` serial
/// and parallel against the reference's fold.
fn check_group_by(v: &Virtualizer, table: &str, group: &[&str], calls: &[&str], pred: &str) {
    let mut calls = calls.to_vec();
    calls.sort();
    calls.dedup();
    let sql = format!(
        "SELECT {}, {} FROM {table}{pred} GROUP BY {}",
        group.join(", "),
        calls.join(", "),
        group.join(", "),
    );
    let oracle = run_reference(v, &sql);
    for threads in [1, 8] {
        assert_bit_identical(
            &run(v, &sql, &opts(threads, false)),
            &oracle,
            &format!("{sql} [threads={threads}]"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random GROUP BY queries over constant-run keys (`REL`, `TIME`
    /// on L0): serial and parallel runs agree with the
    /// reference's fold, bit for bit.
    #[test]
    fn prop_random_group_by_queries(
        group_sel in 0usize..3,
        call_idx in prop::collection::vec(0usize..PROP_CALLS.len(), 1..4),
        pred in prop::option::of((1i64..7, any::<bool>())),
    ) {
        let group: &[&str] = match group_sel {
            0 => &["REL"],
            1 => &["TIME"],
            _ => &["REL", "TIME"],
        };
        let calls: Vec<&str> = call_idx.iter().map(|&i| PROP_CALLS[i]).collect();
        let pred = match pred {
            Some((t, true)) => format!(" WHERE TIME <= {t}"),
            Some((t, false)) => format!(" WHERE TIME >= {t} AND SOIL > 0.4"),
            None => String::new(),
        };
        check_group_by(l0_virtualizer(), "IparsData", group, &calls, &pred);
    }

    /// The same over keys that change within an AFC, so the per-row key
    /// path is covered end to end: stored columns (`X` on L0, `K`),
    /// affine runs (`G`), and mixes of them with constant runs.
    #[test]
    fn prop_random_group_by_row_keys(
        group_sel in 0usize..7,
        call_idx in prop::collection::vec(0usize..PROP_CALLS.len(), 1..4),
        pred in prop::option::of((1i64..7, any::<bool>())),
    ) {
        let (v, table, group, calls, filter): (_, _, &[&str], _, _) = match group_sel {
            0 => (l0_virtualizer(), "IparsData", &["X"], &PROP_CALLS, "SOIL > 0.4"),
            1 => (l0_virtualizer(), "IparsData", &["TIME", "X"], &PROP_CALLS, "SOIL > 0.4"),
            2 => (ramp_virtualizer(), "D", &["G"], &RAMP_CALLS, "W > -5.0"),
            3 => (ramp_virtualizer(), "D", &["K"], &RAMP_CALLS, "W > -5.0"),
            4 => (ramp_virtualizer(), "D", &["TIME", "G"], &RAMP_CALLS, "W > -5.0"),
            5 => (ramp_virtualizer(), "D", &["K", "TIME"], &RAMP_CALLS, "W > -5.0"),
            _ => (ramp_virtualizer(), "D", &["G", "K"], &RAMP_CALLS, "W > -5.0"),
        };
        let calls: Vec<&str> = call_idx.iter().map(|&i| calls[i]).collect();
        let pred = match pred {
            Some((t, true)) => format!(" WHERE TIME <= {t}"),
            Some((t, false)) => format!(" WHERE TIME >= {t} AND {filter}"),
            None => String::new(),
        };
        check_group_by(v, table, group, &calls, &pred);
    }
}
