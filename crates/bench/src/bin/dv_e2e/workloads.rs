//! The six workloads: dataset, SQL, execution options, and the
//! plain-Rust statement of each query's predicate that the oracle
//! applies. `--seed` moves the generators' values and the query
//! literals; it never moves the *amount* of work (windows keep their
//! width, boxes stay aligned to the tile grid), so runs on different
//! seeds are comparable.

use dv_core::{PartitionStrategy, QueryOptions};
use dv_datagen::hash::mix;
use dv_datagen::titan::{X_MAX, Y_MAX, Z_MAX};
use dv_datagen::{IparsConfig, TitanConfig};

pub const DEFAULT_SEED: u64 = 12;

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 6] = [
    "scan_deliver",
    "filter_scan",
    "agg_groupby",
    "window_manyfiles",
    "mixed_clients",
    "csv_oneshot",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Ipars Layout I: one record file per directory.
    IparsL1,
    /// Ipars L0: every attribute in its own file.
    IparsL0,
    /// Ipars Layout IV: one array file per (realization, time-step).
    IparsL4,
    /// Titan: chunked records behind an R-tree.
    Titan,
    /// Ipars Layout I re-encoded as CSV text (small configuration).
    CsvL1,
}

impl Dataset {
    pub const ALL: [Dataset; 5] =
        [Dataset::IparsL1, Dataset::IparsL0, Dataset::IparsL4, Dataset::Titan, Dataset::CsvL1];

    pub fn key(self) -> &'static str {
        match self {
            Dataset::IparsL1 => "ipars-l1",
            Dataset::IparsL0 => "ipars-l0",
            Dataset::IparsL4 => "ipars-l4",
            Dataset::Titan => "titan",
            Dataset::CsvL1 => "ipars-l1-csv",
        }
    }
}

/// Generator configurations of one run.
pub struct Sizes {
    /// Feeds every generator's value seed and the query literals.
    pub seed: u64,
    /// The measured sizes, as opposed to `--smoke`'s.
    pub full_size: bool,
    pub ipars: IparsConfig,
    pub titan: TitanConfig,
    pub csv: IparsConfig,
}

impl Sizes {
    /// The measured sizes: 1.6 M Ipars rows (128 MB as Layout I, 1.9x
    /// the 64 MiB segment cache), 1.5 M Titan points (48 MB), 40 k CSV
    /// rows (7.2 MB of text).
    pub fn full(seed: u64) -> Sizes {
        Sizes {
            seed,
            full_size: true,
            ipars: IparsConfig {
                realizations: 4,
                time_steps: 100,
                grid_per_dir: 2000,
                dirs: 2,
                nodes: 2,
                seed,
            },
            titan: TitanConfig { points: 1_500_000, tiles: (16, 16, 4), nodes: 2, seed },
            csv: IparsConfig {
                realizations: 2,
                time_steps: 10,
                grid_per_dir: 1000,
                dirs: 2,
                nodes: 2,
                seed,
            },
        }
    }

    /// `--smoke`: every dataset at most 5 k rows.
    pub fn smoke(seed: u64) -> Sizes {
        Sizes {
            seed,
            full_size: false,
            ipars: IparsConfig {
                realizations: 2,
                time_steps: 10,
                grid_per_dir: 100,
                dirs: 2,
                nodes: 2,
                seed,
            },
            titan: TitanConfig { points: 4000, tiles: (4, 4, 2), nodes: 2, seed },
            csv: IparsConfig {
                realizations: 2,
                time_steps: 5,
                grid_per_dir: 50,
                dirs: 2,
                nodes: 2,
                seed,
            },
        }
    }
}

/// Row filter over the Ipars table, as the oracle evaluates it.
#[derive(Debug, Clone, PartialEq)]
pub enum IparsFilter {
    All,
    SoilAbove(f64),
    SoilAboveSpeedBelow {
        soil: f64,
        speed: f64,
    },
    /// `lo <= TIME <= hi`.
    TimeWindow {
        lo: i32,
        hi: i32,
    },
}

/// Row filter over the Titan table. Box bounds are inclusive.
#[derive(Debug, Clone, PartialEq)]
pub enum TitanFilter {
    Box { x: (i32, i32), y: (i32, i32), z: (i32, i32) },
    DistanceBelow(f64),
    S1Below(f64),
}

/// What the oracle computes for one query.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Rows passing `filter`, projected to `columns` (schema indices).
    Ipars { filter: IparsFilter, columns: Vec<usize> },
    /// `GROUP BY REL, TIME` of COUNT(*), SUM(SOIL), AVG(SGAS),
    /// MIN(POIL), MAX(POIL) over rows with `SOIL > min_soil`.
    IparsAgg { min_soil: f64 },
    /// Rows passing `filter`, all eight columns.
    Titan { filter: TitanFilter },
}

pub struct Query {
    pub sql: String,
    pub check: Check,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    /// Closed-loop client threads sharing one `Virtualizer`.
    pub clients: usize,
    /// One operation builds a fresh `Virtualizer` (the CLI user's
    /// path) instead of reusing the warm one.
    pub fresh_per_op: bool,
    /// One operation runs these in order.
    pub queries: Vec<Query>,
    pub opts: QueryOptions,
}

const IPARS_ALL_COLUMNS: std::ops::Range<usize> = 0..22;

fn pick(seed: u64, salt: u64, n: usize) -> usize {
    (mix(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)) % n.max(1) as u64) as usize
}

/// Lowest coordinate that the Titan generator puts in tile `k` of
/// `tiles` along an axis whose values span `0..=max`.
fn tile_edge(k: usize, tiles: usize, max: i32) -> i32 {
    (k * (max as usize + 1)).div_ceil(tiles) as i32
}

/// Fig 7 q2 at a seeded position: 8/3 of a tile wide in X and Y and
/// 2/3 of a tile in Z (the paper's 10000 x 10000 x 100 box on the full
/// grid), anchored on a tile edge so it always meets 3 x 3 x 1 chunks.
fn titan_box(cfg: &TitanConfig, seed: u64, salt: u64) -> Query {
    let (tx, ty, tz) = cfg.tiles;
    let span = |max: i32, tiles: usize, num: usize, den: usize| {
        ((max as usize + 1) * num / (den * tiles)) as i32
    };
    let x0 = tile_edge(pick(seed, salt, tx.saturating_sub(2)), tx, X_MAX);
    let y0 = tile_edge(pick(seed, salt + 1, ty.saturating_sub(2)), ty, Y_MAX);
    let z0 = tile_edge(pick(seed, salt + 2, tz), tz, Z_MAX);
    let (x1, y1, z1) =
        (x0 + span(X_MAX, tx, 8, 3), y0 + span(Y_MAX, ty, 8, 3), z0 + span(Z_MAX, tz, 2, 3));
    Query {
        sql: format!(
            "SELECT * FROM TitanData WHERE X >= {x0} AND X <= {x1} AND Y >= {y0} AND \
             Y <= {y1} AND Z >= {z0} AND Z <= {z1}"
        ),
        check: Check::Titan { filter: TitanFilter::Box { x: (x0, x1), y: (y0, y1), z: (z0, z1) } },
    }
}

pub fn all(sizes: &Sizes) -> Vec<Workload> {
    let seed = sizes.seed;
    let ipars_all =
        || Check::Ipars { filter: IparsFilter::All, columns: IPARS_ALL_COLUMNS.collect() };

    // 1 % of the time steps, at a seeded start: narrow enough that
    // planning 800 files outweighs delivering the rows. `TIME*2` keeps
    // range analysis from seeing the window; static pruning recovers it.
    let steps = sizes.ipars.time_steps;
    let width = (steps / 100).max(1);
    let t0 = 1 + pick(seed, 1, steps - width + 1) as i32;
    let t1 = t0 + width as i32 - 1;

    vec![
        Workload {
            name: NAMES[0],
            why: "SELECT * over 1.9x the segment cache: every byte misses, every row and column \
                  is delivered; mover and the absorber's row rebuild dominate; plan, filter, agg \
                  idle",
            dataset: Dataset::IparsL1,
            clients: 1,
            fresh_per_op: false,
            queries: vec![Query { sql: "SELECT * FROM IparsData".into(), check: ipars_all() }],
            opts: QueryOptions::default(),
        },
        Workload {
            name: NAMES[1],
            why: "same bytes as scan_deliver but ~3 % survive a value filter and a UDF, \
                  hash-partitioned 4 ways: I/O miss path, decode, filter, partition dominate; \
                  absorber idles",
            dataset: Dataset::IparsL1,
            clients: 1,
            fresh_per_op: false,
            queries: vec![Query {
                sql: "SELECT REL, TIME, X, Y, Z, SOIL, SGAS FROM IparsData WHERE SOIL > 0.7 \
                      AND SPEED(OILVX, OILVY, OILVZ) < 30.0"
                    .into(),
                check: Check::Ipars {
                    filter: IparsFilter::SoilAboveSpeedBelow { soil: 0.7, speed: 30.0 },
                    columns: (0..7).collect(),
                },
            }],
            opts: QueryOptions {
                client_processors: 4,
                // X is output column 2.
                partition: PartitionStrategy::HashAttr { position: 2 },
                ..QueryOptions::default()
            },
        },
        Workload {
            name: NAMES[2],
            why: "GROUP BY over one-attribute files, touched columns cache-resident: per-AFC \
                  aggregate fold and partial flush dominate; lock-step extract; mover carries 400 \
                  groups",
            dataset: Dataset::IparsL0,
            clients: 1,
            fresh_per_op: false,
            queries: vec![Query {
                sql: "SELECT REL, TIME, COUNT(*), SUM(SOIL), AVG(SGAS), MIN(POIL), MAX(POIL) \
                      FROM IparsData WHERE SOIL > 0.3 GROUP BY REL, TIME"
                    .into(),
                check: Check::IparsAgg { min_soil: 0.3 },
            }],
            opts: QueryOptions::default(),
        },
        Workload {
            name: NAMES[3],
            why: "arithmetic 1 % TIME window over 800 files defeats range analysis: file \
                  grouping, AFC generation, prune are most of the query; reads 1 % of bytes; \
                  largest descriptor",
            dataset: Dataset::IparsL4,
            clients: 1,
            fresh_per_op: false,
            queries: vec![Query {
                sql: format!(
                    "SELECT * FROM IparsData WHERE TIME*2 > {} AND TIME*2 < {}",
                    2 * t0 - 1,
                    2 * t1 + 1
                ),
                check: Check::Ipars {
                    filter: IparsFilter::TimeWindow { lo: t0, hi: t1 },
                    columns: IPARS_ALL_COLUMNS.collect(),
                },
            }],
            opts: QueryOptions::default(),
        },
        Workload {
            name: NAMES[4],
            why: "2 closed-loop clients share one Virtualizer over chunked Titan, cycling 4 short \
                  queries: per-query parse/plan/admission, R-tree lookup, contended cache and \
                  handles",
            dataset: Dataset::Titan,
            clients: 2,
            fresh_per_op: false,
            queries: vec![
                titan_box(&sizes.titan, seed, 10),
                titan_box(&sizes.titan, seed, 20),
                Query {
                    sql: "SELECT * FROM TitanData WHERE DISTANCE(X, Y, Z) < 10000.0".into(),
                    check: Check::Titan { filter: TitanFilter::DistanceBelow(10000.0) },
                },
                Query {
                    sql: "SELECT * FROM TitanData WHERE S1 < 0.01".into(),
                    check: Check::Titan { filter: TitanFilter::S1Below(0.01) },
                },
            ],
            opts: QueryOptions::default(),
        },
        Workload {
            name: NAMES[5],
            why: "fresh Virtualizer per query over CSV files (the CLI user's path): descriptor \
                  compile, verify and a cold CSV decode are paid on every operation, never cached",
            dataset: Dataset::CsvL1,
            clients: 1,
            fresh_per_op: true,
            queries: vec![Query {
                sql: "SELECT * FROM IparsData WHERE SOIL > 0.7".into(),
                check: Check::Ipars {
                    filter: IparsFilter::SoilAbove(0.7),
                    columns: IPARS_ALL_COLUMNS.collect(),
                },
            }],
            opts: QueryOptions::default(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_in_order_and_every_query_parses() {
        let ws = all(&Sizes::full(DEFAULT_SEED));
        assert_eq!(ws.iter().map(|w| w.name).collect::<Vec<_>>(), NAMES);
        for w in &ws {
            for q in &w.queries {
                dv_sql::parse(&q.sql).unwrap();
            }
        }
    }

    #[test]
    fn seeded_literals_keep_the_work_constant() {
        for seed in 0..50 {
            let sizes = Sizes::full(seed);
            let ws = all(&sizes);
            let Check::Ipars { filter: IparsFilter::TimeWindow { lo, hi }, .. } =
                ws[3].queries[0].check
            else {
                panic!("window workload changed shape")
            };
            assert_eq!(hi - lo + 1, 1);
            assert!(lo >= 1 && hi <= 100);
            for q in &ws[4].queries[..2] {
                let Check::Titan { filter: TitanFilter::Box { x, y, z } } = &q.check else {
                    panic!("box query changed shape")
                };
                // Anchored on a tile edge and narrower than 3 (1) tiles:
                // always 3 x 3 x 1 chunks.
                let tile = |v: i32, tiles: i32, max: i32| v * tiles / (max + 1);
                assert_eq!(tile(x.1, 16, X_MAX) - tile(x.0, 16, X_MAX), 2, "{x:?}");
                assert_eq!(tile(y.1, 16, Y_MAX) - tile(y.0, 16, Y_MAX), 2, "{y:?}");
                assert_eq!(tile(z.1, 4, Z_MAX), tile(z.0, 4, Z_MAX), "{z:?}");
                assert!(x.1 <= X_MAX && y.1 <= Y_MAX && z.1 <= Z_MAX);
                assert_eq!(tile(x.0 - 1, 16, X_MAX) + 1, tile(x.0, 16, X_MAX).max(1));
            }
        }
    }
}
