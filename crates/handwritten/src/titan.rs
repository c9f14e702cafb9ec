//! Hand-written executor for the chunked Titan layout.
//!
//! Layout knowledge baked in: fixed 32-byte records
//! `(X i32, Y i32, Z i32, S1..S5 f32)`, one data + one index file per
//! node, chunk index format as written by the generator. The index
//! function loads all chunk MBRs at startup and builds an R-tree; the
//! extractor reads whole chunks and decodes records in place.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dv_datagen::TitanConfig;
use dv_index::{read_chunk_index, ChunkIndexEntry, RTree, Rect};
use dv_sql::analysis::attribute_ranges;
use dv_sql::eval::EvalContext;
use dv_sql::{BoundQuery, UdfRegistry};
use dv_types::{DvError, Result, Row, Table, Value};

const RECORD: usize = 32;

struct NodeIndex {
    data_path: PathBuf,
    entries: Vec<ChunkIndexEntry>,
    tree: RTree<usize>,
}

/// Hand-written index + extractor for the Titan chunked layout.
pub struct HandTitan {
    nodes: Vec<NodeIndex>,
    udfs: UdfRegistry,
}

impl HandTitan {
    /// Load the per-node chunk indexes (the hand-written "index
    /// function" initialization).
    pub fn new(base: PathBuf, cfg: &TitanConfig, udfs: UdfRegistry) -> Result<HandTitan> {
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for n in 0..cfg.nodes {
            let dir = base.join(format!("tnode{n}")).join("titan");
            let (_dims, entries) = read_chunk_index(&dir.join("titan.idx"))?;
            let rects: Vec<(Rect, usize)> =
                entries.iter().enumerate().map(|(i, e)| (e.rect(), i)).collect();
            let tree = RTree::bulk_load(3, rects);
            nodes.push(NodeIndex { data_path: dir.join("titan.dat"), entries, tree });
        }
        Ok(HandTitan { nodes, udfs })
    }

    /// Execute a bound query; returns the table and bytes read.
    pub fn execute(&self, bq: &BoundQuery) -> Result<(Table, u64)> {
        self.execute_inner(bq, false, None)
    }

    /// Execute with nodes processed one at a time, appending per-node
    /// pipeline durations to the returned vector (single-core scaling
    /// measurement; see DESIGN.md).
    pub fn execute_sequential(
        &self,
        bq: &BoundQuery,
    ) -> Result<(Table, u64, Vec<std::time::Duration>)> {
        let mut busy = Vec::new();
        let (table, bytes) = self.execute_inner(bq, true, Some(&mut busy))?;
        Ok((table, bytes, busy))
    }

    fn execute_inner(
        &self,
        bq: &BoundQuery,
        sequential: bool,
        mut node_busy: Option<&mut Vec<std::time::Duration>>,
    ) -> Result<(Table, u64)> {
        // Query box over (X, Y, Z) from the predicate.
        let ranges = bq.predicate.as_ref().map(attribute_ranges).unwrap_or_default();
        let mut lo = [f64::NEG_INFINITY; 3];
        let mut hi = [f64::INFINITY; 3];
        for d in 0..3 {
            if let Some((l, h)) = ranges.get(&d).and_then(|s| s.bounds()) {
                lo[d] = l;
                hi[d] = h;
            }
        }
        let qbox = Rect::new(lo.to_vec(), hi.to_vec());

        let working = bq.needed_attrs();
        let cx = EvalContext::new(bq.schema.len(), &working, &self.udfs);
        let out_positions: Vec<usize> = bq
            .projection
            .iter()
            .map(|attr| working.iter().position(|w| w == attr).expect("projection covered"))
            .collect();
        // Identity projection (e.g. SELECT *) moves rows instead of
        // re-collecting them.
        let identity_projection = out_positions.len() == working.len()
            && out_positions.iter().enumerate().all(|(i, &p)| i == p);

        let bytes_read = AtomicU64::new(0);
        let run_node = |node: &NodeIndex| -> Result<Vec<Row>> {
            let out_positions = &out_positions;
            let identity_projection = &identity_projection;
            let qbox = &qbox;
            let working = &working;
            let cx = &cx;
            let bytes_read = &bytes_read;
            {
                {
                    let file = File::open(&node.data_path)
                        .map_err(|e| DvError::io(node.data_path.display().to_string(), e))?;
                    let mut hits: Vec<usize> =
                        node.tree.query_collect(qbox).into_iter().copied().collect();
                    hits.sort_unstable();
                    let mut rows: Vec<Row> = Vec::new();
                    let mut buf: Vec<u8> = Vec::new();
                    for ord in hits {
                        let e = &node.entries[ord];
                        let len = e.rows as usize * RECORD;
                        buf.resize(len, 0);
                        file.read_exact_at(&mut buf, e.offset)
                            .map_err(|e| DvError::io("<titan.dat>", e))?;
                        bytes_read.fetch_add(len as u64, Ordering::Relaxed);
                        for r in 0..e.rows as usize {
                            let at = r * RECORD;
                            let mut row: Row = Vec::with_capacity(working.len());
                            for &attr in working.iter() {
                                let v = if attr < 3 {
                                    Value::Int(i32::from_le_bytes(
                                        buf[at + attr * 4..at + attr * 4 + 4].try_into().unwrap(),
                                    ))
                                } else {
                                    let off = at + 12 + (attr - 3) * 4;
                                    Value::Float(f32::from_le_bytes(
                                        buf[off..off + 4].try_into().unwrap(),
                                    ))
                                };
                                row.push(v);
                            }
                            let keep = match &bq.predicate {
                                Some(p) => cx.eval(p, &row),
                                None => true,
                            };
                            if keep {
                                if *identity_projection {
                                    rows.push(row);
                                } else {
                                    rows.push(out_positions.iter().map(|&p| row[p]).collect());
                                }
                            }
                        }
                    }
                    Ok(rows)
                }
            }
        };

        let results: Result<Vec<Vec<Row>>> = if sequential {
            let mut out = Vec::with_capacity(self.nodes.len());
            for node in &self.nodes {
                let start = std::time::Instant::now();
                let rows = run_node(node)?;
                if let Some(busy) = node_busy.as_deref_mut() {
                    busy.push(start.elapsed());
                }
                out.push(rows);
            }
            Ok(out)
        } else {
            std::thread::scope(|scope| {
                let run_node = &run_node;
                let handles: Vec<_> =
                    self.nodes.iter().map(|node| scope.spawn(move || run_node(node))).collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().map_err(|_| DvError::Runtime("hand worker panicked".into()))?
                    })
                    .collect()
            })
        };

        let mut table = Table::empty(bq.output_schema());
        for rows in results? {
            table.rows.extend(rows);
        }
        Ok((table, bytes_read.load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_datagen::titan;
    use dv_sql::{bind, parse};

    fn setup(tag: &str, nodes: usize) -> (PathBuf, TitanConfig) {
        let base = std::env::temp_dir().join(format!("dv-hand-titan-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let cfg = TitanConfig { nodes, ..TitanConfig::tiny() };
        titan::generate(&base, &cfg).unwrap();
        (base, cfg)
    }

    fn schema(cfg: &TitanConfig) -> dv_types::Schema {
        dv_descriptor::compile(&titan::descriptor(cfg)).unwrap().schema
    }

    #[test]
    fn hand_matches_generated_titan() {
        let (base, cfg) = setup("match", 2);
        let hand = HandTitan::new(base.clone(), &cfg, UdfRegistry::with_builtins()).unwrap();
        let compiled = dv_layout::plan::compile_from_text(&titan::descriptor(&cfg), &base).unwrap();
        let service = dv_storm::QueryService::new(
            std::sync::Arc::new(compiled),
            UdfRegistry::with_builtins(),
            &dv_storm::ServiceConfig::default(),
        );
        let queries = [
            "SELECT * FROM TitanData",
            "SELECT * FROM TitanData WHERE X >= 0 AND X <= 20000 AND Y >= 0 AND Y <= 20000 \
             AND Z >= 0 AND Z <= 200",
            "SELECT * FROM TitanData WHERE S1 < 0.3",
            "SELECT X, Y FROM TitanData WHERE DISTANCE(X, Y, Z) < 25000.0",
        ];
        for sql in queries {
            let bq =
                bind(&parse(sql).unwrap(), &schema(&cfg), &UdfRegistry::with_builtins()).unwrap();
            let (hand_table, _) = hand.execute(&bq).unwrap();
            let (mut tables, _) = service.execute(sql, &dv_storm::QueryOptions::default()).unwrap();
            let gen_table = tables.pop().unwrap();
            assert!(
                hand_table.same_rows(&gen_table),
                "{sql}: hand {} vs generated {}",
                hand_table.len(),
                gen_table.len()
            );
        }
    }

    #[test]
    fn spatial_pruning_reads_less() {
        let (base, cfg) = setup("prune", 1);
        let hand = HandTitan::new(base, &cfg, UdfRegistry::with_builtins()).unwrap();
        let full = bind(
            &parse("SELECT * FROM TitanData").unwrap(),
            &schema(&cfg),
            &UdfRegistry::with_builtins(),
        )
        .unwrap();
        let boxed = bind(
            &parse(
                "SELECT * FROM TitanData WHERE X >= 0 AND X <= 10000 AND Y >= 0 AND \
                 Y <= 10000 AND Z >= 0 AND Z <= 100",
            )
            .unwrap(),
            &schema(&cfg),
            &UdfRegistry::with_builtins(),
        )
        .unwrap();
        let (_, full_bytes) = hand.execute(&full).unwrap();
        let (t, boxed_bytes) = hand.execute(&boxed).unwrap();
        assert!(boxed_bytes < full_bytes);
        // Every returned row is inside the box.
        for row in &t.rows {
            assert!(row[0].as_f64() <= 10000.0);
            assert!(row[1].as_f64() <= 10000.0);
            assert!(row[2].as_f64() <= 100.0);
        }
    }
}
