//! Hand-written executor for the original Ipars layout (L0).
//!
//! Layout knowledge baked in (this is the point of the baseline):
//!
//! * per directory `d`: `COORDS` holds `G` records of `(X, Y, Z)` f32;
//! * per directory, variable `v`, realization `r`:
//!   `<var>.r<r>.dat` holds `T × G` f32 values, time-major;
//! * the value of variable `v` at `(t, g)` lives at byte offset
//!   `((t-1)·G + g)·4` of that file;
//! * `REL` and `TIME` are implied by file name and offset.

use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dv_datagen::ipars::VARS;
use dv_datagen::IparsConfig;
use dv_sql::analysis::attribute_ranges;
use dv_sql::eval::EvalContext;
use dv_sql::{BoundQuery, UdfRegistry};
use dv_types::{DvError, IntervalSet, Result, Row, Table, Value};

/// Hand-written index + extractor for Ipars L0.
pub struct HandIparsL0 {
    base: PathBuf,
    cfg: IparsConfig,
    udfs: UdfRegistry,
}

impl HandIparsL0 {
    /// `base` is the directory the generator wrote into.
    pub fn new(base: PathBuf, cfg: IparsConfig, udfs: UdfRegistry) -> HandIparsL0 {
        HandIparsL0 { base, cfg, udfs }
    }

    fn dir_path(&self, d: usize) -> PathBuf {
        self.base.join(format!("osu{}", d % self.cfg.nodes)).join(format!("ipars.l0.d{d}"))
    }

    /// Execute a bound query with node workers running concurrently;
    /// returns the result table and the bytes read from disk.
    pub fn execute(&self, bq: &BoundQuery) -> Result<(Table, u64)> {
        self.execute_inner(bq, false, None)
    }

    /// Execute with nodes processed one at a time, appending each
    /// node's pipeline duration to `node_busy` — `max(node_busy)`
    /// models the wall time of a real N-node cluster (see DESIGN.md).
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
        let cfg = &self.cfg;
        let g = cfg.grid_per_dir as u64;
        let t_max = cfg.time_steps as i64;
        let r_max = cfg.realizations as i64;

        // Hand-written "index function": REL list and TIME range pulled
        // straight from the predicate.
        let ranges: HashMap<usize, IntervalSet> =
            bq.predicate.as_ref().map(attribute_ranges).unwrap_or_default();
        let rels: Vec<i64> = (0..r_max)
            .filter(|r| ranges.get(&0).map(|s| s.contains(*r as f64)).unwrap_or(true))
            .collect();
        let times: Vec<i64> = (1..=t_max)
            .filter(|t| ranges.get(&1).map(|s| s.contains(*t as f64)).unwrap_or(true))
            .collect();

        // Needed attributes, in working (schema) order.
        let working = bq.needed_attrs();
        let need_coord = working.iter().any(|&a| (2..5).contains(&a));
        let needed_vars: Vec<usize> = working.iter().filter(|&&a| a >= 5).map(|&a| a - 5).collect();

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
        let nodes = cfg.nodes;
        let run_node = |node: usize| -> Result<Vec<Row>> {
            let out_positions = &out_positions;
            let identity_projection = &identity_projection;
            let rels = &rels;
            let times = &times;
            let working = &working;
            let needed_vars = &needed_vars;
            let cx = &cx;
            let bytes_read = &bytes_read;
            {
                {
                    let mut rows: Vec<Row> = Vec::new();
                    for d in (node..cfg.dirs).step_by(nodes) {
                        let dir = self.dir_path(d);
                        // Coordinates: read the whole (small) file once.
                        let coords: Vec<u8> = if need_coord {
                            let path = dir.join("COORDS");
                            let data = std::fs::read(&path)
                                .map_err(|e| DvError::io(path.display().to_string(), e))?;
                            bytes_read.fetch_add(data.len() as u64, Ordering::Relaxed);
                            data
                        } else {
                            Vec::new()
                        };
                        for &rel in rels {
                            // Open the needed variable files for this
                            // realization.
                            let files: Vec<File> = needed_vars
                                .iter()
                                .map(|&v| {
                                    let path = dir.join(format!(
                                        "{}.r{rel}.dat",
                                        VARS[v].to_ascii_lowercase()
                                    ));
                                    File::open(&path)
                                        .map_err(|e| DvError::io(path.display().to_string(), e))
                                })
                                .collect::<Result<_>>()?;
                            let mut bufs: Vec<Vec<u8>> =
                                files.iter().map(|_| vec![0u8; (g * 4) as usize]).collect();
                            for &t in times {
                                let off = (t as u64 - 1) * g * 4;
                                for (f, buf) in files.iter().zip(bufs.iter_mut()) {
                                    f.read_exact_at(buf, off)
                                        .map_err(|e| DvError::io("<l0 var file>", e))?;
                                    bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
                                }
                                for k in 0..g as usize {
                                    let mut row: Row = Vec::with_capacity(working.len());
                                    for (wi, &attr) in working.iter().enumerate() {
                                        let v = match attr {
                                            0 => Value::Short(rel as i16),
                                            1 => Value::Int(t as i32),
                                            2..=4 => {
                                                let at = k * 12 + (attr - 2) * 4;
                                                Value::Float(f32::from_le_bytes(
                                                    coords[at..at + 4].try_into().unwrap(),
                                                ))
                                            }
                                            _ => {
                                                let vi = needed_vars
                                                    .iter()
                                                    .position(|&v| v == attr - 5)
                                                    .unwrap();
                                                let at = k * 4;
                                                Value::Float(f32::from_le_bytes(
                                                    bufs[vi][at..at + 4].try_into().unwrap(),
                                                ))
                                            }
                                        };
                                        let _ = wi;
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
                                            rows.push(
                                                out_positions.iter().map(|&p| row[p]).collect(),
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                    Ok(rows)
                }
            }
        };

        let result: Result<Vec<Vec<Row>>> = if sequential {
            // One node at a time, recording per-node pipeline times —
            // the faithful scaling measurement on a single-core host.
            let mut out = Vec::with_capacity(nodes);
            for node in 0..nodes {
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
                    (0..nodes).map(|node| scope.spawn(move || run_node(node))).collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().map_err(|_| DvError::Runtime("hand worker panicked".into()))?
                    })
                    .collect()
            })
        };

        let mut table = Table::empty(bq.output_schema());
        for rows in result? {
            table.rows.extend(rows);
        }
        Ok((table, bytes_read.load(Ordering::Relaxed)))
    }
}

/// Hand-rolled accumulator state — deliberately independent of
/// `dv_types::AccState` so the differential suite checks the canonical
/// aggregation semantics against a second implementation.
#[derive(Clone, Copy)]
enum HandAcc {
    Count(i64),
    Sum(f64),
    Min(f64),
    Max(f64),
    Avg { sum: f64, count: i64 },
}

impl HandAcc {
    fn first(func: dv_types::AggFunc, x: f64) -> HandAcc {
        use dv_types::AggFunc as F;
        match func {
            F::Count => HandAcc::Count(1),
            F::Sum => HandAcc::Sum(x),
            F::Min => HandAcc::Min(x),
            F::Max => HandAcc::Max(x),
            F::Avg => HandAcc::Avg { sum: x, count: 1 },
        }
    }

    fn fold(&mut self, x: f64) {
        match self {
            HandAcc::Count(c) => *c += 1,
            HandAcc::Sum(s) => *s += x,
            HandAcc::Min(m) => {
                if x.total_cmp(m).is_lt() {
                    *m = x;
                }
            }
            HandAcc::Max(m) => {
                if x.total_cmp(m).is_gt() {
                    *m = x;
                }
            }
            HandAcc::Avg { sum, count } => {
                *sum += x;
                *count += 1;
            }
        }
    }

    /// Merge a later chunk's partial into this one (this = earlier).
    fn merge(&mut self, o: HandAcc) {
        match (self, o) {
            (HandAcc::Count(a), HandAcc::Count(b)) => *a += b,
            (HandAcc::Sum(a), HandAcc::Sum(b)) => *a += b,
            (HandAcc::Min(a), HandAcc::Min(b)) => {
                if b.total_cmp(a).is_lt() {
                    *a = b;
                }
            }
            (HandAcc::Max(a), HandAcc::Max(b)) => {
                if b.total_cmp(a).is_gt() {
                    *a = b;
                }
            }
            (HandAcc::Avg { sum: a, count: c }, HandAcc::Avg { sum: b, count: d }) => {
                *a += b;
                *c += d;
            }
            _ => unreachable!("mismatched accumulator kinds"),
        }
    }

    fn finalize(self, dtype: dv_types::DataType) -> Value {
        match self {
            HandAcc::Count(c) => Value::Long(c),
            HandAcc::Sum(s) => Value::Double(s),
            HandAcc::Min(m) | HandAcc::Max(m) => Value::from_f64(dtype, m),
            HandAcc::Avg { sum, count } => Value::Double(sum / count as f64),
        }
    }
}

impl HandIparsL0 {
    /// Execute an aggregate query against the raw files, replicating
    /// the canonical fold tree by hand: one partial per `(dir, rel,
    /// time)` slab of `G` rows — exactly the engine's aligned file
    /// chunks for L0 — folded row-by-row in scan order, then merged
    /// per group in ascending `(node, chunk)` order. Bit-identical to
    /// the generated pipeline at every thread count, by construction.
    pub fn execute_agg(&self, bq: &BoundQuery) -> Result<Table> {
        let spec = bq
            .agg
            .as_ref()
            .ok_or_else(|| DvError::Runtime("execute_agg needs an aggregate query".into()))?;
        let cfg = &self.cfg;
        let g = cfg.grid_per_dir as u64;

        // Working row layout and fold positions within it.
        let working = bq.needed_attrs();
        let wpos = |attr: usize| working.iter().position(|&w| w == attr).expect("covered");
        let group_pos: Vec<usize> = spec.group_by.iter().map(|&a| wpos(a)).collect();
        let arg_pos: Vec<Option<usize>> = spec.aggs.iter().map(|a| a.arg.map(wpos)).collect();
        let need_coord = working.iter().any(|&a| (2..5).contains(&a));
        let needed_vars: Vec<usize> = working.iter().filter(|&&a| a >= 5).map(|&a| a - 5).collect();
        let cx = EvalContext::new(bq.schema.len(), &working, &self.udfs);

        // Global merge table: canonicalized key bits -> accumulators.
        // One partial per group per slab, so per-group merge order is
        // (node, chunk) ascending exactly as the absorber folds.
        let mut slots: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut groups: Vec<(Vec<u64>, Vec<HandAcc>)> = Vec::new();
        let canon = |v: f64| -> u64 {
            if v.is_nan() {
                0x7ff8_0000_0000_0000
            } else {
                v.to_bits()
            }
        };

        for node in 0..cfg.nodes {
            for d in (node..cfg.dirs).step_by(cfg.nodes) {
                let dir = self.dir_path(d);
                let coords: Vec<u8> = if need_coord {
                    let path = dir.join("COORDS");
                    std::fs::read(&path).map_err(|e| DvError::io(path.display().to_string(), e))?
                } else {
                    Vec::new()
                };
                for rel in 0..cfg.realizations as i64 {
                    let files: Vec<File> = needed_vars
                        .iter()
                        .map(|&v| {
                            let path =
                                dir.join(format!("{}.r{rel}.dat", VARS[v].to_ascii_lowercase()));
                            File::open(&path)
                                .map_err(|e| DvError::io(path.display().to_string(), e))
                        })
                        .collect::<Result<_>>()?;
                    let mut bufs: Vec<Vec<u8>> =
                        files.iter().map(|_| vec![0u8; (g * 4) as usize]).collect();
                    for t in 1..=cfg.time_steps as i64 {
                        let off = (t as u64 - 1) * g * 4;
                        for (f, buf) in files.iter().zip(bufs.iter_mut()) {
                            f.read_exact_at(buf, off)
                                .map_err(|e| DvError::io("<l0 var file>", e))?;
                        }
                        // One partial per (d, rel, t) slab.
                        let mut slab: HashMap<Vec<u64>, Vec<HandAcc>> = HashMap::new();
                        for k in 0..g as usize {
                            let row: Row = working
                                .iter()
                                .map(|&attr| match attr {
                                    0 => Value::Short(rel as i16),
                                    1 => Value::Int(t as i32),
                                    2..=4 => {
                                        let at = k * 12 + (attr - 2) * 4;
                                        Value::Float(f32::from_le_bytes(
                                            coords[at..at + 4].try_into().unwrap(),
                                        ))
                                    }
                                    _ => {
                                        let vi = needed_vars
                                            .iter()
                                            .position(|&v| v == attr - 5)
                                            .unwrap();
                                        let at = k * 4;
                                        Value::Float(f32::from_le_bytes(
                                            bufs[vi][at..at + 4].try_into().unwrap(),
                                        ))
                                    }
                                })
                                .collect();
                            let keep = match &bq.predicate {
                                Some(p) => cx.eval(p, &row),
                                None => true,
                            };
                            if !keep {
                                continue;
                            }
                            let key: Vec<u64> =
                                group_pos.iter().map(|&p| canon(row[p].as_f64())).collect();
                            match slab.entry(key) {
                                std::collections::hash_map::Entry::Occupied(mut e) => {
                                    for (acc, pos) in e.get_mut().iter_mut().zip(&arg_pos) {
                                        acc.fold(pos.map(|p| row[p].as_f64()).unwrap_or(0.0));
                                    }
                                }
                                std::collections::hash_map::Entry::Vacant(e) => {
                                    e.insert(
                                        spec.aggs
                                            .iter()
                                            .zip(&arg_pos)
                                            .map(|(a, pos)| {
                                                HandAcc::first(
                                                    a.func,
                                                    pos.map(|p| row[p].as_f64()).unwrap_or(0.0),
                                                )
                                            })
                                            .collect(),
                                    );
                                }
                            }
                        }
                        // Merge the slab's partials; each group has at
                        // most one entry per slab, so map iteration
                        // order is irrelevant to the per-group fold.
                        for (key, accs) in slab {
                            match slots.entry(key) {
                                std::collections::hash_map::Entry::Occupied(e) => {
                                    let gi = *e.get();
                                    for (a, b) in groups[gi].1.iter_mut().zip(accs) {
                                        a.merge(b);
                                    }
                                }
                                std::collections::hash_map::Entry::Vacant(e) => {
                                    let key = e.key().clone();
                                    e.insert(groups.len());
                                    groups.push((key, accs));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Deterministic output order: decoded key values, total_cmp
        // lexicographic.
        let group_dtypes: Vec<dv_types::DataType> =
            spec.group_by.iter().map(|&a| bq.schema.attr_at(a).dtype).collect();
        let decode = |key: &[u64]| -> Vec<Value> {
            key.iter()
                .zip(&group_dtypes)
                .map(|(&code, &ty)| Value::from_f64(ty, f64::from_bits(code)))
                .collect()
        };
        let mut idx: Vec<usize> = (0..groups.len()).collect();
        idx.sort_by(|&a, &b| {
            let ka = decode(&groups[a].0);
            let kb = decode(&groups[b].0);
            ka.iter()
                .zip(&kb)
                .map(|(x, y)| x.total_cmp(y))
                .find(|c| *c != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut table = Table::empty(bq.output_schema());
        for i in idx {
            let (key, accs) = &groups[i];
            let keys = decode(key);
            let row: Row = spec
                .output
                .iter()
                .map(|o| match *o {
                    dv_sql::AggOutput::Group(k) => keys[k],
                    dv_sql::AggOutput::Agg(a) => accs[a].finalize(spec.result_dtype(a, &bq.schema)),
                })
                .collect();
            table.rows.push(row);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_datagen::{ipars, IparsLayout};
    use dv_sql::{bind, parse};

    fn setup(tag: &str) -> (PathBuf, IparsConfig) {
        let base = std::env::temp_dir().join(format!("dv-hand-l0-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let cfg = IparsConfig::tiny();
        ipars::generate(&base, &cfg, IparsLayout::L0).unwrap();
        (base, cfg)
    }

    fn schema() -> dv_types::Schema {
        dv_descriptor::compile(&ipars::descriptor(&IparsConfig::tiny(), IparsLayout::L0))
            .unwrap()
            .schema
    }

    #[test]
    fn hand_matches_generated() {
        let (base, cfg) = setup("match");
        let hand = HandIparsL0::new(base.clone(), cfg.clone(), UdfRegistry::with_builtins());
        let desc = ipars::descriptor(&cfg, IparsLayout::L0);
        let compiled = dv_layout::plan::compile_from_text(&desc, &base).unwrap();
        let service = dv_storm::QueryService::new(
            std::sync::Arc::new(compiled),
            UdfRegistry::with_builtins(),
            &dv_storm::ServiceConfig::default(),
        );

        let queries = [
            "SELECT * FROM IparsData",
            "SELECT * FROM IparsData WHERE TIME >= 2 AND TIME <= 3",
            "SELECT * FROM IparsData WHERE REL = 1 AND SOIL > 0.5",
            "SELECT REL, TIME, SOIL FROM IparsData WHERE SPEED(OILVX, OILVY, OILVZ) < 40.0",
        ];
        for sql in queries {
            let bq = bind(&parse(sql).unwrap(), &schema(), &UdfRegistry::with_builtins()).unwrap();
            let (hand_table, hand_bytes) = hand.execute(&bq).unwrap();
            let (mut tables, stats) =
                service.execute(sql, &dv_storm::QueryOptions::default()).unwrap();
            let gen_table = tables.pop().unwrap();
            assert!(
                hand_table.same_rows(&gen_table),
                "{sql}: hand {} rows vs generated {}",
                hand_table.len(),
                gen_table.len()
            );
            assert!(hand_bytes > 0);
            // The hand version caches COORDS per directory while the
            // AFC model re-reads the COORD chunk per aligned set, so
            // hand reads at most as much as generated.
            assert!(hand_bytes <= stats.bytes_read, "{sql}");
        }
    }

    #[test]
    fn hand_prunes_time_and_rel() {
        let (base, cfg) = setup("prune");
        let hand = HandIparsL0::new(base, cfg.clone(), UdfRegistry::with_builtins());
        let sql = "SELECT * FROM IparsData WHERE TIME = 1 AND REL = 0";
        let bq = bind(&parse(sql).unwrap(), &schema(), &UdfRegistry::with_builtins()).unwrap();
        let (table, bytes) = hand.execute(&bq).unwrap();
        assert_eq!(table.len(), cfg.grid_per_dir * cfg.dirs);
        // 1 time × (17 vars × G × 4 + coords G × 12) per dir.
        let g = cfg.grid_per_dir as u64;
        assert_eq!(bytes, cfg.dirs as u64 * (17 * g * 4 + g * 12));
    }
}
