//! Two-phase plan compilation.
//!
//! **Phase 1** ([`CompiledDataset::compile`]) corresponds to the
//! paper's meta-data compilation: it runs once per descriptor, before
//! any query. All descriptor-text processing is already done
//! (`dv-descriptor`); this phase performs the remaining expensive,
//! query-independent work — loading `CHUNKED` index files and building
//! R-trees over chunk MBRs — and freezes everything the generated
//! index/extractor functions need.
//!
//! **Phase 2** ([`CompiledDataset::plan_query`]) runs per query: range
//! analysis, file matching, group finding and AFC alignment. Its
//! output, a [`QueryPlan`], is a pure data structure the runtime
//! executes without further meta-data reasoning.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dv_descriptor::{DatasetModel, ResolvedItem};
use dv_index::read_chunk_index;
use dv_sql::analysis::attribute_ranges;
use dv_sql::BoundQuery;
use dv_types::{DvError, IntervalSet, Result};

use crate::afc::{build_afcs, Afc, WorkingSet};
use crate::groups::find_file_groups;
use crate::prune::{prune_afcs, PruneCertificate};
use crate::segment::{enumerate_segments, LoadedChunkIndex, Segment};

/// Per-node slice of a query plan.
#[derive(Debug, Clone)]
pub struct NodePlan {
    /// Cluster node id.
    pub node: usize,
    /// Aligned file chunks to extract on this node (statically empty
    /// chunks already removed).
    pub afcs: Vec<Afc>,
    /// Static prune verdicts for `afcs` plus drop accounting.
    pub prune: PruneCertificate,
}

impl NodePlan {
    /// Total rows the node will materialize before filtering.
    pub fn planned_rows(&self) -> u64 {
        self.afcs.iter().map(|a| a.num_rows).sum()
    }

    /// Total bytes the node will read.
    pub fn planned_bytes(&self) -> u64 {
        self.afcs.iter().map(|a| a.bytes_read()).sum()
    }
}

/// A fully planned query: AFC schedules per node plus the row-shape
/// bookkeeping the runtime services need.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Attributes materialized into working rows.
    pub working: WorkingSet,
    /// For each output column, its position within working rows.
    pub output_positions: Vec<usize>,
    /// Per-node AFC schedules (one entry per cluster node, possibly
    /// with zero AFCs).
    pub node_plans: Vec<NodePlan>,
    /// The analyzed per-attribute ranges (kept for diagnostics and the
    /// data-mover's partition planner).
    pub ranges: HashMap<String, IntervalSet>,
    /// Aggregation context (`None` = plain scan query).
    pub agg: Option<AggPrep>,
    /// Whether nodes fold partial aggregates before shipping.
    pub agg_pushdown: bool,
}

impl QueryPlan {
    /// Total rows across nodes before filtering.
    pub fn planned_rows(&self) -> u64 {
        self.node_plans.iter().map(|n| n.planned_rows()).sum()
    }

    /// Total bytes read across nodes.
    pub fn planned_bytes(&self) -> u64 {
        self.node_plans.iter().map(|n| n.planned_bytes()).sum()
    }
}

/// Verdict of the `dv-verify` semantic analysis over a descriptor.
///
/// `Safe` certifies that every layout property was proved (no
/// overlapping DATA extents, all accesses in-bounds, aligned file
/// groups agree on iteration counts, no dead regions). The verdict is
/// a diagnostic (`datavirt verify`): the runtime decodes every layout
/// through one kernel that checks each run's length, whatever the
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Certificate {
    /// No verification pass has run (or it could not decide).
    #[default]
    Unverified,
    /// All four layout properties proved.
    Safe,
    /// At least one property refuted with a counterexample.
    Refuted,
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Certificate::Unverified => f.write_str("unverified"),
            Certificate::Safe => f.write_str("safe"),
            Certificate::Refuted => f.write_str("refuted"),
        }
    }
}

/// Phase-1 output: the "generated code" of the paper, as a specialized
/// plan object. Shared across queries and threads.
pub struct CompiledDataset {
    /// The resolved dataset model.
    pub model: Arc<DatasetModel>,
    /// Filesystem root per cluster node (simulated cluster maps every
    /// node onto a local directory).
    pub roots: Vec<PathBuf>,
    /// Loaded chunk indexes, keyed by file id (only chunked files).
    chunk_indexes: HashMap<usize, Arc<LoadedChunkIndex>>,
}

impl CompiledDataset {
    /// Compile the model against the storage roots. `roots[node]` is
    /// the directory that hosts node `node`'s files.
    pub fn compile(model: Arc<DatasetModel>, roots: Vec<PathBuf>) -> Result<CompiledDataset> {
        if roots.len() != model.node_count() {
            return Err(DvError::Runtime(format!(
                "{} storage roots supplied for {} cluster nodes",
                roots.len(),
                model.node_count()
            )));
        }
        // Load every CHUNKED index once; identical index paths are
        // shared.
        let mut by_path: HashMap<(usize, String), Arc<LoadedChunkIndex>> = HashMap::new();
        let mut chunk_indexes = HashMap::new();
        for f in &model.files {
            if let Some(ResolvedItem::Chunked { index_node, index_path, .. }) = f.layout.first() {
                let key = (*index_node, index_path.clone());
                let loaded = match by_path.get(&key) {
                    Some(l) => Arc::clone(l),
                    None => {
                        let full = roots[*index_node].join(index_path);
                        let (dims, entries) = read_chunk_index(&full)?;
                        if dims != model.index_attrs.len() {
                            return Err(DvError::Runtime(format!(
                                "chunk index {} has {dims} dimensions but DATAINDEX declares \
                                 {} attributes",
                                full.display(),
                                model.index_attrs.len()
                            )));
                        }
                        let loaded =
                            Arc::new(LoadedChunkIndex::new(model.index_attrs.clone(), entries));
                        by_path.insert(key, Arc::clone(&loaded));
                        loaded
                    }
                };
                chunk_indexes.insert(f.id, loaded);
            }
        }
        Ok(CompiledDataset { model, roots, chunk_indexes })
    }

    /// Accepts a verification verdict and does nothing with it: the
    /// decode kernel is the same for every verdict. Kept so existing
    /// callers (the `dv_e2e` replay) still compile.
    pub fn set_certificate(&self, _cert: Certificate) {}

    /// The chunk index of a file, if it has one.
    pub fn chunk_index(&self, file: usize) -> Option<&LoadedChunkIndex> {
        self.chunk_indexes.get(&file).map(|a| a.as_ref())
    }

    /// Absolute path of a model file.
    pub fn file_path(&self, file: usize) -> PathBuf {
        let f = &self.model.files[file];
        self.roots[f.node].join(&f.rel_path)
    }

    /// Validate the descriptor against the actual files: existence and
    /// sizes for fixed layouts, byte coverage for chunked layouts.
    /// Returns all discrepancies (empty = clean). This is the check a
    /// repository administrator runs after writing a descriptor
    /// (`datavirt validate`).
    pub fn verify_files(&self) -> Vec<FileIssue> {
        let mut issues = Vec::new();
        for f in &self.model.files {
            let path = self.file_path(f.id);
            let actual = match std::fs::metadata(&path) {
                Ok(m) => m.len(),
                Err(_) => {
                    issues.push(FileIssue::Missing { file: f.id, path });
                    continue;
                }
            };
            if !f.codec.is_affine() {
                // CSV/zstd physical sizes are data-dependent; the
                // logical image is validated at decode time instead.
                continue;
            }
            if let Some(expected) = f.expected_size(&self.model.attr_sizes) {
                if expected != actual {
                    issues.push(FileIssue::SizeMismatch { file: f.id, path, expected, actual });
                }
            } else if let Some(index) = self.chunk_index(f.id) {
                // Chunked: the index must fit within the data file.
                let stride: u64 = match f.layout.first() {
                    Some(ResolvedItem::Chunked { attrs, .. }) => attrs
                        .iter()
                        .map(|a| *self.model.attr_sizes.get(a).unwrap_or(&0) as u64)
                        .sum(),
                    _ => 0,
                };
                let needed =
                    index.entries.iter().map(|e| e.offset + e.rows * stride).max().unwrap_or(0);
                if needed > actual {
                    issues.push(FileIssue::ChunkBeyondEof { file: f.id, path, needed, actual });
                }
            }
        }
        issues
    }

    /// Phase 2a — the *central* (per-query, node-independent) part of
    /// planning: range analysis and working-row layout. Cheap; runs in
    /// the query service.
    pub fn prepare_query(&self, query: &BoundQuery) -> Result<QueryPrep> {
        if !query.dataset.eq_ignore_ascii_case(&self.model.dataset_name) {
            return Err(DvError::Binding(format!(
                "query addresses dataset `{}` but this service virtualizes `{}`",
                query.dataset, self.model.dataset_name
            )));
        }

        // Range analysis, converted to attribute-name keys.
        let mut ranges: HashMap<String, IntervalSet> = HashMap::new();
        if let Some(pred) = &query.predicate {
            for (attr_idx, set) in attribute_ranges(pred) {
                ranges.insert(self.model.schema.attr_at(attr_idx).name.clone(), set);
            }
        }

        let working = WorkingSet::new(&self.model, query.needed_attrs());
        let output_positions = query
            .projection
            .iter()
            .map(|&attr| {
                working
                    .attrs
                    .iter()
                    .position(|&w| w == attr)
                    .expect("projection attr missing from working set")
            })
            .collect();
        let agg = query.agg.as_ref().map(|spec| {
            let pos = |attr: usize| {
                working
                    .attrs
                    .iter()
                    .position(|&w| w == attr)
                    .expect("aggregate attr missing from working set")
            };
            AggPrep {
                group_pos: spec.group_by.iter().map(|&a| pos(a)).collect(),
                arg_pos: spec.aggs.iter().map(|a| a.arg.map(pos)).collect(),
                spec: spec.clone(),
            }
        });
        Ok(QueryPrep {
            working,
            output_positions,
            ranges,
            predicate: query.predicate.clone(),
            prune_enabled: true,
            agg,
            agg_pushdown: true,
        })
    }

    /// Phase 2b — the *per-node* part of planning (the generated index
    /// function): file grouping and AFC alignment for one node. In
    /// STORM the indexing service is distributed, so this runs on each
    /// node's worker and counts as that node's work.
    pub fn plan_node(&self, prep: &QueryPrep, node: usize) -> Result<NodePlan> {
        // Segment enumeration is cached per file within the node plan:
        // a file (e.g. COORDS) may participate in many groups.
        let mut seg_cache: HashMap<usize, Arc<Vec<Segment>>> = HashMap::new();
        let groups = find_file_groups(&self.model, node, &prep.ranges, &prep.working);
        let mut afcs = Vec::new();
        for group in &groups {
            let mut segs: Vec<Arc<Vec<Segment>>> = Vec::with_capacity(group.len());
            for f in group {
                let entry = match seg_cache.get(&f.id) {
                    Some(s) => Arc::clone(s),
                    None => {
                        let s = Arc::new(enumerate_segments(
                            f,
                            &self.model.attr_sizes,
                            &prep.ranges,
                            self.chunk_index(f.id),
                        )?);
                        seg_cache.insert(f.id, Arc::clone(&s));
                        s
                    }
                };
                segs.push(entry);
            }
            let seg_slices: Vec<&[Segment]> = segs.iter().map(|s| s.as_slice()).collect();
            afcs.extend(build_afcs(&self.model, group, &seg_slices, &prep.working, &prep.ranges)?);
        }
        // Abstract-interpret the predicate over each AFC's implicit
        // hulls: provably-empty chunks leave the plan here, before the
        // I/O scheduler ever sees them.
        let predicate = if prep.prune_enabled { prep.predicate.as_ref() } else { None };
        let (afcs, prune) = prune_afcs(predicate, &prep.working, afcs);
        Ok(NodePlan { node, afcs, prune })
    }

    /// Phase 2, whole-cluster convenience: plan every node centrally
    /// (used by tools, tests and `explain`; the runtime distributes
    /// [`CompiledDataset::plan_node`] instead).
    pub fn plan_query(&self, query: &BoundQuery) -> Result<QueryPlan> {
        let prep = self.prepare_query(query)?;
        let mut node_plans = Vec::with_capacity(self.model.node_count());
        for node in 0..self.model.node_count() {
            node_plans.push(self.plan_node(&prep, node)?);
        }
        Ok(QueryPlan {
            working: prep.working,
            output_positions: prep.output_positions,
            node_plans,
            ranges: prep.ranges,
            agg: prep.agg,
            agg_pushdown: prep.agg_pushdown,
        })
    }
}

/// One discrepancy found by [`CompiledDataset::verify_files`].
#[derive(Debug, Clone, PartialEq)]
pub enum FileIssue {
    /// The file does not exist (or is unreadable).
    Missing { file: usize, path: PathBuf },
    /// On-disk size differs from what the descriptor implies.
    SizeMismatch { file: usize, path: PathBuf, expected: u64, actual: u64 },
    /// A chunk index references bytes beyond the end of the data file.
    ChunkBeyondEof { file: usize, path: PathBuf, needed: u64, actual: u64 },
}

impl std::fmt::Display for FileIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileIssue::Missing { path, .. } => write!(f, "missing: {}", path.display()),
            FileIssue::SizeMismatch { path, expected, actual, .. } => write!(
                f,
                "size mismatch: {} is {actual} bytes, descriptor implies {expected}",
                path.display()
            ),
            FileIssue::ChunkBeyondEof { path, needed, actual, .. } => write!(
                f,
                "chunk index overruns: {} needs {needed} bytes, file has {actual}",
                path.display()
            ),
        }
    }
}

/// Per-query aggregation context shared by all node workers: the bound
/// spec plus the positions of its columns inside working rows.
#[derive(Debug, Clone)]
pub struct AggPrep {
    /// The bound aggregation spec.
    pub spec: dv_sql::BoundAggSpec,
    /// Position of each `GROUP BY` column within working rows.
    pub group_pos: Vec<usize>,
    /// Position of each aggregate argument within working rows
    /// (`None` = `COUNT(*)`).
    pub arg_pos: Vec<Option<usize>>,
}

/// Central planning output shared by all node planners.
#[derive(Debug, Clone)]
pub struct QueryPrep {
    /// Attributes materialized into working rows.
    pub working: WorkingSet,
    /// For each output column, its position within working rows.
    pub output_positions: Vec<usize>,
    /// Analyzed per-attribute ranges.
    pub ranges: HashMap<String, IntervalSet>,
    /// The bound predicate, kept for per-AFC prune verdicts.
    pub predicate: Option<dv_sql::BoundExpr>,
    /// Static pruning switch (default on; `QueryOptions::no_prune`
    /// turns it off for ablation).
    pub prune_enabled: bool,
    /// Aggregation context (`None` = plain scan query).
    pub agg: Option<AggPrep>,
    /// Partial-aggregation pushdown switch (default on;
    /// `QueryOptions::no_agg_pushdown` turns it off: nodes then ship
    /// filtered rows and the absorber aggregates client-side).
    pub agg_pushdown: bool,
}

/// Convenience: compile a descriptor text directly against a single
/// root directory layout where node `i`'s storage lives at
/// `base/<node-name>` (the layout `dv-datagen` writes).
pub fn compile_from_text(descriptor: &str, base: &Path) -> Result<CompiledDataset> {
    let model = Arc::new(dv_descriptor::compile(descriptor)?);
    let roots = model.nodes.iter().map(|n| base.join(n)).collect();
    CompiledDataset::compile(model, roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_sql::{bind, parse, UdfRegistry};

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
DIR[1] = n1/d

DATASET "IparsData" {
  DATATYPE { IPARS }
  DATAINDEX { REL TIME }
  DATA { DATASET coords DATASET vars }
  DATASET "coords" {
    DATASPACE { LOOP GRID ($DIRID*10+1):(($DIRID+1)*10):1 { X } }
    DATA { DIR[$DIRID]/COORDS DIRID = 0:1:1 }
  }
  DATASET "vars" {
    DATASPACE {
      LOOP TIME 1:20:1 {
        LOOP GRID ($DIRID*10+1):(($DIRID+1)*10):1 { SOIL SGAS }
      }
    }
    DATA { DIR[$DIRID]/DATA$REL REL = 0:1:1 DIRID = 0:1:1 }
  }
}
"#;

    fn compiled() -> CompiledDataset {
        let model = Arc::new(dv_descriptor::compile(DESC).unwrap());
        let roots = vec![PathBuf::from("/tmp/n0"), PathBuf::from("/tmp/n1")];
        CompiledDataset::compile(model, roots).unwrap()
    }

    fn plan(sql: &str) -> QueryPlan {
        let c = compiled();
        let q = parse(sql).unwrap();
        let b = bind(&q, &c.model.schema, &UdfRegistry::with_builtins()).unwrap();
        c.plan_query(&b).unwrap()
    }

    #[test]
    fn full_scan_plan() {
        let p = plan("SELECT * FROM IparsData");
        assert_eq!(p.node_plans.len(), 2);
        // Per node: 2 RELs × 20 TIMEs = 40 AFCs of 10 rows.
        for np in &p.node_plans {
            assert_eq!(np.afcs.len(), 40);
            assert_eq!(np.planned_rows(), 400);
        }
        // 2 nodes × 2 REL × 20 TIME × 10 rows = 800 rows.
        assert_eq!(p.planned_rows(), 800);
        assert_eq!(p.output_positions, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn range_query_prunes() {
        let p = plan("SELECT * FROM IparsData WHERE TIME > 1000");
        assert_eq!(p.planned_rows(), 0);
        let p = plan("SELECT * FROM IparsData WHERE TIME >= 5 AND TIME <= 6 AND REL = 0");
        // Per node: 1 REL × 2 TIMEs.
        assert_eq!(p.planned_rows(), 2 * 2 * 10);
    }

    #[test]
    fn projection_reduces_bytes() {
        let full = plan("SELECT * FROM IparsData");
        let narrow = plan("SELECT SOIL FROM IparsData");
        assert!(narrow.planned_bytes() < full.planned_bytes());
        // SOIL-only still reads the full 8-byte record (SOIL+SGAS are
        // interleaved) but skips COORDS entirely.
        assert_eq!(narrow.planned_bytes(), 800 * 8);
    }

    #[test]
    fn wrong_dataset_name_rejected() {
        let c = compiled();
        let q = parse("SELECT * FROM OtherData").unwrap();
        let b = bind(&q, &c.model.schema, &UdfRegistry::with_builtins()).unwrap();
        assert!(c.plan_query(&b).is_err());
    }

    #[test]
    fn root_count_mismatch_rejected() {
        let model = Arc::new(dv_descriptor::compile(DESC).unwrap());
        let err = CompiledDataset::compile(model, vec![PathBuf::from("/tmp/only-one")]);
        assert!(err.is_err());
    }

    #[test]
    fn filter_on_stored_attr_does_not_prune_rows() {
        // SOIL > 0.7 cannot prune chunks (SOIL values are data); the
        // plan must read everything and leave filtering to the runtime.
        let p = plan("SELECT * FROM IparsData WHERE SOIL > 0.7");
        assert_eq!(p.planned_rows(), 800);
    }

    #[test]
    fn udf_query_plans_full_scan_with_needed_attrs() {
        let p = plan("SELECT SOIL FROM IparsData WHERE SPEED(X, X, X) < 30.0");
        // Working set: X and SOIL.
        assert_eq!(p.working.names, vec!["X", "SOIL"]);
        assert_eq!(p.planned_rows(), 800);
        // Output is SOIL only, at working position 1.
        assert_eq!(p.output_positions, vec![1]);
        // A UDF predicate can never prune or bypass filtering.
        for np in &p.node_plans {
            assert_eq!(np.prune.groups_pruned, 0);
            assert_eq!(np.prune.groups_full, 0);
        }
    }

    #[test]
    fn arith_predicate_prunes_beyond_range_analysis() {
        // attribute_ranges cannot analyze `TIME * 10`, so segment
        // pruning reads everything; the abstract interpreter drops the
        // provably-empty chunks afterwards.
        let p = plan("SELECT SOIL FROM IparsData WHERE TIME * 10 <= 40");
        // TIME in 1..=4 of 1..=20 survive: per node 2 REL × 4 TIME.
        assert_eq!(p.planned_rows(), 2 * 2 * 4 * 10);
        for np in &p.node_plans {
            assert_eq!(np.prune.groups_total, 40);
            assert_eq!(np.prune.groups_pruned, 32);
            // Every retained chunk is TIME<=4, provably satisfying.
            assert_eq!(np.prune.groups_full, 8);
            assert_eq!(np.prune.verdicts.len(), np.afcs.len());
            assert_eq!(np.prune.bytes_avoided, 32 * 10 * 8);
        }
    }

    #[test]
    fn tautological_predicate_marks_full() {
        let p = plan("SELECT SOIL FROM IparsData WHERE TIME >= 1");
        assert_eq!(p.planned_rows(), 800);
        for np in &p.node_plans {
            assert_eq!(np.prune.groups_pruned, 0);
            assert_eq!(np.prune.groups_full, np.afcs.len() as u64);
        }
    }

    #[test]
    fn prune_disabled_keeps_everything() {
        let c = compiled();
        let q = parse("SELECT SOIL FROM IparsData WHERE TIME * 10 <= 40").unwrap();
        let b = bind(&q, &c.model.schema, &UdfRegistry::with_builtins()).unwrap();
        let mut prep = c.prepare_query(&b).unwrap();
        prep.prune_enabled = false;
        let np = c.plan_node(&prep, 0).unwrap();
        assert_eq!(np.afcs.len(), 40);
        assert_eq!(np.prune.groups_pruned, 0);
        assert_eq!(np.prune.verdicts.len(), 40);
    }
}
