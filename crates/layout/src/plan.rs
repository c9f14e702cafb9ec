//! Two-phase plan compilation.
//!
//! **Phase 1** corresponds to the paper's meta-data compilation: it
//! runs once per descriptor, before any query. All descriptor-text
//! processing is already done (`dv-descriptor`).
//! [`CompiledDataset::compile`] loads the `CHUNKED` index files and
//! builds R-trees over chunk MBRs. Each node's **plan catalog** is
//! built on the node's first [`CompiledDataset::plan_node`] call, on
//! the node's worker and once only: names interned to dense ids, the
//! node's file groups (`Find_File_Groups` with no query), one unclipped
//! segment table per file shape and chunk index — shared by every node
//! file of that shape, so the work scales with distinct layouts, not
//! with files — and every group's joined partials
//! (`Process_File_Groups` before clipping and projection).
//!
//! **Phase 2** runs per query and only selects from the catalog:
//! [`CompiledDataset::prepare_query`] does range analysis and lays out
//! the working row centrally; [`CompiledDataset::plan_node`] drops the
//! groups holding a file the ranges exclude, drops the partials whose
//! outer-loop values or chunk ordinals the ranges exclude, instantiates
//! the rest with one schedule per partial shape, clips inner loops, and
//! prunes statically empty chunks. Its output, a [`QueryPlan`], is a
//! pure data structure the runtime executes without further meta-data
//! reasoning.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use dv_descriptor::{DatasetModel, ResolvedItem};
use dv_index::read_chunk_index;
use dv_sql::analysis::attribute_ranges;
use dv_sql::BoundQuery;
use dv_types::{DvError, IntervalSet, Result};

use crate::afc::{buckets, Afc, Bucket, JoinedGroup, QueryView, Side, WorkingSet};
use crate::groups::{file_matches, node_file_groups};
use crate::prune::{prune_afcs, PruneCertificate};
use crate::segment::{Interner, LoadedChunkIndex, SegmentTable, CHUNK_VAR};

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
    /// Per node, the plan catalog, built on the node's first plan.
    catalogs: Vec<OnceLock<NodeCatalog>>,
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
            if let Some(ResolvedItem::Chunked { index_node, index_path, .. }) = f.layout().first() {
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
        Ok(CompiledDataset::new(model, roots, chunk_indexes))
    }

    fn new(
        model: Arc<DatasetModel>,
        roots: Vec<PathBuf>,
        chunk_indexes: HashMap<usize, Arc<LoadedChunkIndex>>,
    ) -> CompiledDataset {
        let catalogs = (0..model.node_count()).map(|_| OnceLock::new()).collect();
        CompiledDataset { model, roots, chunk_indexes, catalogs }
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
                let stride: u64 = match f.layout().first() {
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
        })
    }

    /// Phase 2b — the *per-node* part of planning (the generated index
    /// function): selection from the node's plan catalog. In STORM the
    /// indexing service is distributed, so this runs on each node's
    /// worker and counts as that node's work; the node's first call
    /// also builds its catalog.
    pub fn plan_node(&self, prep: &QueryPrep, node: usize) -> Result<NodePlan> {
        let cat = self.catalogs[node].get_or_init(|| NodeCatalog::build(self, node));
        let q = QueryView::new(&cat.names, &prep.working, &prep.ranges);
        let matches: Vec<bool> =
            cat.files.iter().map(|f| file_matches(&self.model.files[f.id], &prep.ranges)).collect();
        let table_needed: Vec<bool> =
            cat.tables.iter().map(|t| t.records.iter().any(|&r| q.needs_record(r))).collect();
        let needed: Vec<bool> =
            cat.files.iter().map(|f| f.table.as_ref().is_ok_and(|&t| table_needed[t])).collect();
        // The R-tree lookup of every chunked file the query may reach.
        let chunk_sets: Vec<Option<Vec<bool>>> = cat
            .files
            .iter()
            .zip(&matches)
            .map(|(f, &ok)| {
                let index = self.chunk_index(f.id).filter(|_| ok)?;
                let mut set = vec![false; index.entries.len()];
                for ord in index.matching_chunks(&prep.ranges) {
                    set[ord] = true;
                }
                Some(set)
            })
            .collect();

        let mut afcs = Vec::new();
        for g in cat.groups.iter().filter(|g| g.files.iter().all(|&f| matches[f])) {
            match &g.joined {
                Ok(joined) => {
                    let needed: Vec<bool> = g.files.iter().map(|&f| needed[f]).collect();
                    let chunks: Vec<Option<&[bool]>> =
                        g.files.iter().map(|&f| chunk_sets[f].as_deref()).collect();
                    joined.select(&q, &cat.names, &needed, &chunks, &mut afcs)?;
                }
                Err(e) if cat.reaches(g, &q, &needed, &chunk_sets) => return Err(e.raise()),
                Err(_) => {}
            }
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
        })
    }
}

/// A catalog-time planning error, raised again for every query that
/// reaches it.
#[derive(Debug)]
struct Deferred(DvError);

impl Deferred {
    fn raise(&self) -> DvError {
        match &self.0 {
            DvError::Alignment(m) => DvError::Alignment(m.clone()),
            DvError::DescriptorSemantic(m) => DvError::DescriptorSemantic(m.clone()),
            DvError::Runtime(m) => DvError::Runtime(m.clone()),
            other => DvError::Runtime(other.to_string()),
        }
    }
}

/// One segment table of the catalog, shared by every node file of the
/// same shape and chunk index.
#[derive(Debug)]
struct CatalogTable {
    table: SegmentTable,
    buckets: Vec<Bucket>,
    /// Distinct record layouts the table's segments read.
    records: Vec<u32>,
}

impl CatalogTable {
    fn new(table: SegmentTable) -> CatalogTable {
        let mut records: Vec<u32> = Vec::new();
        for s in &table.segments {
            if !records.contains(&s.record) {
                records.push(s.record);
            }
        }
        CatalogTable { buckets: buckets(&table), table, records }
    }
}

/// One node file in the catalog.
#[derive(Debug)]
struct CatalogFile {
    /// Model file id.
    id: usize,
    /// Index into [`NodeCatalog::tables`].
    table: std::result::Result<usize, Deferred>,
}

/// One file group in the catalog.
#[derive(Debug)]
struct CatalogGroup {
    /// Indices into [`NodeCatalog::files`], in group order.
    files: Vec<usize>,
    joined: std::result::Result<JoinedGroup, Deferred>,
}

/// Everything query-independent about planning one node.
#[derive(Debug)]
struct NodeCatalog {
    names: Interner,
    tables: Vec<CatalogTable>,
    files: Vec<CatalogFile>,
    /// Groups in `Find_File_Groups` order.
    groups: Vec<CatalogGroup>,
}

impl NodeCatalog {
    fn build(c: &CompiledDataset, node: usize) -> NodeCatalog {
        let model = &c.model;
        let mut names = Interner::new();
        let mut tables: Vec<CatalogTable> = Vec::new();
        let mut files: Vec<CatalogFile> = Vec::new();
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        // A segment table depends on the file only through its shape
        // and chunk index: build it once per pair. Rebuilding it would
        // intern nothing new, so every name and record id is what a
        // per-file build assigns.
        let mut table_of: HashMap<(usize, Option<*const LoadedChunkIndex>), usize> = HashMap::new();
        let mut groups = Vec::new();
        for group in node_file_groups(model, node) {
            let mut idx = Vec::with_capacity(group.len());
            for f in group {
                let i = *slot_of.entry(f.id).or_insert(files.len());
                if i == files.len() {
                    let index = c.chunk_index(f.id);
                    let key = (f.shape.id, index.map(std::ptr::from_ref));
                    let table = match table_of.get(&key) {
                        Some(&t) => Ok(t),
                        None => SegmentTable::build(f, &model.attr_sizes, index, &mut names).map(
                            |table| {
                                tables.push(CatalogTable::new(table));
                                table_of.insert(key, tables.len() - 1);
                                tables.len() - 1
                            },
                        ),
                    };
                    files.push(CatalogFile { id: f.id, table: table.map_err(Deferred) });
                }
                idx.push(i);
            }
            let joined = idx
                .iter()
                .map(|&i| files[i].table.as_ref().map(|&t| &tables[t]).map_err(Deferred::raise))
                .collect::<Result<Vec<_>>>()
                .and_then(|shared| {
                    let ids: Vec<usize> = idx.iter().map(|&i| files[i].id).collect();
                    let sides: Vec<Side<'_>> = shared
                        .iter()
                        .map(|t| Side { table: &t.table, buckets: &t.buckets })
                        .collect();
                    JoinedGroup::build(model, &ids, &sides, &mut names)
                })
                .map_err(Deferred);
            groups.push(CatalogGroup { files: idx, joined });
        }
        NodeCatalog { names, tables, files, groups }
    }

    /// The segment table of catalog file `f`, if it built.
    fn table(&self, f: usize) -> Option<&SegmentTable> {
        self.files[f].table.as_ref().ok().map(|&t| &self.tables[t].table)
    }

    /// Does the query reach a group whose catalog build failed? A
    /// segment-table error is reached as soon as the group's files
    /// match; a failed join once every file keeps a segment the query
    /// selects.
    fn reaches(
        &self,
        g: &CatalogGroup,
        q: &QueryView<'_>,
        needed: &[bool],
        chunk_sets: &[Option<Vec<bool>>],
    ) -> bool {
        let tables: Option<Vec<(usize, &SegmentTable)>> =
            g.files.iter().map(|&f| self.table(f).map(|t| (f, t))).collect();
        let Some(tables) = tables else { return true };
        tables.into_iter().all(|(f, table)| {
            table.segments.iter().any(|s| {
                (!needed[f] || q.needs_record(s.record))
                    && table.coords(s).iter().all(|&(var, x)| match &chunk_sets[f] {
                        Some(set) if var == CHUNK_VAR => set[x as usize],
                        _ => q.admits(var, x),
                    })
            })
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
}

/// Convenience: compile a descriptor text directly against a single
/// root directory layout where node `i`'s storage lives at
/// `base/<node-name>` (the layout `dv-datagen` writes).
pub fn compile_from_text(descriptor: &str, base: &Path) -> Result<CompiledDataset> {
    let model = Arc::new(dv_descriptor::compile(descriptor)?);
    let roots = model.nodes.iter().map(|n| base.join(n)).collect();
    CompiledDataset::compile(model, roots)
}

/// Builders the layout modules' unit tests share.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use dv_descriptor::FileModel;
    use dv_types::Value;

    pub fn ranges(pairs: &[(&str, IntervalSet)]) -> HashMap<String, IntervalSet> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn dataset(
        model: DatasetModel,
        indexes: HashMap<usize, Arc<LoadedChunkIndex>>,
    ) -> CompiledDataset {
        let roots =
            (0..model.node_count()).map(|n| PathBuf::from(format!("/nonexistent/n{n}"))).collect();
        CompiledDataset::new(Arc::new(model), roots, indexes)
    }

    fn prep(c: &CompiledDataset, r: &[(&str, IntervalSet)], working: &[&str]) -> QueryPrep {
        let mut attrs: Vec<usize> =
            working.iter().map(|n| c.model.schema.index_of(n).expect("schema attribute")).collect();
        attrs.sort_unstable();
        QueryPrep {
            output_positions: (0..attrs.len()).collect(),
            working: WorkingSet::new(&c.model, attrs),
            ranges: ranges(r),
            predicate: None,
            prune_enabled: true,
            agg: None,
        }
    }

    /// The AFCs node `node` plans for a query over `desc` that needs
    /// the attributes `working` under the constraints `r`.
    pub fn afcs_of(
        desc: &str,
        r: &[(&str, IntervalSet)],
        working: &[&str],
        node: usize,
    ) -> Result<Vec<Afc>> {
        let c = dataset(dv_descriptor::compile(desc)?, HashMap::new());
        Ok(c.plan_node(&prep(&c, r, working), node)?.afcs)
    }

    /// [`afcs_of`] on node 0 of a descriptor whose file 0 is chunked
    /// with index `index`.
    pub fn afcs_with_index(
        desc: &str,
        index: LoadedChunkIndex,
        r: &[(&str, IntervalSet)],
        working: &[&str],
    ) -> Result<Vec<Afc>> {
        let indexes = HashMap::from([(0, Arc::new(index))]);
        let c = dataset(dv_descriptor::compile(desc)?, indexes);
        Ok(c.plan_node(&prep(&c, r, working), 0)?.afcs)
    }

    /// The catalog groups of `node` a query with constraints `r`
    /// selects.
    pub fn selected_groups<'m>(
        m: &'m DatasetModel,
        node: usize,
        r: &[(&str, IntervalSet)],
    ) -> Vec<Vec<&'m FileModel>> {
        let c = dataset(m.clone(), HashMap::new());
        let cat = NodeCatalog::build(&c, node);
        let r = ranges(r);
        cat.groups
            .iter()
            .map(|g| g.files.iter().map(|&f| &m.files[cat.files[f].id]).collect::<Vec<_>>())
            .filter(|g| g.iter().all(|f| file_matches(f, &r)))
            .collect()
    }

    /// The constant an AFC supplies at working position `pos`.
    pub fn const_at(afc: &Afc, pos: usize) -> Value {
        match afc.implicits.iter().find(|(p, _)| *p == pos) {
            Some((_, crate::afc::ImplicitValue::Const(v))) => *v,
            other => panic!("no constant at working position {pos}: {other:?}"),
        }
    }
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
