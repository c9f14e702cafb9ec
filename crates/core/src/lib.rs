//! # dv-core — automatic data virtualization
//!
//! The public façade of `datavirt`, a Rust reproduction of
//! *"An Approach for Automatic Data Virtualization"* (Weng, Agrawal,
//! Catalyurek, Kurc, Narayanan, Saltz — HPDC 2004).
//!
//! Given a **meta-data descriptor** (schema + storage + layout of a
//! flat-file scientific dataset), a [`Virtualizer`] compiles the
//! descriptor once and then answers **SQL subset queries**
//! (`SELECT`/`WHERE` with ranges, `IN` lists and user-defined filter
//! functions) as if the dataset were a relational table — without
//! loading or converting any data.
//!
//! ```no_run
//! use dv_core::Virtualizer;
//!
//! let descriptor = std::fs::read_to_string("ipars.desc").unwrap();
//! let v = Virtualizer::builder(&descriptor)
//!     .storage_base("/data")          // node dirs live under /data/<node>
//!     .udf("SPEED", Some(3), |a| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt())
//!     .build()
//!     .unwrap();
//!
//! let (table, stats) = v
//!     .query("SELECT * FROM IparsData WHERE TIME >= 1000 AND TIME <= 1100 AND SOIL > 0.7")
//!     .unwrap();
//! println!("{table}");
//! println!("read {} bytes in {:?}", stats.bytes_read, stats.total_time());
//! ```
//!
//! Lower layers are re-exported for advanced use: descriptor model
//! inspection ([`dv_descriptor`]), plan inspection and rendering
//! ([`dv_layout`]), and the STORM-style runtime ([`dv_storm`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use dv_descriptor::DatasetModel;
pub use dv_layout::{
    Certificate, CompiledDataset, CostBound, CostParams, CostReport, FileIssue, QueryPlan,
};
pub use dv_lint::{CostBudgets, LinkBudget, VerifyReport};
pub use dv_sql::{BoundQuery, UdfRegistry};
pub use dv_storm::{
    BandwidthModel, CancelReason, CancelToken, IoOptions, IoSnapshot, PartitionStrategy, QueryId,
    QueryOptions, QueryService, QueryStats, ServiceConfig, SessionHandle, SubmitOptions,
};
pub use dv_types::{DvError, Result, Row, Rows, Schema, Table, Value};

/// Builder for a [`Virtualizer`].
pub struct VirtualizerBuilder {
    descriptor: String,
    storage_base: Option<PathBuf>,
    explicit_roots: Option<Vec<PathBuf>>,
    udfs: UdfRegistry,
    service: ServiceConfig,
}

impl VirtualizerBuilder {
    /// Map every cluster node name `n` to `<base>/<n>` (the layout the
    /// generators and most deployments use).
    pub fn storage_base(mut self, base: impl AsRef<Path>) -> Self {
        self.storage_base = Some(base.as_ref().to_path_buf());
        self
    }

    /// Explicit per-node storage roots (`roots[i]` hosts node `i`).
    pub fn storage_roots(mut self, roots: Vec<PathBuf>) -> Self {
        self.explicit_roots = Some(roots);
        self
    }

    /// Register a user-defined filter function.
    pub fn udf(
        mut self,
        name: &str,
        arity: Option<usize>,
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.udfs.register(name, arity, f);
        self
    }

    /// Register a UDF together with implicit argument attributes for
    /// bare calls like `Speed()`.
    pub fn udf_with_implicit_args(
        mut self,
        name: &str,
        arity: Option<usize>,
        implicit_args: Vec<String>,
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.udfs.register_with_implicit_args(name, arity, implicit_args, f);
        self
    }

    /// How many queries the service admits at once (default 4, clamped
    /// to at least 1); the rest queue priority-then-FIFO.
    pub fn max_concurrent(mut self, limit: usize) -> Self {
        self.service.max_concurrent = limit;
        self
    }

    /// Server-wide ceiling on per-query intra-node worker threads
    /// (default: the host's available parallelism). Per-query
    /// `QueryOptions::intra_node_threads` requests above this are
    /// clamped at execution time.
    pub fn max_intra_node_threads(mut self, limit: usize) -> Self {
        self.service.max_intra_node_threads = limit.max(1);
        self
    }

    /// Cost-based admission byte budget: reject any query whose static
    /// planned byte bound exceeds `bytes` with a DV401-coded error,
    /// before any fragment runs. Unset by default.
    pub fn max_plan_bytes(mut self, bytes: u64) -> Self {
        self.service.max_plan_bytes = Some(bytes);
        self
    }

    /// Cost-based admission group-memory budget: reject any query
    /// whose static absorber group-state bound exceeds `bytes` with a
    /// DV404-coded error. Unset by default.
    pub fn max_group_memory(mut self, bytes: u64) -> Self {
        self.service.max_group_memory = Some(bytes);
        self
    }

    /// Compile the descriptor and start the per-node services.
    pub fn build(self) -> Result<Virtualizer> {
        let model = Arc::new(dv_descriptor::compile(&self.descriptor)?);
        let roots = match (self.explicit_roots, self.storage_base) {
            (Some(roots), _) => roots,
            (None, Some(base)) => model.nodes.iter().map(|n| base.join(n)).collect(),
            (None, None) => {
                return Err(DvError::Runtime(
                    "set storage_base(...) or storage_roots(...) before build()".into(),
                ))
            }
        };
        let compiled = Arc::new(CompiledDataset::compile(model, roots)?);
        Ok(Virtualizer { service: QueryService::new(compiled, self.udfs, &self.service) })
    }
}

/// A compiled, queryable virtual table over flat-file data.
pub struct Virtualizer {
    service: QueryService,
}

impl Virtualizer {
    /// Start building a virtualizer from descriptor text. `SPEED` and
    /// `DISTANCE` (the paper's example filters) are pre-registered.
    pub fn builder(descriptor: &str) -> VirtualizerBuilder {
        VirtualizerBuilder {
            descriptor: descriptor.to_string(),
            storage_base: None,
            explicit_roots: None,
            udfs: UdfRegistry::with_builtins(),
            service: ServiceConfig::default(),
        }
    }

    /// The virtual table's schema.
    pub fn schema(&self) -> &Schema {
        &self.service.model().schema
    }

    /// The resolved dataset model: every file (path, node, binding
    /// env, codec) and the distinct resolved layouts the files share
    /// (`FileModel::shape`); a file's implicit extents are read with
    /// `FileModel::extents`.
    pub fn model(&self) -> &DatasetModel {
        self.service.model()
    }

    /// Execute a query for a single local client.
    pub fn query(&self, sql: &str) -> Result<(Table, QueryStats)> {
        single_table(self.query_with(sql, &QueryOptions::default())?)
    }

    /// Execute with full options (partitioning, remote-client
    /// bandwidth, intra-node threads).
    pub fn query_with(&self, sql: &str, opts: &QueryOptions) -> Result<(Vec<Table>, QueryStats)> {
        self.service.execute(sql, opts)
    }

    /// Execute a single-table query that is aborted mid-scan once
    /// `timeout` elapses (including time spent queued for admission).
    pub fn query_with_timeout(
        &self,
        sql: &str,
        timeout: std::time::Duration,
    ) -> Result<(Table, QueryStats)> {
        let sub = SubmitOptions { timeout: Some(timeout), ..SubmitOptions::default() };
        single_table(self.service.execute_with(sql, &QueryOptions::default(), &sub)?)
    }

    /// Submit a query as a background session: returns a
    /// [`SessionHandle`] whose `wait()` yields the result and whose
    /// drop (without waiting) cancels the query. The session queues
    /// under the service's admission limit.
    pub fn submit(
        &self,
        sql: &str,
        opts: &QueryOptions,
        sub: &SubmitOptions,
    ) -> Result<SessionHandle> {
        self.service.submit(sql, opts, sub)
    }

    /// The query service plane: sessions, admission introspection,
    /// cancellation by [`QueryId`], binding and the compiled dataset.
    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Render the generated index/extractor functions as source text
    /// (what the paper's compiler would have emitted as C++).
    pub fn render_generated_code(&self) -> String {
        dv_layout::codegen::render_compiled(self.service.compiled())
    }

    /// Render the AFC schedule of a query (debugging / inspection),
    /// followed by the plan's static resource bounds (dv-cost), at the
    /// default [`QueryOptions`].
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.explain_with(sql, &QueryOptions::default())
    }

    /// [`Virtualizer::explain`] under explicit options: the I/O lines,
    /// each node's cache decision and the cost bounds follow `opts.io`
    /// and `opts.client_processors`, as [`Virtualizer::query_with`]
    /// would run them. The morsel schedule is shown at the host's
    /// default worker count.
    pub fn explain_with(&self, sql: &str, opts: &QueryOptions) -> Result<String> {
        let bq = self.service.bind_sql(sql)?;
        let plan = self.service.compiled().plan_query(&bq)?;
        let mut out = dv_layout::codegen::render_plan(
            self.service.compiled(),
            &plan,
            &opts.io,
            self.service.cache_budget(),
        );
        let report = CostReport::analyze(
            &plan,
            &CostParams::new(&opts.io, opts.client_processors, bq.predicate.is_some()),
        );
        out.push_str("// ---- static cost bounds (dv-cost) ----\n");
        for line in report.to_string().lines() {
            out.push_str("// ");
            out.push_str(line);
            out.push('\n');
        }
        Ok(out)
    }

    /// The static [`CostReport`] of a query's plan: guaranteed upper
    /// bounds on rows, bytes, syscalls, mover wire bytes and absorber
    /// memory, derived without touching any data.
    pub fn cost_report(&self, sql: &str) -> Result<CostReport> {
        let bq = self.service.bind_sql(sql)?;
        let plan = self.service.compiled().plan_query(&bq)?;
        Ok(CostReport::analyze(
            &plan,
            &CostParams::new(&IoOptions::default(), 1, bq.predicate.is_some()),
        ))
    }

    /// Validate the descriptor against the files on disk; returns all
    /// discrepancies (missing files, size mismatches, chunk overruns).
    pub fn verify_files(&self) -> Vec<FileIssue> {
        self.service.compiled().verify_files()
    }
}

/// The one table of a single-processor query.
fn single_table((mut tables, stats): (Vec<Table>, QueryStats)) -> Result<(Table, QueryStats)> {
    match tables.pop() {
        Some(table) => Ok((table, stats)),
        None => Err(DvError::Runtime(
            "query produced no client partitions (zero processors configured)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_datagen::{ipars, IparsConfig, IparsLayout};
    use std::time::Duration;

    fn setup(tag: &str) -> (PathBuf, String) {
        let base = std::env::temp_dir().join(format!("dv-core-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let cfg = IparsConfig::tiny();
        let desc = ipars::generate(&base, &cfg, IparsLayout::V).unwrap();
        (base, desc)
    }

    #[test]
    fn end_to_end_facade() {
        let (base, desc) = setup("e2e");
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
        assert_eq!(v.schema().len(), 22);
        let (table, stats) =
            v.query("SELECT REL, TIME, SOIL FROM IparsData WHERE SOIL > 0.5").unwrap();
        assert!(stats.rows_scanned > 0);
        assert!(table.len() < stats.rows_scanned as usize);
        for row in &table.rows {
            assert!(row[2].as_f64() > 0.5);
        }
    }

    #[test]
    fn builder_requires_storage() {
        let (_base, desc) = setup("nostorage");
        assert!(Virtualizer::builder(&desc).build().is_err());
    }

    #[test]
    fn custom_udf() {
        let (base, desc) = setup("udf");
        let v = Virtualizer::builder(&desc)
            .storage_base(&base)
            .udf("HALF", Some(1), |a| a[0] / 2.0)
            .build()
            .unwrap();
        let (table, _) = v.query("SELECT SOIL FROM IparsData WHERE HALF(SOIL) > 0.25").unwrap();
        for row in &table.rows {
            assert!(row[0].as_f64() > 0.5);
        }
    }

    #[test]
    fn explain_and_codegen_render() {
        let (base, desc) = setup("explain");
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
        let code = v.render_generated_code();
        assert!(code.contains("index_function"));
        let plan = v.explain("SELECT * FROM IparsData WHERE TIME = 1").unwrap();
        assert!(plan.contains("working row"));
        assert!(plan.contains("static cost bounds (dv-cost)"));
        assert!(plan.contains("rows scanned"));
    }

    #[test]
    fn cost_report_bounds_hold_and_budgets_reject() {
        let (base, desc) = setup("cost");
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();
        let sql = "SELECT REL, TIME, SOIL FROM IparsData WHERE SOIL > 0.5";
        let report = v.cost_report(sql).unwrap();
        let (_, stats) = v.query(sql).unwrap();
        assert_eq!(stats.rows_scanned, report.rows_scanned.hi);
        assert_eq!(stats.bytes_read, report.bytes_read.hi);
        assert!(stats.rows_selected <= report.rows_selected.hi);
        // An impossible byte budget rejects the same query at
        // admission with a DV-coded error.
        let tight =
            Virtualizer::builder(&desc).storage_base(&base).max_plan_bytes(1).build().unwrap();
        let err = tight.query(sql).unwrap_err();
        assert!(err.is_cost_rejected(), "{err}");
    }

    #[test]
    fn bad_descriptor_reported() {
        let err = Virtualizer::builder("not a descriptor").storage_base("/tmp").build();
        assert!(err.is_err());
    }

    #[test]
    fn session_submit_wait_and_timeout() {
        let (base, desc) = setup("session");
        let v = Virtualizer::builder(&desc).storage_base(&base).max_concurrent(2).build().unwrap();
        assert_eq!(v.service().max_concurrent(), 2);
        // A background session resolves to the same rows as the
        // synchronous path.
        let (direct, _) = v.query("SELECT REL, TIME FROM IparsData WHERE TIME = 1").unwrap();
        let handle = v
            .submit(
                "SELECT REL, TIME FROM IparsData WHERE TIME = 1",
                &QueryOptions::default(),
                &SubmitOptions::default(),
            )
            .unwrap();
        let (mut tables, stats) = handle.wait().unwrap();
        assert_eq!(tables.pop().unwrap().rows, direct.rows);
        assert!(stats.query_id > 0);
        // A generous timeout leaves the query unaffected.
        let (table, _) = v
            .query_with_timeout(
                "SELECT REL, TIME FROM IparsData WHERE TIME = 1",
                Duration::from_secs(60),
            )
            .unwrap();
        assert_eq!(table.rows, direct.rows);
        // All slots are free again afterwards.
        assert_eq!(v.service().running(), 0);
    }

    #[test]
    fn truncated_file_refutes_certificate() {
        let (base, desc) = setup("refute");
        // Chop bytes off one data file. The verifier, a diagnostic,
        // refutes the layout; building does not consult it, and the
        // scan's own read checks turn the short file into a clean
        // error that releases the admission slot.
        let victim = walkdir_first_data(&base);
        let len = std::fs::metadata(&victim).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&victim).unwrap();
        f.set_len(len - 3).unwrap();
        let v = Virtualizer::builder(&desc).storage_base(&base).build().unwrap();

        let m = v.model();
        let sizes: dv_lint::verify::ObservedSizes = m
            .files
            .iter()
            .map(|f| {
                let md = std::fs::metadata(v.service().compiled().file_path(f.id)).unwrap();
                ((m.nodes[f.node].clone(), f.rel_path.clone()), md.len())
            })
            .collect();
        let report = dv_lint::verify_descriptor(&desc, Some(&sizes)).unwrap();
        assert_eq!(report.certificate(), Certificate::Refuted);

        let err = v.query("SELECT * FROM IparsData").unwrap_err();
        assert!(matches!(err, DvError::Io { .. }), "{err}");
        assert_eq!(v.service().running(), 0, "failed query must release its slot");
    }

    fn walkdir_first_data(base: &Path) -> PathBuf {
        fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
            for e in std::fs::read_dir(dir).unwrap().flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else if p.extension().is_some_and(|e| e == "dat") {
                    out.push(p);
                }
            }
        }
        let mut found = Vec::new();
        walk(base, &mut found);
        found.sort();
        found.into_iter().next().expect("generated dataset has a .dat file")
    }
}
