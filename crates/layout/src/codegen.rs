//! Rendering compiled plans as human-readable generated source.
//!
//! The paper's tool emits C++ index and extraction classes compiled
//! into STORM. Our compiler specializes *plan objects* instead (same
//! one-time cost model, no process restart); this module renders those
//! objects as the equivalent Rust-like source so an administrator can
//! inspect what the compiler generated — and so the layout-explorer
//! example can show it.

use std::fmt::Write as _;

use dv_descriptor::ResolvedItem;

use crate::plan::{CompiledDataset, QueryPlan};

/// Render the query-independent part: the index function's file table
/// and per-file layout programs.
pub fn render_compiled(c: &CompiledDataset) -> String {
    let m = &c.model;
    let mut out = String::new();
    let _ = writeln!(out, "// ---- generated by datavirt layout compiler ----");
    let _ = writeln!(out, "// dataset `{}`, schema `{}`", m.dataset_name, m.schema.name);
    let _ = writeln!(out, "// index attributes: {:?}", m.index_attrs);
    let _ = writeln!(out, "fn index_function(query: &RangeMap) -> Vec<FileChunk> {{");
    let _ =
        writeln!(out, "    // file table ({} files on {} nodes)", m.files.len(), m.node_count());
    for f in &m.files {
        let mut extents = String::new();
        for (var, e) in f.extents() {
            let (lo, hi) = e.hull();
            if lo == hi {
                let _ = write!(extents, " {var}={lo}");
            } else {
                let _ = write!(extents, " {var}={lo}..={hi}");
            }
        }
        let _ = writeln!(
            out,
            "    file!({id:>4}, node = {node}, path = \"{path}\",{extents})",
            id = f.id,
            node = f.node,
            path = f.rel_path,
        );
    }
    let _ = writeln!(out, "    prune_files_by_implicit_extents(query)");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);
    let _ = writeln!(out, "fn extraction_function(afc: &Afc) -> Rows {{");
    for f in &m.files {
        let _ = writeln!(out, "    // layout of file {} (`{}`):", f.id, f.rel_path);
        render_items(&mut out, f.layout(), 1);
    }
    let _ = writeln!(out, "    read_lockstep(afc)");
    let _ = writeln!(out, "}}");
    out
}

fn render_items(out: &mut String, items: &[ResolvedItem], depth: usize) {
    let pad = "    ".repeat(depth);
    for item in items {
        match item {
            ResolvedItem::Attrs(attrs) => {
                let _ = writeln!(out, "{pad}// record {{ {} }}", attrs.join(", "));
            }
            ResolvedItem::Loop { var, lo, hi, step, body } => {
                let _ = writeln!(out, "{pad}// for {var} in ({lo}..={hi}).step_by({step}) {{");
                render_items(out, body, depth + 1);
                let _ = writeln!(out, "{pad}// }}");
            }
            ResolvedItem::Chunked { index_path, attrs, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}// chunked(index = \"{index_path}\") records {{ {} }}",
                    attrs.join(", ")
                );
            }
        }
    }
}

/// Render the query-specific part: the AFC schedule, as the runtime
/// would run it under the query's I/O options `io` against a segment
/// cache of `cache_budget` bytes.
pub fn render_plan(
    c: &CompiledDataset,
    plan: &QueryPlan,
    io: &crate::io::IoOptions,
    cache_budget: u64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// query plan: working row = [{}]", plan.working.names.join(", "));
    let _ = writeln!(
        out,
        "// planned rows = {}, planned bytes = {}",
        plan.planned_rows(),
        plan.planned_bytes()
    );
    if let Some(agg) = &plan.agg {
        let keys: Vec<&str> =
            agg.group_pos.iter().map(|&p| plan.working.names[p].as_str()).collect();
        let calls: Vec<String> = agg
            .spec
            .aggs
            .iter()
            .zip(&agg.arg_pos)
            .map(|(a, pos)| match pos {
                Some(p) => format!("{}({})", a.func, plan.working.names[*p]),
                None => format!("{}(*)", a.func),
            })
            .collect();
        let _ = writeln!(
            out,
            "// aggregation: group by [{}] -> [{}] (pushdown: per-AFC partials folded node-side)",
            keys.join(", "),
            calls.join(", "),
        );
    }
    for np in &plan.node_plans {
        let _ = writeln!(out, "// node {} — {} AFCs", np.node, np.afcs.len());
        if np.prune.groups_pruned > 0 || np.prune.groups_full > 0 {
            let _ = writeln!(
                out,
                "//   prune: {}/{} groups statically empty ({} bytes avoided), {} provably full (filter skipped)",
                np.prune.groups_pruned,
                np.prune.groups_total,
                np.prune.bytes_avoided,
                np.prune.groups_full
            );
        }
        // The morsel schedule at this host's default worker count (the
        // runtime re-plans with the query's actual thread setting). Its
        // groups are the runtime's fetch units — capped at
        // min(group_bytes, morsel target) — and coalescing happens
        // within each, so the I/O line sums over them.
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mp = crate::morsel::MorselPlan::build(&np.afcs, io.group_bytes, threads, 0);
        let mut s = crate::io::CoalesceSummary::default();
        for g in &mp.groups {
            let gs = crate::io::coalesce_summary(&np.afcs[g.clone()], io.coalesce_gap);
            s.runs += gs.runs;
            s.reads += gs.reads;
            s.bytes_used += gs.bytes_used;
            s.bytes_issued += gs.bytes_issued;
        }
        if s.runs > 0 {
            let _ = writeln!(
                out,
                "//   io schedule: {} runs -> {} coalesced reads (gap {} KiB), {} bytes issued / {} used",
                s.runs,
                s.reads,
                io.coalesce_gap / 1024,
                s.bytes_issued,
                s.bytes_used
            );
        }
        if !mp.morsels.is_empty() {
            let _ = writeln!(
                out,
                "//   morsel schedule: {} morsels (adaptive target {} KiB) for {} workers",
                mp.morsels.len(),
                mp.target_bytes / 1024,
                mp.worker_count(threads)
            );
        }
        let cache = crate::io::cache_decision(
            mp.total_bytes,
            plan.node_plans.len(),
            io.cache_bytes,
            cache_budget,
        );
        let _ = writeln!(out, "//   cache: {cache}");
        for (i, afc) in np.afcs.iter().enumerate().take(8) {
            let _ = writeln!(out, "//   afc[{i}]: {} rows", afc.num_rows);
            for e in &afc.entries {
                let _ = writeln!(
                    out,
                    "//     read {{ file: \"{}\", offset: {}, bytes_per_row: {} }}",
                    c.model.files[e.file].rel_path, e.offset, e.stride
                );
            }
            for (pos, imp) in &afc.implicits {
                let _ = writeln!(out, "//     supply {} <- {:?}", plan.working.names[*pos], imp);
            }
        }
        if np.afcs.len() > 8 {
            let _ = writeln!(out, "//   ... {} more", np.afcs.len() - 8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoOptions;
    use dv_sql::{bind, parse, UdfRegistry};
    use std::path::PathBuf;
    use std::sync::Arc;

    const DESC: &str = r#"
[S]
TIME = int
V = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { TIME }
  DATA { DATASET leaf }
  DATASET "leaf" {
    DATASPACE { LOOP TIME 1:5:1 { LOOP G 1:3:1 { V } } }
    DATA { DIR[0]/f$R R = 0:1:1 }
  }
}
"#;

    #[test]
    fn renders_file_table_and_layouts() {
        let model = Arc::new(dv_descriptor::compile(DESC).unwrap());
        let c =
            super::super::plan::CompiledDataset::compile(model, vec![PathBuf::from("/x")]).unwrap();
        let text = render_compiled(&c);
        assert!(text.contains("index_function"), "{text}");
        assert!(text.contains("f0"), "{text}");
        assert!(text.contains("TIME=1..=5"), "{text}");
        assert!(text.contains("for TIME in (1..=5)"), "{text}");
        assert!(text.contains("record { V }"), "{text}");
    }

    #[test]
    fn renders_plan_schedule() {
        let model = Arc::new(dv_descriptor::compile(DESC).unwrap());
        let c =
            super::super::plan::CompiledDataset::compile(model, vec![PathBuf::from("/x")]).unwrap();
        let q = parse("SELECT V FROM D WHERE TIME = 2").unwrap();
        let b = bind(&q, &c.model.schema, &UdfRegistry::new()).unwrap();
        let plan = c.plan_query(&b).unwrap();
        let text = render_plan(&c, &plan, &IoOptions::default(), 1 << 20);
        assert!(text.contains("working row = [TIME, V]"), "{text}");
        assert!(text.contains("read {"), "{text}");
        // One node reads 24 bytes: they fit a 1 MiB cache, not
        // a 10-byte query budget.
        assert!(text.contains("cache: admit (plan 24 B × 1 node ≤ 1048576 B)"), "{text}");
        let io = IoOptions { cache_bytes: 10, ..IoOptions::default() };
        let text = render_plan(&c, &plan, &io, 1 << 20);
        assert!(text.contains("cache: stream (plan 24 B × 1 node > 10 B)"), "{text}");
    }

    #[test]
    fn renders_aggregation_line() {
        let model = Arc::new(dv_descriptor::compile(DESC).unwrap());
        let c =
            super::super::plan::CompiledDataset::compile(model, vec![PathBuf::from("/x")]).unwrap();
        let q = parse("SELECT TIME, COUNT(*), AVG(V) FROM D GROUP BY TIME").unwrap();
        let b = bind(&q, &c.model.schema, &UdfRegistry::new()).unwrap();
        let plan = c.plan_query(&b).unwrap();
        let text = render_plan(&c, &plan, &IoOptions::default(), 1 << 20);
        assert!(text.contains("group by [TIME] -> [COUNT(*), AVG(V)]"), "{text}");
        assert!(text.contains("pushdown"), "{text}");
    }

    #[test]
    fn plan_rendering_is_deterministic() {
        // Each implicit's `supply` line follows the AFC's implicit
        // order: two fresh compilations must render the same bytes.
        let render = || {
            let desc = include_str!("../../../examples/descriptors/ipars_l0.desc");
            let c = crate::plan::compile_from_text(desc, std::path::Path::new("/x")).unwrap();
            let q =
                parse("SELECT REL, TIME, COUNT(*), AVG(SOIL) FROM IparsData GROUP BY REL, TIME")
                    .unwrap();
            let b = bind(&q, &c.model.schema, &UdfRegistry::new()).unwrap();
            render_plan(&c, &c.plan_query(&b).unwrap(), &IoOptions::default(), 1 << 20)
        };
        let text = render();
        assert!(text.contains("supply REL <- Const(Short(0))"), "{text}");
        assert_eq!(text, render());
    }
}
