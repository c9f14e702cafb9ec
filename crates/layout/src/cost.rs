//! dv-cost: static per-plan resource bounds.
//!
//! Given a compiled [`QueryPlan`], derive **guaranteed upper bounds**
//! on every resource the runtime spends executing it: rows scanned,
//! bytes read and issued (after pruning and run coalescing), syscall
//! count, mover wire bytes (with the aggregation reduction bound),
//! and peak absorber reorder-buffer occupancy. The bounds are
//! closed-form intervals computed from the same abstract domains the
//! planner itself uses — the descriptor's affine extent domain, the
//! per-AFC implicit-coordinate hulls, and the I/O scheduler's
//! coalescing parameters — so they hold for *every* execution of the
//! plan, on any thread count, steal order, or cache state.
//!
//! # Soundness argument (per bound)
//!
//! * `rows_scanned` — exact: every retained AFC materializes exactly
//!   `num_rows` rows; pruned AFCs were dropped from the plan.
//! * `rows_selected` — at most `rows_scanned`; at least the row count
//!   of AFCs whose prune verdict is `Full` (the filter is provably
//!   true there and skipped at runtime).
//! * `bytes_read` — exact: `Σ num_rows × stride` over retained AFC
//!   entries; the scheduled read path charges each extracted AFC's
//!   entry runs once, whatever coalescing or the cache did to the
//!   reads beneath them.
//! * `read_syscalls` / `io_runs` — at most one syscall per entry run
//!   (`Σ entries`); coalescing and the segment cache only merge or
//!   absorb reads, never split them.
//! * `bytes_issued` — the scheduler merges runs whose gap is at most
//!   `coalesce_gap`; each merge adds at most `coalesce_gap` slack
//!   bytes and there are fewer merges than runs, so issued bytes
//!   never exceed `bytes_read + runs × coalesce_gap`. Overlap
//!   deduplication and cache hits only reduce the total.
//! * `mover_sends` — scans ship at most one block per AFC (blocks
//!   batch one *or more* AFCs) partitioned across at most
//!   `client_processors` sends each. Aggregation pushdown ships at
//!   most one partial block per morsel (morsels group whole AFCs)
//!   plus one per `AGG_FLUSH_ENTRIES` accumulated group entries.
//! * `mover_bytes` — scans wire at most `rows × output-row width`
//!   (only selected rows are serialized). Pushdown wires at most
//!   `group bound × per-entry bytes` (seq tag + packed keys +
//!   accumulator states).
//! * `agg_groups` — per AFC, the distinct group-key count is bounded
//!   by `min(num_rows, Π per-key cardinality)` where a constant
//!   implicit contributes 1, a non-degenerate affine implicit at most
//!   `num_rows`, and a stored attribute is unbounded (clamped by
//!   `num_rows`) — the aggregation reduction bound.
//! * `peak_buffered_blocks` / `absorber_bytes` — the reorder buffer
//!   only ever holds blocks in flight, so the send bounds cap it;
//!   aggregate queries collect partials and buffer nothing.
//!
//! The bounds are *contracts*, not estimates: every query of the
//! eight differential suites under `tests/` is checked against them at
//! the test edge (`dv_integration::query_checked`), and `cost_diff`
//! sweeps layouts × queries × prune/thread settings asserting
//! no counter ever exceeds its bound. The runtime itself consults the
//! report only for cost-based admission.

use std::fmt;

use crate::afc::{Afc, ImplicitValue, WorkingSet};
use crate::io::IoOptions;
use crate::plan::{AggPrep, NodePlan, QueryPlan};
use crate::prune::PruneVerdict;

/// Node-side partial-aggregate flush threshold. Mirrors the executor's
/// `AGG_FLUSH_ENTRIES` in `dv_storm` (asserted equal by its tests):
/// every mid-morsel flush ships at least this many group entries, so
/// flush count is bounded by `groups / AGG_FLUSH_ENTRIES`.
pub const AGG_FLUSH_ENTRIES: u64 = 4096;

/// A closed interval bound `[lo, hi]` on one runtime counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBound {
    /// Guaranteed minimum (0 when nothing is promised).
    pub lo: u64,
    /// Guaranteed maximum.
    pub hi: u64,
}

impl CostBound {
    /// A counter known exactly at plan time.
    pub fn exact(v: u64) -> CostBound {
        CostBound { lo: v, hi: v }
    }

    /// An upper bound with no lower promise.
    pub fn at_most(hi: u64) -> CostBound {
        CostBound { lo: 0, hi }
    }

    /// Whether an observed counter value is consistent with the bound.
    pub fn admits(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

impl fmt::Display for CostBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "= {}", self.lo)
        } else if self.lo == 0 {
            write!(f, "<= {}", self.hi)
        } else {
            write!(f, "{}..={}", self.lo, self.hi)
        }
    }
}

/// Execution parameters the bounds depend on (everything else comes
/// from the plan itself).
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Client processors receiving partitioned blocks.
    pub client_processors: usize,
    /// The scheduler's run-coalescing gap (slack bytes per merge).
    pub coalesce_gap: u64,
    /// Whether the query carries a `WHERE` clause. Without one every
    /// scanned row is selected, which sharpens `rows_selected` to an
    /// exact bound.
    pub has_predicate: bool,
}

impl CostParams {
    pub fn new(io: &IoOptions, client_processors: usize, has_predicate: bool) -> CostParams {
        CostParams {
            client_processors: client_processors.max(1),
            coalesce_gap: io.coalesce_gap,
            has_predicate,
        }
    }
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams::new(&IoOptions::default(), 1, true)
    }
}

/// One counter observed to escape its static bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostViolation {
    /// Name of the violated counter.
    pub counter: &'static str,
    /// The observed runtime value.
    pub actual: u64,
    /// The static bound it escaped.
    pub bound: CostBound,
}

impl fmt::Display for CostViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {} escapes static bound {}", self.counter, self.actual, self.bound)
    }
}

/// Plain runtime counter values to check against a report — a
/// dependency-free mirror of the relevant `QueryStats` fields, so
/// validation lives next to the analysis instead of in `dv_storm`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeCounters {
    pub rows_scanned: u64,
    pub rows_selected: u64,
    pub bytes_read: u64,
    pub afcs: u64,
    pub io_runs: u64,
    pub read_syscalls: u64,
    pub bytes_issued: u64,
    pub mover_sends: u64,
    pub mover_bytes: u64,
    pub agg_groups: u64,
    pub peak_buffered_blocks: u64,
}

/// Static resource bounds of one compiled plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostReport {
    /// Rows materialized by extraction (exact).
    pub rows_scanned: CostBound,
    /// Rows surviving the filter.
    pub rows_selected: CostBound,
    /// Bytes decoded from data files (exact).
    pub bytes_read: CostBound,
    /// Aligned file chunks processed (exact).
    pub afcs: CostBound,
    /// Contiguous byte runs handed to the I/O layer.
    pub io_runs: CostBound,
    /// Read syscalls after coalescing and cache hits.
    pub read_syscalls: CostBound,
    /// Bytes issued to the filesystem (coalescing slack included).
    pub bytes_issued: CostBound,
    /// Blocks handed to the mover transport.
    pub mover_sends: CostBound,
    /// Payload bytes shipped over the mover.
    pub mover_bytes: CostBound,
    /// Partial-aggregate group entries shipped (the reduction bound).
    pub agg_groups: CostBound,
    /// High-water mark of the absorber's reorder buffer, in blocks.
    pub peak_buffered_blocks: CostBound,
    /// Peak absorber memory attributable to shipped payloads, in
    /// *wire* bytes (packed attribute widths, as `mover_bytes`) — not
    /// resident memory: a delivered row occupies 16 B per cell as
    /// `Value`s, whatever the attribute's type.
    pub absorber_bytes: CostBound,
    /// Width in bytes of one serialized output row.
    pub out_row_bytes: u64,
}

impl CostReport {
    /// Derive the bounds for `plan` under `params`.
    pub fn analyze(plan: &QueryPlan, params: &CostParams) -> CostReport {
        CostReport::analyze_nodes(
            &plan.node_plans,
            &plan.working,
            &plan.output_positions,
            plan.agg.as_ref(),
            params,
        )
    }

    /// [`CostReport::analyze`] over a plan's parts — the entry point
    /// for callers holding a `QueryPrep` plus per-node plans rather
    /// than an assembled [`QueryPlan`] (the service plane).
    pub fn analyze_nodes(
        node_plans: &[NodePlan],
        working: &WorkingSet,
        output_positions: &[usize],
        agg: Option<&AggPrep>,
        params: &CostParams,
    ) -> CostReport {
        let group_pos: Option<&[usize]> = agg.map(|a| a.group_pos.as_slice());

        let mut rows = 0u64;
        let mut bytes = 0u64;
        let mut afcs = 0u64;
        let mut runs = 0u64;
        let mut full_rows = 0u64;
        let mut groups_hi = 0u64;
        for np in node_plans {
            for (i, afc) in np.afcs.iter().enumerate() {
                rows = rows.saturating_add(afc.num_rows);
                bytes = bytes.saturating_add(afc.bytes_read());
                afcs += 1;
                runs = runs.saturating_add(afc.entries.len() as u64);
                if matches!(np.prune.verdicts.get(i), Some(PruneVerdict::Full)) {
                    full_rows = full_rows.saturating_add(afc.num_rows);
                }
                if let Some(keys) = group_pos {
                    groups_hi = groups_hi.saturating_add(afc_group_bound(afc, keys));
                }
            }
        }

        let out_row_bytes: u64 =
            output_positions.iter().map(|&p| working.dtypes[p].size() as u64).sum();

        let selected_lo = if params.has_predicate { full_rows } else { rows };
        let processors = params.client_processors as u64;

        let (mover_sends, mover_bytes, agg_groups, peak_blocks) = match agg {
            Some(a) => {
                // Pushdown: one partial block per morsel (morsels group
                // whole AFCs) plus one per AGG_FLUSH_ENTRIES entries;
                // each entry wires a seq tag, the packed key, and one
                // state per accumulator. Nothing enters the reorder
                // buffer — partials are collected, not reordered.
                let key_width = a.spec.group_by.len() as u64;
                let entry_bytes = 8
                    + key_width * 8
                    + a.spec
                        .aggs
                        .iter()
                        .map(|ag| match ag.func {
                            dv_types::AggFunc::Avg => 16u64,
                            _ => 8u64,
                        })
                        .sum::<u64>();
                let sends = afcs.saturating_add(groups_hi / AGG_FLUSH_ENTRIES);
                (
                    CostBound::at_most(sends),
                    CostBound::at_most(groups_hi.saturating_mul(entry_bytes)),
                    CostBound::at_most(groups_hi),
                    CostBound::exact(0),
                )
            }
            None => {
                let sends = afcs.saturating_mul(processors);
                (
                    CostBound::at_most(sends),
                    CostBound::at_most(rows.saturating_mul(out_row_bytes)),
                    CostBound::exact(0),
                    CostBound::at_most(sends),
                )
            }
        };

        // All I/O accounting is in *logical* (decoded-image) bytes, so
        // the upper bounds hold for every codec: a fetch call decodes a
        // non-affine file at most once, and only when it has a range
        // of that file to serve, so decodes ≤ missed ranges ≤ runs
        // even when the image is over the cache budget and every call
        // decodes again. With the image cached, a query decodes each
        // file once. Coalescing and cache hits only lower the actuals.
        let bytes_issued_hi = bytes.saturating_add(runs.saturating_mul(params.coalesce_gap));

        CostReport {
            rows_scanned: CostBound::exact(rows),
            rows_selected: CostBound { lo: selected_lo, hi: rows },
            bytes_read: CostBound::exact(bytes),
            afcs: CostBound::exact(afcs),
            io_runs: CostBound::at_most(runs),
            read_syscalls: CostBound::at_most(runs),
            bytes_issued: CostBound::at_most(bytes_issued_hi),
            mover_sends,
            mover_bytes,
            agg_groups,
            peak_buffered_blocks: peak_blocks,
            absorber_bytes: mover_bytes,
            out_row_bytes,
        }
    }

    /// Check observed runtime counters against the bounds, returning
    /// every violation (empty = the contract held).
    pub fn validate(&self, c: &RuntimeCounters) -> Vec<CostViolation> {
        let mut out = Vec::new();
        let mut check = |counter: &'static str, actual: u64, bound: CostBound, exact: bool| {
            let ok = if exact { bound.admits(actual) } else { actual <= bound.hi };
            if !ok {
                out.push(CostViolation { counter, actual, bound });
            }
        };
        check("rows_scanned", c.rows_scanned, self.rows_scanned, true);
        check("rows_selected", c.rows_selected, self.rows_selected, true);
        check("bytes_read", c.bytes_read, self.bytes_read, true);
        check("afcs", c.afcs, self.afcs, true);
        check("io_runs", c.io_runs, self.io_runs, false);
        check("read_syscalls", c.read_syscalls, self.read_syscalls, false);
        check("bytes_issued", c.bytes_issued, self.bytes_issued, false);
        check("mover_sends", c.mover_sends, self.mover_sends, false);
        check("mover_bytes", c.mover_bytes, self.mover_bytes, false);
        check("agg_groups", c.agg_groups, self.agg_groups, false);
        check("peak_buffered_blocks", c.peak_buffered_blocks, self.peak_buffered_blocks, false);
        out
    }

    /// The worst-case mover transfer time over a link of
    /// `bytes_per_sec` with `latency` charged per block send.
    pub fn transfer_time_hi(&self, bytes_per_sec: f64, latency: std::time::Duration) -> f64 {
        self.mover_bytes.hi as f64 / bytes_per_sec
            + latency.as_secs_f64() * self.mover_sends.hi as f64
    }

    /// Worst-case absorber group-table memory for aggregate queries:
    /// group entries × serialized entry width (0 for scans).
    pub fn group_memory_hi(&self) -> u64 {
        if self.agg_groups.hi == 0 {
            0
        } else {
            self.absorber_bytes.hi
        }
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rows scanned {}, selected {}", self.rows_scanned, self.rows_selected)?;
        writeln!(
            f,
            "bytes read {}, issued {} (runs {}, syscalls {})",
            self.bytes_read, self.bytes_issued, self.io_runs, self.read_syscalls
        )?;
        write!(
            f,
            "mover sends {}, wire bytes {} ({} B/row), reorder blocks {}, absorber bytes {}",
            self.mover_sends,
            self.mover_bytes,
            self.out_row_bytes,
            self.peak_buffered_blocks,
            self.absorber_bytes
        )?;
        if self.agg_groups.hi > 0 {
            write!(f, "\nagg groups out {} (reduction bound)", self.agg_groups)?;
        }
        Ok(())
    }
}

/// The aggregation reduction bound for one AFC: distinct group keys
/// `≤ min(num_rows, Π per-key cardinality)`, where a constant implicit
/// coordinate contributes 1, a degenerate affine (step 0) contributes
/// 1, a non-degenerate affine at most `num_rows` distinct values, and
/// a stored attribute is statically unbounded (the `num_rows` clamp
/// absorbs it). `group_pos` indexes the working set, matching
/// `Afc::implicits`.
pub fn afc_group_bound(afc: &Afc, group_pos: &[usize]) -> u64 {
    let mut product: u64 = 1;
    for &pos in group_pos {
        let card = match afc.implicits.iter().find(|(p, _)| *p == pos) {
            Some((_, ImplicitValue::Const(_))) => 1,
            Some((_, ImplicitValue::Affine { step, .. })) => {
                if *step == 0 {
                    1
                } else {
                    afc.num_rows
                }
            }
            None => afc.num_rows,
        };
        product = product.saturating_mul(card.max(1));
    }
    product.min(afc.num_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CompiledDataset;
    use dv_sql::{bind, parse, UdfRegistry};
    use std::path::PathBuf;
    use std::sync::Arc;

    const DESC: &str = r#"
[S]
REL = short
TIME = int
SOIL = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { TIME }
  DATA { DATASET leaf }
  DATASET "leaf" {
    DATASPACE { LOOP TIME 1:20:1 { LOOP G 1:10:1 { SOIL } } }
    DATA { DIR[0]/f$REL REL = 0:1:1 }
  }
}
"#;

    fn compiled() -> CompiledDataset {
        let model = Arc::new(dv_descriptor::compile(DESC).unwrap());
        CompiledDataset::compile(model, vec![PathBuf::from("/x")]).unwrap()
    }

    fn plan(c: &CompiledDataset, sql: &str) -> QueryPlan {
        let q = parse(sql).unwrap();
        let b = bind(&q, &c.model.schema, &UdfRegistry::with_builtins()).unwrap();
        c.plan_query(&b).unwrap()
    }

    #[test]
    fn scan_bounds_are_exact_where_promised() {
        let c = compiled();
        let p = plan(&c, "SELECT SOIL FROM D WHERE TIME >= 5 AND TIME <= 8");
        let r = CostReport::analyze(&p, &CostParams::default());
        assert_eq!(r.rows_scanned, CostBound::exact(p.planned_rows()));
        assert_eq!(r.bytes_read, CostBound::exact(p.planned_bytes()));
        assert!(r.rows_selected.hi == p.planned_rows());
        // TIME >= 5 AND TIME <= 8 is provably true on every retained
        // chunk, so the lower bound matches the upper.
        assert_eq!(r.rows_selected.lo, p.planned_rows(), "{r}");
        assert!(r.read_syscalls.hi >= 1);
        assert!(r.bytes_issued.hi >= r.bytes_read.hi);
        assert_eq!(r.agg_groups, CostBound::exact(0));
        // 2 files x 4 retained TIME steps -> 8 AFCs, one block each.
        assert_eq!(r.mover_sends.hi, r.afcs.hi);
        assert_eq!(r.out_row_bytes, 4);
        assert_eq!(r.mover_bytes.hi, p.planned_rows() * 4);
    }

    #[test]
    fn no_predicate_selects_everything() {
        let c = compiled();
        let p = plan(&c, "SELECT SOIL FROM D");
        let r = CostReport::analyze(&p, &CostParams::new(&IoOptions::default(), 2, false));
        assert_eq!(r.rows_selected, CostBound::exact(400));
        assert_eq!(r.mover_sends.hi, r.afcs.hi * 2, "partitioned across 2 processors");
    }

    #[test]
    fn group_bound_uses_implicit_cardinality() {
        let c = compiled();
        // TIME is an implicit loop coordinate: constant within each
        // AFC, so each AFC contributes exactly one group.
        let p = plan(&c, "SELECT TIME, COUNT(*) FROM D GROUP BY TIME");
        let r = CostReport::analyze(&p, &CostParams::default());
        assert_eq!(r.agg_groups.hi, r.afcs.hi, "one group per TIME-constant AFC");
        assert!(r.agg_groups.hi < p.planned_rows(), "reduction bound bites");
        // Grouping by a stored attribute is unbounded per row.
        let p = plan(&c, "SELECT SOIL, COUNT(*) FROM D GROUP BY SOIL");
        let r = CostReport::analyze(&p, &CostParams::default());
        assert_eq!(r.agg_groups.hi, p.planned_rows());
        // Pushdown entry bytes: seq(8) + key(8) + COUNT state(8).
        assert_eq!(r.mover_bytes.hi, r.agg_groups.hi * 24);
        assert_eq!(r.peak_buffered_blocks, CostBound::exact(0));
    }

    #[test]
    fn afc_group_bound_handles_each_implicit_kind() {
        use crate::afc::Afc;
        use dv_types::{DataType, Value};
        let afc = Afc {
            num_rows: 100,
            entries: vec![],
            fields: vec![],
            implicits: vec![
                (0, ImplicitValue::Const(Value::Int(7))),
                (1, ImplicitValue::Affine { start: 0, step: 2, dtype: DataType::Int }),
                (2, ImplicitValue::Affine { start: 5, step: 0, dtype: DataType::Int }),
            ],
        };
        assert_eq!(afc_group_bound(&afc, &[0]), 1);
        assert_eq!(afc_group_bound(&afc, &[2]), 1);
        assert_eq!(afc_group_bound(&afc, &[1]), 100, "non-degenerate affine");
        assert_eq!(afc_group_bound(&afc, &[0, 2]), 1);
        assert_eq!(afc_group_bound(&afc, &[3]), 100, "stored attr clamps at rows");
        assert_eq!(afc_group_bound(&afc, &[1, 3]), 100, "product clamps at rows");
    }

    #[test]
    fn validate_reports_escapes_and_accepts_conforming_runs() {
        let c = compiled();
        let p = plan(&c, "SELECT SOIL FROM D WHERE TIME = 3");
        let r = CostReport::analyze(&p, &CostParams::default());
        let ok = RuntimeCounters {
            rows_scanned: r.rows_scanned.hi,
            rows_selected: r.rows_selected.lo,
            bytes_read: r.bytes_read.hi,
            afcs: r.afcs.hi,
            io_runs: 1,
            read_syscalls: 1,
            bytes_issued: r.bytes_read.hi,
            mover_sends: 1,
            mover_bytes: 8,
            agg_groups: 0,
            peak_buffered_blocks: 1,
        };
        assert!(r.validate(&ok).is_empty());
        let bad = RuntimeCounters { bytes_issued: u64::MAX, rows_scanned: 0, ..ok };
        let violations = r.validate(&bad);
        assert_eq!(
            violations.len(),
            2,
            "bytes_issued escapes, rows_scanned inexact: {violations:?}"
        );
        assert!(violations.iter().any(|v| v.counter == "bytes_issued"));
        let rendered = violations[0].to_string();
        assert!(rendered.contains("escapes static bound"), "{rendered}");
    }

    #[test]
    fn display_mentions_every_stage() {
        let c = compiled();
        let p = plan(&c, "SELECT TIME, AVG(SOIL) FROM D GROUP BY TIME");
        let r = CostReport::analyze(&p, &CostParams::default());
        let text = r.to_string();
        assert!(text.contains("rows scanned"), "{text}");
        assert!(text.contains("bytes read"), "{text}");
        assert!(text.contains("mover sends"), "{text}");
        assert!(text.contains("agg groups out"), "{text}");
    }
}
