//! Every metric the benchmark reports: name, unit, direction and where
//! the number comes from, plus the code that derives each value from a
//! measured loop and a traced pass. `BENCHMARK.json` and README.md
//! list the same names; a test keeps the three in step.

use std::collections::BTreeMap;

use crate::replay::Report;
use crate::run::{Measured, OpCounters, Sample};
use crate::stats::{median, percentile, sliced_rate};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Where the value comes from, for the README and the result file.
    pub source: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, source }
}

/// Share of side A's median by which a gated metric may worsen before
/// `diff` calls it a regression; `BENCHMARK.json` carries the same
/// value. The issue that defined the benchmark asked for 0.10 and this
/// host does not support it: run-to-run spread reaches 0.12 (README,
/// "The bound"), and a bound inside the noise fails its own A/A check.
pub const BOUND: f64 = 0.25;

/// The four gated end-to-end metrics. Every workload reports all four.
pub const END_TO_END: [MetricDef; 4] = [
    def("query_ms_p50", "ms", "lower", "timed loop: median submit-to-return per query"),
    def("queries_per_s", "1/s", "higher", "timed loop: median of four window slices"),
    def("peak_rss_mb", "MB", "lower", "VmHWM of the workload's process after the loop"),
    def("setup_s", "s", "lower", "median of 7 x (fresh build + first query)"),
];

const COUNTER: &str = "counter: QueryStats, median per operation over the timed loop";
const SPAN: &str = "span: median self time per replayed operation";
const PROBE: &str = "probe: timed outside the operation, nested under the call that contains it";

/// Per-layer metrics, grouped by the crate whose work they measure.
pub const PER_LAYER: [MetricDef; 60] = [
    def("sql.parse_us", "us", "lower", SPAN),
    def("sql.bind_us", "us", "lower", SPAN),
    def("descriptor.compile_ms", "ms", "lower", PROBE),
    def("descriptor.csv_decode_ms", "ms", "lower", PROBE),
    def("descriptor.csv_decode_mb_per_s", "MB/s", "higher", "probe: physical bytes / decode time"),
    def("lint.verify_ms", "ms", "lower", PROBE),
    def("index.lookup_us", "us", "lower", PROBE),
    def("index.chunks_matched_share", "share", "lower", "probe: chunks matched / chunks indexed"),
    def("layout.compile_ms", "ms", "lower", PROBE),
    def("layout.prepare_us", "us", "lower", SPAN),
    def(
        "layout.plan_node_ms",
        "ms",
        "lower",
        "span: file grouping + AFC generation, net of index.lookup",
    ),
    def("layout.prune_ms", "ms", "lower", SPAN),
    def("layout.afcs", "count", "lower", COUNTER),
    def("layout.prune_dropped_share", "share", "higher", "counter: groups_pruned / groups_total"),
    def(
        "layout.cost_analyze_us",
        "us",
        "lower",
        "probe: not on the default path (budgeted servers only)",
    ),
    def("layout.morsel_build_us", "us", "lower", SPAN),
    def(
        "layout.io_fetch_miss_ms",
        "ms",
        "lower",
        "span: fetches that read or decoded, net of csv_decode",
    ),
    def(
        "layout.io_fetch_hit_ms",
        "ms",
        "lower",
        "span: fetches served wholly by the segment cache",
    ),
    def("layout.io_read_syscalls", "count", "lower", COUNTER),
    def("layout.io_bytes_issued", "bytes", "lower", COUNTER),
    def(
        "layout.io_used_share",
        "share",
        "higher",
        "counter: bytes_used / (bytes_issued + cache_hit_bytes)",
    ),
    def("layout.io_cache_insert_bytes", "bytes", "lower", COUNTER),
    def("layout.io_cache_hit_share", "share", "higher", "counter: hit / (hit + miss) bytes"),
    def("layout.io_prefetch_wait_ms", "ms", "lower", COUNTER),
    def("layout.io_decode_calls", "count", "lower", COUNTER),
    def("layout.extract_ms", "ms", "lower", SPAN),
    def("layout.extract_mb_per_s", "MB/s", "higher", "span: AFC bytes decoded / extract self time"),
    def("layout.extract_frac_memcpy", "share", "higher", "extract_mb_per_s / host.memcpy_mb_per_s"),
    def("storm.plan_time_ms", "ms", "lower", COUNTER),
    def("storm.exec_time_ms", "ms", "lower", COUNTER),
    def("storm.queue_wait_ms", "ms", "lower", COUNTER),
    def("storm.node_busy_max_ms", "ms", "lower", COUNTER),
    def("storm.pool_wait_ms", "ms", "lower", COUNTER),
    def("storm.morsels_planned", "count", "lower", COUNTER),
    def("storm.morsels_stolen", "count", "lower", COUNTER),
    def("storm.filter_ms", "ms", "lower", SPAN),
    def(
        "storm.filter_rows_per_s",
        "1/s",
        "higher",
        "span: rows entering a predicate / filter self time",
    ),
    def("storm.filter_kept_share", "share", "lower", "counter: rows_selected / rows_scanned"),
    def("storm.partition_ms", "ms", "lower", "span: project + partition"),
    def("storm.mover_sends", "count", "lower", COUNTER),
    def("storm.mover_bytes", "bytes", "lower", COUNTER),
    def("storm.mover_blocked_sends", "count", "lower", COUNTER),
    def("storm.mover_send_wait_ms", "ms", "lower", COUNTER),
    def("storm.mover_peak_buffered_blocks", "count", "lower", COUNTER),
    def(
        "storm.query_ms_serial",
        "ms",
        "lower",
        "real engine at intra_node_threads 1, sequential_nodes; median of 3",
    ),
    def(
        "storm.parallel_speedup",
        "ratio",
        "higher",
        "storm.query_ms_serial / (query_ms_p50 x queries per operation)",
    ),
    def("types.agg_fold_ms", "ms", "lower", "span: AggTable fold_block + drain_into per AFC"),
    def("types.agg_fold_rows_per_s", "1/s", "higher", "span: rows folded / fold self time"),
    def("types.agg_groups_out", "count", "lower", COUNTER),
    def("types.agg_reduction", "ratio", "higher", "counter: agg_rows_in / agg_groups_out"),
    def(
        "types.absorb_ms",
        "ms",
        "lower",
        "span: Table::absorb_columns (aggregates: merge + finalize)",
    ),
    def("types.absorb_rows_per_s", "1/s", "higher", "span: rows delivered / absorb self time"),
    def("core.build_ms", "ms", "lower", "span: Virtualizer::build, net of its three probed stages"),
    def(
        "core.query_overhead_ms",
        "ms",
        "lower",
        "timed loop: median of (submit-to-return - plan_time - exec_time)",
    ),
    def(
        "core.query_ms_p95",
        "ms",
        "lower",
        "timed loop: 95th percentile of submit-to-return per query",
    ),
    def("core.query_samples", "count", "higher", "timed loop: operations timed"),
    def(
        "host.memcpy_mb_per_s",
        "MB/s",
        "higher",
        "copy between buffers 4x the last-level cache, best of 5",
    ),
    def("trace.replay_ms", "ms", "lower", "median wall time of one traced replay"),
    def("trace.coverage_share", "share", "higher", "trace.replay_ms / storm.query_ms_serial"),
    def(
        "trace.overhead_share",
        "share",
        "lower",
        "fastest replay with spans / fastest without, minus 1",
    ),
];

pub type Values = BTreeMap<&'static str, f64>;

fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of a measured loop with `queries` queries
/// per operation.
pub fn end_to_end(m: &Measured, queries: usize) -> Values {
    let q = queries as f64;
    let ops: Vec<(f64, f64)> = m.samples.iter().map(|s| (s.start, s.end)).collect();
    Values::from([
        ("query_ms_p50", med(&m.samples, |s| s.busy_ms) / q),
        ("queries_per_s", sliced_rate(&ops, m.window, 4) * q),
        ("peak_rss_mb", m.peak_rss_mb),
        ("setup_s", median(&m.setup_s)),
    ])
}

/// Per-layer metrics that come from the timed loop's `QueryStats`.
/// Ratios whose denominator is zero on this workload are left out.
fn counter_metrics(m: &Measured, queries: usize, out: &mut Values) {
    let c = |f: fn(&OpCounters) -> f64| med(&m.samples, |s| f(&s.counters));
    let mut ratio = |name, num: f64, den: f64| {
        if den > 0.0 {
            out.insert(name, num / den);
        }
    };
    ratio("layout.prune_dropped_share", c(|c| c.groups_pruned), c(|c| c.groups_total));
    ratio(
        "layout.io_used_share",
        c(|c| c.bytes_used),
        c(|c| c.bytes_issued) + c(|c| c.cache_hit_bytes),
    );
    ratio(
        "layout.io_cache_hit_share",
        c(|c| c.cache_hit_bytes),
        c(|c| c.cache_hit_bytes) + c(|c| c.cache_miss_bytes),
    );
    ratio("storm.filter_kept_share", c(|c| c.rows_selected), c(|c| c.rows_scanned));
    ratio("types.agg_reduction", c(|c| c.agg_rows_in), c(|c| c.agg_groups_out));
    if c(|c| c.agg_groups_out) > 0.0 {
        out.insert("types.agg_groups_out", c(|c| c.agg_groups_out));
    }
    out.extend([
        ("layout.afcs", c(|c| c.afcs)),
        ("layout.io_read_syscalls", c(|c| c.read_syscalls)),
        ("layout.io_bytes_issued", c(|c| c.bytes_issued)),
        ("layout.io_cache_insert_bytes", c(|c| c.cache_insert_bytes)),
        ("layout.io_prefetch_wait_ms", c(|c| c.prefetch_wait_ms)),
        ("layout.io_decode_calls", c(|c| c.decode_calls)),
        ("storm.plan_time_ms", c(|c| c.plan_ms)),
        ("storm.exec_time_ms", c(|c| c.exec_ms)),
        ("storm.queue_wait_ms", c(|c| c.queue_wait_ms)),
        ("storm.node_busy_max_ms", c(|c| c.node_busy_max_ms)),
        ("storm.pool_wait_ms", c(|c| c.pool_wait_ms)),
        ("storm.morsels_planned", c(|c| c.morsels_planned)),
        ("storm.morsels_stolen", c(|c| c.morsels_stolen)),
        ("storm.mover_sends", c(|c| c.mover_sends)),
        ("storm.mover_bytes", c(|c| c.bytes_moved)),
        ("storm.mover_blocked_sends", c(|c| c.mover_blocked_sends)),
        ("storm.mover_send_wait_ms", c(|c| c.mover_send_wait_ms)),
        ("storm.mover_peak_buffered_blocks", c(|c| c.mover_peak_buffered_blocks)),
        (
            "core.query_overhead_ms",
            med(&m.samples, |s| s.busy_ms - s.counters.plan_ms - s.counters.exec_ms),
        ),
        (
            "core.query_ms_p95",
            percentile(&m.samples.iter().map(|s| s.busy_ms).collect::<Vec<_>>(), 0.95)
                / queries as f64,
        ),
        ("core.query_samples", m.samples.len() as f64),
    ]);
}

/// Every per-layer metric that applies to the workload: counters from
/// the timed loop, times from the traced pass. A layer the workload
/// never enters (no aggregate, no CSV file, no chunk index) is absent.
pub fn per_layer(m: &Measured, r: &Report, queries: usize) -> Values {
    let mut out = Values::new();
    counter_metrics(m, queries, &mut out);

    // (metric, span name, scale from milliseconds)
    const SPANS: [(&str, &str, f64); 20] = [
        ("sql.parse_us", "sql.parse", 1e3),
        ("sql.bind_us", "sql.bind", 1e3),
        ("descriptor.compile_ms", "descriptor.compile", 1.0),
        ("descriptor.csv_decode_ms", "descriptor.csv_decode", 1.0),
        ("lint.verify_ms", "lint.verify", 1.0),
        ("index.lookup_us", "index.lookup", 1e3),
        ("layout.compile_ms", "layout.compile", 1.0),
        ("layout.prepare_us", "layout.prepare", 1e3),
        ("layout.plan_node_ms", "layout.plan_node", 1.0),
        ("layout.prune_ms", "layout.prune", 1.0),
        ("layout.cost_analyze_us", "layout.cost_analyze", 1e3),
        ("layout.morsel_build_us", "layout.morsel_build", 1e3),
        ("layout.io_fetch_miss_ms", "layout.io_fetch_miss", 1.0),
        ("layout.io_fetch_hit_ms", "layout.io_fetch_hit", 1.0),
        ("layout.extract_ms", "layout.extract", 1.0),
        ("storm.filter_ms", "storm.filter", 1.0),
        ("storm.partition_ms", "storm.partition", 1.0),
        ("types.agg_fold_ms", "types.agg_fold", 1.0),
        ("types.absorb_ms", "types.absorb", 1.0),
        ("core.build_ms", "core.build", 1.0),
    ];
    for (metric, span, scale) in SPANS {
        if let Some(ms) = r.layer_ms.get(span) {
            out.insert(metric, ms * scale);
        }
    }

    // Rates: work counted by the replay over the layer's self time.
    let mut rate = |name, work: u64, span: &str, per: f64| {
        if let Some(ms) = r.layer_ms.get(span).filter(|ms| **ms > 0.0 && work > 0) {
            out.insert(name, work as f64 / per / (ms / 1e3));
        }
    };
    rate("descriptor.csv_decode_mb_per_s", r.work.csv_bytes, "descriptor.csv_decode", 1e6);
    rate("layout.extract_mb_per_s", r.work.extract_bytes, "layout.extract", 1e6);
    rate("storm.filter_rows_per_s", r.work.filter_rows, "storm.filter", 1.0);
    rate("types.agg_fold_rows_per_s", r.work.fold_rows, "types.agg_fold", 1.0);
    rate("types.absorb_rows_per_s", r.work.absorb_rows, "types.absorb", 1.0);
    if let Some(mb) = out.get("layout.extract_mb_per_s").copied() {
        out.insert("layout.extract_frac_memcpy", mb / r.memcpy_mb_per_s);
    }
    if r.work.chunks_total > 0 {
        out.insert(
            "index.chunks_matched_share",
            r.work.chunks_matched as f64 / r.work.chunks_total as f64,
        );
    }

    let op_ms = med(&m.samples, |s| s.busy_ms);
    out.extend([
        ("storm.query_ms_serial", r.serial_ms),
        ("storm.parallel_speedup", r.serial_ms / op_ms),
        ("host.memcpy_mb_per_s", r.memcpy_mb_per_s),
        ("trace.replay_ms", r.replay_ms),
        ("trace.coverage_share", r.replay_ms / r.serial_ms),
        ("trace.overhead_share", r.overhead_share),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stage;
    use crate::workloads::{self, Sizes, DEFAULT_SEED};

    /// `BENCHMARK.json` at the repository root, five levels up.
    const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

    fn names(list: &Json) -> Vec<(String, String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let b = Json::parse(BENCHMARK).unwrap();
        let mine = |defs: &[MetricDef]| {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(b.get("end_to_end").unwrap()), mine(&END_TO_END));
        assert_eq!(names(b.get("per_layer").unwrap()), mine(&PER_LAYER));
        // Each workload's `why`, closed by the default seed and the
        // fingerprint its dataset must have at that seed.
        let listed: Vec<(&str, &str)> = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).unwrap().as_str().unwrap();
                (s("name"), s("why"))
            })
            .collect();
        let mine: Vec<(&str, String)> = workloads::all(&Sizes::full(DEFAULT_SEED))
            .iter()
            .map(|w| {
                let print = stage::recorded_fingerprint(w.dataset).unwrap();
                (w.name, format!("{} [seed {DEFAULT_SEED}, data {print:016x}]", w.why))
            })
            .collect();
        assert_eq!(listed.len(), mine.len());
        for ((name, why), (my_name, my_why)) in listed.iter().zip(&mine) {
            assert_eq!((name, why), (my_name, &my_why.as_str()));
            assert!(why.len() <= 200, "{name}: {}", why.len());
        }
        assert_eq!(b.get("run_seconds").unwrap().as_f64(), Some(crate::DEFAULT_SECONDS));
        for m in b.get("end_to_end").unwrap().as_arr().unwrap() {
            assert_eq!(m.get("bound").unwrap().as_f64(), Some(BOUND));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
        }
    }
}
