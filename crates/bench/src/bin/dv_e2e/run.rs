//! The measured part: set-up samples, warm-up, and the timed closed
//! loop. Everything here goes through `Virtualizer` exactly as a
//! library caller would; nothing is traced.

use std::time::{Duration, Instant};

use dv_core::{QueryStats, Virtualizer};

use crate::oracle::{self, Expected};
use crate::stage::Staged;
use crate::workloads::Workload;

pub const WARMUP_OPS: usize = 3;
/// Fresh build + first query repetitions behind `setup_s`.
pub const SETUP_SAMPLES: usize = 7;

/// `QueryStats` of one operation, summed over its queries (durations
/// in milliseconds; `peak_buffered_blocks` is a maximum).
#[derive(Debug, Clone, Default)]
pub struct OpCounters {
    pub afcs: f64,
    pub groups_total: f64,
    pub groups_pruned: f64,
    pub rows_scanned: f64,
    pub rows_selected: f64,
    pub bytes_moved: f64,
    pub read_syscalls: f64,
    pub bytes_issued: f64,
    pub bytes_used: f64,
    pub cache_hit_bytes: f64,
    pub cache_miss_bytes: f64,
    pub cache_insert_bytes: f64,
    pub prefetch_wait_ms: f64,
    pub decode_calls: f64,
    pub mover_sends: f64,
    pub mover_blocked_sends: f64,
    pub mover_send_wait_ms: f64,
    pub mover_peak_buffered_blocks: f64,
    pub agg_rows_in: f64,
    pub agg_groups_out: f64,
    pub morsels_planned: f64,
    pub morsels_stolen: f64,
    pub pool_wait_ms: f64,
    pub plan_ms: f64,
    pub exec_ms: f64,
    pub queue_wait_ms: f64,
    pub node_busy_max_ms: f64,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl OpCounters {
    fn add(&mut self, s: &QueryStats) {
        self.afcs += s.afcs as f64;
        self.groups_total += s.groups_total as f64;
        self.groups_pruned += s.groups_pruned as f64;
        self.rows_scanned += s.rows_scanned as f64;
        self.rows_selected += s.rows_selected as f64;
        self.bytes_moved += s.bytes_moved as f64;
        self.read_syscalls += s.io.read_syscalls as f64;
        self.bytes_issued += s.io.bytes_issued as f64;
        self.bytes_used += s.io.bytes_used as f64;
        self.cache_hit_bytes += s.io.cache_hit_bytes as f64;
        self.cache_miss_bytes += s.io.cache_miss_bytes as f64;
        self.cache_insert_bytes += s.io.cache_insert_bytes as f64;
        self.prefetch_wait_ms += ms(s.io.prefetch_wait);
        self.decode_calls += s.io.decode_calls as f64;
        self.mover_sends += s.mover.sends as f64;
        self.mover_blocked_sends += s.mover.blocked_sends as f64;
        self.mover_send_wait_ms += ms(s.mover.send_wait);
        self.mover_peak_buffered_blocks =
            self.mover_peak_buffered_blocks.max(s.mover.peak_buffered_blocks as f64);
        self.agg_rows_in += s.mover.agg_rows_in as f64;
        self.agg_groups_out += s.mover.agg_groups_out as f64;
        self.morsels_planned += s.morsels.planned as f64;
        self.morsels_stolen += s.morsels.stolen as f64;
        self.pool_wait_ms += ms(s.morsels.pool_wait);
        self.plan_ms += ms(s.plan_time);
        self.exec_ms += ms(s.exec_time);
        self.queue_wait_ms += ms(s.queue_wait);
        self.node_busy_max_ms += ms(s.node_busy.iter().copied().max().unwrap_or_default());
    }
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Seconds since the loop started: first submit, last return.
    pub start: f64,
    pub end: f64,
    /// Sum of the submit-to-return spans of the operation's queries.
    pub busy_ms: f64,
    pub counters: OpCounters,
}

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

pub struct Measured {
    pub tally: Tally,
    pub samples: Vec<Sample>,
    /// `(start, end)` of the timed window in loop seconds.
    pub window: (f64, f64),
    /// Seconds of each fresh build + first query.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
}

pub fn build(staged: &Staged) -> Result<Virtualizer, String> {
    Virtualizer::builder(&staged.descriptor)
        .storage_base(&staged.base)
        .build()
        .map_err(|e| format!("build: {e}"))
}

/// `VmHWM` of this process in MB (kB / 1024), 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one client needs to run operations of a workload.
#[derive(Clone, Copy)]
struct Client<'a> {
    /// The shared warm `Virtualizer`; `None` builds a fresh one per
    /// operation (`Workload::fresh_per_op`).
    warm: Option<&'a Virtualizer>,
    staged: &'a Staged,
    w: &'a Workload,
    want: &'a [Expected],
    /// Zero of the `Sample` clock.
    epoch: Instant,
}

impl Client<'_> {
    /// One operation: the workload's queries in order starting at
    /// `first`, each timed submit-to-return, each result checked (row
    /// count; `full` adds the digest) and dropped outside its span. A
    /// fresh-per-operation workload times build + query as one span
    /// (the CLI user pays both every time).
    fn op(&self, first: usize, full: bool) -> Result<Sample, String> {
        let w = self.w;
        let mut sample =
            Sample { start: 0.0, end: 0.0, busy_ms: 0.0, counters: OpCounters::default() };
        for k in 0..w.queries.len() {
            let qi = (first + k) % w.queries.len();
            let sql = &w.queries[qi].sql;
            let t0 = Instant::now();
            let fresh;
            let v = match self.warm {
                Some(v) => v,
                None => {
                    fresh = build(self.staged)?;
                    &fresh
                }
            };
            let out = v.query_with(sql, &w.opts);
            let t1 = Instant::now();
            let (tables, stats) = out.map_err(|e| format!("{sql}: {e}"))?;
            if k == 0 {
                sample.start = (t0 - self.epoch).as_secs_f64();
            }
            sample.end = (t1 - self.epoch).as_secs_f64();
            sample.busy_ms += ms(t1 - t0);
            sample.counters.add(&stats);
            oracle::verify(&tables, &self.want[qi], full).map_err(|e| format!("{sql}: {e}"))?;
        }
        Ok(sample)
    }

    /// Closed loop: the next operation is submitted only when the
    /// previous one returned, was row-counted and dropped. Runs until
    /// both `seconds` and `min_ops` are reached. The cycle starts at
    /// query `first`, moved on by `drift` every operation: clients
    /// with different drifts sweep through every relative phase within
    /// one run instead of locking into one per run.
    fn closed_loop(
        &self,
        first: usize,
        drift: usize,
        seconds: f64,
        min_ops: usize,
    ) -> (Tally, Vec<Sample>) {
        let mut tally = Tally::default();
        let mut samples = Vec::new();
        loop {
            let result = self.op(first + drift * samples.len(), false);
            let ok = result.is_ok();
            match result {
                Ok(s) => {
                    tally.record(Ok(()));
                    samples.push(s);
                }
                Err(e) => tally.record(Err(e)),
            }
            let enough = samples.len() >= min_ops && self.epoch.elapsed().as_secs_f64() >= seconds;
            // A system that fails every operation must not spin here.
            if enough || (!ok && tally.failed >= 10) {
                return (tally, samples);
            }
        }
    }
}

/// `count` set-up samples: seconds of a fresh `Virtualizer` + its first
/// query to completion.
fn setup_samples(
    staged: &Staged,
    w: &Workload,
    want: &Expected,
    count: usize,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    for _ in 0..count {
        let t0 = Instant::now();
        let v = build(staged)?;
        let out = v.query_with(&w.queries[0].sql, &w.opts);
        samples.push(t0.elapsed().as_secs_f64());
        tally.record(
            out.map_err(|e| format!("set-up query: {e}"))
                .and_then(|(tables, _)| oracle::verify(&tables, want, false)),
        );
    }
    Ok(samples)
}

/// Measure `w` on `staged`: set-up samples, warm-up, timed loop.
pub fn measure(
    staged: &Staged,
    w: &Workload,
    want: &[Expected],
    setups: usize,
    seconds: f64,
    min_ops: usize,
) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let setup_s = setup_samples(staged, w, &want[0], setups, &mut tally)?;

    let warm = if w.fresh_per_op { None } else { Some(build(staged)?) };
    let mut client = Client { warm: warm.as_ref(), staged, w, want, epoch: Instant::now() };
    for i in 0..WARMUP_OPS {
        // The first warm-up carries the full digest check.
        tally.record(client.op(0, i == 0).map(|_| ()));
    }

    client.epoch = Instant::now();
    let mut samples = Vec::new();
    if w.clients == 1 {
        let (t, s) = client.closed_loop(0, 0, seconds, min_ops);
        tally.merge(t);
        samples = s;
    } else {
        let stride = w.queries.len() / w.clients;
        let per_client = min_ops.div_ceil(w.clients);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..w.clients)
                .map(|c| {
                    scope.spawn(move || client.closed_loop(c * stride, c, seconds, per_client))
                })
                .collect();
            for h in handles {
                let (t, s) = h.join().expect("client thread panicked");
                tally.merge(t);
                samples.extend(s);
            }
        });
    }
    let window_end = samples.iter().map(|s| s.end).fold(0.0, f64::max);
    let peak = peak_rss_mb();

    // The loop dropped every result at once so none inflates peak
    // memory; close with one more operation checked in full.
    tally.record(client.op(0, true).map(|_| ()));

    Ok(Measured { tally, samples, window: (0.0, window_end), setup_s, peak_rss_mb: peak })
}
