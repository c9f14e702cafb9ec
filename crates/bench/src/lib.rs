//! # dv-bench
//!
//! Benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§5). Two entry styles:
//!
//! * `repro_*` binaries — print the paper-style tables/series at
//!   realistic (scaled-down) dataset sizes; `repro_all` runs the whole
//!   evaluation. Feed their output to EXPERIMENTS.md.
//! * criterion benches (`cargo bench`) — smaller configurations with
//!   statistical repetition, one bench per figure plus ablations and
//!   microbenchmarks.
//!
//! Datasets are staged once under `target/dv-bench-data` and reused
//! across runs (a JSON marker records the generating configuration).
//! Set `DV_QUICK=1` to shrink every dataset ~8× for smoke runs.

pub mod queries;
pub mod stage;

use std::time::{Duration, Instant};

/// Smallest-of-N timing of a fallible operation (page cache is warm in
/// all runs, matching the relative-shape goal; see EXPERIMENTS.md).
pub fn time_best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(n >= 1);
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..n {
        let start = Instant::now();
        let v = f();
        let d = start.elapsed();
        if d < best {
            best = d;
        }
        out = Some(v);
    }
    (out.unwrap(), best)
}

/// Drop the OS page cache (requires root; silently skipped when not
/// permitted). The paper's evaluation is disk-bound — its DBMS
/// comparison hinges on the 3× storage inflation costing 3× the I/O —
/// so the repro binaries measure cold-cache runs.
fn drop_caches() -> bool {
    let _ = std::process::Command::new("sync").status();
    std::fs::write("/proc/sys/vm/drop_caches", "3").is_ok()
}

/// Time cold-cache runs of `f` (caches dropped before each of two
/// runs; minimum reported — cold I/O on virtualized disks is noisy).
/// Falls back to warm runs when cache dropping is not permitted.
pub fn time_cold<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..2 {
        drop_caches();
        let start = Instant::now();
        let v = f();
        let d = start.elapsed();
        if d < best {
            best = d;
        }
        out = Some(v);
    }
    (out.unwrap(), best)
}

/// Pre-read every file under `dir` so warm-cache measurements start
/// warm (staging large datasets leaves dirty/evicted pages behind).
pub fn warm_dir(dir: &std::path::Path) {
    fn walk(d: &std::path::Path, sink: &mut u64) {
        let Ok(entries) = std::fs::read_dir(d) else { return };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, sink);
            } else if let Ok(data) = std::fs::read(&path) {
                *sink = sink.wrapping_add(data.len() as u64);
            }
        }
    }
    let mut sink = 0u64;
    walk(dir, &mut sink);
    std::hint::black_box(sink);
}

/// True when `DV_QUICK` asks for a fast smoke-sized run.
fn quick_mode() -> bool {
    std::env::var("DV_QUICK").map(|v| v == "1" || v.eq_ignore_ascii_case("true")).unwrap_or(false)
}

/// Divide `n` by 8 in quick mode (minimum 1).
pub fn scaled(n: usize) -> usize {
    if quick_mode() {
        (n / 8).max(1)
    } else {
        n
    }
}

/// Minimum over `n` runs of a measured quantity (used for the
/// simulated-cluster times, whose per-node maxima are noisy on a
/// timeshared host).
pub fn min_over<T>(n: usize, mut f: impl FnMut() -> (T, Duration)) -> (T, Duration) {
    assert!(n >= 1);
    let mut best: Option<(T, Duration)> = None;
    for _ in 0..n {
        let (v, d) = f();
        match &best {
            Some((_, bd)) if *bd <= d => {}
            _ => best = Some((v, d)),
        }
    }
    best.unwrap()
}

/// Render a markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Format a duration in milliseconds with 1 decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Format a ratio like `1.13x`.
pub fn ratio(a: Duration, b: Duration) -> String {
    if b.is_zero() {
        return "-".into();
    }
    format!("{:.2}x", a.as_secs_f64() / b.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_best_of_returns_min() {
        let mut calls = 0;
        let (_v, d) = time_best_of(3, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(calls, 3);
        assert!(d >= Duration::from_millis(1));
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.0");
        assert_eq!(ratio(Duration::from_secs(2), Duration::from_secs(1)), "2.00x");
    }
}
