//! `dv_e2e diff A B [BENCHMARK.json]`: compare two sides' end-to-end
//! metrics against the bounds the benchmark fixed. A side is one
//! result file or a directory of them (each file one run).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's own run-to-run spread exceeds the bound, so a move of
    /// that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `(relative change, verdict)` of one metric on one workload. The
/// change is signed so that positive means B is worse than A.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
    let noisy = [a, b].iter().any(|side| iqr_share(side).is_some_and(|s| s > bound));
    let verdict = if noisy {
        // Too noisy to read the medians — unless the sides do not even
        // overlap in B's favour.
        let b_always_better =
            a.iter().all(|&x| b.iter().all(|&y| if lower_is_better { y < x } else { y > x }));
        if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Per workload: per end-to-end metric the values of every run, plus
/// the worst `failed_share` seen.
#[derive(Default)]
struct Side {
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed_share: BTreeMap<String, f64>,
    runs: usize,
}

impl Side {
    fn values(&self, workload: &str, metric: &str) -> Option<&Vec<f64>> {
        self.metrics.get(workload)?.get(metric)
    }
}

fn load_file(path: &Path, side: &mut Side) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no `workloads` array", path.display()))?;
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        let share = w.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        let worst = side.failed_share.entry(name.to_string()).or_default();
        *worst = worst.max(share);
        if let Some(Json::Obj(metrics)) = w.get("end_to_end") {
            for (metric, v) in metrics {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    side.metrics
                        .entry(name.to_string())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    side.runs += 1;
    Ok(())
}

fn load_side(path: &Path) -> Result<Side, String> {
    let mut side = Side::default();
    if path.is_dir() {
        let mut files: Vec<_> = fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("result") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        for f in &files {
            load_file(f, &mut side)?;
        }
    } else {
        load_file(path, &mut side)?;
    }
    if side.runs == 0 {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(side)
}

/// `metric -> (lower_is_better, bound)` from `BENCHMARK.json`.
fn load_bounds(path: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without `bound`")?;
            Ok((name.to_string(), (better == "lower", bound)))
        })
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = load_bounds(benchmark)?;
    let (sa, sb) = (load_side(a)?, load_side(b)?);
    println!("A: {} ({} runs)   B: {} ({} runs)", a.display(), sa.runs, b.display(), sb.runs);
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    // Every gated metric on every workload either side ran: one that a
    // side lacks cannot be shown not to have regressed.
    let workloads: BTreeSet<&String> =
        sa.failed_share.keys().chain(sb.failed_share.keys()).collect();
    let mut clean = true;
    for workload in workloads {
        for (metric, &(lower, bound)) in &bounds {
            let (Some(va), Some(vb)) = (sa.values(workload, metric), sb.values(workload, metric))
            else {
                clean = false;
                let lacking = if sa.values(workload, metric).is_none() { "A" } else { "B" };
                println!("{workload:<18} {metric:<14} missing on side {lacking}: regressed");
                continue;
            };
            let (worse, verdict) = judge(va, vb, lower, bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<18} {metric:<14} {:>14.4} {:>14.4} {:>8.1}% {:>5.0}%  {}",
                median(va),
                median(vb),
                worse * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
        if let (Some(fa), Some(fb)) = (sa.failed_share.get(workload), sb.failed_share.get(workload))
        {
            if fb > fa {
                clean = false;
                println!("{workload:<18} failed_share rose from {fa} to {fb}: regressed");
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // Within the bound either way.
        assert_eq!(judge(&steady, &[104.0, 105.0, 103.0, 104.5], true, 0.10).1, Verdict::Ok);
        assert_eq!(judge(&steady, &[80.0, 81.0, 79.0, 80.0], true, 0.10).1, Verdict::Ok);
        // Worse by more than the bound, in the metric's own direction.
        let (worse, v) = judge(&steady, &[120.0, 121.0, 119.0, 120.0], true, 0.10);
        assert!(worse > 0.19 && v == Verdict::Regressed);
        assert_eq!(judge(&steady, &[120.0, 121.0, 119.0, 120.0], false, 0.10).1, Verdict::Ok);
        assert_eq!(judge(&steady, &[80.0, 81.0, 79.0, 80.0], false, 0.10).1, Verdict::Regressed);
        // A side noisier than the bound cannot be judged...
        let noisy = [70.0, 100.0, 130.0, 160.0];
        assert_eq!(judge(&noisy, &steady, true, 0.10).1, Verdict::Unresolved);
        // ...unless every B run beats every A run.
        assert_eq!(judge(&noisy, &[50.0, 51.0, 52.0, 53.0], true, 0.10).1, Verdict::Ok);
        // Single runs have no spread and are judged on the values.
        assert_eq!(judge(&[100.0], &[111.0], true, 0.10).1, Verdict::Regressed);
    }

    #[test]
    fn a_workload_or_metric_missing_on_either_side_is_not_clean() {
        let dir = std::env::temp_dir().join(format!("dv-e2e-diff-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let path = dir.join(name);
            fs::write(&path, text).unwrap();
            path
        };
        let bounds = write(
            "bounds.json",
            r#"{"end_to_end": [{"name": "m1", "better": "lower", "bound": 0.1},
                               {"name": "m2", "better": "higher", "bound": 0.1}]}"#,
        );
        let entry = |w: &str, metrics: &str| {
            format!(r#"{{"name": "{w}", "failed_share": 0, "end_to_end": {{{metrics}}}}}"#)
        };
        let both = r#""m1": {"value": 5.0, "unit": "ms"}, "m2": {"value": 7.0, "unit": "1/s"}"#;
        let only_m1 = r#""m1": {"value": 5.0, "unit": "ms"}"#;
        let set = |entries: &[String]| format!(r#"{{"workloads": [{}]}}"#, entries.join(","));
        let full = write("full.json", &set(&[entry("w1", both), entry("w2", both)]));
        let no_w2 = write("no_w2.json", &set(&[entry("w1", both)]));
        let no_m2 = write("no_m2.json", &set(&[entry("w1", both), entry("w2", only_m1)]));
        assert!(run(&full, &full, &bounds).unwrap());
        for lacking in [&no_w2, &no_m2] {
            assert!(!run(&full, lacking, &bounds).unwrap());
            assert!(!run(lacking, &full, &bounds).unwrap());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
