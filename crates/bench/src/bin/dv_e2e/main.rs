//! `dv_e2e` — the end-to-end benchmark: six named workloads, four
//! gated end-to-end metrics, and a per-layer trace taken from outside
//! the layers. See README.md beside this file.
//!
//! ```text
//! dv_e2e --all [--trace 0|1] [--seed N] [--seconds S] [--out DIR]
//! dv_e2e --workload NAME [--trace 0|1] [--seed N] [--seconds S] [--out DIR]
//! dv_e2e --smoke
//! dv_e2e stage [--seed N]
//! dv_e2e diff A B [BENCHMARK.json]
//! ```

mod diff;
mod json;
mod metrics;
mod oracle;
mod replay;
mod run;
mod stage;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use workloads::{Dataset, Sizes, Workload, DEFAULT_SEED};

const DEFAULT_SECONDS: f64 = 15.0;
/// Fewest timed operations in a loop, however long each takes.
const MIN_OPS: usize = 30;
const PAGE_CACHE: &str = "warm: staged files are re-read before every run; sandbox numbers, \
                          not a device's";

/// Where staged data, results and traces go: under cargo's target
/// directory, never in the source tree.
fn dv_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("dv-e2e")
}

struct RunConfig {
    sizes: Sizes,
    seconds: f64,
    min_ops: usize,
    /// Fresh build + first query repetitions behind `setup_s`.
    setups: usize,
    trace: bool,
    /// Buffer size of the host memcpy yardstick (`None`: 4x the LLC).
    memcpy_len: Option<usize>,
    stage_root: PathBuf,
    out: PathBuf,
}

fn metric_values(defs: &[MetricDef], values: &Values) -> Json {
    Json::Obj(
        defs.iter()
            .filter_map(|d| {
                let v = values.get(d.name)?;
                let entry = Json::obj([("value", Json::Num(*v)), ("unit", Json::str(d.unit))]);
                Some((d.name.to_string(), entry))
            })
            .collect(),
    )
}

fn print_values(defs: &[MetricDef], values: &Values) {
    for d in defs {
        match values.get(d.name) {
            Some(v) => println!("  {:<34} {:>18.6} {:<6} # {}", d.name, v, d.unit, d.source),
            None => println!("  {:<34} {:>18} {:<6} # {}", d.name, "n/a", d.unit, d.source),
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(cfg: &RunConfig) -> Json {
    Json::obj([
        ("commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("build", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("seed", Json::Num(cfg.sizes.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("min_operations", Json::Num(cfg.min_ops as f64)),
        ("setup_samples", Json::Num(cfg.setups as f64)),
        ("page_cache", Json::str(PAGE_CACHE)),
    ])
}

/// Outcome of one workload run: the result-file entry and the final
/// line the driver reads.
struct Outcome {
    correct: bool,
    entry: Json,
    final_line: Json,
}

fn run_workload(cfg: &RunConfig, w: &Workload) -> Result<Outcome, String> {
    let staged =
        stage::stage(&cfg.stage_root, w.dataset, &cfg.sizes).map_err(|e| format!("stage: {e}"))?;
    let t0 = Instant::now();
    let cache = staged.base.join(format!("oracle-{}.txt", w.name));
    let want = oracle::expected(&cfg.sizes, w.dataset, &w.queries, staged.fingerprint, &cache);
    let oracle_s = t0.elapsed().as_secs_f64();

    let measured = run::measure(&staged, w, &want, cfg.setups, cfg.seconds, cfg.min_ops)?;
    if measured.samples.is_empty() {
        return Err(format!("no operation succeeded: {:?}", measured.tally.errors));
    }
    let e2e = metrics::end_to_end(&measured, w.queries.len());

    // `(per-layer values, trace file)`, and what the replay got wrong.
    let mut traced = None;
    let mut replay_error = None;
    if cfg.trace {
        // Only now, after the loop's memory peak has been read.
        let memcpy = replay::memcpy_mb_per_s(cfg.memcpy_len);
        let report = replay::traced_pass(&staged, w, &want, memcpy)?;
        let path = cfg.out.join(format!("{}.trace.json", w.name));
        write_text(&path, &report.tracer.chrome_trace().compact())?;
        replay_error = report.verdict.clone().err();
        traced = Some((metrics::per_layer(&measured, &report, w.queries.len()), path));
    }

    let tally = &measured.tally;
    let correct = tally.failed == 0 && replay_error.is_none();
    let failed_share = tally.failed as f64 / tally.attempted as f64;
    println!(
        "== {} (seed {}, {} s, {} client{}): correct={correct} attempted={} failed={} \
         failed_share={failed_share}",
        w.name,
        cfg.sizes.seed,
        cfg.seconds,
        w.clients,
        if w.clients == 1 { "" } else { "s" },
        tally.attempted,
        tally.failed,
    );
    println!(
        "  dataset {}: {} rows, {} files, {:.1} MB stored ({:.2}x the {} MiB segment cache); \
         stage_s {:.3}{}, oracle_s {:.3}; page cache {PAGE_CACHE}",
        w.dataset.key(),
        staged.rows,
        staged.files,
        staged.stored_bytes as f64 / 1e6,
        staged.stored_bytes as f64 / w.opts.io.cache_bytes as f64,
        w.opts.io.cache_bytes >> 20,
        staged.stage_s,
        if staged.restaged { " (generated)" } else { " (verified)" },
        oracle_s,
    );
    for e in tally.errors.iter().chain(&replay_error) {
        println!("  FAILED: {e}");
    }
    print_values(&END_TO_END, &e2e);
    if let Some((layers, _)) = &traced {
        print_values(&PER_LAYER, layers);
    }

    let mut entry = vec![
        ("name".to_string(), Json::str(w.name)),
        ("why".into(), Json::str(w.why)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(tally.attempted as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        ("failed_share".into(), Json::Num(failed_share)),
        (
            "errors".into(),
            Json::Arr(tally.errors.iter().chain(&replay_error).map(Json::str).collect()),
        ),
        ("clients".into(), Json::Num(w.clients as f64)),
        (
            "dataset".into(),
            Json::obj([
                ("key", Json::str(w.dataset.key())),
                ("rows", Json::Num(staged.rows as f64)),
                ("files", Json::Num(staged.files as f64)),
                ("stored_bytes", Json::Num(staged.stored_bytes as f64)),
                ("segment_cache_bytes", Json::Num(w.opts.io.cache_bytes as f64)),
                ("fingerprint", Json::Str(format!("{:016x}", staged.fingerprint))),
                (
                    "drifted_from",
                    staged.drift_from.map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
                ),
            ]),
        ),
        ("stage_s".into(), Json::Num(staged.stage_s)),
        ("oracle_s".into(), Json::Num(oracle_s)),
        ("end_to_end".into(), metric_values(&END_TO_END, &e2e)),
        // Every timed operation and set-up sample, as measured.
        (
            "operation_ms".into(),
            Json::Arr(measured.samples.iter().map(|s| Json::Num(s.busy_ms)).collect()),
        ),
        (
            "setup_samples_s".into(),
            Json::Arr(measured.setup_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
    ];
    if let Some((layers, path)) = &traced {
        entry.push(("per_layer".into(), metric_values(&PER_LAYER, layers)));
        entry.push(("trace_file".into(), Json::Str(path.display().to_string())));
    }

    // The driver's line: the end-to-end metrics, or with `--trace 1`
    // every per-layer metric (0 where the layer does not apply).
    let reported = match &traced {
        None => metric_values(&END_TO_END, &e2e),
        Some((layers, _)) => {
            let mut all: Values = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
            all.extend(layers.iter().map(|(k, v)| (*k, *v)));
            metric_values(&PER_LAYER, &all)
        }
    };
    let final_line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", reported),
    ]);
    Ok(Outcome { correct, entry: Json::Obj(entry), final_line })
}

fn result_set(cfg: &RunConfig, entries: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::str("dv_e2e/1")),
        ("provenance", provenance(cfg)),
        ("workloads", Json::Arr(entries)),
    ])
}

fn write_text(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    write_text(path, &doc.pretty())
}

/// `--workload NAME`: run one workload in this process.
fn single(cfg: &RunConfig, name: &str) -> Result<bool, String> {
    let all = workloads::all(&cfg.sizes);
    let w = all.iter().find(|w| w.name == name).ok_or_else(|| {
        format!("unknown workload `{name}` (have: {})", workloads::NAMES.join(", "))
    })?;
    let outcome = run_workload(cfg, w)?;
    write_json(&cfg.out.join(format!("{name}.json")), &result_set(cfg, vec![outcome.entry]))?;
    println!("{}", outcome.final_line.compact());
    Ok(outcome.correct)
}

/// `--all`: one process per workload (so `peak_rss_mb` is each
/// workload's own), then one combined result file.
fn all(cfg: &RunConfig) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut entries = Vec::new();
    let mut correct = true;
    for name in workloads::NAMES {
        // A child that dies before writing must not leave an earlier
        // run's file to be merged as if it were this one's.
        let path = cfg.out.join(format!("{name}.json"));
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", path.display()));
            }
            _ => {}
        }
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &cfg.sizes.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&cfg.out)
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        correct &= status.success();
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        entries.extend(
            doc.get("workloads").and_then(Json::as_arr).unwrap_or_default().iter().cloned(),
        );
    }
    correct &= entries.iter().all(|e| e.get("correct") == Some(&Json::Bool(true)));
    let path = cfg.out.join("result.json");
    write_json(&path, &result_set(cfg, entries))?;
    println!(
        "\nall workloads {} in {:.1} s; results in {}",
        if correct { "correct" } else { "NOT correct" },
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(correct)
}

/// `--smoke`: every workload on tiny data with the traced pass, in
/// this process. Exercises every pinned entry point in seconds.
fn smoke(dir: &Path) -> Result<(), String> {
    let cfg = RunConfig {
        sizes: Sizes::smoke(DEFAULT_SEED),
        seconds: 0.2,
        min_ops: 3,
        setups: 1,
        trace: true,
        memcpy_len: Some(8 << 20),
        stage_root: dir.join("stage"),
        out: dir.join("results"),
    };
    let mut entries = Vec::new();
    for w in workloads::all(&cfg.sizes) {
        let outcome = run_workload(&cfg, &w)?;
        if !outcome.correct {
            return Err(format!("{}: {}", w.name, outcome.final_line.compact()));
        }
        // The line the driver would read must parse and carry every
        // per-layer metric.
        let line = Json::parse(&outcome.final_line.compact())?;
        let reported = line.get("metrics").ok_or("final line without metrics")?;
        if let Some(missing) = PER_LAYER.iter().find(|d| reported.get(d.name).is_none()) {
            return Err(format!("{}: final line lacks {}", w.name, missing.name));
        }
        entries.push(outcome.entry);
    }
    let path = cfg.out.join("result.json");
    write_json(&path, &result_set(&cfg, entries))?;
    // A result set diffed against itself is clean by construction.
    let benchmark = Json::obj([(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|d| {
                    Json::obj([
                        ("name", Json::str(d.name)),
                        ("better", Json::str(d.better)),
                        ("bound", Json::Num(metrics::BOUND)),
                    ])
                })
                .collect(),
        ),
    )]);
    let bench_path = cfg.out.join("bounds.json");
    write_json(&bench_path, &benchmark)?;
    if !diff::run(&path, &path, &bench_path)? {
        return Err("a result set regressed against itself".into());
    }
    Ok(())
}

struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    trace: bool,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        smoke: false,
        trace: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        out: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out" => a.out = Some(value("--out")?.into()),
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

/// Refuse to measure a configuration nobody meant to measure.
fn environment_guard() -> Result<(), String> {
    // Eight `DV_*` variables are read deep inside the library crates
    // and silently change what runs.
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("DV_"))
    {
        return Err(format!("{} is set; unset every DV_* variable first", k.to_string_lossy()));
    }
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with `cargo run --release`".into());
    }
    Ok(())
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let root = dv_root();
    match args.positional.first().map(String::as_str) {
        Some("diff") => {
            let [_, a, b, rest @ ..] = args.positional.as_slice() else {
                return Err("usage: dv_e2e diff A B [BENCHMARK.json]".into());
            };
            let benchmark = rest.first().map_or("BENCHMARK.json", String::as_str);
            return diff::run(Path::new(a), Path::new(b), Path::new(benchmark));
        }
        Some("stage") => {
            let sizes = Sizes::full(args.seed);
            for d in Dataset::ALL {
                let s = stage::stage(&root.join("stage"), d, &sizes).map_err(|e| e.to_string())?;
                println!(
                    "{:<14} {:>4} files {:>11} bytes  fingerprint {:016x}  {} in {:.2} s",
                    d.key(),
                    s.files,
                    s.stored_bytes,
                    s.fingerprint,
                    if s.restaged { "generated" } else { "verified" },
                    s.stage_s
                );
            }
            return Ok(true);
        }
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => {}
    }
    if args.smoke {
        let dir = root.join(format!("smoke-{}", std::process::id()));
        let result = smoke(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        return result.map(|()| true);
    }
    environment_guard()?;
    let cfg = RunConfig {
        sizes: Sizes::full(args.seed),
        seconds: args.seconds,
        min_ops: MIN_OPS,
        setups: run::SETUP_SAMPLES,
        trace: args.trace,
        memcpy_len: None,
        stage_root: root.join("stage"),
        out: args.out.unwrap_or_else(|| root.join("results")),
    };
    match (&args.workload, args.all) {
        (Some(name), false) => single(&cfg, name),
        (None, true) => all(&cfg),
        _ => Err("give exactly one of --all, --workload NAME, --smoke, stage, diff".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dv_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole benchmark on tiny data: staging, oracle, timed loop,
    /// traced replay through every pinned entry point, JSON emission,
    /// diff. An API change that would break the benchmark at bench
    /// time breaks `cargo test` instead.
    #[test]
    fn smoke_runs_every_workload_correctly() {
        let dir = std::env::temp_dir().join(format!("dv-e2e-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let result = smoke(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        result.unwrap();
    }

    #[test]
    fn arguments_parse() {
        let parse = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(parse("--all --trace 1").unwrap().trace);
        assert!(parse("--all --trace").is_err());
        assert!(parse("--all --trace yes").is_err());
        assert!(!parse("--workload x --trace 0").unwrap().trace);
        let a = parse("--workload x --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert!(a.trace && a.seed == 7 && a.seconds == 2.5 && a.workload.as_deref() == Some("x"));
        assert!(!parse("--all").unwrap().trace);
        assert_eq!(parse("diff a b").unwrap().positional, ["diff", "a", "b"]);
        assert!(parse("--bogus").is_err());
        assert!(parse("--seconds 0").is_err());
    }
}
