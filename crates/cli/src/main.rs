//! `datavirt` — command-line front end for automatic data
//! virtualization.
//!
//! ```text
//! datavirt schema   <descriptor>                      show the virtual table + file inventory
//! datavirt fmt      <descriptor>                      print the canonical descriptor form
//! datavirt validate <descriptor> --base <dir>         check files against the descriptor
//! datavirt lint     <descriptor> [<SQL>]              static analysis: DV0xx/DV1xx (+ DV3xx/DV4xx with SQL)
//! datavirt verify   <descriptor>                      semantic verification: DV2xx refutations + certificate
//! datavirt cost     <descriptor> <SQL>                static resource bounds + DV4xx budget checks
//! datavirt query    <descriptor> --base <dir> <SQL>   run a query  [--format table|csv] [--limit N] [--stats] [--timeout D] [--no-prune]
//! datavirt serve    <descriptor> --base <dir> --workload <file>   run a query workload concurrently
//! datavirt explain  <descriptor> --base <dir> <SQL>   show the AFC schedule
//! datavirt codegen  <descriptor> --base <dir>         render the generated index/extractor functions
//! datavirt generate ipars|titan --out <dir> [--layout l0..l6] [--scale N]
//! ```
//!
//! `serve` drives the query service plane: every line of the workload
//! file is submitted as a concurrent session, admitted under
//! `--max-concurrent` slots, each aborted mid-scan once `--timeout`
//! (e.g. `500ms`, `2s`) elapses.
//!
//! `query` and `explain` accept `--deny-warnings` to refuse execution
//! when the lint or verify passes report anything; `lint
//! --deny-warnings` turns warnings into a failing exit code (for CI).
//! `lint` and `verify` accept `--format json` (one shared schema) and
//! `--format sarif` for code-scanning upload. When a SQL argument is
//! given, `lint` also runs the query pass (DV106, DV301–DV305): the
//! query decided once against the descriptor's extents, and the
//! static cost pass (DV401, DV403–DV405): guaranteed resource bounds
//! checked against `--byte-budget`, `--group-memory-budget` and
//! `--link-bytes-per-sec`/`--link-deadline`. `verify` takes only a
//! descriptor; a SQL argument is a usage error. `cost` prints the full
//! bound report; the same budget flags on `query` configure
//! cost-based admission (statically over-budget queries are rejected
//! with a DV-coded error before any fragment runs).

mod args;

use std::process::ExitCode;

use dv_core::Virtualizer;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print!("{}", USAGE);
        return ExitCode::SUCCESS;
    }
    let parsed = match args::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
datavirt — automatic data virtualization for flat-file scientific data

USAGE:
  datavirt schema   <descriptor>
  datavirt fmt      <descriptor>
  datavirt validate <descriptor> --base <dir>
  datavirt lint     <descriptor> [\"<SQL>\"] [--format human|json|sarif] [--deny-warnings] [--byte-budget <B>] [--group-memory-budget <B>] [--link-bytes-per-sec <B> --link-deadline <dur>]
  datavirt verify   <descriptor> [--base <dir>] [--format human|json|sarif] [--deny-warnings]
  datavirt cost     <descriptor> \"<SQL>\" [--byte-budget <B>] [--group-memory-budget <B>] [--link-bytes-per-sec <B> --link-deadline <dur>] [--deny-warnings]
  datavirt query    <descriptor> --base <dir> \"<SQL>\" [--format table|csv] [--limit N] [--stats] [--timeout <dur>] [--threads <N>] [--morsel-bytes <B>] [--byte-budget <B>] [--group-memory-budget <B>] [--no-prune] [--deny-warnings]
  datavirt serve    <descriptor> --base <dir> --workload <file> [--max-concurrent <N>] [--timeout <dur>] [--threads <N>] [--morsel-bytes <B>]
  datavirt explain  <descriptor> --base <dir> \"<SQL>\" [--deny-warnings]
  datavirt codegen  <descriptor> --base <dir>
  datavirt generate <ipars|titan> --out <dir> [--layout <l0..l6>] [--scale <1..>]
";

fn run(a: &args::Args) -> Result<ExitCode, String> {
    match a.command.as_str() {
        "schema" => cmd_schema(a),
        "fmt" => cmd_fmt(a),
        "validate" => cmd_validate(a),
        "lint" => cmd_lint(a),
        "verify" => cmd_verify(a),
        "cost" => cmd_cost(a),
        "query" => cmd_query(a),
        "serve" => cmd_serve(a),
        "explain" => cmd_explain(a),
        "codegen" => cmd_codegen(a),
        "generate" => cmd_generate(a),
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
}

fn read_descriptor(a: &args::Args) -> Result<String, String> {
    let path = a.positional(0, "descriptor")?;
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn virtualizer(a: &args::Args) -> Result<Virtualizer, String> {
    let text = read_descriptor(a)?;
    let base = a.required("base")?;
    let mut builder = Virtualizer::builder(&text).storage_base(base);
    if let Some(limit) = a.options.get("max-concurrent") {
        let limit: usize =
            limit.parse().map_err(|_| "--max-concurrent must be an integer".to_string())?;
        builder = builder.max_concurrent(limit);
    }
    // An explicit --threads also raises the server-side ceiling so the
    // per-query request is honored as given.
    if let Some(t) = a.options.get("threads") {
        let t: usize = t.parse().map_err(|_| "--threads must be an integer".to_string())?;
        builder = builder.max_intra_node_threads(t.max(1));
    }
    // Budget flags configure cost-based admission: statically
    // over-budget queries are rejected with a DV-coded error.
    if let Some(b) = a.options.get("byte-budget") {
        let b: u64 = b.parse().map_err(|_| "--byte-budget must be an integer".to_string())?;
        builder = builder.max_plan_bytes(b);
    }
    if let Some(b) = a.options.get("group-memory-budget") {
        let b: u64 =
            b.parse().map_err(|_| "--group-memory-budget must be an integer".to_string())?;
        builder = builder.max_group_memory(b);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Static-analysis budgets from the `--byte-budget`,
/// `--group-memory-budget` and `--link-*` flags (the dv-cost DV401,
/// DV403 and DV404 checks).
fn cost_budgets(a: &args::Args) -> Result<dv_lint::CostBudgets, String> {
    let mut budgets = dv_lint::CostBudgets::default();
    if let Some(b) = a.options.get("byte-budget") {
        budgets.max_plan_bytes =
            Some(b.parse().map_err(|_| "--byte-budget must be an integer".to_string())?);
    }
    if let Some(b) = a.options.get("group-memory-budget") {
        budgets.max_group_memory =
            Some(b.parse().map_err(|_| "--group-memory-budget must be an integer".to_string())?);
    }
    match (a.options.get("link-bytes-per-sec"), a.options.get("link-deadline")) {
        (Some(bps), Some(deadline)) => {
            let bytes_per_sec: f64 =
                bps.parse().map_err(|_| "--link-bytes-per-sec must be a number".to_string())?;
            if bytes_per_sec <= 0.0 || !bytes_per_sec.is_finite() {
                return Err("--link-bytes-per-sec must be positive".to_string());
            }
            budgets.link =
                Some(dv_lint::LinkBudget { bytes_per_sec, deadline: parse_duration(deadline)? });
        }
        (None, None) => {}
        _ => {
            return Err(
                "--link-bytes-per-sec and --link-deadline must be given together".to_string()
            )
        }
    }
    Ok(budgets)
}

/// Per-query execution options from `--threads` (intra-node worker
/// pool size, default: available parallelism) and `--morsel-bytes`
/// (morsel size target, 0 = adaptive).
fn query_options(a: &args::Args) -> Result<dv_core::QueryOptions, String> {
    let mut opts = dv_core::QueryOptions::default();
    if let Some(t) = a.options.get("threads") {
        opts.intra_node_threads =
            t.parse().map_err(|_| "--threads must be an integer".to_string())?;
        if opts.intra_node_threads == 0 {
            return Err("--threads must be >= 1".to_string());
        }
    }
    if let Some(b) = a.options.get("morsel-bytes") {
        opts.morsel_bytes = b
            .parse()
            .map_err(|_| "--morsel-bytes must be an integer (0 = adaptive)".to_string())?;
    }
    if a.has("no-prune") {
        opts.no_prune = true;
    }
    Ok(opts)
}

/// Parse a duration like `500ms`, `2s`, or a bare number of seconds.
fn parse_duration(text: &str) -> Result<std::time::Duration, String> {
    let (number, scale) = match text.strip_suffix("ms") {
        Some(n) => (n, 1e-3),
        None => (text.strip_suffix('s').unwrap_or(text), 1.0),
    };
    let value: f64 = number
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration `{text}` (use e.g. 500ms, 2s, 1.5)"))?;
    if value < 0.0 || !value.is_finite() {
        return Err(format!("invalid duration `{text}`"));
    }
    Ok(std::time::Duration::from_secs_f64(value * scale))
}

fn cmd_schema(a: &args::Args) -> Result<ExitCode, String> {
    let text = read_descriptor(a)?;
    let model = dv_descriptor::compile(&text).map_err(|e| e.to_string())?;
    println!("dataset  : {}", model.dataset_name);
    println!("schema   : {}", model.schema.name);
    println!("indexed  : {}", model.index_attrs.join(", "));
    println!("nodes    : {}", model.nodes.join(", "));
    println!("files    : {}", model.files.len());
    println!();
    println!("{:<12}type", "attribute");
    for attr in model.schema.attributes() {
        println!("{:<12}{}", attr.name, attr.dtype);
    }
    println!();
    // Per-leaf-dataset file summary.
    let mut by_dataset: Vec<(String, usize, u64)> = Vec::new();
    for f in &model.files {
        let size = f.expected_size(&model.attr_sizes).unwrap_or(0);
        match by_dataset.iter_mut().find(|(n, _, _)| *n == f.dataset) {
            Some((_, count, bytes)) => {
                *count += 1;
                *bytes += size;
            }
            None => by_dataset.push((f.dataset.clone(), 1, size)),
        }
    }
    println!("{:<16}{:>8}{:>16}", "leaf dataset", "files", "bytes");
    for (name, count, bytes) in by_dataset {
        let shown = if bytes == 0 { "(chunked)".to_string() } else { bytes.to_string() };
        println!("{name:<16}{count:>8}{shown:>16}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_fmt(a: &args::Args) -> Result<ExitCode, String> {
    let text = read_descriptor(a)?;
    let ast = dv_descriptor::parse_descriptor(&text).map_err(|e| e.to_string())?;
    print!("{}", dv_descriptor::render(&ast));
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate(a: &args::Args) -> Result<ExitCode, String> {
    let v = virtualizer(a)?;
    let issues = v.verify_files();
    if issues.is_empty() {
        println!(
            "ok: {} files on {} node(s) match the descriptor",
            v.model().files.len(),
            v.model().node_count()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for issue in &issues {
            eprintln!("{issue}");
        }
        eprintln!("{} issue(s) found", issues.len());
        Ok(ExitCode::FAILURE)
    }
}

/// Collect every lint diagnostic for the descriptor (and SQL, when
/// given), kept separate per source so output formats can resolve
/// spans against the right text.
fn collect_lints(
    text: &str,
    sql: Option<&str>,
    budgets: &dv_lint::CostBudgets,
) -> Result<(Vec<dv_lint::Diagnostic>, Vec<dv_lint::Diagnostic>), String> {
    let mut diags = dv_lint::lint_descriptor(text).map_err(|e| e.to_string())?;
    let qdiags = match sql {
        Some(sql) => {
            let model = dv_descriptor::compile(text).map_err(|e| e.to_string())?;
            let udfs = dv_sql::UdfRegistry::with_builtins();
            let mut q = dv_lint::lint_query(&model, sql, &udfs).map_err(|e| e.to_string())?;
            match dv_lint::cost_query(&model, sql, &udfs, budgets) {
                Ok(cost) => q.extend(cost),
                // Planning stops at a misaligned file group: report it
                // as verify does, at the dataspace that disagrees.
                Err(e @ dv_types::DvError::Alignment(_)) => {
                    diags.extend(misaligned_groups(text, e)?)
                }
                Err(e) => return Err(e.to_string()),
            }
            q.sort_by_key(|d| (d.span.start, d.code));
            q
        }
        None => Vec::new(),
    };
    Ok((diags, qdiags))
}

/// The DV203 findings that explain the planner's alignment error `e`,
/// or `e` itself when the verifier found none.
fn misaligned_groups(text: &str, e: dv_types::DvError) -> Result<Vec<dv_lint::Diagnostic>, String> {
    let report = dv_lint::verify_descriptor(text, None).map_err(|e| e.to_string())?;
    let found: Vec<dv_lint::Diagnostic> = report
        .findings
        .into_iter()
        .map(|f| f.diag)
        .filter(|d| d.code == dv_lint::Code::Dv203)
        .collect();
    if found.is_empty() {
        return Err(e.to_string());
    }
    Ok(found)
}

fn render_mixed(
    desc_diags: &[dv_lint::Diagnostic],
    text: &str,
    origin: &str,
    query_diags: &[dv_lint::Diagnostic],
    sql: Option<&str>,
) -> String {
    let mut rendered: Vec<String> = desc_diags.iter().map(|d| d.render(text, origin)).collect();
    if let Some(sql) = sql {
        rendered.extend(query_diags.iter().map(|d| d.render(sql, "<query>")));
    }
    rendered.join("\n")
}

fn cmd_lint(a: &args::Args) -> Result<ExitCode, String> {
    let path = a.positional(0, "descriptor")?.to_string();
    let text = read_descriptor(a)?;
    let sql = a.positionals.get(1).map(|s| s.as_str());
    let (diags, qdiags) = collect_lints(&text, sql, &cost_budgets(a)?)?;
    let total = diags.len() + qdiags.len();
    let errors =
        diags.iter().chain(&qdiags).filter(|d| d.severity == dv_lint::Severity::Error).count();
    let notes =
        diags.iter().chain(&qdiags).filter(|d| d.severity == dv_lint::Severity::Note).count();
    // Notes are informational (e.g. the DV304 prune summary): they
    // never count against --deny-warnings.
    let warnings = total - errors - notes;
    match a.option_or("format", "human") {
        "human" => {
            if total == 0 {
                println!("ok: no diagnostics");
            } else {
                print!("{}", render_mixed(&diags, &text, &path, &qdiags, sql));
                println!("\n{warnings} warning(s), {errors} error(s)");
            }
        }
        "json" => {
            let emitted: Vec<dv_lint::Emitted> = diags
                .iter()
                .map(|d| dv_lint::Emitted::new(d, &text, &path))
                .chain(
                    qdiags.iter().map(|d| dv_lint::Emitted::new(d, sql.unwrap_or(""), "<query>")),
                )
                .collect();
            print!("{}", dv_lint::verify::report::to_json(&emitted, None, &[]));
        }
        "sarif" => {
            let emitted: Vec<dv_lint::Emitted> = diags
                .iter()
                .map(|d| dv_lint::Emitted::new(d, &text, &path))
                .chain(
                    qdiags.iter().map(|d| dv_lint::Emitted::new(d, sql.unwrap_or(""), "<query>")),
                )
                .collect();
            print!("{}", dv_lint::verify::report::to_sarif(&emitted));
        }
        other => return Err(format!("unknown --format `{other}` (human|json|sarif)")),
    }
    if errors > 0 || (warnings > 0 && a.has("deny-warnings")) {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Observed file sizes for `verify --base`: stat every file the
/// resolved model names. Missing files simply leave no entry, which
/// keeps the bounds property unproven rather than falsely safe.
fn observed_sizes(text: &str, base: &str) -> Result<dv_lint::verify::ObservedSizes, String> {
    let model = dv_descriptor::compile(text).map_err(|e| e.to_string())?;
    let base = std::path::Path::new(base);
    let mut sizes = dv_lint::verify::ObservedSizes::new();
    for f in &model.files {
        let node = &model.nodes[f.node];
        if let Ok(md) = std::fs::metadata(base.join(node).join(&f.rel_path)) {
            sizes.insert((node.clone(), f.rel_path.clone()), md.len());
        }
    }
    Ok(sizes)
}

fn cmd_verify(a: &args::Args) -> Result<ExitCode, String> {
    let path = a.positional(0, "descriptor")?.to_string();
    let text = read_descriptor(a)?;
    let sizes = match a.options.get("base") {
        Some(base) => Some(observed_sizes(&text, base)?),
        None => None,
    };
    let report = dv_lint::verify_descriptor(&text, sizes.as_ref()).map_err(|e| e.to_string())?;
    let certificate = report.certificate();
    let emitted: Vec<dv_lint::Emitted> = report
        .findings
        .iter()
        .map(|f| {
            dv_lint::Emitted::new(&f.diag, &text, &path)
                .with_counterexample(f.counterexample.as_ref())
        })
        .collect();

    match a.option_or("format", "human") {
        "human" => {
            let rendered: Vec<String> =
                report.findings.iter().map(|f| f.diag.render(&text, &path)).collect();
            if !rendered.is_empty() {
                print!("{}", rendered.join("\n"));
                println!();
            }
            for reason in &report.unproven {
                println!("unproven: {reason}");
            }
            println!("certificate: {certificate}");
        }
        "json" => print!(
            "{}",
            dv_lint::verify::report::to_json(&emitted, Some(certificate), &report.unproven)
        ),
        "sarif" => print!("{}", dv_lint::verify::report::to_sarif(&emitted)),
        other => return Err(format!("unknown --format `{other}` (human|json|sarif)")),
    }

    let errors = emitted.iter().filter(|e| e.diag.severity == dv_lint::Severity::Error).count();
    let notes = emitted.iter().filter(|e| e.diag.severity == dv_lint::Severity::Note).count();
    let warnings = emitted.len() - errors - notes;
    if errors > 0 || (warnings > 0 && a.has("deny-warnings")) {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `datavirt cost <descriptor> "<SQL>"` — print the plan's static
/// resource bounds (no data touched), then the DV4xx diagnostics for
/// whatever budgets were declared on the command line.
fn cmd_cost(a: &args::Args) -> Result<ExitCode, String> {
    let text = read_descriptor(a)?;
    let sql = a.positional(1, "SQL")?.to_string();
    let model = dv_descriptor::compile(&text).map_err(|e| e.to_string())?;
    let udfs = dv_sql::UdfRegistry::with_builtins();
    match dv_lint::cost::cost_report(&model, &sql, &udfs).map_err(|e| e.to_string())? {
        Some(report) => println!("{report}"),
        None => println!("cost bounds unavailable: chunked layouts need the on-disk chunk index"),
    }
    let budgets = cost_budgets(a)?;
    let diags = dv_lint::cost_query(&model, &sql, &udfs, &budgets).map_err(|e| e.to_string())?;
    let rendered: Vec<String> = diags.iter().map(|d| d.render(&sql, "<query>")).collect();
    if !rendered.is_empty() {
        println!();
        print!("{}", rendered.join("\n"));
    }
    let actionable = diags.iter().filter(|d| d.severity != dv_lint::Severity::Note).count();
    if actionable > 0 && a.has("deny-warnings") {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `--deny-warnings` pre-flight for query/explain: refuse to run when
/// the lint or verify passes report anything about the descriptor or
/// the SQL.
fn preflight_lint(a: &args::Args, sql: &str) -> Result<(), String> {
    if !a.has("deny-warnings") {
        return Ok(());
    }
    let path = a.positional(0, "descriptor")?.to_string();
    let text = read_descriptor(a)?;
    let (mut diags, mut qdiags) = collect_lints(&text, Some(sql), &cost_budgets(a)?)?;
    let report = dv_lint::verify_descriptor(&text, None).map_err(|e| e.to_string())?;
    diags.extend(report.findings.into_iter().map(|f| f.diag));
    diags.sort_by_key(|d| (d.span.start, d.code));
    // A misaligned group is reported by both passes (see `collect_lints`).
    diags.dedup();
    // Notes (e.g. the DV304 prune summary) are informational and must
    // not stop a query under --deny-warnings.
    diags.retain(|d| d.severity != dv_lint::Severity::Note);
    qdiags.retain(|d| d.severity != dv_lint::Severity::Note);
    let total = diags.len() + qdiags.len();
    if total == 0 {
        return Ok(());
    }
    let rendered = render_mixed(&diags, &text, &path, &qdiags, Some(sql));
    Err(format!("{rendered}\nrefusing to run: {total} diagnostic(s) with --deny-warnings"))
}

fn cmd_query(a: &args::Args) -> Result<ExitCode, String> {
    let sql = a.positional(1, "SQL")?.to_string();
    preflight_lint(a, &sql)?;
    let v = virtualizer(a)?;
    let sql = sql.as_str();
    let limit: usize =
        a.option_or("limit", "0").parse().map_err(|_| "--limit must be an integer".to_string())?;
    let opts = query_options(a)?;
    let timeout = match a.options.get("timeout") {
        Some(t) => Some(parse_duration(t)?),
        None => None,
    };
    let sub = dv_core::SubmitOptions { timeout, ..dv_core::SubmitOptions::default() };
    let (mut tables, stats) =
        v.service().execute_with(sql, &opts, &sub).map_err(|e| e.to_string())?;
    let table = tables.pop().ok_or_else(|| "query produced no client partitions".to_string())?;
    // `--limit 0` prints everything.
    let shown = if limit == 0 { table.rows.len() } else { limit };
    match a.option_or("format", "table") {
        "csv" => {
            let names: Vec<&str> =
                table.schema.attributes().iter().map(|c| c.name.as_str()).collect();
            println!("{}", names.join(","));
            for row in table.rows.iter().take(shown) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join(","));
            }
        }
        "table" => {
            let names: Vec<&str> =
                table.schema.attributes().iter().map(|c| c.name.as_str()).collect();
            println!("{}", names.join(" | "));
            for row in table.rows.iter().take(shown) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join(" | "));
            }
            if limit != 0 && table.rows.len() > limit {
                println!("... ({} rows total)", table.rows.len());
            }
        }
        other => return Err(format!("unknown --format `{other}` (table|csv)")),
    }
    if a.has("stats") {
        eprintln!(
            "rows: {} selected / {} scanned; bytes read: {}; AFCs: {}; plan: {:?}; node plan: {:?}; exec: {:?}",
            stats.rows_selected,
            stats.rows_scanned,
            stats.bytes_read,
            stats.afcs,
            stats.plan_time,
            stats.node_plan_time,
            stats.exec_time
        );
        eprintln!(
            "prune: {} of {} groups statically empty; {} provably full (filter skipped); bytes avoided: {}",
            stats.groups_pruned, stats.groups_total, stats.groups_full, stats.bytes_avoided,
        );
        eprintln!(
            "io: {} read syscalls; coalesce ratio: {:.1}; bytes issued/used: {}/{}; cache hit: {:.0}% ({} hit / {} miss bytes, {} inserted); decode: {} calls, {} KiB",
            stats.io.read_syscalls,
            stats.io.coalesce_ratio(),
            stats.io.bytes_issued,
            stats.io.bytes_used,
            stats.io.cache_hit_rate() * 100.0,
            stats.io.cache_hit_bytes,
            stats.io.cache_miss_bytes,
            stats.io.cache_insert_bytes,
            stats.io.decode_calls,
            stats.io.decode_bytes / 1024,
        );
        eprintln!(
            "morsels: {} planned, {} stolen; workers: {}; per-worker bytes: {}..{}; pool wait: {:?}",
            stats.morsels.planned,
            stats.morsels.stolen,
            stats.morsels.workers,
            stats.morsels.worker_bytes_min,
            stats.morsels.worker_bytes_max,
            stats.morsels.pool_wait,
        );
        eprintln!(
            "mover: {} sends, {} blocked ({} rebuilt into rows by the sender); peak reorder buffer: {} blocks",
            stats.mover.sends,
            stats.mover.blocked_sends,
            stats.mover.sender_rebuilds,
            stats.mover.peak_buffered_blocks
        );
        if stats.mover.agg_blocks > 0 {
            let reduction = stats
                .mover
                .agg_reduction()
                .map(|r| format!("{r:.1}x reduction"))
                .unwrap_or_else(|| "no groups".to_string());
            eprintln!(
                "agg pushdown: {} partial blocks; {} rows folded -> {} group entries shipped ({reduction})",
                stats.mover.agg_blocks, stats.mover.agg_rows_in, stats.mover.agg_groups_out,
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Run a workload file (one SQL query per line; `#` comments and
/// blank lines ignored) as concurrent sessions through the query
/// service, printing one result line per query and a throughput
/// summary. Fails if any query failed.
fn cmd_serve(a: &args::Args) -> Result<ExitCode, String> {
    let workload_path = a.required("workload")?.to_string();
    let workload = std::fs::read_to_string(&workload_path)
        .map_err(|e| format!("cannot read {workload_path}: {e}"))?;
    let queries: Vec<String> = workload
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if queries.is_empty() {
        return Err(format!("{workload_path} contains no queries"));
    }
    let timeout = match a.options.get("timeout") {
        Some(t) => Some(parse_duration(t)?),
        None => None,
    };
    let v = virtualizer(a)?;
    let sub = dv_core::SubmitOptions { timeout, ..dv_core::SubmitOptions::default() };
    let opts = query_options(a)?;

    // Submit everything up front: the service queues what the
    // admission limit does not immediately admit.
    let start = std::time::Instant::now();
    let sessions: Vec<(String, Result<dv_core::SessionHandle, String>)> = queries
        .iter()
        .map(|sql| (sql.clone(), v.submit(sql, &opts, &sub).map_err(|e| e.to_string())))
        .collect();
    let mut failures = 0usize;
    for (sql, session) in sessions {
        let shown: String = if sql.len() > 48 { format!("{}...", &sql[..45]) } else { sql.clone() };
        match session.and_then(|h| {
            let id = h.id();
            h.wait().map(|r| (id, r)).map_err(|e| e.to_string())
        }) {
            Ok((id, (tables, stats))) => {
                let rows: usize = tables.iter().map(|t| t.len()).sum();
                println!(
                    "{id}  ok    {rows} rows  exec {:?}  queued {:?}  {shown}",
                    stats.exec_time, stats.queue_wait
                );
            }
            Err(e) => {
                failures += 1;
                println!("-   error {e}  {shown}");
            }
        }
    }
    let elapsed = start.elapsed();
    println!(
        "{} quer(ies), {} failed, in {:?} ({:.1} queries/s, {} admission slot(s))",
        queries.len(),
        failures,
        elapsed,
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        v.service().max_concurrent(),
    );
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_explain(a: &args::Args) -> Result<ExitCode, String> {
    let sql = a.positional(1, "SQL")?.to_string();
    preflight_lint(a, &sql)?;
    let v = virtualizer(a)?;
    print!("{}", v.explain(&sql).map_err(|e| e.to_string())?);
    Ok(ExitCode::SUCCESS)
}

fn cmd_codegen(a: &args::Args) -> Result<ExitCode, String> {
    let v = virtualizer(a)?;
    print!("{}", v.render_generated_code());
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(a: &args::Args) -> Result<ExitCode, String> {
    let kind = a.positional(0, "dataset kind (ipars|titan)")?;
    let out = std::path::PathBuf::from(a.required("out")?);
    let scale: usize =
        a.option_or("scale", "1").parse().map_err(|_| "--scale must be an integer".to_string())?;
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    match kind {
        "ipars" => {
            let layout = match a.option_or("layout", "l0") {
                "l0" => dv_datagen::IparsLayout::L0,
                "l1" => dv_datagen::IparsLayout::I,
                "l2" => dv_datagen::IparsLayout::II,
                "l3" => dv_datagen::IparsLayout::III,
                "l4" => dv_datagen::IparsLayout::IV,
                "l5" => dv_datagen::IparsLayout::V,
                "l6" => dv_datagen::IparsLayout::VI,
                other => return Err(format!("unknown --layout `{other}` (l0..l6)")),
            };
            let cfg = dv_datagen::IparsConfig {
                realizations: 4,
                time_steps: 50,
                grid_per_dir: 250 * scale,
                dirs: 4,
                nodes: 4,
                seed: 42,
            };
            let descriptor =
                dv_datagen::ipars::generate(&out, &cfg, layout).map_err(|e| e.to_string())?;
            let desc_path = out.join("ipars.desc");
            std::fs::write(&desc_path, &descriptor).map_err(|e| e.to_string())?;
            println!(
                "generated {} rows ({} layout) under {}; descriptor: {}",
                cfg.rows(),
                layout.label(),
                out.display(),
                desc_path.display()
            );
        }
        "titan" => {
            let cfg = dv_datagen::TitanConfig {
                points: 100_000 * scale,
                tiles: (8, 8, 4),
                nodes: 1,
                seed: 42,
            };
            let descriptor = dv_datagen::titan::generate(&out, &cfg).map_err(|e| e.to_string())?;
            let desc_path = out.join("titan.desc");
            std::fs::write(&desc_path, &descriptor).map_err(|e| e.to_string())?;
            println!(
                "generated {} measurements under {}; descriptor: {}",
                cfg.points,
                out.display(),
                desc_path.display()
            );
        }
        other => return Err(format!("unknown dataset kind `{other}` (ipars|titan)")),
    }
    Ok(ExitCode::SUCCESS)
}
