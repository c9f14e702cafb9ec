//! Minimal argument parsing for the `datavirt` binary (no external
//! dependencies; the option surface is small and stable).

use std::collections::HashMap;

/// Parsed command line: subcommand, positional arguments, `--flag
/// value` options and bare `--switch`es.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    pub command: String,
    pub positionals: Vec<String>,
    pub options: HashMap<String, String>,
    pub switches: Vec<String>,
}

/// Options that take a value.
const VALUED: [&str; 15] = [
    "base",
    "format",
    "limit",
    "out",
    "scale",
    "layout",
    "workload",
    "timeout",
    "max-concurrent",
    "threads",
    "morsel-bytes",
    "byte-budget",
    "group-memory-budget",
    "link-bytes-per-sec",
    "link-deadline",
];

/// Bare `--switch`es; any other `--name` not in [`VALUED`] is an error,
/// so a typo or a retired switch is never silently ignored.
const SWITCHES: [&str; 3] = ["stats", "deny-warnings", "no-prune"];

/// Parse raw arguments (excluding argv[0]).
pub fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter().peekable();
    match it.next() {
        Some(cmd) if !cmd.starts_with('-') => args.command = cmd.clone(),
        Some(other) => return Err(format!("expected a subcommand, found `{other}`")),
        None => return Err("no subcommand given".into()),
    }
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if VALUED.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} requires a value"))?.clone();
                args.options.insert(name.to_string(), value);
            } else if SWITCHES.contains(&name) {
                args.switches.push(name.to_string());
            } else {
                return Err(format!("unknown option --{name}"));
            }
        } else {
            args.positionals.push(a.clone());
        }
    }
    if args.command == "verify" && args.positionals.len() > 1 {
        return Err("`verify` takes only a descriptor; to check a query against it, run \
                    `datavirt lint <descriptor> \"<SQL>\"`"
            .into());
    }
    Ok(args)
}

impl Args {
    /// Required positional argument by index.
    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positionals
            .get(idx)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing {what} argument"))
    }

    /// Required `--name value` option.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.options
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// Optional option with a default.
    pub fn option_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.options.get(name).map(|s| s.as_str()).unwrap_or(default)
    }

    /// True when `--name` was given as a switch.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_command() {
        let a = parse(&sv(&[
            "query",
            "ipars.desc",
            "--base",
            "/data",
            "SELECT * FROM T",
            "--format",
            "csv",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.positionals, vec!["ipars.desc", "SELECT * FROM T"]);
        assert_eq!(a.required("base").unwrap(), "/data");
        assert_eq!(a.option_or("format", "table"), "csv");
        assert!(a.has("stats"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn parses_serve_options() {
        let a = parse(&sv(&[
            "serve",
            "ipars.desc",
            "--base",
            "/data",
            "--workload",
            "queries.sql",
            "--max-concurrent",
            "8",
            "--timeout",
            "2s",
        ]))
        .unwrap();
        assert_eq!(a.command, "serve");
        assert_eq!(a.required("workload").unwrap(), "queries.sql");
        assert_eq!(a.option_or("max-concurrent", "4"), "8");
        assert_eq!(a.option_or("timeout", ""), "2s");
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&sv(&["query", "--base"])).is_err());
    }

    #[test]
    fn missing_subcommand_is_error() {
        assert!(parse(&sv(&[])).is_err());
        assert!(parse(&sv(&["--base", "x"])).is_err());
    }

    #[test]
    fn removed_switch_is_error() {
        let err = parse(&sv(&["query", "d.desc", "--no-agg-pushdown"])).unwrap_err();
        assert!(err.contains("--no-agg-pushdown"), "{err}");
    }

    #[test]
    fn misspelt_switch_is_error() {
        let err = parse(&sv(&["query", "d.desc", "--stat"])).unwrap_err();
        assert!(err.contains("--stat"), "{err}");
        assert!(parse(&sv(&["query", "d.desc", "--stats", "--no-prune"])).is_ok());
    }

    #[test]
    fn verify_with_sql_is_usage_error() {
        let err = parse(&sv(&["verify", "d.desc", "SELECT X FROM D"])).unwrap_err();
        assert!(err.contains("datavirt lint"), "{err}");
        assert!(parse(&sv(&["verify", "d.desc", "--base", "/data"])).is_ok());
    }

    #[test]
    fn accessor_errors() {
        let a = parse(&sv(&["fmt"])).unwrap();
        assert!(a.positional(0, "descriptor").is_err());
        assert!(a.required("base").is_err());
    }
}
