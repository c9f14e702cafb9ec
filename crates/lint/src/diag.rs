//! The diagnostics vocabulary: codes, severities, and rustc-style
//! source-snippet rendering.

use std::fmt;

use dv_types::Span;

/// Every diagnostic the analyzer can emit. `DV0xx` codes fire on
/// descriptor text, `DV1xx` codes need the resolved model (DV104 on
/// the descriptor, DV106 on a query), `DV2xx` codes are refutations
/// produced by the `dv-verify` semantic analysis pass, `DV3xx` codes
/// come from the query pass's predicate–extent analysis, and `DV4xx`
/// codes from the dv-cost static resource-bound analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Overlapping or shadowing `LOOP`s over one variable.
    Dv001,
    /// Attribute stored more than once in a single `DATASPACE`.
    Dv002,
    /// Schema attribute never stored nor implied by any layout.
    Dv003,
    /// `DATATYPE` auxiliary attribute never stored by any `DATASPACE`.
    Dv004,
    /// Attribute both stored explicitly and bound implicitly.
    Dv005,
    /// Empty, non-positive-stride or 64-bit-overflowing loop / binding
    /// range.
    Dv006,
    /// Storage `DIR` entry referenced by no file template.
    Dv007,
    /// Layout yields AFC runs smaller than one I/O coalescing unit at
    /// high file fan-in — reads degenerate to a seek per file.
    Dv104,
    /// Degenerate aggregation: a `GROUP BY` key or an `AVG`/`SUM`
    /// argument is a non-stored coordinate the descriptor pins to a
    /// single value.
    Dv106,
    /// Two DATA items claim overlapping byte ranges of one file.
    Dv201,
    /// A layout access is out of bounds w.r.t. the observed file size.
    Dv202,
    /// Files of one aligned group disagree on iteration counts.
    Dv203,
    /// A DATASPACE region is dead: no query can ever reach its bytes.
    Dv204,
    /// The result is statically empty: an attribute's range is empty,
    /// no file passes the planner's file filter, or the predicate is
    /// false over the dataset's or every file's extents.
    Dv301,
    /// Predicate is tautological over the dataset's extents: it can
    /// never filter anything.
    Dv302,
    /// No top-level conjunct is free of prune blockers (UDF calls,
    /// non-finite constants): nothing prunes, and a UDF in every
    /// conjunct runs on every row.
    Dv303,
    /// Per-group prune summary (informational note).
    Dv304,
    /// Predicate constrains a coordinate dimension the descriptor
    /// never varies.
    Dv305,
    /// The plan's static byte bound exceeds a declared byte budget.
    Dv401,
    /// The mover wire-byte bound exceeds what the declared link model
    /// can carry within the deadline.
    Dv403,
    /// The group-cardinality bound exceeds a declared memory budget.
    Dv404,
    /// Cost summary naming the estimate-dominating stage
    /// (informational note).
    Dv405,
}

impl Code {
    /// The registry row for this code (name, default severity,
    /// summary, documentation anchor).
    pub fn info(&self) -> &'static crate::CodeInfo {
        crate::CODE_REGISTRY
            .iter()
            .find(|i| i.code == *self)
            .expect("every Code variant has a registry row")
    }

    pub fn as_str(&self) -> &'static str {
        self.info().name
    }

    /// The severity this code carries unless a pass overrides it.
    pub fn default_severity(&self) -> Severity {
        self.info().severity
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: never trips `--deny-warnings` or exit codes.
    Note,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => f.write_str("note"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding, anchored to a byte span of the analyzed source.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub span: Span,
    pub message: String,
    pub help: Option<String>,
}

impl Diagnostic {
    /// Construct a diagnostic with the code's registry-default
    /// severity — the one constructor every pass should use, so that
    /// severity policy lives in a single table.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            span,
            message: message.into(),
            help: None,
        }
    }

    pub fn warning(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Warning, span, message: message.into(), help: None }
    }

    pub fn error(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Error, span, message: message.into(), help: None }
    }

    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Render the diagnostic against the source it was produced from:
    ///
    /// ```text
    /// warning[DV003]: schema attribute `SGAS` is never stored
    ///   --> ipars.desc:8:1
    ///    |
    ///  8 | SGAS = float
    ///    | ^^^^^^^^^^^^
    ///    = help: remove it or store it in a DATASPACE
    /// ```
    ///
    /// Spans covering several lines underline the first line only.
    pub fn render(&self, source: &str, origin: &str) -> String {
        let (line, col) = self.span.line_col(source);
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        let line_no = line.to_string();
        let gutter = " ".repeat(line_no.len());
        out.push_str(&format!("{gutter}--> {origin}:{line}:{col}\n"));

        if let Some(text) = source.lines().nth(line - 1) {
            let start_in_line = col - 1;
            // Clip the underline to the first line of the span.
            let span_len = self.span.end.saturating_sub(self.span.start).max(1);
            let avail = text.len().saturating_sub(start_in_line).max(1);
            let carets = "^".repeat(span_len.min(avail));
            out.push_str(&format!("{gutter} |\n"));
            out.push_str(&format!("{line_no} | {text}\n"));
            out.push_str(&format!("{gutter} | {}{carets}\n", " ".repeat(start_in_line)));
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("{gutter} = help: {help}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_span() {
        let src = "[S]\nBAD = float\nGOOD = int\n";
        let start = src.find("BAD").unwrap();
        let d = Diagnostic::warning(
            Code::Dv003,
            Span::new(start, start + "BAD = float".len()),
            "schema attribute `BAD` is never stored",
        )
        .with_help("store it or drop it");
        let r = d.render(src, "t.desc");
        assert!(r.contains("warning[DV003]"), "{r}");
        assert!(r.contains("--> t.desc:2:1"), "{r}");
        assert!(r.contains("2 | BAD = float"), "{r}");
        assert!(r.contains("^^^^^^^^^^^"), "{r}");
        assert!(r.contains("= help: store it or drop it"), "{r}");
    }

    #[test]
    fn render_survives_dummy_span() {
        let d = Diagnostic::error(Code::Dv301, Span::DUMMY, "boom");
        let r = d.render("abc", "q");
        assert!(r.contains("error[DV301]: boom"), "{r}");
        assert!(r.contains("--> q:1:1"), "{r}");
    }

    #[test]
    fn codes_are_distinct() {
        let all = [
            Code::Dv001,
            Code::Dv002,
            Code::Dv003,
            Code::Dv004,
            Code::Dv005,
            Code::Dv006,
            Code::Dv007,
            Code::Dv104,
            Code::Dv106,
            Code::Dv201,
            Code::Dv202,
            Code::Dv203,
            Code::Dv204,
            Code::Dv301,
            Code::Dv302,
            Code::Dv303,
            Code::Dv304,
            Code::Dv305,
            Code::Dv401,
            Code::Dv403,
            Code::Dv404,
            Code::Dv405,
        ];
        let mut names: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert_eq!(all.len(), crate::CODE_REGISTRY.len());
    }

    #[test]
    fn new_uses_registry_severity() {
        let d = Diagnostic::new(Code::Dv204, Span::DUMMY, "dead region");
        assert_eq!(d.severity, Severity::Warning);
        let d = Diagnostic::new(Code::Dv201, Span::DUMMY, "overlap");
        assert_eq!(d.severity, Severity::Error);
        let d = Diagnostic::new(Code::Dv304, Span::DUMMY, "prune summary");
        assert_eq!(d.severity, Severity::Note);
    }

    #[test]
    fn note_sorts_below_warning() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }
}
