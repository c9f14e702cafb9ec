//! Descriptor lints DV001–DV008 and DV104.
//!
//! DV001–DV007 run on the raw [`DescriptorAst`], so they fire even for
//! descriptors that fail semantic resolution. DV008 compares resolved
//! file extents and DV104 inspects resolved layouts and file groups,
//! so they additionally need the [`DatasetModel`].

use std::collections::{BTreeSet, HashMap};

use dv_descriptor::ast::{DataAst, DatasetAst, DescriptorAst, SpaceItem};
use dv_descriptor::expr::{Env, Expr};
use dv_descriptor::model::{items_byte_size, ResolvedItem, VarExtent};
use dv_descriptor::DatasetModel;
use dv_layout::afc::WorkingSet;
use dv_layout::groups::{consistent, find_file_groups};
use dv_types::Span;

use crate::diag::{Code, Diagnostic};

/// Evaluate `e` if it is a compile-time constant (no free variables).
fn const_eval(e: &Expr) -> Option<i64> {
    e.eval(&Env::new()).ok()
}

/// Every leaf dataset (one with its own DATASPACE or DATA files) in
/// declaration order.
fn leaf_datasets(ast: &DescriptorAst) -> Vec<&DatasetAst> {
    fn walk<'a>(ds: &'a DatasetAst, out: &mut Vec<&'a DatasetAst>) {
        if ds.dataspace.is_some() || matches!(ds.data, DataAst::Files(_)) {
            out.push(ds);
        }
        for child in &ds.children {
            walk(child, out);
        }
    }
    let mut out = Vec::new();
    walk(&ast.layout, &mut out);
    out
}

/// All datasets (leaf or grouping) in the layout tree.
fn all_datasets<'a>(ds: &'a DatasetAst, out: &mut Vec<&'a DatasetAst>) {
    // Recursion is fine: descriptor nesting is bounded by input size.
    let mut stack = vec![ds];
    while let Some(d) = stack.pop() {
        out.push(d);
        for c in &d.children {
            stack.push(c);
        }
    }
}

/// Attribute occurrences stored by a dataspace, in order.
fn stored_occurrences(space: &[SpaceItem], out: &mut Vec<(String, Span)>) {
    for item in space {
        match item {
            SpaceItem::Attrs(attrs) => out.extend(attrs.iter().cloned()),
            SpaceItem::Chunked { attrs, .. } => out.extend(attrs.iter().cloned()),
            SpaceItem::Loop { body, .. } => stored_occurrences(body, out),
        }
    }
}

/// Loop variables of a dataspace, in order.
fn loop_vars(space: &[SpaceItem], out: &mut Vec<(String, Span)>) {
    for item in space {
        if let SpaceItem::Loop { var, body, span, .. } = item {
            out.push((var.clone(), *span));
            loop_vars(body, out);
        }
    }
}

/// DV001: a LOOP nested inside another LOOP over the same variable
/// shadows it; sibling LOOPs over the same variable with overlapping
/// constant ranges double-count rows.
fn check_loops(space: &[SpaceItem], ancestors: &mut Vec<String>, diags: &mut Vec<Diagnostic>) {
    // Shadowing: inner loop variable already bound by an ancestor.
    for item in space {
        if let SpaceItem::Loop { var, body, span, .. } = item {
            if ancestors.iter().any(|a| a == var) {
                diags.push(
                    Diagnostic::new(
                        Code::Dv001,
                        *span,
                        format!(
                            "LOOP over `{var}` shadows an enclosing LOOP over the same variable"
                        ),
                    )
                    .with_help("the inner loop hides the outer iteration; rename one variable"),
                );
            }
            ancestors.push(var.clone());
            check_loops(body, ancestors, diags);
            ancestors.pop();
        }
    }
    // Sibling overlap: two loops at the same level over one variable
    // whose constant ranges intersect.
    let headers: Vec<(&String, &Expr, &Expr, Span)> = space
        .iter()
        .filter_map(|i| match i {
            SpaceItem::Loop { var, lo, hi, span, .. } => Some((var, lo, hi, *span)),
            _ => None,
        })
        .collect();
    for (i, (var_a, lo_a, hi_a, _)) in headers.iter().enumerate() {
        for (var_b, lo_b, hi_b, span_b) in headers.iter().skip(i + 1) {
            if var_a != var_b {
                continue;
            }
            let bounds = (const_eval(lo_a), const_eval(hi_a), const_eval(lo_b), const_eval(hi_b));
            if let (Some(alo), Some(ahi), Some(blo), Some(bhi)) = bounds {
                if alo <= bhi && blo <= ahi {
                    diags.push(
                        Diagnostic::new(
                            Code::Dv001,
                            *span_b,
                            format!(
                                "sibling LOOPs over `{var_a}` have overlapping ranges \
                                 ({alo}..{ahi} and {blo}..{bhi})"
                            ),
                        )
                        .with_help("overlapping ranges enumerate the same points twice"),
                    );
                }
            }
        }
    }
}

/// DV002: attribute stored more than once within one DATASPACE.
fn check_duplicate_stores(leaf: &DatasetAst, diags: &mut Vec<Diagnostic>) {
    let Some(space) = &leaf.dataspace else { return };
    let mut occ = Vec::new();
    stored_occurrences(space, &mut occ);
    let mut seen = BTreeSet::new();
    for (name, span) in occ {
        if !seen.insert(name.clone()) {
            diags.push(
                Diagnostic::new(
                    Code::Dv002,
                    span,
                    format!(
                        "attribute `{name}` is stored more than once in DATASPACE of \
                         dataset \"{}\"",
                        leaf.name
                    ),
                )
                .with_help("each stored attribute should appear exactly once per tuple"),
            );
        }
    }
}

/// Variable names bound by DATA file bindings of a dataset.
fn binding_vars(ds: &DatasetAst) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    if let DataAst::Files(bindings) = &ds.data {
        for b in bindings {
            for (var, _, _, _) in &b.ranges {
                out.push((var.clone(), b.span));
            }
        }
    }
    out
}

/// DV003 + DV004: schema / DATATYPE attributes that no DATASPACE ever
/// stores and no loop or binding ever binds implicitly.
fn check_dead_attrs(ast: &DescriptorAst, diags: &mut Vec<Diagnostic>) {
    let mut stored = BTreeSet::new();
    let mut bound = BTreeSet::new();
    let mut datasets = Vec::new();
    all_datasets(&ast.layout, &mut datasets);
    for ds in &datasets {
        if let Some(space) = &ds.dataspace {
            let mut occ = Vec::new();
            stored_occurrences(space, &mut occ);
            stored.extend(occ.into_iter().map(|(n, _)| n));
            let mut lv = Vec::new();
            loop_vars(space, &mut lv);
            bound.extend(lv.into_iter().map(|(n, _)| n));
        }
        bound.extend(binding_vars(ds).into_iter().map(|(n, _)| n));
    }

    for (name, _, span) in &ast.schema.attrs {
        if !stored.contains(name) && !bound.contains(name) {
            diags.push(
                Diagnostic::new(
                    Code::Dv003,
                    *span,
                    format!("schema attribute `{name}` is never stored or bound by any layout"),
                )
                .with_help("queries touching it will always fail; store it or remove it"),
            );
        }
    }
    for ds in &datasets {
        for (name, _, span) in &ds.extra_attrs {
            if !stored.contains(name) && !bound.contains(name) {
                diags.push(
                    Diagnostic::new(
                        Code::Dv004,
                        *span,
                        format!(
                            "DATATYPE attribute `{name}` of dataset \"{}\" is never stored",
                            ds.name
                        ),
                    )
                    .with_help("dead auxiliary attribute; no DATASPACE lists it"),
                );
            }
        }
    }
}

/// DV005: within a single leaf dataset, an attribute is both stored
/// explicitly in the DATASPACE and bound implicitly by a LOOP or a
/// file-binding range — the two sources of values will conflict.
fn check_double_binding(leaf: &DatasetAst, diags: &mut Vec<Diagnostic>) {
    let Some(space) = &leaf.dataspace else { return };
    let mut occ = Vec::new();
    stored_occurrences(space, &mut occ);
    let mut lv = Vec::new();
    loop_vars(space, &mut lv);
    let implicit: BTreeSet<String> = lv
        .into_iter()
        .map(|(n, _)| n)
        .chain(binding_vars(leaf).into_iter().map(|(n, _)| n))
        .collect();
    for (name, span) in &occ {
        if implicit.contains(name) {
            diags.push(
                Diagnostic::new(
                    Code::Dv005,
                    *span,
                    format!(
                        "attribute `{name}` is stored explicitly in dataset \"{}\" but also \
                         bound implicitly by a LOOP or file-binding range",
                        leaf.name
                    ),
                )
                .with_help("pick one source of values: store it or iterate over it, not both"),
            );
        }
    }
}

/// DV006: constant loop or binding ranges that enumerate nothing
/// (lo > hi) or never terminate conceptually (step <= 0).
fn check_degenerate_ranges(ds: &DatasetAst, diags: &mut Vec<Diagnostic>) {
    fn check_range(
        what: &str,
        var: &str,
        lo: &Expr,
        hi: &Expr,
        step: &Expr,
        span: Span,
        diags: &mut Vec<Diagnostic>,
    ) {
        if let Some(s) = const_eval(step) {
            if s <= 0 {
                diags.push(
                    Diagnostic::new(
                        Code::Dv006,
                        span,
                        format!("{what} over `{var}` has non-positive step {s}"),
                    )
                    .with_help("steps must be >= 1"),
                );
                return;
            }
        }
        if let (Some(l), Some(h)) = (const_eval(lo), const_eval(hi)) {
            if l > h {
                diags.push(
                    Diagnostic::new(
                        Code::Dv006,
                        span,
                        format!("{what} over `{var}` is empty: lower bound {l} > upper bound {h}"),
                    )
                    .with_help("an empty range yields no rows / no files"),
                );
            }
        }
    }
    fn walk_space(space: &[SpaceItem], diags: &mut Vec<Diagnostic>) {
        for item in space {
            if let SpaceItem::Loop { var, lo, hi, step, body, span } = item {
                check_range("LOOP", var, lo, hi, step, *span, diags);
                walk_space(body, diags);
            }
        }
    }
    if let Some(space) = &ds.dataspace {
        walk_space(space, diags);
    }
    if let DataAst::Files(bindings) = &ds.data {
        for b in bindings {
            for (var, lo, hi, step) in &b.ranges {
                check_range("file-binding range", var, lo, hi, step, b.span, diags);
            }
        }
    }
}

/// DV007: a storage `DIR[k]` entry that no file template can ever
/// reference. Skipped entirely when any template's directory index
/// cannot be enumerated statically.
fn check_unreferenced_dirs(ast: &DescriptorAst, diags: &mut Vec<Diagnostic>) {
    let mut referenced: BTreeSet<i64> = BTreeSet::new();
    let mut datasets = Vec::new();
    all_datasets(&ast.layout, &mut datasets);
    for ds in &datasets {
        let DataAst::Files(bindings) = &ds.data else { continue };
        for b in bindings {
            let vars = b.template.dir_index.variables();
            if vars.is_empty() {
                match const_eval(&b.template.dir_index) {
                    Some(k) => {
                        referenced.insert(k);
                    }
                    None => return, // un-analyzable: skip lint
                }
                continue;
            }
            // Enumerate the (usually tiny) cartesian product of the
            // constant binding ranges the index depends on.
            let mut envs: Vec<Env> = vec![Env::new()];
            for v in &vars {
                let Some((_, lo, hi, step)) = b.ranges.iter().find(|(rv, ..)| rv == v) else {
                    return; // index var not bound here: skip lint
                };
                let bounds = (const_eval(lo), const_eval(hi), const_eval(step));
                let (Some(l), Some(h), Some(s)) = bounds else { return };
                if s <= 0 || l > h || (h - l) / s > 10_000 {
                    return; // degenerate or too large to enumerate
                }
                let mut next = Vec::new();
                for env in &envs {
                    let mut x = l;
                    while x <= h {
                        let mut e = env.clone();
                        e.insert(v.clone(), x);
                        next.push(e);
                        x += s;
                    }
                }
                envs = next;
                if envs.len() > 100_000 {
                    return;
                }
            }
            for env in &envs {
                match b.template.dir_index.eval(env) {
                    Ok(k) => {
                        referenced.insert(k);
                    }
                    Err(_) => return,
                }
            }
        }
    }
    for d in &ast.storage.dirs {
        if !referenced.contains(&(d.index as i64)) {
            diags.push(
                Diagnostic::new(
                    Code::Dv007,
                    d.span,
                    format!("storage directory DIR[{}] is referenced by no file template", d.index),
                )
                .with_help("data placed there is invisible to the virtualizer"),
            );
        }
    }
}

fn range_iterations(e: &VarExtent) -> Option<i64> {
    match e {
        VarExtent::Point(_) => None,
        VarExtent::Range { lo, hi, step } => {
            if *step > 0 && lo <= hi {
                Some((hi - lo) / step + 1)
            } else {
                None
            }
        }
    }
}

/// Find the span of the LOOP over `var` inside the leaf dataset named
/// `dataset`, for anchoring DV008.
fn find_loop_span(ast: &DescriptorAst, dataset: &str, var: &str) -> Span {
    fn in_space(space: &[SpaceItem], var: &str) -> Option<Span> {
        for item in space {
            if let SpaceItem::Loop { var: v, body, span, .. } = item {
                if v == var {
                    return Some(*span);
                }
                if let Some(s) = in_space(body, var) {
                    return Some(s);
                }
            }
        }
        None
    }
    let mut datasets = Vec::new();
    all_datasets(&ast.layout, &mut datasets);
    datasets
        .iter()
        .find(|d| d.name == dataset)
        .and_then(|d| d.dataspace.as_ref())
        .and_then(|s| in_space(s, var))
        .unwrap_or(Span::DUMMY)
}

/// DV008: files of different datasets that group together at query
/// time (same node, overlapping extents) but whose shared loop
/// variables enumerate different numbers of points — their computed
/// row counts disagree, so aligned iteration would drop or duplicate
/// rows.
pub fn model_lints(ast: &DescriptorAst, model: &DatasetModel) -> Vec<Diagnostic> {
    let mut diags = check_group_alignment(ast, model);
    diags.extend(check_tiny_runs(ast, model));
    diags
}

fn check_group_alignment(ast: &DescriptorAst, model: &DatasetModel) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut reported: BTreeSet<(String, String, String)> = BTreeSet::new();
    for (i, a) in model.files.iter().enumerate() {
        for b in model.files.iter().skip(i + 1) {
            if a.dataset == b.dataset || a.node != b.node || !consistent(a, b) {
                continue;
            }
            for (var, ea) in &a.extents {
                let Some(eb) = b.extents.get(var) else { continue };
                let counts = (range_iterations(ea), range_iterations(eb));
                if let (Some(na), Some(nb)) = counts {
                    if na != nb {
                        let key = (a.dataset.clone(), b.dataset.clone(), var.clone());
                        if !reported.insert(key) {
                            continue;
                        }
                        diags.push(
                            Diagnostic::new(
                                Code::Dv008,
                                find_loop_span(ast, &a.dataset, var),
                                format!(
                                    "datasets \"{}\" and \"{}\" disagree on the number of \
                                     `{var}` iterations ({na} vs {nb}) for files that group \
                                     together",
                                    a.dataset, b.dataset
                                ),
                            )
                            .with_help(
                                "aligned file groups must compute identical row counts per \
                                 shared loop variable",
                            ),
                        );
                    }
                }
            }
        }
    }
    diags
}

/// One I/O coalescing unit: AFC runs below this size cannot amortize a
/// seek, so every row block costs one read syscall per grouped file.
const DV104_RUN_BYTES: u64 = 4096;
/// Fan-in below this rarely hurts — a couple of small-run files still
/// coalesce fine along the time axis within each file.
const DV104_FAN_IN: usize = 4;

/// Does any loop in `items` iterate over an index attribute?
fn has_index_loop(items: &[ResolvedItem], index: &BTreeSet<&str>) -> bool {
    items.iter().any(|i| match i {
        ResolvedItem::Loop { var, body, .. } => {
            index.contains(var.as_str()) || has_index_loop(body, index)
        }
        _ => false,
    })
}

/// Smallest contiguous byte run left in `items` once every loop over an
/// index attribute is sliced down to a single value — the granularity
/// of the AFC entries a point query produces. `None` when the layout is
/// chunked (data-dependent) or an attribute size is unknown.
fn min_sliced_run(
    items: &[ResolvedItem],
    index: &BTreeSet<&str>,
    sizes: &HashMap<String, usize>,
) -> Option<u64> {
    if items.iter().any(|i| matches!(i, ResolvedItem::Chunked { .. })) {
        return None;
    }
    if !has_index_loop(items, index) {
        // Nothing here gets sliced: the whole sequence reads as one
        // contiguous span.
        return items_byte_size(items, sizes);
    }
    let mut min: Option<u64> = None;
    for item in items {
        if let ResolvedItem::Loop { var, body, .. } = item {
            if index.contains(var.as_str()) || has_index_loop(body, index) {
                let r = min_sliced_run(body, index, sizes)?;
                min = Some(min.map_or(r, |m| m.min(r)));
            }
        }
    }
    min
}

/// Deepest index-attribute loop variable in `items` — the loop whose
/// slicing produces the minimal run, used to anchor DV104.
fn innermost_index_var<'a>(items: &'a [ResolvedItem], index: &BTreeSet<&str>) -> Option<&'a str> {
    let mut found = None;
    for item in items {
        if let ResolvedItem::Loop { var, body, .. } = item {
            if let Some(v) = innermost_index_var(body, index) {
                found = Some(v);
            } else if index.contains(var.as_str()) {
                found = Some(var.as_str());
            }
        }
    }
    found
}

/// DV104: a dataset whose files group together with high fan-in while
/// each point-query slice of its layout reads less than one coalescing
/// unit. Every row block then seeks across all grouped files and the
/// I/O scheduler's merged reads degenerate to seek-per-file traffic.
fn check_tiny_runs(ast: &DescriptorAst, model: &DatasetModel) -> Vec<Diagnostic> {
    let index: BTreeSet<&str> = model.index_attrs.iter().map(|s| s.as_str()).collect();
    if index.is_empty() {
        return Vec::new();
    }
    let working = WorkingSet::new(model, (0..model.schema.len()).collect());
    let ranges = HashMap::new();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    let mut diags = Vec::new();
    for node in 0..model.node_count() {
        for group in find_file_groups(model, node, &ranges, &working) {
            if group.len() < DV104_FAN_IN {
                continue;
            }
            for f in &group {
                if reported.contains(&f.dataset) {
                    continue;
                }
                // A file with no index loop is read once per query,
                // not re-sought per slice — never a seek storm.
                let Some(var) = innermost_index_var(&f.layout, &index) else {
                    continue;
                };
                let Some(run) = min_sliced_run(&f.layout, &index, &model.attr_sizes) else {
                    continue;
                };
                if run == 0 || run >= DV104_RUN_BYTES {
                    continue;
                }
                reported.insert(f.dataset.clone());
                diags.push(
                    Diagnostic::new(
                        Code::Dv104,
                        find_loop_span(ast, &f.dataset, var),
                        format!(
                            "dataset \"{}\" yields {run}-byte AFC runs per `{var}` value in \
                             {}-file groups — smaller than one {DV104_RUN_BYTES}-byte \
                             coalescing unit",
                            f.dataset,
                            group.len()
                        ),
                    )
                    .with_help(
                        "each row block seeks once per grouped file; store more rows per \
                         index value (or split the dataset across fewer files) so coalesced \
                         reads stay effective",
                    ),
                );
            }
        }
    }
    diags
}

/// Run DV001–DV007 over a parsed descriptor.
pub fn descriptor_lints(ast: &DescriptorAst) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let mut datasets = Vec::new();
    all_datasets(&ast.layout, &mut datasets);
    for ds in &datasets {
        if let Some(space) = &ds.dataspace {
            let mut stack = Vec::new();
            check_loops(space, &mut stack, &mut diags);
        }
        check_degenerate_ranges(ds, &mut diags);
    }
    for leaf in leaf_datasets(ast) {
        check_duplicate_stores(leaf, &mut diags);
        check_double_binding(leaf, &mut diags);
    }
    check_dead_attrs(ast, &mut diags);
    check_unreferenced_dirs(ast, &mut diags);
    diags
}
