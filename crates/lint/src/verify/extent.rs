//! Lenient elaboration of the layout AST into extent maps, plus the
//! bounds (DV202) and dead-region (DV204) checks.
//!
//! The resolver (`dv-descriptor::resolve`) *rejects* descriptors with
//! empty loops or colliding file paths before any model exists, with
//! an unspanned error and no witness. The verifier re-elaborates the
//! AST itself, tolerating those defects, so it can *refute* them with
//! a spanned diagnostic and a concrete counterexample. When the
//! descriptor does resolve, this elaboration enumerates exactly the
//! resolver's files, in the resolver's order.

use std::collections::BTreeMap;

use dv_descriptor::ast::{DataAst, DatasetAst, DescriptorAst, FileBinding, SpaceItem};
use dv_descriptor::expr::Env;
use dv_descriptor::model::ResolvedItem;
use dv_descriptor::CodecKind;
use dv_types::Span;

use super::domain::{AffineExtent, Dim};
use super::report::{Counterexample, Finding};
use crate::diag::{Code, Diagnostic};

/// Cap on binding-env expansion per descriptor; past this the verifier
/// reports "unproven" instead of enumerating.
const MAX_FILES: usize = 100_000;

/// One file the layout *would* produce, derived without the resolver.
#[derive(Debug, Clone)]
pub struct PseudoFile {
    pub dataset: String,
    /// Cluster node *name* (the model uses indices; names are stable
    /// across lenient and resolved elaboration).
    pub node: String,
    pub rel_path: String,
    pub env: Env,
    /// Live extent maps, in layout order.
    pub regions: Vec<AffineExtent>,
    /// Dead extent maps (some enclosing loop iterates zero times).
    pub dead: Vec<AffineExtent>,
    /// Declared (layout-implied) byte size — of the *logical* image;
    /// only affine codecs store it physically.
    pub expected_size: u64,
    /// Storage codec of the producing binding.
    pub codec: CodecKind,
    /// Span of the DATA file binding that produced this file.
    pub binding_span: Span,
}

/// Result of elaborating a whole descriptor.
#[derive(Debug, Default)]
pub struct Elaboration {
    pub files: Vec<PseudoFile>,
    /// Reasons parts of the layout could not be analyzed (chunked
    /// layouts, unevaluable bounds, overflow, expansion caps).
    pub unproven: Vec<String>,
}

/// Byte size per attribute, from the schema and every DATATYPE clause.
pub fn attr_sizes(ast: &DescriptorAst) -> BTreeMap<String, u64> {
    let mut sizes = BTreeMap::new();
    for (n, t, _) in &ast.schema.attrs {
        sizes.insert(n.to_ascii_uppercase(), t.size() as u64);
    }
    fn walk(ds: &DatasetAst, sizes: &mut BTreeMap<String, u64>) {
        for (n, t, _) in &ds.extra_attrs {
            sizes.insert(n.to_ascii_uppercase(), t.size() as u64);
        }
        for c in &ds.children {
            walk(c, sizes);
        }
    }
    walk(&ast.layout, &mut sizes);
    sizes
}

fn leaf_datasets(ast: &DescriptorAst) -> Vec<&DatasetAst> {
    // Mirrors the resolver's walk order: a dataset's own bindings
    // expand before its children, children in declaration order.
    fn walk<'a>(ds: &'a DatasetAst, out: &mut Vec<&'a DatasetAst>) {
        if ds.dataspace.is_some() && matches!(ds.data, DataAst::Files(_)) {
            out.push(ds);
        }
        for c in &ds.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(&ast.layout, &mut out);
    out
}

fn upper_env(env: &Env) -> Env {
    env.iter().map(|(k, v)| (k.to_ascii_uppercase(), *v)).collect()
}

/// Elaborate every leaf dataset's file bindings into [`PseudoFile`]s.
pub fn elaborate(ast: &DescriptorAst) -> Elaboration {
    let sizes = attr_sizes(ast);
    let mut out = Elaboration::default();
    for leaf in leaf_datasets(ast) {
        let space = leaf.dataspace.as_ref().expect("leaf has a dataspace");
        let DataAst::Files(bindings) = &leaf.data else { continue };
        for b in bindings {
            expand_binding(ast, leaf, space, b, &sizes, &mut out);
        }
    }
    out
}

fn expand_binding(
    ast: &DescriptorAst,
    leaf: &DatasetAst,
    space: &[SpaceItem],
    binding: &FileBinding,
    sizes: &BTreeMap<String, u64>,
    out: &mut Elaboration,
) {
    if !binding.codec.is_affine() {
        // Byte-level bounds exist only in the decoded image; record
        // counts still verify, but the physical file cannot be checked
        // against the layout, so `Safe` is off the table.
        out.unproven.push(format!(
            "dataset \"{}\": CODEC {} stores records in a non-affine encoding; physical \
             sizes are data-dependent and decode is checked at query time",
            leaf.name,
            binding.codec.descriptor_name()
        ));
    }
    let empty = Env::new();
    let mut ranges: Vec<(String, i64, i64, u64)> = Vec::new();
    for (var, lo, hi, step) in &binding.ranges {
        let upper = var.to_ascii_uppercase();
        let (Ok(lo), Ok(hi), Ok(step)) = (lo.eval(&empty), hi.eval(&empty), step.eval(&empty))
        else {
            out.unproven.push(format!(
                "dataset \"{}\": binding range of `{upper}` is not a compile-time constant",
                leaf.name
            ));
            return;
        };
        if step <= 0 || lo > hi {
            // DV006 territory; the binding yields no files.
            out.unproven.push(format!(
                "dataset \"{}\": binding range of `{upper}` is degenerate ({lo}:{hi}:{step})",
                leaf.name
            ));
            return;
        }
        let Some(count) = ResolvedItem::checked_loop_iterations(lo, hi, step) else {
            out.unproven.push(format!(
                "dataset \"{}\": binding range of `{upper}` ({lo}:{hi}:{step}) steps past the \
                 64-bit integer range",
                leaf.name
            ));
            return;
        };
        ranges.push((upper, lo, step, count));
    }

    let mut envs: Vec<Env> = vec![Env::new()];
    for (var, lo, step, count) in &ranges {
        let mut next = Vec::new();
        for env in &envs {
            // The count was checked: `v` never steps past `i64::MAX`.
            let mut v = *lo;
            for _ in 0..(*count).min(MAX_FILES as u64 + 1) {
                let mut e = env.clone();
                e.insert(var.clone(), v);
                next.push(e);
                v += step;
            }
        }
        envs = next;
        if envs.len() + out.files.len() > MAX_FILES {
            out.unproven.push(format!(
                "dataset \"{}\": binding expands past {MAX_FILES} files; not analyzed",
                leaf.name
            ));
            return;
        }
    }

    for env in envs {
        let env = upper_env(&env);
        let Ok(dir_slot) = binding.template.dir_index.eval(&env) else {
            out.unproven.push(format!(
                "dataset \"{}\": DIR index of a file template does not evaluate",
                leaf.name
            ));
            return;
        };
        let Some(dir) = usize::try_from(dir_slot)
            .ok()
            .and_then(|s| ast.storage.dirs.iter().find(|d| d.index == s))
        else {
            out.unproven.push(format!(
                "dataset \"{}\": file template references DIR[{dir_slot}] which is not declared",
                leaf.name
            ));
            return;
        };
        let Ok(name) = binding.template.render_name(&env) else {
            out.unproven.push(format!(
                "dataset \"{}\": file template uses a variable with no binding range",
                leaf.name
            ));
            return;
        };
        let rel_path = if dir.path.is_empty() { name } else { format!("{}/{}", dir.path, name) };

        let mut elab = SpaceElab { env: &env, sizes, regions: Vec::new(), dead: Vec::new() };
        let outcome = elab.items(space, 0, &mut Vec::new());
        let (regions, dead) = (elab.regions, elab.dead);
        match outcome {
            Ok(total) => out.files.push(PseudoFile {
                dataset: leaf.name.clone(),
                node: dir.node.clone(),
                rel_path,
                env,
                regions,
                dead,
                expected_size: total,
                codec: binding.codec,
                binding_span: binding.span,
            }),
            Err(reason) => {
                out.unproven.push(format!("dataset \"{}\": {reason}", leaf.name));
                return;
            }
        }
    }
}

/// Walks one DATASPACE under one binding env, accumulating extents.
struct SpaceElab<'a> {
    env: &'a Env,
    sizes: &'a BTreeMap<String, u64>,
    regions: Vec<AffineExtent>,
    dead: Vec<AffineExtent>,
}

impl SpaceElab<'_> {
    /// Elaborate `items` starting at absolute byte `base` under the
    /// open loop nest `dims`; returns the byte size of the sequence
    /// (one iteration's worth). `Err` carries an unproven reason.
    fn items(
        &mut self,
        items: &[SpaceItem],
        base: u64,
        dims: &mut Vec<Dim>,
    ) -> Result<u64, String> {
        let mut cursor = base;
        for item in items {
            match item {
                SpaceItem::Attrs(attrs) => {
                    let mut width = 0u64;
                    let mut names = Vec::with_capacity(attrs.len());
                    for (n, _) in attrs {
                        let upper = n.to_ascii_uppercase();
                        let Some(s) = self.sizes.get(&upper) else {
                            return Err(format!("stored attribute `{upper}` has no declared type"));
                        };
                        width += s;
                        names.push(upper);
                    }
                    if width == 0 {
                        return Err("empty attribute record".into());
                    }
                    let ext = AffineExtent {
                        base: cursor,
                        dims: dims.clone(),
                        row_bytes: width,
                        attrs: names,
                        span: item.span(),
                    };
                    if ext.is_dead() {
                        self.dead.push(ext);
                    } else {
                        self.regions.push(ext);
                        cursor = cursor
                            .checked_add(width)
                            .ok_or_else(|| "byte offsets overflow u64".to_string())?;
                    }
                }
                SpaceItem::Loop { var, lo, hi, step, body, span } => {
                    let evals = (lo.eval(self.env), hi.eval(self.env), step.eval(self.env));
                    let (Ok(lo), Ok(hi), Ok(step)) = evals else {
                        return Err(format!("bounds of LOOP {var} do not evaluate"));
                    };
                    let Some(count) = ResolvedItem::checked_loop_iterations(lo, hi, step) else {
                        return Err(format!(
                            "LOOP {var} ({lo}:{hi}:{step}) steps past the 64-bit integer range"
                        ));
                    };
                    // Body size is needed first to know this loop's
                    // stride; elaborate with a placeholder stride, then
                    // patch it into every extent the body produced.
                    let var = var.to_ascii_uppercase();
                    dims.push(Dim { var, lo, step, count, stride: 0, span: *span });
                    let depth = dims.len() - 1;
                    let first_region = self.regions.len();
                    let first_dead = self.dead.len();
                    let body_size = self.items(body, cursor, dims)?;
                    dims.pop();
                    for ext in self.regions[first_region..]
                        .iter_mut()
                        .chain(self.dead[first_dead..].iter_mut())
                    {
                        ext.dims[depth].stride = body_size;
                    }
                    let total = body_size
                        .checked_mul(count)
                        .ok_or_else(|| "byte offsets overflow u64".to_string())?;
                    cursor = cursor
                        .checked_add(total)
                        .ok_or_else(|| "byte offsets overflow u64".to_string())?;
                }
                SpaceItem::Chunked { .. } => {
                    return Err(
                        "CHUNKED layout has data-dependent extents; not verifiable".to_string()
                    );
                }
            }
        }
        Ok(cursor - base)
    }
}

/// DV204: report every dead region — bytes no iteration can reach.
pub fn check_dead_regions(files: &[PseudoFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: std::collections::BTreeSet<(String, usize)> = std::collections::BTreeSet::new();
    for f in files {
        for ext in &f.dead {
            let d = ext.dims.iter().find(|d| d.count == 0).expect("dead extent has a dead dim");
            // One report per (dataset, loop) across all its files.
            if !seen.insert((f.dataset.clone(), d.span.start)) {
                continue;
            }
            let diag = Diagnostic::new(
                Code::Dv204,
                d.span,
                format!(
                    "dead DATASPACE region in dataset \"{}\": LOOP {} iterates zero times, so \
                     record {{ {} }} at byte {} of `{}` is never materialized",
                    f.dataset,
                    d.var,
                    ext.attrs.join(" "),
                    ext.base,
                    f.rel_path
                ),
            )
            .with_help("remove the region or fix the loop bounds; queries can never reach it");
            findings.push(Finding {
                diag,
                counterexample: Some(Counterexample {
                    file: f.rel_path.clone(),
                    indices: Vec::new(),
                    byte_lo: ext.base,
                    byte_hi: ext.base,
                }),
            });
        }
    }
    findings
}

/// DV202 + trailing-bytes DV204, against observed sizes keyed by
/// `(node name, rel_path)`.
pub fn check_bounds(
    files: &[PseudoFile],
    sizes: &std::collections::HashMap<(String, String), u64>,
    unproven: &mut Vec<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if !f.codec.is_affine() {
            // Physical size is compressed/textual, not the layout's
            // byte image; expand_binding already reported it unproven.
            continue;
        }
        let key = (f.node.clone(), f.rel_path.clone());
        let Some(&observed) = sizes.get(&key) else {
            unproven.push(format!("no observed size for `{}` on node {}", f.rel_path, f.node));
            continue;
        };
        if observed < f.expected_size {
            // Refute with the first record that does not fit.
            let witness = f
                .regions
                .iter()
                .filter_map(|ext| ext.first_record_past(observed).map(|idx| (ext, idx)))
                .min_by_key(|(ext, idx)| ext.offset_of(idx).unwrap_or(u64::MAX));
            if let Some((ext, idx)) = witness {
                let off = ext.offset_of(&idx).unwrap_or(u64::MAX);
                let assign = ext.assignment(&idx);
                let at =
                    assign.iter().map(|(v, x)| format!("{v}={x}")).collect::<Vec<_>>().join(", ");
                let loc = if at.is_empty() { String::new() } else { format!(" at {at}") };
                findings.push(Finding {
                    diag: Diagnostic::new(
                        Code::Dv202,
                        ext.span,
                        format!(
                            "out-of-bounds access: record {{ {} }}{loc} spans bytes \
                             {off}..{} of `{}` but the file is only {observed} bytes \
                             (layout implies {})",
                            ext.attrs.join(" "),
                            off + ext.row_bytes,
                            f.rel_path,
                            f.expected_size
                        ),
                    )
                    .with_help(
                        "the file is shorter than the DATASPACE describes; extraction of this \
                         record would read past end-of-file",
                    ),
                    counterexample: Some(Counterexample {
                        file: f.rel_path.clone(),
                        indices: assign,
                        byte_lo: off,
                        byte_hi: off + ext.row_bytes,
                    }),
                });
            }
        } else if observed > f.expected_size {
            let extra = observed - f.expected_size;
            findings.push(Finding {
                diag: Diagnostic::new(
                    Code::Dv204,
                    f.binding_span,
                    format!(
                        "dead region: `{}` is {observed} bytes but the DATASPACE of dataset \
                         \"{}\" only describes {}; the trailing {extra} bytes are unreachable",
                        f.rel_path, f.dataset, f.expected_size
                    ),
                )
                .with_help("no query can read those bytes; extend the layout or trim the file"),
                counterexample: Some(Counterexample {
                    file: f.rel_path.clone(),
                    indices: Vec::new(),
                    byte_lo: f.expected_size,
                    byte_hi: observed,
                }),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_descriptor::parse_descriptor;

    const DESC: &str = r#"
[S]
T = int
X = float
Y = float

[D]
DatasetDescription = S
DIR[0] = n0/d

DATASET "D" {
  DATATYPE { S }
  DATA { DATASET leaf }
  DATASET "leaf" {
    DATASPACE { LOOP T 1:3:1 { X Y } }
    DATA { DIR[0]/f$R R = 0:1:1 }
  }
}
"#;

    #[test]
    fn elaborates_files_and_extents() {
        let ast = parse_descriptor(DESC).unwrap();
        let e = elaborate(&ast);
        assert!(e.unproven.is_empty(), "{:?}", e.unproven);
        assert_eq!(e.files.len(), 2);
        let f = &e.files[0];
        assert_eq!(f.node, "n0");
        assert_eq!(f.rel_path, "d/f0");
        assert_eq!(f.expected_size, 3 * 8);
        assert_eq!(f.regions.len(), 1);
        let r = &f.regions[0];
        assert_eq!(r.base, 0);
        assert_eq!(r.row_bytes, 8);
        assert_eq!(r.dims.len(), 1);
        assert_eq!(r.dims[0].stride, 8);
        assert_eq!(r.dims[0].count, 3);
    }

    #[test]
    fn matches_resolver_order_and_sizes() {
        let ast = parse_descriptor(DESC).unwrap();
        let model = dv_descriptor::resolve(&ast).unwrap();
        let e = elaborate(&ast);
        assert_eq!(e.files.len(), model.files.len());
        for (pf, mf) in e.files.iter().zip(&model.files) {
            assert_eq!(pf.rel_path, mf.rel_path);
            assert_eq!(Some(pf.expected_size), mf.expected_size(&model.attr_sizes));
        }
    }

    #[test]
    fn dead_loop_becomes_dv204() {
        let text = DESC.replace("LOOP T 1:3:1 { X Y }", "LOOP T 1:3:1 { X } LOOP G 5:4:1 { Y }");
        let ast = parse_descriptor(&text).unwrap();
        let e = elaborate(&ast);
        let findings = check_dead_regions(&e.files);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.diag.code, Code::Dv204);
        assert!(!f.diag.span.is_dummy());
        let ce = f.counterexample.as_ref().unwrap();
        assert_eq!(ce.byte_lo, 12); // after LOOP T's 3 floats
    }

    #[test]
    fn short_file_becomes_dv202_with_witness() {
        let ast = parse_descriptor(DESC).unwrap();
        let e = elaborate(&ast);
        let mut sizes = std::collections::HashMap::new();
        sizes.insert(("n0".to_string(), "d/f0".to_string()), 20u64);
        sizes.insert(("n0".to_string(), "d/f1".to_string()), 24u64);
        let mut unproven = Vec::new();
        let findings = check_bounds(&e.files, &sizes, &mut unproven);
        assert!(unproven.is_empty());
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.diag.code, Code::Dv202);
        let ce = f.counterexample.as_ref().unwrap();
        // Record T=3 occupies bytes 16..24; a 20-byte file cuts it.
        assert_eq!(ce.indices, vec![("T".to_string(), 3)]);
        assert_eq!((ce.byte_lo, ce.byte_hi), (16, 24));
    }

    #[test]
    fn long_file_becomes_trailing_dv204() {
        let ast = parse_descriptor(DESC).unwrap();
        let e = elaborate(&ast);
        let mut sizes = std::collections::HashMap::new();
        sizes.insert(("n0".to_string(), "d/f0".to_string()), 24u64);
        sizes.insert(("n0".to_string(), "d/f1".to_string()), 40u64);
        let mut unproven = Vec::new();
        let findings = check_bounds(&e.files, &sizes, &mut unproven);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].diag.code, Code::Dv204);
        let ce = findings[0].counterexample.as_ref().unwrap();
        assert_eq!((ce.byte_lo, ce.byte_hi), (24, 40));
    }

    #[test]
    fn missing_size_is_unproven() {
        let ast = parse_descriptor(DESC).unwrap();
        let e = elaborate(&ast);
        let sizes = std::collections::HashMap::new();
        let mut unproven = Vec::new();
        let findings = check_bounds(&e.files, &sizes, &mut unproven);
        assert!(findings.is_empty());
        assert_eq!(unproven.len(), 2);
    }
}
