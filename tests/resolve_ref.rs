//! The per-file descriptor resolver the shared-shape resolver replaced,
//! kept as the oracle of `shape_diff`.
//!
//! It resolves every file's `DATASPACE` afresh under the file's own
//! binding environment and computes the file's implicit extents as one
//! map of binding points merged with loop ranges — no memo, no sharing.
//! [`resolve_per_file`] returns a model in which every file owns a
//! shape of its own, so planning over it builds one segment table per
//! file, as the per-file catalog did.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use dv_descriptor::ast::{DataAst, DatasetAst, DescriptorAst, FileBinding, SpaceItem};
use dv_descriptor::expr::Env;
use dv_descriptor::model::{DirInfo, FileShape};
use dv_descriptor::{CodecKind, DatasetModel, FileModel, ResolvedItem, VarExtent};
use dv_types::{Attribute, DataType, DvError, Result, Schema};

/// A per-file resolution: the model (one shape per file, shape id =
/// file id) and every file's extents map, indexed by file id.
pub struct PerFile {
    pub model: DatasetModel,
    pub extents: Vec<BTreeMap<String, VarExtent>>,
}

/// One file as the per-file resolver builds it.
struct RefFile {
    id: usize,
    dataset: String,
    node: usize,
    rel_path: String,
    env: Env,
    layout: Vec<ResolvedItem>,
    stored_attrs: Vec<String>,
    /// Binding points merged with loop ranges.
    extents: BTreeMap<String, VarExtent>,
    /// Loop ranges only.
    loop_extents: BTreeMap<String, VarExtent>,
    codec: CodecKind,
}

impl RefFile {
    fn into_model(self) -> FileModel {
        let shape = FileShape {
            id: self.id,
            layout: self.layout,
            stored_attrs: self.stored_attrs,
            loop_extents: self.loop_extents.into_iter().collect(),
        };
        FileModel {
            id: self.id,
            dataset: self.dataset,
            node: self.node,
            rel_path: self.rel_path,
            env: self.env,
            codec: self.codec,
            shape: Arc::new(shape),
        }
    }
}

/// Resolve `ast` one file at a time.
pub fn resolve_per_file(ast: &DescriptorAst) -> Result<PerFile> {
    // --- Component I: schema ---
    let attrs: Vec<Attribute> =
        ast.schema.attrs.iter().map(|(n, t, _)| Attribute::new(n, *t)).collect();
    let schema = Schema::new(&ast.schema.name, attrs)?;

    // --- Component II: storage ---
    if !ast.storage.schema_name.eq_ignore_ascii_case(&schema.name) {
        return Err(DvError::DescriptorSemantic(format!(
            "storage section references schema `{}` but the schema section defines `{}`",
            ast.storage.schema_name, schema.name
        )));
    }
    let mut nodes: Vec<String> = Vec::new();
    let mut dirs: Vec<DirInfo> =
        vec![DirInfo { node: 0, path: String::new() }; ast.storage.dirs.len()];
    for d in &ast.storage.dirs {
        let node = match nodes.iter().position(|n| *n == d.node) {
            Some(i) => i,
            None => {
                nodes.push(d.node.clone());
                nodes.len() - 1
            }
        };
        dirs[d.index] = DirInfo { node, path: d.path.clone() };
    }

    // --- Component III: layout ---
    if !ast.layout.name.eq_ignore_ascii_case(&ast.storage.dataset_name) {
        return Err(DvError::DescriptorSemantic(format!(
            "layout root dataset `{}` does not match storage dataset `{}`",
            ast.layout.name, ast.storage.dataset_name
        )));
    }
    let root_schema_ref = ast.layout.schema_ref.as_deref().unwrap_or(&schema.name);
    if !root_schema_ref.eq_ignore_ascii_case(&schema.name) {
        return Err(DvError::DescriptorSemantic(format!(
            "root DATATYPE references unknown schema `{root_schema_ref}`"
        )));
    }

    // Attribute type table: schema attributes + auxiliary attributes
    // collected from every DATATYPE clause in the tree.
    let mut attr_types: HashMap<String, DataType> =
        schema.attributes().iter().map(|a| (a.name.clone(), a.dtype)).collect();
    collect_extra_attrs(&ast.layout, &mut attr_types, &schema)?;
    let attr_sizes: HashMap<String, usize> =
        attr_types.iter().map(|(k, v)| (k.clone(), v.size())).collect();

    // Index attributes may be declared at any level; collect and
    // validate against the schema.
    let mut index_attrs: Vec<String> = Vec::new();
    collect_index_attrs(&ast.layout, &mut index_attrs);
    for a in &index_attrs {
        if schema.index_of(a).is_none() {
            return Err(DvError::DescriptorSemantic(format!(
                "DATAINDEX attribute `{a}` is not in schema `{}`",
                schema.name
            )));
        }
    }

    let files = {
        let mut resolver = Resolver {
            schema: &schema,
            dirs: &dirs,
            attr_types: &attr_types,
            files: Vec::new(),
            seen_paths: HashSet::new(),
        };
        resolver.walk(&ast.layout)?;
        resolver.files
    };
    let extents = files.iter().map(|f| f.extents.clone()).collect();
    let files: Vec<FileModel> = files.into_iter().map(RefFile::into_model).collect();
    let shapes = files.iter().map(|f| Arc::clone(&f.shape)).collect();
    if files.is_empty() {
        return Err(DvError::DescriptorSemantic(
            "descriptor resolves to zero data files (no leaf DATASET has a DATA clause)".into(),
        ));
    }

    let model = DatasetModel {
        schema,
        dataset_name: ast.layout.name.clone(),
        index_attrs,
        nodes,
        dirs,
        attr_types,
        attr_sizes,
        files,
        shapes,
    };
    Ok(PerFile { model, extents })
}

fn collect_extra_attrs(
    ds: &DatasetAst,
    out: &mut HashMap<String, DataType>,
    schema: &Schema,
) -> Result<()> {
    for (name, ty, _) in &ds.extra_attrs {
        let upper = name.to_ascii_uppercase();
        if schema.index_of(&upper).is_some() {
            return Err(DvError::DescriptorSemantic(format!(
                "auxiliary attribute `{upper}` in dataset `{}` shadows a schema attribute",
                ds.name
            )));
        }
        out.insert(upper, *ty);
    }
    for c in &ds.children {
        collect_extra_attrs(c, out, schema)?;
    }
    Ok(())
}

fn collect_index_attrs(ds: &DatasetAst, out: &mut Vec<String>) {
    for (a, _) in &ds.index_attrs {
        let upper = a.to_ascii_uppercase();
        if !out.contains(&upper) {
            out.push(upper);
        }
    }
    for c in &ds.children {
        collect_index_attrs(c, out);
    }
}

struct Resolver<'a> {
    schema: &'a Schema,
    dirs: &'a [DirInfo],
    attr_types: &'a HashMap<String, DataType>,
    files: Vec<RefFile>,
    seen_paths: HashSet<(usize, String)>,
}

impl<'a> Resolver<'a> {
    fn walk(&mut self, ds: &DatasetAst) -> Result<()> {
        // Validate DATA/children cross references on non-leaf nodes.
        if let DataAst::Nested(names) = &ds.data {
            for n in names {
                if !ds.children.iter().any(|c| c.name.eq_ignore_ascii_case(n)) {
                    return Err(DvError::DescriptorSemantic(format!(
                        "dataset `{}` lists nested dataset `{n}` that is not defined",
                        ds.name
                    )));
                }
            }
        }
        match (&ds.dataspace, &ds.data) {
            (Some(space), DataAst::Files(bindings)) => {
                for b in bindings {
                    self.expand_binding(ds, space, b)?;
                }
            }
            (Some(_), _) => {
                return Err(DvError::DescriptorSemantic(format!(
                    "leaf dataset `{}` has a DATASPACE but its DATA clause lists no files",
                    ds.name
                )));
            }
            (None, DataAst::Files(_)) => {
                return Err(DvError::DescriptorSemantic(format!(
                    "dataset `{}` lists files but has no DATASPACE describing their layout",
                    ds.name
                )));
            }
            (None, _) => {}
        }
        for c in &ds.children {
            self.walk(c)?;
        }
        Ok(())
    }

    /// Expand one file binding over the cartesian product of its
    /// variable ranges.
    fn expand_binding(
        &mut self,
        ds: &DatasetAst,
        space: &[SpaceItem],
        binding: &FileBinding,
    ) -> Result<()> {
        // Evaluate range bounds (must be constant; ranges may not refer
        // to other binding variables).
        let empty = Env::new();
        let mut ranges: Vec<(String, i64, i64, i64)> = Vec::with_capacity(binding.ranges.len());
        for (var, lo, hi, step) in &binding.ranges {
            let upper = var.to_ascii_uppercase();
            let lo = lo.eval(&empty)?;
            let hi = hi.eval(&empty)?;
            let step = step.eval(&empty)?;
            if step <= 0 {
                return Err(DvError::DescriptorSemantic(format!(
                    "binding variable `{upper}` in dataset `{}` has non-positive step {step}",
                    ds.name
                )));
            }
            if lo > hi {
                return Err(DvError::DescriptorSemantic(format!(
                    "binding variable `{upper}` in dataset `{}` has empty range {lo}:{hi}:{step}",
                    ds.name
                )));
            }
            if ResolvedItem::checked_loop_iterations(lo, hi, step).is_none() {
                return Err(DvError::DescriptorSemantic(format!(
                    "binding variable `{upper}` in dataset `{}` has range {lo}:{hi}:{step} \
                     that steps past the 64-bit integer range",
                    ds.name
                )));
            }
            ranges.push((upper, lo, hi, step));
        }

        // Check the template only uses bound variables.
        for v in binding.template.variables() {
            let upper = v.to_ascii_uppercase();
            if !ranges.iter().any(|(rv, ..)| *rv == upper) {
                return Err(DvError::DescriptorSemantic(format!(
                    "file template in dataset `{}` uses `${v}` which has no range",
                    ds.name
                )));
            }
        }

        let mut env = Env::new();
        self.expand_rec(ds, space, binding, &ranges, 0, &mut env)
    }

    fn expand_rec(
        &mut self,
        ds: &DatasetAst,
        space: &[SpaceItem],
        binding: &FileBinding,
        ranges: &[(String, i64, i64, i64)],
        depth: usize,
        env: &mut Env,
    ) -> Result<()> {
        if depth == ranges.len() {
            return self.emit_file(ds, space, binding, env);
        }
        let (var, lo, hi, step) = ranges[depth].clone();
        let mut v = lo;
        for _ in 0..ResolvedItem::loop_iterations(lo, hi, step) {
            env.insert(var.clone(), v);
            self.expand_rec(ds, space, binding, ranges, depth + 1, env)?;
            v += step;
        }
        env.remove(&var);
        Ok(())
    }

    fn emit_file(
        &mut self,
        ds: &DatasetAst,
        space: &[SpaceItem],
        binding: &FileBinding,
        env: &Env,
    ) -> Result<()> {
        // Uppercase the env (template rendering needs original case?
        // no — vars were uppercased at range evaluation, and Expr vars
        // are matched case-sensitively, so normalize expressions too).
        let dir_slot = binding.template.dir_index.eval(&upper_env(env))?;
        let slot =
            usize::try_from(dir_slot).ok().filter(|s| *s < self.dirs.len()).ok_or_else(|| {
                DvError::DescriptorSemantic(format!(
                    "dataset `{}` references DIR[{dir_slot}] which is not in the storage section",
                    ds.name
                ))
            })?;
        let dir = self.dirs[slot].clone();
        let name = binding.template.render_name(&upper_env(env))?;
        let rel_path =
            if dir.path.is_empty() { name.clone() } else { format!("{}/{}", dir.path, name) };

        if !self.seen_paths.insert((dir.node, rel_path.clone())) {
            return Err(DvError::DescriptorSemantic(format!(
                "file `{rel_path}` on node {} is produced twice by the descriptor",
                dir.node
            )));
        }

        // Resolve the dataspace under this file's environment.
        let mut extents: BTreeMap<String, VarExtent> = BTreeMap::new();
        for (var, val) in env {
            extents.insert(var.to_ascii_uppercase(), VarExtent::Point(*val));
        }
        let layout = self.resolve_items(ds, space, &upper_env(env), &mut extents)?;
        let mut loop_extents = BTreeMap::new();
        self.resolve_items(ds, space, &upper_env(env), &mut loop_extents)?;

        if !binding.codec.is_affine()
            && layout.iter().any(|i| matches!(i, ResolvedItem::Chunked { .. }))
        {
            return Err(DvError::DescriptorSemantic(format!(
                "dataset `{}` uses CODEC {} with a CHUNKED layout; external-index \
                 layouts require the binary codec",
                ds.name,
                binding.codec.descriptor_name()
            )));
        }

        let mut stored_attrs: Vec<String> = Vec::new();
        collect_stored_attrs(&layout, self.schema, &mut stored_attrs);

        self.files.push(RefFile {
            id: self.files.len(),
            dataset: ds.name.clone(),
            node: dir.node,
            rel_path,
            env: upper_env(env),
            layout,
            stored_attrs,
            extents,
            loop_extents,
            codec: binding.codec,
        });
        Ok(())
    }

    fn resolve_items(
        &self,
        ds: &DatasetAst,
        items: &[SpaceItem],
        env: &Env,
        extents: &mut BTreeMap<String, VarExtent>,
    ) -> Result<Vec<ResolvedItem>> {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                SpaceItem::Attrs(names) => {
                    let mut attrs = Vec::with_capacity(names.len());
                    for (n, _) in names {
                        let upper = n.to_ascii_uppercase();
                        if !self.attr_types.contains_key(&upper) {
                            return Err(DvError::DescriptorSemantic(format!(
                                "dataset `{}` stores attribute `{upper}` which is neither a \
                                 schema attribute nor declared in DATATYPE",
                                ds.name
                            )));
                        }
                        attrs.push(upper);
                    }
                    out.push(ResolvedItem::Attrs(attrs));
                }
                SpaceItem::Loop { var, lo, hi, step, body, .. } => {
                    let var = var.to_ascii_uppercase();
                    let lo = lo.eval(env)?;
                    let hi = hi.eval(env)?;
                    let step = step.eval(env)?;
                    if step <= 0 {
                        return Err(DvError::DescriptorSemantic(format!(
                            "LOOP {var} in dataset `{}` has non-positive step {step}",
                            ds.name
                        )));
                    }
                    if lo > hi {
                        return Err(DvError::DescriptorSemantic(format!(
                            "LOOP {var} in dataset `{}` is empty ({lo}:{hi}:{step})",
                            ds.name
                        )));
                    }
                    if ResolvedItem::checked_loop_iterations(lo, hi, step).is_none() {
                        return Err(DvError::DescriptorSemantic(format!(
                            "LOOP {var} in dataset `{}` ({lo}:{hi}:{step}) steps past the \
                             64-bit integer range",
                            ds.name
                        )));
                    }
                    let ext = VarExtent::Range { lo, hi, step };
                    extents.entry(var.clone()).and_modify(|e| *e = e.merge(&ext)).or_insert(ext);
                    let body = self.resolve_items(ds, body, env, extents)?;
                    out.push(ResolvedItem::Loop { var, lo, hi, step, body });
                }
                SpaceItem::Chunked { index_template, attrs, .. } => {
                    if items.len() != 1 {
                        return Err(DvError::DescriptorSemantic(format!(
                            "CHUNKED must be the only item in the DATASPACE of dataset `{}`",
                            ds.name
                        )));
                    }
                    let raw_slot = index_template.dir_index.eval(env)?;
                    let slot = usize::try_from(raw_slot)
                        .ok()
                        .filter(|s| *s < self.dirs.len())
                        .ok_or_else(|| {
                            DvError::DescriptorSemantic(format!(
                                "index template in dataset `{}` references DIR[{raw_slot}]",
                                ds.name
                            ))
                        })?;
                    let dir = self.dirs[slot].clone();
                    let name = index_template.render_name(env)?;
                    let index_path =
                        if dir.path.is_empty() { name } else { format!("{}/{}", dir.path, name) };
                    let mut resolved_attrs = Vec::with_capacity(attrs.len());
                    for (n, _) in attrs {
                        let upper = n.to_ascii_uppercase();
                        if !self.attr_types.contains_key(&upper) {
                            return Err(DvError::DescriptorSemantic(format!(
                                "CHUNKED layout in dataset `{}` stores unknown attribute \
                                 `{upper}`",
                                ds.name
                            )));
                        }
                        resolved_attrs.push(upper);
                    }
                    out.push(ResolvedItem::Chunked {
                        index_node: dir.node,
                        index_path,
                        attrs: resolved_attrs,
                    });
                }
            }
        }
        Ok(out)
    }
}

fn upper_env(env: &Env) -> Env {
    env.iter().map(|(k, v)| (k.to_ascii_uppercase(), *v)).collect()
}

fn collect_stored_attrs(items: &[ResolvedItem], schema: &Schema, out: &mut Vec<String>) {
    for item in items {
        match item {
            ResolvedItem::Attrs(attrs) | ResolvedItem::Chunked { attrs, .. } => {
                for a in attrs {
                    if schema.index_of(a).is_some() && !out.contains(a) {
                        out.push(a.clone());
                    }
                }
            }
            ResolvedItem::Loop { body, .. } => collect_stored_attrs(body, schema, out),
        }
    }
}
