//! Semantic resolution: [`DescriptorAst`] → [`DatasetModel`].
//!
//! This is the expensive half of descriptor compilation the paper runs
//! *once*, ahead of any query: binding-variable ranges are expanded
//! into concrete files, loop bounds are evaluated, attribute references
//! are checked, and implicit extents are computed.
//!
//! A file's `DATASPACE` depends on its binding environment only through
//! the variables its loop bounds and `CHUNKED` index template read. For
//! each leaf dataset the resolver collects that set once and memoises
//! the resolved [`FileShape`] by those variables' values: a pattern
//! naming 800 files whose loops read only `$DIRID` evaluates its
//! dataspace once per directory, and the files share the result. The
//! per-file checks — directory slot, duplicate path, `CODEC` with
//! `CHUNKED` — still run for every file, and a dataspace error is
//! raised on the first file that reaches it.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use dv_types::{Attribute, DataType, DvError, Result, Schema};

use crate::ast::{DataAst, DatasetAst, DescriptorAst, FileBinding, SpaceItem};
use crate::expr::Env;
use crate::model::{DatasetModel, DirInfo, FileModel, FileShape, ResolvedItem, VarExtent};

/// Resolve a parsed descriptor into a dataset model.
pub fn resolve(ast: &DescriptorAst) -> Result<DatasetModel> {
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

    let (files, shapes) = {
        let mut resolver = Resolver {
            schema: &schema,
            dirs: &dirs,
            attr_types: &attr_types,
            files: Vec::new(),
            shapes: Vec::new(),
            seen_paths: HashSet::new(),
        };
        resolver.walk(&ast.layout)?;
        (resolver.files, resolver.shapes)
    };
    if files.is_empty() {
        return Err(DvError::DescriptorSemantic(
            "descriptor resolves to zero data files (no leaf DATASET has a DATA clause)".into(),
        ));
    }

    Ok(DatasetModel {
        schema,
        dataset_name: ast.layout.name.clone(),
        index_attrs,
        nodes,
        dirs,
        attr_types,
        attr_sizes,
        files,
        shapes,
    })
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
    files: Vec<FileModel>,
    shapes: Vec<Arc<FileShape>>,
    seen_paths: HashSet<(usize, String)>,
}

/// The shapes one leaf dataset's files resolved to, keyed by the values
/// of the binding variables its dataspace reads (`None` = unbound).
struct ShapeMemo<'s> {
    space: &'s [SpaceItem],
    /// Variables the dataspace reads, sorted.
    reads: Vec<String>,
    shapes: HashMap<Vec<Option<i64>>, Arc<FileShape>>,
    /// Scratch key of the current file.
    key: Vec<Option<i64>>,
}

impl<'s> ShapeMemo<'s> {
    fn new(space: &'s [SpaceItem]) -> ShapeMemo<'s> {
        let mut reads = Vec::new();
        dataspace_reads(space, &mut reads);
        reads.sort();
        reads.dedup();
        ShapeMemo { space, reads, shapes: HashMap::new(), key: Vec::new() }
    }
}

/// Every variable the loop bounds and `CHUNKED` index templates of
/// `items` read: all a resolved layout depends on.
fn dataspace_reads(items: &[SpaceItem], out: &mut Vec<String>) {
    for item in items {
        match item {
            SpaceItem::Attrs(_) => {}
            SpaceItem::Loop { lo, hi, step, body, .. } => {
                for e in [lo, hi, step] {
                    out.extend(e.variables());
                }
                dataspace_reads(body, out);
            }
            SpaceItem::Chunked { index_template, .. } => out.extend(index_template.variables()),
        }
    }
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
                let mut memo = ShapeMemo::new(space);
                for b in bindings {
                    self.expand_binding(ds, &mut memo, b)?;
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
        memo: &mut ShapeMemo<'_>,
        binding: &FileBinding,
    ) -> Result<()> {
        // Evaluate range bounds (must be constant; ranges may not refer
        // to other binding variables).
        let empty = Env::new();
        let mut ranges: Vec<(String, i64, i64, u64)> = Vec::with_capacity(binding.ranges.len());
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
            let count = ResolvedItem::checked_loop_iterations(lo, hi, step).ok_or_else(|| {
                DvError::DescriptorSemantic(format!(
                    "binding variable `{upper}` in dataset `{}` has range {lo}:{hi}:{step} \
                     that steps past the 64-bit integer range",
                    ds.name
                ))
            })?;
            ranges.push((upper, lo, step, count));
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
        self.expand_rec(ds, memo, binding, &ranges, &mut env)
    }

    fn expand_rec(
        &mut self,
        ds: &DatasetAst,
        memo: &mut ShapeMemo<'_>,
        binding: &FileBinding,
        ranges: &[(String, i64, i64, u64)],
        env: &mut Env,
    ) -> Result<()> {
        let Some(((var, lo, step, count), inner)) = ranges.split_first() else {
            return self.emit_file(ds, memo, binding, env);
        };
        // The count was checked: `v` never steps past `i64::MAX`.
        let mut v = *lo;
        for _ in 0..*count {
            env.insert(var.clone(), v);
            self.expand_rec(ds, memo, binding, inner, env)?;
            v += step;
        }
        env.remove(var);
        Ok(())
    }

    fn emit_file(
        &mut self,
        ds: &DatasetAst,
        memo: &mut ShapeMemo<'_>,
        binding: &FileBinding,
        env: &Env,
    ) -> Result<()> {
        // Binding variables were upper-cased at range evaluation.
        let dir_slot = binding.template.dir_index.eval(env)?;
        let dir =
            usize::try_from(dir_slot).ok().and_then(|s| self.dirs.get(s)).ok_or_else(|| {
                DvError::DescriptorSemantic(format!(
                    "dataset `{}` references DIR[{dir_slot}] which is not in the storage section",
                    ds.name
                ))
            })?;
        let name = binding.template.render_name(env)?;
        let rel_path = if dir.path.is_empty() { name } else { format!("{}/{}", dir.path, name) };

        if !self.seen_paths.insert((dir.node, rel_path.clone())) {
            return Err(DvError::DescriptorSemantic(format!(
                "file `{rel_path}` on node {} is produced twice by the descriptor",
                dir.node
            )));
        }
        let node = dir.node;

        let shape = self.shape(ds, memo, env)?;
        if !binding.codec.is_affine()
            && shape.layout.iter().any(|i| matches!(i, ResolvedItem::Chunked { .. }))
        {
            return Err(DvError::DescriptorSemantic(format!(
                "dataset `{}` uses CODEC {} with a CHUNKED layout; external-index \
                 layouts require the binary codec",
                ds.name,
                binding.codec.descriptor_name()
            )));
        }

        self.files.push(FileModel {
            id: self.files.len(),
            dataset: ds.name.clone(),
            node,
            rel_path,
            env: env.clone(),
            codec: binding.codec,
            shape,
        });
        Ok(())
    }

    /// The shape of the file bound by `env`: the memoised one when an
    /// earlier file agreed on every variable the dataspace reads, else
    /// a fresh resolution.
    fn shape(
        &mut self,
        ds: &DatasetAst,
        memo: &mut ShapeMemo<'_>,
        env: &Env,
    ) -> Result<Arc<FileShape>> {
        memo.key.clear();
        memo.key.extend(memo.reads.iter().map(|v| env.get(v).copied()));
        if let Some(shape) = memo.shapes.get(memo.key.as_slice()) {
            return Ok(Arc::clone(shape));
        }
        let mut extents: BTreeMap<String, VarExtent> = BTreeMap::new();
        let layout = self.resolve_items(ds, memo.space, env, &mut extents)?;
        let mut stored_attrs: Vec<String> = Vec::new();
        collect_stored_attrs(&layout, self.schema, &mut stored_attrs);
        let shape = Arc::new(FileShape {
            id: self.shapes.len(),
            layout,
            stored_attrs,
            loop_extents: extents.into_iter().collect(),
        });
        self.shapes.push(Arc::clone(&shape));
        memo.shapes.insert(memo.key.clone(), Arc::clone(&shape));
        Ok(shape)
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
                    let dir = &self.dirs[slot];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_descriptor;

    const FIGURE4: &str = r#"
[IPARS]
REL = short int
TIME = int
X = float
Y = float
Z = float
SOIL = float
SGAS = float

[IparsData]
DatasetDescription = IPARS
DIR[0] = osu0/ipars
DIR[1] = osu1/ipars
DIR[2] = osu2/ipars
DIR[3] = osu3/ipars

DATASET "IparsData" {
  DATATYPE { IPARS }
  DATAINDEX { REL TIME }
  DATA { DATASET ipars1 DATASET ipars2 }
  DATASET "ipars1" {
    DATASPACE {
      LOOP GRID ($DIRID*100+1):(($DIRID+1)*100):1 { X Y Z }
    }
    DATA { DIR[$DIRID]/COORDS DIRID = 0:3:1 }
  }
  DATASET "ipars2" {
    DATASPACE {
      LOOP TIME 1:500:1 {
        LOOP GRID ($DIRID*100+1):(($DIRID+1)*100):1 { SOIL SGAS }
      }
    }
    DATA { DIR[$DIRID]/DATA$REL REL = 0:3:1 DIRID = 0:3:1 }
  }
}
"#;

    fn model() -> DatasetModel {
        resolve(&parse_descriptor(FIGURE4).unwrap()).unwrap()
    }

    #[test]
    fn figure4_file_count() {
        let m = model();
        // 4 COORDS + 16 DATA files (4 REL × 4 DIRID).
        assert_eq!(m.files.len(), 20);
        assert_eq!(m.nodes.len(), 4);
        assert_eq!(m.index_attrs, vec!["REL", "TIME"]);
    }

    #[test]
    fn figure4_coords_files() {
        let m = model();
        let coords: Vec<&FileModel> = m.files.iter().filter(|f| f.dataset == "ipars1").collect();
        assert_eq!(coords.len(), 4);
        let c2 = coords.iter().find(|f| f.node == 2).unwrap();
        assert_eq!(c2.rel_path, "ipars/COORDS");
        assert_eq!(c2.stored_attrs(), vec!["X", "Y", "Z"]);
        // Implicit grid extent on node 2: 201..=300.
        assert_eq!(c2.extent("GRID"), Some(VarExtent::Range { lo: 201, hi: 300, step: 1 }));
        assert_eq!(c2.extent("DIRID"), Some(VarExtent::Point(2)));
        // 100 grid points × 3 floats.
        assert_eq!(c2.expected_size(&m.attr_sizes), Some(1200));
    }

    #[test]
    fn figure4_data_files() {
        let m = model();
        let f = m
            .files
            .iter()
            .find(|f| f.rel_path == "ipars/DATA3" && f.node == 1)
            .expect("DATA3 on node 1");
        assert_eq!(f.env["REL"], 3);
        assert_eq!(f.env["DIRID"], 1);
        assert_eq!(f.extent("REL"), Some(VarExtent::Point(3)));
        assert_eq!(f.extent("TIME"), Some(VarExtent::Range { lo: 1, hi: 500, step: 1 }));
        assert_eq!(f.extent("GRID"), Some(VarExtent::Range { lo: 101, hi: 200, step: 1 }));
        assert_eq!(f.stored_attrs(), vec!["SOIL", "SGAS"]);
        // 500 time-steps × 100 grid points × 2 floats.
        assert_eq!(f.expected_size(&m.attr_sizes), Some(400_000));
    }

    #[test]
    fn files_share_one_shape_per_distinct_dataspace_reading() {
        let m = model();
        // Both dataspaces read only `$DIRID`: one shape per directory
        // and dataset, whatever `REL` is.
        assert_eq!(m.shapes.len(), 8);
        for (i, s) in m.shapes.iter().enumerate() {
            assert_eq!(s.id, i);
        }
        let data: Vec<&FileModel> =
            m.files.iter().filter(|f| f.dataset == "ipars2" && f.env["DIRID"] == 1).collect();
        assert_eq!(data.len(), 4);
        assert!(data.iter().all(|f| Arc::ptr_eq(&f.shape, &data[0].shape)));
        let other = m.files.iter().find(|f| f.dataset == "ipars2" && f.env["DIRID"] == 2).unwrap();
        assert!(!Arc::ptr_eq(&other.shape, &data[0].shape));
    }

    #[test]
    fn overflowing_binding_range_rejected() {
        let text = FIGURE4.replace(
            "DATA { DIR[$DIRID]/DATA$REL REL = 0:3:1 DIRID = 0:3:1 }",
            "DATA { DIR[$DIRID]/DATA$REL REL = 9223372036854775800:9223372036854775807:5 \
             DIRID = 0:3:1 }",
        );
        let e = resolve(&parse_descriptor(&text).unwrap()).unwrap_err();
        assert!(matches!(e, DvError::DescriptorSemantic(_)), "{e:?}");
        let e = e.to_string();
        assert!(e.contains("`REL`") && e.contains("64-bit"), "{e}");
    }

    #[test]
    fn overflowing_loop_range_rejected() {
        let text = FIGURE4
            .replace("LOOP TIME 1:500:1", "LOOP TIME -9223372036854775807:9223372036854775807:1");
        let e = resolve(&parse_descriptor(&text).unwrap()).unwrap_err();
        assert!(matches!(e, DvError::DescriptorSemantic(_)), "{e:?}");
        let e = e.to_string();
        assert!(e.contains("LOOP TIME") && e.contains("64-bit"), "{e}");
    }

    #[test]
    fn loop_error_raised_on_first_file_reaching_it() {
        // `$REL = 2` empties the loop; the files before it resolve.
        let text = FIGURE4.replace("LOOP TIME 1:500:1", "LOOP TIME 1:(10-$REL*5):1");
        let e = resolve(&parse_descriptor(&text).unwrap()).unwrap_err().to_string();
        assert!(e.contains("LOOP TIME in dataset `ipars2` is empty (1:0:1)"), "{e}");
    }

    #[test]
    fn mismatched_schema_name_rejected() {
        let text = FIGURE4.replace("DatasetDescription = IPARS", "DatasetDescription = OTHER");
        let ast = parse_descriptor(&text).unwrap();
        assert!(resolve(&ast).is_err());
    }

    #[test]
    fn unknown_attr_in_dataspace_rejected() {
        let text = FIGURE4.replace("SOIL SGAS", "SOIL WAT");
        let ast = parse_descriptor(&text).unwrap();
        let e = resolve(&ast).unwrap_err().to_string();
        assert!(e.contains("WAT"), "{e}");
    }

    #[test]
    fn unknown_dataindex_attr_rejected() {
        let text = FIGURE4.replace("DATAINDEX { REL TIME }", "DATAINDEX { BOGUS }");
        let ast = parse_descriptor(&text).unwrap();
        assert!(resolve(&ast).is_err());
    }

    #[test]
    fn unlisted_nested_dataset_rejected() {
        let text = FIGURE4.replace("DATASET ipars1 DATASET ipars2", "DATASET ipars1 DATASET ghost");
        let ast = parse_descriptor(&text).unwrap();
        assert!(resolve(&ast).is_err());
    }

    #[test]
    fn duplicate_file_rejected() {
        // Two bindings that produce the same path.
        let text = FIGURE4.replace(
            "DATA { DIR[$DIRID]/COORDS DIRID = 0:3:1 }",
            "DATA { DIR[$DIRID]/COORDS DIRID = 0:3:1 DIR[0]/COORDS }",
        );
        let ast = parse_descriptor(&text).unwrap();
        let e = resolve(&ast).unwrap_err().to_string();
        assert!(e.contains("twice"), "{e}");
    }

    #[test]
    fn unbound_template_var_rejected() {
        let text = FIGURE4.replace(
            "DATA { DIR[$DIRID]/COORDS DIRID = 0:3:1 }",
            "DATA { DIR[$DIRID]/COORDS$REL DIRID = 0:3:1 }",
        );
        let ast = parse_descriptor(&text).unwrap();
        let e = resolve(&ast).unwrap_err().to_string();
        assert!(e.contains("REL"), "{e}");
    }

    #[test]
    fn dir_out_of_range_rejected() {
        let text = FIGURE4.replace("DIRID = 0:3:1 }\n  }\n}", "DIRID = 0:4:1 }\n  }\n}");
        let ast = parse_descriptor(&text).unwrap();
        let e = resolve(&ast).unwrap_err().to_string();
        assert!(e.contains("DIR[4]"), "{e}");
    }

    #[test]
    fn codec_threads_to_file_models() {
        use crate::codec::CodecKind;
        let text = FIGURE4.replace(
            "DATA { DIR[$DIRID]/COORDS DIRID = 0:3:1 }",
            "DATA { DIR[$DIRID]/COORDS DIRID = 0:3:1 CODEC csv }",
        );
        let m = resolve(&parse_descriptor(&text).unwrap()).unwrap();
        for f in &m.files {
            let want = if f.dataset == "ipars1" {
                CodecKind::DelimitedText
            } else {
                CodecKind::FixedBinary
            };
            assert_eq!(f.codec, want, "{}", f.rel_path);
        }
    }

    #[test]
    fn chunked_with_nonbinary_codec_rejected() {
        let text = r#"
[T]
X = int

[TitanData]
DatasetDescription = T
DIR[0] = tnode0/titan

DATASET "TitanData" {
  DATATYPE { T }
  DATA { DATASET chunks }
  DATASET "chunks" {
    DATASPACE { CHUNKED INDEXFILE "DIR[0]/titan.idx" { X } }
    DATA { DIR[0]/titan.dat CODEC zstd }
  }
}
"#;
        let e = resolve(&parse_descriptor(text).unwrap()).unwrap_err().to_string();
        assert!(e.contains("CHUNKED"), "{e}");
    }

    #[test]
    fn node_identity_shared_across_dirs() {
        // Two DIR entries on the same node name map to one node id.
        let text = r#"
[S]
A = int

[D]
DatasetDescription = S
DIR[0] = big/part0
DIR[1] = big/part1

DATASET "D" {
  DATATYPE { S }
  DATASET "leaf" {
    DATASPACE { LOOP I 1:4:1 { A } }
    DATA { DIR[$DIRID]/f DIRID = 0:1:1 }
  }
  DATA { DATASET leaf }
}
"#;
        let m = resolve(&parse_descriptor(text).unwrap()).unwrap();
        assert_eq!(m.nodes, vec!["big"]);
        assert_eq!(m.files.len(), 2);
        assert!(m.files.iter().all(|f| f.node == 0));
        assert_eq!(m.files[0].rel_path, "part0/f");
        assert_eq!(m.files[1].rel_path, "part1/f");
    }
}
