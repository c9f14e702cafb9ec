//! Shared file shapes against per-file resolution.
//!
//! `dv_descriptor::resolve` evaluates a `DATASPACE` once per distinct
//! value of the binding variables it reads and shares the result among
//! files; `resolve_ref` (the per-file resolver it replaced) evaluates
//! it for every file. On every example descriptor, every lint fixture
//! that parses, and random Ipars layouts, the two must agree on each
//! file's path, node, env, codec, layout, stored attributes and
//! extents — and on broken descriptors, on the first error. Over a
//! descriptor whose shapes depend on both a loop bound (`$REL`) and a
//! `CHUNKED` index template (`$DIRID`), plans and results must also be
//! the ones the per-file model gives.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use dv_datagen::{ipars, IparsConfig, IparsLayout};
use dv_descriptor::{parse_descriptor, resolve, DatasetModel, VarExtent};
use dv_index::{write_chunk_index, ChunkIndexEntry};
use dv_integration::resolve_ref::resolve_per_file;
use dv_integration::scratch;
use dv_layout::CompiledDataset;
use dv_sql::UdfRegistry;
use dv_storm::{QueryOptions, QueryService, ServiceConfig};

/// Resolve `text` both ways and assert the models agree file by file
/// (or both fail with the same error). Returns the shared model.
fn assert_same_resolution(text: &str, origin: &str) -> Option<DatasetModel> {
    let ast = parse_descriptor(text).ok()?;
    let (shared, per_file) = match (resolve(&ast), resolve_per_file(&ast)) {
        (Ok(s), Ok(p)) => (s, p),
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{origin}: first error differs");
            return None;
        }
        (a, b) => panic!("{origin}: shared {:?} vs per-file {:?}", a.err(), b.err()),
    };
    let r = &per_file.model;
    assert_eq!(shared.schema, r.schema, "{origin}");
    assert_eq!(shared.dataset_name, r.dataset_name, "{origin}");
    assert_eq!(shared.index_attrs, r.index_attrs, "{origin}");
    assert_eq!(shared.nodes, r.nodes, "{origin}");
    assert_eq!(shared.dirs, r.dirs, "{origin}");
    assert_eq!(shared.attr_types, r.attr_types, "{origin}");
    assert_eq!(shared.files.len(), r.files.len(), "{origin}");
    for (i, s) in shared.shapes.iter().enumerate() {
        assert_eq!(s.id, i, "{origin}: shape ids are dense");
    }
    for (f, (g, extents)) in shared.files.iter().zip(r.files.iter().zip(&per_file.extents)) {
        let at = format!("{origin}: file {} `{}`", f.id, f.rel_path);
        assert_eq!(f.id, g.id, "{at}");
        assert_eq!(f.dataset, g.dataset, "{at}");
        assert_eq!(f.node, g.node, "{at}");
        assert_eq!(f.rel_path, g.rel_path, "{at}");
        assert_eq!(f.env, g.env, "{at}");
        assert_eq!(f.codec, g.codec, "{at}");
        assert_eq!(f.layout(), g.layout(), "{at}");
        assert_eq!(f.stored_attrs(), g.stored_attrs(), "{at}");
        let got: BTreeMap<String, VarExtent> =
            f.extents().map(|(k, e)| (k.to_string(), e)).collect();
        assert_eq!(&got, extents, "{at}");
        assert_eq!(f.extents().count(), extents.len(), "{at}: extent names repeat");
        for (var, e) in extents {
            assert_eq!(f.extent(var), Some(*e), "{at}: {var}");
        }
        assert!(Arc::ptr_eq(&f.shape, &shared.shapes[f.shape.id]), "{at}");
    }
    Some(shared)
}

fn descriptors_in(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "desc"))
        .collect();
    out.sort();
    out
}

fn repo(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

#[test]
fn example_descriptors_resolve_as_per_file() {
    let paths = descriptors_in(&repo("examples/descriptors"));
    assert!(paths.len() >= 12);
    for p in paths {
        let text = std::fs::read_to_string(&p).unwrap();
        let m = assert_same_resolution(&text, &p.display().to_string());
        let m = m.unwrap_or_else(|| panic!("{} does not resolve", p.display()));
        assert!(m.shapes.len() <= m.files.len());
    }
}

#[test]
fn lint_fixtures_resolve_as_per_file() {
    let mut resolved = 0;
    for p in descriptors_in(&repo("crates/lint/tests/fixtures")) {
        let text = std::fs::read_to_string(&p).unwrap();
        resolved += usize::from(assert_same_resolution(&text, &p.display().to_string()).is_some());
    }
    assert!(resolved >= 10, "only {resolved} fixtures resolve");
}

/// Layout IV names every (REL, TIME, DIRID) file, but its loops read
/// only `$DIRID`: one shape per directory.
#[test]
fn layout_iv_has_one_shape_per_directory() {
    let cfg = IparsConfig {
        realizations: 4,
        time_steps: 50,
        grid_per_dir: 5,
        dirs: 4,
        nodes: 4,
        seed: 1,
    };
    let text = ipars::descriptor(&cfg, IparsLayout::IV);
    let m = assert_same_resolution(&text, "Layout IV").unwrap();
    assert_eq!(m.files.len(), 800);
    assert_eq!(m.shapes.len(), 4);
}

/// A descriptor over `REL`/`TIME` plus the Figure 4 layout whose
/// `DATASPACE` is mutated by `(from, to)` text replacements.
const FIG4: &str = r#"
[IPARS]
REL = short int
TIME = int
X = float
SOIL = float

[IparsData]
DatasetDescription = IPARS
DIR[0] = osu0/ipars
DIR[1] = osu1/ipars

DATASET "IparsData" {
  DATATYPE { IPARS }
  DATAINDEX { REL TIME }
  DATA { DATASET coords DATASET vars }
  DATASET "coords" {
    DATASPACE { LOOP GRID ($DIRID*10+1):(($DIRID+1)*10):1 { X } }
    DATA { DIR[$DIRID]/COORDS DIRID = 0:1:1 }
  }
  DATASET "vars" {
    DATASPACE {
      LOOP TIME 1:(2+$REL):1 {
        LOOP GRID ($DIRID*10+1):(($DIRID+1)*10):1 { SOIL }
      }
    }
    DATA { DIR[$DIRID]/DATA$REL REL = 0:3:1 DIRID = 0:1:1 }
  }
}
"#;

#[test]
fn broken_descriptors_fail_with_the_per_file_first_error() {
    let cases: &[(&str, &str)] = &[
        // Empty loop, first reached at REL = 3 (after six good files).
        ("LOOP TIME 1:(2+$REL):1", "LOOP TIME 1:(3-$REL):1"),
        // Non-positive step, first reached at REL = 1.
        ("LOOP TIME 1:(2+$REL):1", "LOOP TIME 1:5:(1-$REL)"),
        // Zero step everywhere.
        ("LOOP TIME 1:(2+$REL):1", "LOOP TIME 1:5:0"),
        // Empty loop on one directory only.
        ("($DIRID*10+1):(($DIRID+1)*10):1 { X }", "($DIRID*10+1):(10-$DIRID):1 { X }"),
        // Duplicate path.
        ("DIR[$DIRID]/DATA$REL REL", "DIR[$DIRID]/DATA REL"),
        // Unbound variables: in a loop bound, and in a file template.
        ("LOOP TIME 1:(2+$REL):1", "LOOP TIME 1:(2+$RUN):1"),
        ("DIR[$DIRID]/COORDS DIRID", "DIR[$DIRID]/COORDS$REL DIRID"),
        // A directory slot past the storage section, on the last file.
        ("REL = 0:3:1 DIRID = 0:1:1", "REL = 0:3:1 DIRID = 0:2:1"),
        // Ranges that step past the i64 range.
        ("LOOP TIME 1:(2+$REL):1", "LOOP TIME -9223372036854775807:9223372036854775807:1"),
        ("REL = 0:3:1", "REL = 9223372036854775800:9223372036854775807:5"),
        // Unknown stored attribute.
        ("{ SOIL }", "{ SOIL WAT }"),
    ];
    assert!(assert_same_resolution(FIG4, "FIG4").is_some());
    for (from, to) in cases {
        assert!(FIG4.contains(from), "{from}");
        let text = FIG4.replace(from, to);
        let origin = format!("{from} -> {to}");
        parse_descriptor(&text).unwrap_or_else(|e| panic!("{origin}: {e}"));
        assert!(assert_same_resolution(&text, &origin).is_none(), "{origin} resolves");
    }

    // CODEC on a CHUNKED layout is checked per file, after the shape.
    let chunked = SHAPES.replace(
        "c$REL.dat DIRID = 0:1:1 REL = 3:4:1 TIME = 0:0:1",
        "c$REL.dat DIRID = 0:1:1 REL = 3:4:1 TIME = 0:0:1 CODEC csv",
    );
    assert_ne!(chunked, SHAPES);
    assert!(resolve(&parse_descriptor(&chunked).unwrap()).is_err());
    assert!(assert_same_resolution(&chunked, "CHUNKED + CODEC").is_none());
}

fn arb_cfg() -> impl Strategy<Value = IparsConfig> {
    (1usize..4, 1usize..7, 1usize..6, 1usize..4, 1usize..3, any::<u32>()).prop_map(
        |(r, t, g, d, n, seed)| IparsConfig {
            realizations: r,
            time_steps: t,
            grid_per_dir: g,
            dirs: d * n,
            nodes: n,
            seed: seed as u64,
        },
    )
}

fn arb_layout() -> impl Strategy<Value = IparsLayout> {
    (0usize..7).prop_map(|i| IparsLayout::all()[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_ipars_layouts_resolve_as_per_file(cfg in arb_cfg(), layout in arb_layout()) {
        let text = ipars::descriptor(&cfg, layout);
        let m = assert_same_resolution(&text, &format!("{layout:?} {cfg:?}"));
        prop_assert!(m.is_some());
    }
}

/// Shapes that depend on a loop bound and on an index template: the
/// `steps` loop reads `$REL`, the `chunks` index file is per `$DIRID`.
/// Both datasets store `{V}` alone, so they form one file class and
/// every group is a single file.
const SHAPES: &str = r#"
[S]
REL = int
TIME = int
V = float

[D]
DatasetDescription = S
DIR[0] = n0/d
DIR[1] = n1/d

DATASET "D" {
  DATATYPE { S }
  DATAINDEX { V }
  DATA { DATASET steps DATASET chunks }
  DATASET "steps" {
    DATASPACE { LOOP TIME 1:(2+$REL):1 { LOOP G 1:4:1 { V } } }
    DATA { DIR[$DIRID]/s$REL.dat DIRID = 0:1:1 REL = 0:2:1 }
  }
  DATASET "chunks" {
    DATASPACE { CHUNKED INDEXFILE "DIR[$DIRID]/c.idx" { V } }
    DATA { DIR[$DIRID]/c$REL.dat DIRID = 0:1:1 REL = 3:4:1 TIME = 0:0:1 }
  }
}
"#;

/// Rows per chunk of each directory's index.
const CHUNK_ROWS: [&[u64]; 2] = [&[2, 3], &[1, 1, 4]];

/// Write every file `SHAPES` names under a fresh scratch directory.
fn stage_shapes() -> PathBuf {
    let base = scratch("shape-key");
    let value = |dir: usize, rel: usize, i: usize| (dir * 100 + rel * 10 + i) as f32 / 128.0;
    for (dir, rows) in CHUNK_ROWS.iter().enumerate() {
        let root = base.join(format!("n{dir}/d"));
        std::fs::create_dir_all(&root).unwrap();
        for rel in 0..3 {
            let n = (2 + rel) * 4;
            let bytes: Vec<u8> = (0..n).flat_map(|i| value(dir, rel, i).to_le_bytes()).collect();
            std::fs::write(root.join(format!("s{rel}.dat")), bytes).unwrap();
        }
        let total: u64 = rows.iter().sum();
        for rel in 3..5 {
            let bytes: Vec<u8> =
                (0..total as usize).flat_map(|i| value(dir, rel, i).to_le_bytes()).collect();
            std::fs::write(root.join(format!("c{rel}.dat")), bytes).unwrap();
        }
        // Bounds that cover both data files' values, chunk by chunk.
        let mut entries = Vec::new();
        let mut first = 0u64;
        for &r in rows.iter() {
            let lo = value(dir, 3, first as usize) as f64;
            let hi = value(dir, 4, (first + r - 1) as usize) as f64;
            entries.push(ChunkIndexEntry { bounds: vec![(lo, hi)], offset: first * 4, rows: r });
            first += r;
        }
        write_chunk_index(&root.join("c.idx"), 1, &entries).unwrap();
    }
    base
}

const QUERIES: &[&str] = &[
    "SELECT * FROM D",
    "SELECT REL, TIME, V FROM D WHERE TIME >= 2 AND REL < 4",
    "SELECT V FROM D WHERE V > 1.0 AND V < 1.2",
    "SELECT REL, V FROM D WHERE TIME * 2 > 5",
    "SELECT REL, TIME, COUNT(*), SUM(V) FROM D GROUP BY REL, TIME",
];

#[test]
fn shape_key_reads_loop_bounds_and_index_templates() {
    let base = stage_shapes();
    let shared = assert_same_resolution(SHAPES, "SHAPES").unwrap();
    // steps: one shape per REL (3); chunks: one per DIRID (2).
    assert_eq!(shared.files.len(), 10);
    assert_eq!(shared.shapes.len(), 5);
    let per_file = resolve_per_file(&parse_descriptor(SHAPES).unwrap()).unwrap().model;
    assert_eq!(per_file.shapes.len(), 10);

    let compile = |m: DatasetModel| {
        let roots = m.nodes.iter().map(|n| base.join(n)).collect();
        Arc::new(CompiledDataset::compile(Arc::new(m), roots).unwrap())
    };
    let (a, b) = (compile(shared), compile(per_file));
    assert!(a.verify_files().is_empty(), "{:?}", a.verify_files());
    let service = |c: &Arc<CompiledDataset>| {
        QueryService::new(Arc::clone(c), UdfRegistry::with_builtins(), &ServiceConfig::default())
    };
    let (sa, sb) = (service(&a), service(&b));
    let opts = QueryOptions::default();
    for sql in QUERIES {
        let q = sa.bind_sql(sql).unwrap();
        let (pa, pb) = (a.plan_query(&q).unwrap(), b.plan_query(&q).unwrap());
        assert!(pa.planned_rows() > 0, "{sql}");
        for (na, nb) in pa.node_plans.iter().zip(&pb.node_plans) {
            assert_eq!(na.afcs, nb.afcs, "{sql}: node {} AFCs", na.node);
            assert_eq!(format!("{:?}", na.prune), format!("{:?}", nb.prune), "{sql}");
        }
        let (ta, _) = sa.execute(sql, &opts).unwrap();
        let (tb, _) = sb.execute(sql, &opts).unwrap();
        let rows =
            |t: &[dv_types::Table]| format!("{:?}", t.iter().map(|t| &t.rows).collect::<Vec<_>>());
        assert_eq!(rows(&ta), rows(&tb), "{sql}: results differ");
        assert!(ta.iter().map(|t| t.rows.len()).sum::<usize>() > 0, "{sql}");
    }
    let _ = std::fs::remove_dir_all(&base);
}
