//! `Find_File_Groups` — the first phase of the paper's Figure 5
//! algorithm, run once per node when its plan catalog is built.
//!
//! 1. Classify the node's files by the set of attributes they store
//!    (`S_1..S_m`). A file storing only auxiliary attributes still
//!    defines cardinality and is classified by its dataset name.
//! 2. Enumerate combinations `{s_1..s_m}`, one file per class,
//!    discarding combinations whose implicit attributes are
//!    inconsistent. The enumeration is a DFS with partial-consistency
//!    pruning — semantically the paper's cartesian product + filter,
//!    without materializing the product.
//!
//! No query is involved: a query selects the groups whose every file
//! survives [`file_matches`] (`plan.rs`). Because every group holds one
//! file of each class, a class the query empties drops every group —
//! `TIME >= 1000` leaves the coordinate files alone with no group, not
//! coordinate-only rows.

use std::cmp::Ordering;
use std::collections::HashMap;

use dv_descriptor::{DatasetModel, FileModel};
use dv_types::IntervalSet;

/// File groups of one node, each in class order.
pub type FileGroups<'a> = Vec<Vec<&'a FileModel>>;

/// Does the file survive the query's range constraints? Every
/// constrained variable the file has an extent for must overlap it (a
/// query constrains few variables, so look each one up).
pub fn file_matches(file: &FileModel, ranges: &HashMap<String, IntervalSet>) -> bool {
    ranges.iter().all(|(var, set)| {
        file.extent(var).is_none_or(|e| {
            let (lo, hi) = e.hull();
            set.overlaps_closed(lo as f64, hi as f64)
        })
    })
}

/// A node file with its implicit hulls in name order, read once for
/// the DFS's pairwise checks.
type Hulled<'a> = (&'a FileModel, Vec<(&'a str, (i64, i64))>);

fn hulled(f: &FileModel) -> Hulled<'_> {
    (f, f.extents().map(|(var, e)| (var, e.hull())).collect())
}

/// Are two files consistent enough to contribute to the same rows?
/// (Shared implicit variables must overlap; exact alignment is checked
/// later at the segment level.) Both hull lists are sorted by name.
fn consistent(a: &[(&str, (i64, i64))], b: &[(&str, (i64, i64))]) -> bool {
    let (mut i, mut j) = (0, 0);
    while let (Some(&(va, (alo, ahi))), Some(&(vb, (blo, bhi)))) = (a.get(i), b.get(j)) {
        match va.cmp(vb) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                if alo > bhi || blo > ahi {
                    return false;
                }
                i += 1;
                j += 1;
            }
        }
    }
    true
}

/// Compute the file groups of one cluster node.
pub fn node_file_groups(model: &DatasetModel, node: usize) -> FileGroups<'_> {
    // Classification key: the FULL set of stored attributes, exactly
    // as the paper specifies ("classify files in S by the set of
    // attributes they have"), whatever a query later needs. A
    // `SELECT X, Y, Z WHERE REL = 1` query still needs the
    // per-realization data files in the join — they supply the REL/TIME
    // implicit values and the table's cardinality, even though none of
    // their stored bytes are read (their field-less AFC entries are
    // dropped when the query instantiates its chunks). A shape belongs
    // to one dataset, so the key is the shape's: classify each shape
    // once.
    type Key<'a> = (Vec<&'a str>, Option<&'a str>);
    fn key(f: &FileModel) -> Key<'_> {
        let mut attrs: Vec<&str> = f.stored_attrs().iter().map(String::as_str).collect();
        attrs.sort_unstable();
        let dataset = attrs.is_empty().then_some(f.dataset.as_str());
        (attrs, dataset)
    }
    let mut classes: Vec<(Key<'_>, Vec<Hulled<'_>>)> = Vec::new();
    let mut class_of_shape: HashMap<usize, usize> = HashMap::new();
    for f in model.files_on_node(node) {
        let c = *class_of_shape.entry(f.shape.id).or_insert_with(|| {
            let k = key(f);
            classes.iter().position(|(c, _)| *c == k).unwrap_or_else(|| {
                classes.push((k, Vec::new()));
                classes.len() - 1
            })
        });
        classes[c].1.push(hulled(f));
    }
    if classes.is_empty() {
        return Vec::new();
    }
    let mut classes: Vec<Vec<Hulled<'_>>> = classes.into_iter().map(|(_, f)| f).collect();

    // Smallest classes first: cheap pruning near the root of the DFS.
    classes.sort_by_key(|files| files.len());

    let mut groups: FileGroups<'_> = Vec::new();
    let mut current: Vec<&Hulled<'_>> = Vec::new();
    dfs(&classes, 0, &mut current, &mut groups);
    groups
}

fn dfs<'a, 'c>(
    classes: &'c [Vec<Hulled<'a>>],
    depth: usize,
    current: &mut Vec<&'c Hulled<'a>>,
    out: &mut FileGroups<'a>,
) {
    if depth == classes.len() {
        out.push(current.iter().map(|&&(f, _)| f).collect());
        return;
    }
    for candidate in &classes[depth] {
        if current.iter().all(|chosen| consistent(&chosen.1, &candidate.1)) {
            current.push(candidate);
            dfs(classes, depth + 1, current, out);
            current.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::test_support::{ranges, selected_groups};
    use dv_descriptor::compile;
    use dv_types::Interval;

    /// Four-directory Ipars, as in the paper's worked example (§4).
    const DESC: &str = r#"
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

    #[test]
    fn paper_worked_example() {
        // Query: REL in {0, 1}, TIME in [1, 100]. The paper finds, per
        // k, groups {DIR[k]/COORDS, DIR[k]/DATA0} and
        // {DIR[k]/COORDS, DIR[k]/DATA1} — 8 groups over 4 nodes, i.e.
        // 2 groups on each node.
        let m = compile(DESC).unwrap();
        let r = [
            ("REL", IntervalSet::points(&[0.0, 1.0])),
            ("TIME", IntervalSet::single(Interval::closed(1.0, 100.0))),
        ];
        for node in 0..4 {
            let groups = selected_groups(&m, node, &r);
            assert_eq!(groups.len(), 2, "node {node}");
            for g in &groups {
                assert_eq!(g.len(), 2);
                // One coords file + one data file, same directory.
                let coords = g.iter().find(|f| f.dataset == "ipars1").unwrap();
                let data = g.iter().find(|f| f.dataset == "ipars2").unwrap();
                assert_eq!(coords.env["DIRID"], data.env["DIRID"]);
                assert!(data.env["REL"] == 0 || data.env["REL"] == 1);
            }
        }
    }

    #[test]
    fn rel_pruning_drops_files() {
        let m = compile(DESC).unwrap();
        let groups = selected_groups(&m, 0, &[("REL", IntervalSet::points(&[3.0]))]);
        assert_eq!(groups.len(), 1);
        let data = groups[0].iter().find(|f| f.dataset == "ipars2").unwrap();
        assert_eq!(data.env["REL"], 3);
    }

    #[test]
    fn time_out_of_range_eliminates_everything() {
        let m = compile(DESC).unwrap();
        let r = [("TIME", IntervalSet::single(Interval::closed(1000.0, 1100.0)))];
        let groups = selected_groups(&m, 0, &r);
        assert!(groups.is_empty());
    }

    #[test]
    fn projection_groups_keep_full_structure() {
        // Groups pair COORDS with the data files whatever a query
        // projects (classification uses the full attribute sets;
        // projection push-down happens later, at the AFC-entry level).
        let m = compile(DESC).unwrap();
        let groups = node_file_groups(&m, 0);
        assert_eq!(groups.len(), 4); // one per REL
        assert!(groups.iter().all(|g| g.len() == 2));
    }

    #[test]
    fn implicit_only_projection_falls_back_to_structure() {
        // SELECT REL, TIME: nothing needed is stored anywhere, yet the
        // groups a query selects must still produce the table's
        // cardinality.
        let m = compile(DESC).unwrap();
        let groups = selected_groups(&m, 0, &[]);
        // Full structure: coords × data per REL.
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| g.len() == 2));
    }

    #[test]
    fn cross_directory_combinations_rejected() {
        // Give one node two directories: consistency on GRID/DIRID
        // must keep same-directory pairs only.
        let desc = DESC
            .replace("DIR[1] = osu1/ipars", "DIR[1] = osu0/ipars2")
            .replace("DIR[2] = osu2/ipars", "DIR[2] = osu2x/ipars")
            .replace("DIR[3] = osu3/ipars", "DIR[3] = osu3x/ipars");
        let m = compile(&desc).unwrap();
        assert_eq!(m.node_count(), 3);
        // Node 0 hosts DIR[0] and DIR[1]: 2 dirs × 4 RELs.
        let groups = node_file_groups(&m, 0);
        assert_eq!(groups.len(), 8);
        for g in &groups {
            let coords = g.iter().find(|f| f.dataset == "ipars1").unwrap();
            let data = g.iter().find(|f| f.dataset == "ipars2").unwrap();
            assert_eq!(coords.env["DIRID"], data.env["DIRID"]);
        }
    }

    #[test]
    fn file_matches_respects_extents() {
        let m = compile(DESC).unwrap();
        let data0 =
            m.files.iter().find(|f| f.rel_path == "ipars/DATA0" && f.env["DIRID"] == 0).unwrap();
        assert!(file_matches(data0, &ranges(&[("REL", IntervalSet::points(&[0.0]))])));
        assert!(!file_matches(data0, &ranges(&[("REL", IntervalSet::points(&[2.0]))])));
        assert!(file_matches(
            data0,
            &ranges(&[("TIME", IntervalSet::single(Interval::closed(499.0, 600.0)))])
        ));
        assert!(!file_matches(
            data0,
            &ranges(&[("TIME", IntervalSet::single(Interval::closed(501.0, 600.0)))])
        ));
    }
}
