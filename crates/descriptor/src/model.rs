//! Resolved dataset model — the output of descriptor compilation.
//!
//! Resolution expands every `DATA` file binding over its variable
//! ranges into concrete [`FileModel`]s. A file owns only what differs
//! from file to file: its path, node, codec and binding environment
//! (`DIRID = 1, REL = 3`). What its `DATASPACE` evaluates to is a
//! [`FileShape`], shared through an `Arc` by every file whose binding
//! values the dataspace reads are equal:
//!
//! * a fully-evaluated loop-nest layout (all bounds are integers);
//! * the schema attributes the layout stores;
//! * the extents of its loop variables.
//!
//! A file's *implicit attribute extents* ([`FileModel::extents`]) —
//! values or ranges of attributes that are never stored in the file's
//! bytes but are implied by the file name, directory, or loop
//! structure (paper §4) — are its binding points merged with its
//! shape's loop extents. They drive both file pruning and
//! aligned-file-chunk consistency checks. A descriptor naming 800 files
//! through `DIR[$DIRID]/r$REL.t$TIME.dat` whose loops read only
//! `$DIRID` resolves to as many shapes as it has directories.

use std::cmp::Ordering;
use std::collections::{btree_map, HashMap};
use std::iter::Peekable;
use std::sync::Arc;

use dv_types::{DataType, Schema};

use crate::codec::CodecKind;
use crate::expr::Env;

/// Location of a `DIR[i]` storage entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirInfo {
    /// Cluster node id (index into [`DatasetModel::nodes`]).
    pub node: usize,
    /// Directory path on that node.
    pub path: String,
}

/// Extent of an implicit variable for one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarExtent {
    /// Single value (e.g. `REL = 2` inferred from the file name).
    Point(i64),
    /// Inclusive range with stride (e.g. `TIME` spanning `1..=500`
    /// from `LOOP TIME 1:500:1`).
    Range { lo: i64, hi: i64, step: i64 },
}

impl VarExtent {
    /// Inclusive `(lo, hi)` hull.
    pub fn hull(&self) -> (i64, i64) {
        match *self {
            VarExtent::Point(v) => (v, v),
            VarExtent::Range { lo, hi, .. } => (lo, hi),
        }
    }

    /// Merge two extents into their hull (used when a variable appears
    /// in several loops of the same file).
    pub fn merge(&self, other: &VarExtent) -> VarExtent {
        let (a_lo, a_hi) = self.hull();
        let (b_lo, b_hi) = other.hull();
        let step = match (self, other) {
            (VarExtent::Range { step, .. }, _) => *step,
            (_, VarExtent::Range { step, .. }) => *step,
            _ => 1,
        };
        VarExtent::Range { lo: a_lo.min(b_lo), hi: a_hi.max(b_hi), step }
    }
}

/// A fully-resolved layout element within one file.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedItem {
    /// Inclusive loop `var = lo, lo+step, ..., <= hi`.
    Loop { var: String, lo: i64, hi: i64, step: i64, body: Vec<ResolvedItem> },
    /// Contiguous record of attributes, one instance per enclosing
    /// iteration.
    Attrs(Vec<String>),
    /// Variable-length chunks described by an external index file.
    Chunked { index_node: usize, index_path: String, attrs: Vec<String> },
}

impl ResolvedItem {
    /// Iteration count of a loop (`0` for empty loops). Exact for any
    /// bounds (saturating at `u64::MAX`); the resolver only admits
    /// loops [`ResolvedItem::checked_loop_iterations`] accepts.
    pub fn loop_iterations(lo: i64, hi: i64, step: i64) -> u64 {
        if step <= 0 || lo > hi {
            0
        } else {
            let n = (i128::from(hi) - i128::from(lo)) / i128::from(step) + 1;
            u64::try_from(n).unwrap_or(u64::MAX)
        }
    }

    /// Iteration count of the range `lo:hi:step`, or `None` when a value
    /// of the range, or the one a further step would reach, does not
    /// fit in an `i64` — so a walk of it, `lo + i*step` for `i` up to
    /// the count, never overflows. Empty ranges count `0`.
    pub fn checked_loop_iterations(lo: i64, hi: i64, step: i64) -> Option<u64> {
        let n = Self::loop_iterations(lo, hi, step);
        let end = i128::from(lo) + i128::from(n) * i128::from(step);
        (n == 0 || end <= i128::from(i64::MAX)).then_some(n)
    }

    /// Byte size of this item given per-attribute sizes. `Chunked`
    /// items have data-dependent size and return `None`.
    pub fn byte_size(&self, attr_sizes: &HashMap<String, usize>) -> Option<u64> {
        match self {
            ResolvedItem::Attrs(attrs) => {
                let mut total = 0u64;
                for a in attrs {
                    total += *attr_sizes.get(a)? as u64;
                }
                Some(total)
            }
            ResolvedItem::Loop { lo, hi, step, body, .. } => {
                let iters = Self::loop_iterations(*lo, *hi, *step);
                let body_size = items_byte_size(body, attr_sizes)?;
                Some(iters * body_size)
            }
            ResolvedItem::Chunked { .. } => None,
        }
    }
}

/// Total byte size of a resolved item sequence (`None` if any item is
/// data-dependent).
pub fn items_byte_size(items: &[ResolvedItem], attr_sizes: &HashMap<String, usize>) -> Option<u64> {
    let mut total = 0u64;
    for item in items {
        total += item.byte_size(attr_sizes)?;
    }
    Some(total)
}

/// One resolved `DATASPACE`: what every file of one leaf dataset whose
/// binding values the dataspace reads are equal shares.
#[derive(Debug, Clone, PartialEq)]
pub struct FileShape {
    /// Dense id within [`DatasetModel::shapes`].
    pub id: usize,
    /// Resolved byte layout.
    pub layout: Vec<ResolvedItem>,
    /// Schema attributes physically stored, in first appearance order.
    pub stored_attrs: Vec<String>,
    /// Extent of every loop variable, sorted by name; a variable of
    /// several loops gets their hull (with the first loop's step). Keys
    /// include non-schema alignment variables such as `GRID`.
    pub loop_extents: Vec<(String, VarExtent)>,
}

/// One concrete data file of the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct FileModel {
    /// Dense id within [`DatasetModel::files`].
    pub id: usize,
    /// Leaf dataset this file belongs to.
    pub dataset: String,
    /// Cluster node hosting the file.
    pub node: usize,
    /// Path of the file relative to the node's storage root.
    pub rel_path: String,
    /// Binding-variable environment that produced this file
    /// (`DIRID = 1, REL = 3`).
    pub env: Env,
    /// Storage codec of the physical file.
    pub codec: CodecKind,
    /// The file's resolved layout, shared with every file of the same
    /// shape.
    pub shape: Arc<FileShape>,
}

impl FileModel {
    /// Resolved byte layout.
    pub fn layout(&self) -> &[ResolvedItem] {
        &self.shape.layout
    }

    /// Schema attributes physically stored in this file, in first
    /// appearance order.
    pub fn stored_attrs(&self) -> &[String] {
        &self.shape.stored_attrs
    }

    /// Implicit extents of every variable relevant to this file, sorted
    /// by name: binding variables (points) and loop variables (ranges;
    /// a binding variable that is also looped over gets the hull of
    /// both). Allocates nothing.
    pub fn extents(&self) -> Extents<'_> {
        Extents {
            points: self.env.iter().peekable(),
            loops: self.shape.loop_extents.iter().peekable(),
        }
    }

    /// The implicit extent of `var`, if the file has one.
    pub fn extent(&self, var: &str) -> Option<VarExtent> {
        let point = self.env.get(var).map(|&v| VarExtent::Point(v));
        let looped = self
            .shape
            .loop_extents
            .binary_search_by(|(k, _)| k.as_str().cmp(var))
            .ok()
            .map(|i| self.shape.loop_extents[i].1);
        match (point, looped) {
            (Some(p), Some(l)) => Some(p.merge(&l)),
            (p, l) => p.or(l),
        }
    }

    /// The variables both files have an extent for, in name order, with
    /// this file's extent and `other`'s: one merge of the two sorted
    /// [`FileModel::extents`], no lookups.
    pub fn shared_extents<'a>(
        &'a self,
        other: &'a FileModel,
    ) -> impl Iterator<Item = (&'a str, VarExtent, VarExtent)> + 'a {
        let mut theirs = other.extents().peekable();
        self.extents().filter_map(move |(var, mine)| {
            while theirs.next_if(|&(v, _)| v < var).is_some() {}
            theirs.next_if(|&(v, _)| v == var).map(|(_, e)| (var, mine, e))
        })
    }

    /// Expected byte size of the *logical* image from the layout
    /// (`None` when chunked). For affine codecs this is also the
    /// physical file size; for CSV/zstd the physical size is
    /// data-dependent.
    pub fn expected_size(&self, attr_sizes: &HashMap<String, usize>) -> Option<u64> {
        items_byte_size(self.layout(), attr_sizes)
    }

    /// True when the layout is a `CHUNKED` external-index layout.
    pub fn is_chunked(&self) -> bool {
        matches!(self.layout().first(), Some(ResolvedItem::Chunked { .. }))
    }
}

/// [`FileModel::extents`]: a file's binding points merged, by name,
/// with its shape's loop extents.
pub struct Extents<'a> {
    points: Peekable<btree_map::Iter<'a, String, i64>>,
    loops: Peekable<std::slice::Iter<'a, (String, VarExtent)>>,
}

impl<'a> Iterator for Extents<'a> {
    type Item = (&'a str, VarExtent);

    fn next(&mut self) -> Option<Self::Item> {
        let order = match (self.points.peek(), self.loops.peek()) {
            (Some((p, _)), Some((l, _))) => p.as_str().cmp(l.as_str()),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        let point = |(k, &v): (&'a String, &i64)| (k.as_str(), VarExtent::Point(v));
        match order {
            Ordering::Less => self.points.next().map(point),
            Ordering::Greater => self.loops.next().map(|(k, e)| (k.as_str(), *e)),
            Ordering::Equal => {
                let (k, p) = self.points.next().map(point)?;
                let (_, l) = self.loops.next()?;
                Some((k, p.merge(l)))
            }
        }
    }
}

/// The resolved model of a whole dataset: everything the layout
/// compiler needs, with no descriptor-text processing left to do.
#[derive(Debug, Clone)]
pub struct DatasetModel {
    /// Virtual table schema.
    pub schema: Schema,
    /// Root dataset name (what queries name in `FROM`).
    pub dataset_name: String,
    /// Attributes declared in `DATAINDEX` (upper-cased).
    pub index_attrs: Vec<String>,
    /// Cluster node names; node id = position.
    pub nodes: Vec<String>,
    /// `DIR[i]` table.
    pub dirs: Vec<DirInfo>,
    /// Types of all attributes appearing in layouts: schema attributes
    /// plus auxiliary (`DATATYPE { NAME = type }`) attributes.
    pub attr_types: HashMap<String, DataType>,
    /// Sizes in bytes, derived from `attr_types`.
    pub attr_sizes: HashMap<String, usize>,
    /// Every concrete file.
    pub files: Vec<FileModel>,
    /// Every distinct resolved layout, indexed by [`FileShape::id`].
    pub shapes: Vec<Arc<FileShape>>,
}

impl DatasetModel {
    /// Files hosted on `node`.
    pub fn files_on_node(&self, node: usize) -> impl Iterator<Item = &FileModel> {
        self.files.iter().filter(move |f| f.node == node)
    }

    /// Number of cluster nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Schema attribute indices declared as indexable.
    pub fn index_attr_indices(&self) -> Vec<usize> {
        self.index_attrs.iter().filter_map(|a| self.schema.index_of(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> HashMap<String, usize> {
        [("A".to_string(), 4), ("B".to_string(), 8)].into_iter().collect()
    }

    #[test]
    fn loop_iterations_inclusive() {
        assert_eq!(ResolvedItem::loop_iterations(1, 500, 1), 500);
        assert_eq!(ResolvedItem::loop_iterations(0, 3, 1), 4);
        assert_eq!(ResolvedItem::loop_iterations(1, 10, 3), 4); // 1,4,7,10
        assert_eq!(ResolvedItem::loop_iterations(5, 4, 1), 0);
        assert_eq!(ResolvedItem::loop_iterations(1, 10, 0), 0);
        assert_eq!(ResolvedItem::loop_iterations(i64::MIN, i64::MAX, 1), u64::MAX);
        assert_eq!(ResolvedItem::loop_iterations(-i64::MAX, i64::MAX, 1), u64::MAX);
    }

    #[test]
    fn checked_iterations_reject_ranges_that_step_past_i64() {
        assert_eq!(ResolvedItem::checked_loop_iterations(1, 10, 3), Some(4));
        assert_eq!(ResolvedItem::checked_loop_iterations(5, 4, 1), Some(0));
        assert_eq!(ResolvedItem::checked_loop_iterations(i64::MAX - 10, i64::MAX - 1, 1), Some(10));
        // The walk's next value, MAX - 1 + 1, still fits.
        assert_eq!(
            ResolvedItem::checked_loop_iterations(i64::MIN, i64::MAX - 1, 1),
            Some(u64::MAX)
        );
        assert_eq!(ResolvedItem::checked_loop_iterations(-i64::MAX, i64::MAX, 1), None);
        // 9223372036854775800 and …805 fit; the step after them does not.
        assert_eq!(ResolvedItem::checked_loop_iterations(i64::MAX - 7, i64::MAX, 5), None);
        assert_eq!(ResolvedItem::checked_loop_iterations(i64::MAX - 10, i64::MAX - 6, 5), Some(1));
    }

    #[test]
    fn extents_merge_binding_points_with_loop_extents() {
        let shape = FileShape {
            id: 0,
            layout: Vec::new(),
            stored_attrs: Vec::new(),
            loop_extents: vec![
                ("GRID".into(), VarExtent::Range { lo: 1, hi: 10, step: 1 }),
                ("REL".into(), VarExtent::Range { lo: 4, hi: 6, step: 2 }),
                ("TIME".into(), VarExtent::Range { lo: 1, hi: 5, step: 1 }),
            ],
        };
        let file = FileModel {
            id: 0,
            dataset: "d".into(),
            node: 0,
            rel_path: "f".into(),
            env: [("DIRID".to_string(), 1), ("REL".to_string(), 2), ("Z".to_string(), 9)].into(),
            codec: CodecKind::FixedBinary,
            shape: Arc::new(shape),
        };
        let all: Vec<(&str, VarExtent)> = file.extents().collect();
        assert_eq!(
            all,
            [
                ("DIRID", VarExtent::Point(1)),
                ("GRID", VarExtent::Range { lo: 1, hi: 10, step: 1 }),
                ("REL", VarExtent::Range { lo: 2, hi: 6, step: 2 }),
                ("TIME", VarExtent::Range { lo: 1, hi: 5, step: 1 }),
                ("Z", VarExtent::Point(9)),
            ]
        );
        for (var, e) in &all {
            assert_eq!(file.extent(var), Some(*e), "{var}");
        }
        assert_eq!(file.extent("NONE"), None);

        let mut other = file.clone();
        other.env = [("A".to_string(), 0), ("REL".to_string(), 7), ("ZZ".to_string(), 1)].into();
        let shared: Vec<(&str, VarExtent, VarExtent)> = file.shared_extents(&other).collect();
        let rel = VarExtent::Range { lo: 2, hi: 6, step: 2 };
        let rel_other = VarExtent::Range { lo: 4, hi: 7, step: 2 };
        assert_eq!(
            shared,
            [("GRID", all[1].1, all[1].1), ("REL", rel, rel_other), ("TIME", all[3].1, all[3].1),]
        );
    }

    #[test]
    fn byte_size_nested() {
        let item = ResolvedItem::Loop {
            var: "T".into(),
            lo: 1,
            hi: 10,
            step: 1,
            body: vec![ResolvedItem::Loop {
                var: "G".into(),
                lo: 1,
                hi: 5,
                step: 1,
                body: vec![ResolvedItem::Attrs(vec!["A".into(), "B".into()])],
            }],
        };
        assert_eq!(item.byte_size(&sizes()), Some(10 * 5 * 12));
    }

    #[test]
    fn byte_size_unknown_attr_is_none() {
        let item = ResolvedItem::Attrs(vec!["MISSING".into()]);
        assert_eq!(item.byte_size(&sizes()), None);
    }

    #[test]
    fn chunked_size_unknown() {
        let item = ResolvedItem::Chunked {
            index_node: 0,
            index_path: "i".into(),
            attrs: vec!["A".into()],
        };
        assert_eq!(item.byte_size(&sizes()), None);
    }

    #[test]
    fn extent_hull_and_merge() {
        let p = VarExtent::Point(5);
        assert_eq!(p.hull(), (5, 5));
        let r = VarExtent::Range { lo: 1, hi: 10, step: 2 };
        assert_eq!(r.hull(), (1, 10));
        assert_eq!(p.merge(&r).hull(), (1, 10));
    }
}
