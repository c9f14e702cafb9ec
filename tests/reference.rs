//! The serial reference executor: the differential suites' oracle.
//!
//! It answers a query the slow, obvious way and shares nothing with the
//! engine it checks except planning. It plans with the public
//! [`CompiledDataset::prepare_query`] / [`CompiledDataset::plan_node`],
//! so it walks the same post-prune AFC lists. Then, per node and per
//! AFC in plan order, it:
//!
//! * reads each file's whole logical image itself (`std::fs::read` plus
//!   [`codec::decode_physical`]): no `IoScheduler`, segment cache,
//!   morsels, mover or absorber;
//! * decodes every row into a `Vec<Value>` from the AFC's fields and
//!   implicits;
//! * evaluates the whole predicate on it with [`EvalContext::eval`],
//!   ignoring prune verdicts;
//! * projects it and hands it to the processor
//!   [`PartitionStrategy::assign`] picks for its scanned ordinal — the
//!   rows of every earlier AFC of the node plus its index in its AFC.
//!
//! Aggregates fold each AFC's surviving rows into a partial of their
//! own accumulator type ([`Acc`], not `AggTable`/`AccState`) and merge
//! the partials per group in `(node, AFC)` order: the engine's fold
//! tree, so results are bit-identical by construction.

use std::cmp::Ordering;
use std::collections::HashMap;

use dv_core::{CompiledDataset, QueryOptions, Virtualizer};
use dv_descriptor::codec;
use dv_layout::{Afc, ImplicitValue};
use dv_sql::eval::EvalContext;
use dv_sql::{bind, parse, AggOutput, BoundQuery, UdfRegistry};
use dv_types::{AggFunc, DataType, Row, Table, Value};

/// Run `sql` over `v`'s files. Honours the options that decide *which*
/// rows reach which processor (`no_prune`, `client_processors`,
/// `partition`); every other option only changes how the engine gets
/// there. The query may call the built-in UDFs only.
pub fn execute(v: &Virtualizer, sql: &str, opts: &QueryOptions) -> Vec<Table> {
    let udfs = UdfRegistry::with_builtins();
    let bq = bind(&parse(sql).unwrap(), v.schema(), &udfs).unwrap();
    let compiled = v.service().compiled();
    let mut prep = compiled.prepare_query(&bq).unwrap();
    prep.prune_enabled = !opts.no_prune;
    let cx = EvalContext::new(v.schema().len(), &prep.working.attrs, &udfs);
    let keep = |row: &[Value]| bq.predicate.as_ref().is_none_or(|p| cx.eval(p, row));

    let processors = opts.client_processors;
    let mut tables = vec![Table::empty(bq.output_schema()); processors];
    let mut images = Images { compiled, bytes: HashMap::new() };
    let mut groups = Groups::default();
    for node in 0..compiled.model.node_count() {
        let plan = compiled.plan_node(&prep, node).unwrap();
        let mut ordinal = 0u64;
        for afc in &plan.afcs {
            let rows = images.decode(afc, prep.working.attrs.len());
            match &prep.agg {
                Some(a) => {
                    let mut partials = Groups::default();
                    for row in rows.iter().filter(|r| keep(r)) {
                        let key = a.group_pos.iter().map(|&p| key_bits(row[p])).collect();
                        let accs = a.spec.aggs.iter().zip(&a.arg_pos).map(|(g, arg)| {
                            Acc::first(g.func, arg.map_or(0.0, |p| row[p].as_f64()))
                        });
                        partials.add(key, accs.collect());
                    }
                    for (key, accs) in partials.groups {
                        groups.add(key, accs);
                    }
                }
                None => {
                    for (r, row) in rows.iter().enumerate().filter(|(_, row)| keep(row)) {
                        let out: Row = prep.output_positions.iter().map(|&p| row[p]).collect();
                        let p = opts.partition.assign(ordinal + r as u64, &out, processors);
                        tables[p].rows.push(out);
                    }
                }
            }
            ordinal += afc.num_rows;
        }
    }
    if bq.agg.is_some() {
        groups.finish(&bq, &mut tables[0]);
    }
    tables
}

/// Each file's logical image, read and decoded once per execution.
struct Images<'a> {
    compiled: &'a CompiledDataset,
    bytes: HashMap<usize, Vec<u8>>,
}

impl Images<'_> {
    fn image(&mut self, file: usize) -> &[u8] {
        let compiled = self.compiled;
        self.bytes.entry(file).or_insert_with(|| {
            let f = &compiled.model.files[file];
            let physical = std::fs::read(compiled.file_path(file)).unwrap();
            codec::decode_physical(f.codec, f, &compiled.model.attr_types, &physical).unwrap()
        })
    }

    /// Every working row of `afc`, in AFC order.
    fn decode(&mut self, afc: &Afc, width: usize) -> Vec<Row> {
        let n = afc.num_rows as usize;
        let mut rows = vec![vec![Value::Char(0); width]; n];
        for f in &afc.fields {
            let e = &afc.entries[f.entry];
            let image = self.image(e.file);
            for (r, row) in rows.iter_mut().enumerate() {
                let at = e.offset as usize + r * e.stride as usize + f.byte_off;
                row[f.working_pos] = Value::decode(f.dtype, &image[at..at + f.dtype.size()]);
            }
        }
        for (pos, imp) in &afc.implicits {
            for (r, row) in rows.iter_mut().enumerate() {
                row[*pos] = match *imp {
                    ImplicitValue::Const(v) => v,
                    ImplicitValue::Affine { start, step, dtype } => {
                        Value::from_i64(dtype, start + r as i64 * step)
                    }
                };
            }
        }
        rows
    }
}

/// One group's running state for one aggregate call.
#[derive(Clone, Copy)]
enum Acc {
    Count(i64),
    Sum(f64),
    Min(f64),
    Max(f64),
    Avg(f64, i64),
}

impl Acc {
    fn first(func: AggFunc, x: f64) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(1),
            AggFunc::Sum => Acc::Sum(x),
            AggFunc::Min => Acc::Min(x),
            AggFunc::Max => Acc::Max(x),
            AggFunc::Avg => Acc::Avg(x, 1),
        }
    }

    /// Fold a row value (`Acc::first` of it) or a later AFC's partial.
    fn merge(&mut self, o: Acc) {
        match (self, o) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::Sum(a), Acc::Sum(b)) => *a += b,
            (Acc::Min(a), Acc::Min(b)) if b.total_cmp(a).is_lt() => *a = b,
            (Acc::Max(a), Acc::Max(b)) if b.total_cmp(a).is_gt() => *a = b,
            (Acc::Avg(s, c), Acc::Avg(t, d)) => {
                *s += t;
                *c += d;
            }
            (Acc::Min(_), Acc::Min(_)) | (Acc::Max(_), Acc::Max(_)) => {}
            _ => unreachable!("one aggregate call, one accumulator kind"),
        }
    }

    fn finalize(self, dtype: DataType) -> Value {
        match self {
            Acc::Count(c) => Value::Long(c),
            Acc::Sum(s) => Value::Double(s),
            Acc::Min(m) | Acc::Max(m) => Value::from_f64(dtype, m),
            Acc::Avg(s, c) => Value::Double(s / c as f64),
        }
    }
}

/// A group key: each `GROUP BY` value's bits, every NaN one code.
type Key = Vec<u64>;

fn key_bits(v: Value) -> u64 {
    let x = v.as_f64();
    if x.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        x.to_bits()
    }
}

/// Groups in first-seen order: one AFC's partials (fed its rows in
/// scan order) or the query's merge of them (fed the AFCs' partials in
/// `(node, AFC)` order).
#[derive(Default)]
struct Groups {
    slot: HashMap<Key, usize>,
    groups: Vec<(Key, Vec<Acc>)>,
}

impl Groups {
    /// Fold `accs` into `key`'s group. A new group copies them, so a
    /// first contribution is never added to a zero.
    fn add(&mut self, key: Key, accs: Vec<Acc>) {
        match self.slot.get(&key) {
            Some(&i) => self.groups[i].1.iter_mut().zip(accs).for_each(|(a, b)| a.merge(b)),
            None => {
                self.slot.insert(key.clone(), self.groups.len());
                self.groups.push((key, accs));
            }
        }
    }

    /// Finalize into rows sorted by decoded key (`total_cmp`,
    /// lexicographic).
    fn finish(self, bq: &BoundQuery, out: &mut Table) {
        let spec = bq.agg.as_ref().expect("aggregate query");
        let dtypes = spec.group_dtypes(&bq.schema);
        let decode = |key: &Key| -> Vec<Value> {
            key.iter().zip(&dtypes).map(|(&b, &t)| Value::from_f64(t, f64::from_bits(b))).collect()
        };
        let mut rows: Vec<(Vec<Value>, Vec<Acc>)> =
            self.groups.into_iter().map(|(k, accs)| (decode(&k), accs)).collect();
        rows.sort_by(|(a, _), (b, _)| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|c| c.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        for (keys, accs) in rows {
            let row: Row = spec
                .output
                .iter()
                .map(|o| match *o {
                    AggOutput::Group(k) => keys[k],
                    AggOutput::Agg(a) => accs[a].finalize(spec.result_dtype(a, &bq.schema)),
                })
                .collect();
            out.rows.push(row);
        }
    }
}
