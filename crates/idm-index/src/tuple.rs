//! The Tuple Index & Replica: an in-memory, vertically partitioned
//! index over tuple component attributes (Section 7.2 cites the
//! Decomposition Storage Model \[11\]).
//!
//! Each attribute name gets its own column of `(value, vid)` pairs, held
//! as two sorted runs: a base and a tail of fewer than 256 entries.
//! A write binary-inserts into the tail and, when the tail is full,
//! merges it into the base in one pass, inside that write. So a read
//! never sorts: predicates like `[size > 42000 and lastmodified <
//! yesterday()]` resolve with two binary searches per run and attribute,
//! under the read lock, and a removal finds each old entry by binary
//! search in both runs. iDM schemas are per-tuple, so the
//! same attribute name may carry values from different domains in
//! different views; the column orders values by `(domain section,
//! value)` and comparisons only consider the compatible section. The
//! one section [`Value::compare`] does not order totally is the numeric
//! one once a float is involved (`NaN`, `i64`↔`f64` rounding); there the
//! section is filtered entry by entry instead.

use std::cmp::Ordering;
use std::collections::HashMap;

use idm_core::prelude::{TupleComponent, Value, Vid};
use parking_lot::RwLock;

use crate::remove_positions;

/// Comparison operators supported by attribute predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Whether `ordering` (of value vs constant) satisfies the operator.
    pub fn accepts(self, ordering: Ordering) -> bool {
        matches!(
            (self, ordering),
            (CompareOp::Eq, Ordering::Equal)
                | (CompareOp::Ne, Ordering::Less)
                | (CompareOp::Ne, Ordering::Greater)
                | (CompareOp::Lt, Ordering::Less)
                | (CompareOp::Le, Ordering::Less)
                | (CompareOp::Le, Ordering::Equal)
                | (CompareOp::Gt, Ordering::Greater)
                | (CompareOp::Ge, Ordering::Greater)
                | (CompareOp::Ge, Ordering::Equal)
        )
    }
}

/// The domain section a value sorts into; values compare
/// ([`Value::compare`]) only within one section.
fn section(v: &Value) -> u8 {
    match v {
        Value::Integer(_) | Value::Float(_) => 0,
        Value::Text(_) => 1,
        Value::Boolean(_) => 2,
        Value::Date(_) => 3,
    }
}

/// Total order over values for column sorting: section first, value
/// order within. [`Value::compare`] is a total order on every section
/// but the numeric one once that holds a float (`NaN` compares with
/// nothing, `i64`→`f64` rounds), so numbers sort by their `f64` image
/// under `total_cmp`, a float before the integers of the same image,
/// those by integer value — on an all-integer section, integer order.
fn sort_cmp(a: &Value, b: &Value) -> Ordering {
    fn numeric_key(v: &Value) -> Option<(f64, Option<i64>)> {
        match v {
            Value::Integer(i) => Some((*i as f64, Some(*i))),
            Value::Float(x) => Some((*x, None)),
            _ => None,
        }
    }
    section(a)
        .cmp(&section(b))
        .then_with(|| match (numeric_key(a), numeric_key(b)) {
            (Some((fa, ia)), Some((fb, ib))) => fa.total_cmp(&fb).then(ia.cmp(&ib)),
            _ => a.compare(b).unwrap_or(Ordering::Equal),
        })
}

/// The order of a sorted column: `sort_cmp` on the value, ties by vid.
fn entry_cmp((va, a): &(Value, Vid), (vb, b): &(Value, Vid)) -> Ordering {
    sort_cmp(va, vb).then(a.cmp(b))
}

/// Entries a column's tail holds before it is merged into the base.
const TAIL: usize = 256;

#[derive(Default)]
struct Column {
    /// In [`entry_cmp`] order.
    base: Vec<(Value, Vid)>,
    /// In [`entry_cmp`] order; fewer than [`TAIL`] entries.
    tail: Vec<(Value, Vid)>,
    /// Float entries, in either run.
    floats: usize,
    /// Distinct views with an entry (a tuple may name an attribute
    /// twice).
    views: usize,
}

impl Column {
    /// Binary-inserts `entry` into the tail, and merges a full tail into
    /// the base: one pass that moves every entry once and compares each
    /// tail entry by binary search over the base entries still ahead.
    fn insert(&mut self, entry: (Value, Vid)) {
        self.floats += usize::from(matches!(entry.0, Value::Float(_)));
        let at = self
            .tail
            .partition_point(|e| entry_cmp(e, &entry) == Ordering::Less);
        self.tail.insert(at, entry);
        if self.tail.len() < TAIL {
            return;
        }
        let mut merged = Vec::with_capacity(self.base.len() + self.tail.len());
        let mut base = std::mem::take(&mut self.base).into_iter();
        for entry in self.tail.drain(..) {
            let ahead = base
                .as_slice()
                .partition_point(|e| entry_cmp(e, &entry) == Ordering::Less);
            merged.extend(base.by_ref().take(ahead));
            merged.push(entry);
        }
        merged.extend(base);
        self.base = merged;
    }

    /// Both runs' entries, base first.
    fn entries(&self) -> impl Iterator<Item = &(Value, Vid)> {
        self.base.iter().chain(&self.tail)
    }

    /// The vids whose value satisfies `op` against `constant`, sorted.
    fn select(&self, op: CompareOp, constant: &Value) -> Vec<Vid> {
        // Only the constant's domain section can match.
        let rank = section(constant);
        let runs = [&self.base[..], &self.tail[..]];
        let mut out: Vec<Vid> =
            if rank == 0 && (self.floats > 0 || matches!(constant, Value::Float(_))) {
                // Not provably totally ordered: test every entry.
                runs.iter()
                    .flat_map(|run| {
                        let lo = run.partition_point(|(v, _)| section(v) < rank);
                        let hi = run.partition_point(|(v, _)| section(v) <= rank);
                        &run[lo..hi]
                    })
                    .filter(|(v, _)| v.compare(constant).is_some_and(|ord| op.accepts(ord)))
                    .map(|(_, vid)| *vid)
                    .collect()
            } else {
                let picked = runs.map(|run| matching(run, rank, op, constant));
                let mut out = Vec::with_capacity(picked.iter().flatten().map(|p| p.len()).sum());
                for part in picked.iter().flatten() {
                    out.extend(part.iter().map(|(_, vid)| *vid));
                }
                out
            };
        out.sort();
        out.dedup();
        out
    }
}

/// The entries of a sorted run whose value satisfies `op` against
/// `constant`, as two slices, where section `rank` is totally ordered.
/// An entry orders against the constant by section, then by value, so
/// each bound is one binary search: two per operator, four for `Ne`.
fn matching<'a>(
    run: &'a [(Value, Vid)],
    rank: u8,
    op: CompareOp,
    constant: &Value,
) -> [&'a [(Value, Vid)]; 2] {
    let before = |bound: Ordering| {
        run.partition_point(|(v, _)| {
            let against = section(v).cmp(&rank);
            against.then_with(|| v.compare(constant).unwrap_or(Ordering::Equal)) < bound
        })
    };
    let less = || before(Ordering::Equal);
    let less_eq = || before(Ordering::Greater);
    let start = || run.partition_point(|(v, _)| section(v) < rank);
    let end = || run.partition_point(|(v, _)| section(v) <= rank);
    let (head, tail) = match op {
        CompareOp::Eq => (less()..less_eq(), 0..0),
        CompareOp::Ne => (start()..less(), less_eq()..end()),
        CompareOp::Lt => (start()..less(), 0..0),
        CompareOp::Le => (start()..less_eq(), 0..0),
        CompareOp::Gt => (less_eq()..end(), 0..0),
        CompareOp::Ge => (less()..end(), 0..0),
    };
    [&run[head], &run[tail]]
}

/// Whether attribute `i` of the tuple is the first of its name (a schema
/// may repeat a name; the view still counts once in that column).
fn first_of_its_name(tuple: &TupleComponent, i: usize) -> bool {
    let schema = tuple.schema();
    schema.position(&schema.attributes()[i].name) == Some(i)
}

#[derive(Default)]
struct Inner {
    columns: HashMap<String, Column>,
    /// Tuple replica: vid → tuple component (enables join field access
    /// like `B.tuple.label` without touching the data source).
    replica: HashMap<Vid, TupleComponent>,
}

impl Inner {
    /// Drops the replica rows of `vids` and the column entries their
    /// tuples gave them: each old `(value, vid)` is found by binary
    /// search in both runs of its column, and per run one pass over the
    /// entries behind the first found one takes them all out.
    /// Duplicates and unknown vids are no-ops.
    fn drop_views(&mut self, vids: &[Vid]) {
        let gone: Vec<(Vid, TupleComponent)> = vids
            .iter()
            .filter_map(|&vid| self.replica.remove(&vid).map(|tuple| (vid, tuple)))
            .collect();
        // (column, entry, whether the view counts once there), grouped
        // by column, entries in column order.
        let mut dropped: Vec<(&str, (Value, Vid), bool)> = gone
            .iter()
            .flat_map(|(vid, tuple)| {
                tuple.iter().enumerate().map(move |(i, (attr, value))| {
                    let first = first_of_its_name(tuple, i);
                    (attr.name.as_str(), (value.clone(), *vid), first)
                })
            })
            .collect();
        dropped.sort_unstable_by(|(a, x, _), (b, y, _)| a.cmp(b).then_with(|| entry_cmp(x, y)));
        let mut at: Vec<usize> = Vec::new();
        for run in dropped.chunk_by(|a, b| a.0 == b.0) {
            let name = run[0].0;
            let Some(column) = self.columns.get_mut(name) else {
                continue;
            };
            for entries in [&mut column.base, &mut column.tail] {
                at.clear();
                for (k, (_, entry, _)) in run.iter().enumerate() {
                    // A tuple naming one attribute twice with one value
                    // gave the column two equal entries; both go, from
                    // whichever run holds each.
                    if k > 0 && entry_cmp(&run[k - 1].1, entry) == Ordering::Equal {
                        continue;
                    }
                    let lo = entries.partition_point(|e| entry_cmp(e, entry) == Ordering::Less);
                    let hi = lo
                        + entries[lo..]
                            .iter()
                            .take_while(|e| entry_cmp(e, entry) == Ordering::Equal)
                            .count();
                    at.extend(lo..hi);
                }
                remove_positions(entries, &at);
            }
            column.views -= run.iter().filter(|(_, _, first)| *first).count();
            column.floats -= run
                .iter()
                .filter(|(_, (value, _), _)| matches!(value, Value::Float(_)))
                .count();
            // A column nobody names is gone, as in a rebuilt index.
            if column.base.is_empty() && column.tail.is_empty() {
                self.columns.remove(name);
            }
        }
    }
}

/// The vertically partitioned tuple index plus replica.
#[derive(Default)]
pub struct TupleIndex {
    inner: RwLock<Inner>,
}

impl TupleIndex {
    /// An empty index.
    pub fn new() -> Self {
        TupleIndex::default()
    }

    /// Indexes a view's tuple component (and replicates it).
    pub fn index(&self, vid: Vid, tuple: &TupleComponent) {
        let mut inner = self.inner.write();
        // Re-index: drop stale column entries first.
        inner.drop_views(&[vid]);
        inner.replica.insert(vid, tuple.clone());
        for (i, (attr, value)) in tuple.iter().enumerate() {
            let column = inner.columns.entry(attr.name.clone()).or_default();
            column.insert((value.clone(), vid));
            column.views += usize::from(first_of_its_name(tuple, i));
        }
    }

    /// Removes a view's tuple from index and replica.
    pub fn remove(&self, vid: Vid) {
        self.remove_all(&[vid]);
    }

    /// Removes a set of views' tuples: only the columns they name are
    /// touched, each by binary search (see `Inner::drop_views`).
    pub fn remove_all(&self, vids: &[Vid]) {
        self.inner.write().drop_views(vids);
    }

    /// The replicated tuple component of a view.
    pub fn tuple_of(&self, vid: Vid) -> Option<TupleComponent> {
        self.inner.read().replica.get(&vid).cloned()
    }

    /// One attribute value of a view, from the replica.
    pub fn value_of(&self, vid: Vid, attr: &str) -> Option<Value> {
        self.inner
            .read()
            .replica
            .get(&vid)
            .and_then(|t| t.get(attr).cloned())
    }

    /// Views whose `attr` value satisfies `op` against `constant`.
    /// Views whose value is of an incomparable domain never match.
    pub fn compare(&self, attr: &str, op: CompareOp, constant: &Value) -> Vec<Vid> {
        self.inner
            .read()
            .columns
            .get(attr)
            .map_or_else(Vec::new, |column| column.select(op, constant))
    }

    /// `has_attribute(attr).len()` without reading the column.
    pub fn attribute_count(&self, attr: &str) -> usize {
        self.inner
            .read()
            .columns
            .get(attr)
            .map_or(0, |column| column.views)
    }

    /// Views carrying any value for `attr`.
    pub fn has_attribute(&self, attr: &str) -> Vec<Vid> {
        let inner = self.inner.read();
        let Some(column) = inner.columns.get(attr) else {
            return Vec::new();
        };
        let mut out: Vec<Vid> = column.entries().map(|(_, v)| *v).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Exports the tuple replica for persistence (columns are derived on
    /// import), sorted by vid.
    pub fn export_replica(&self) -> Vec<(u64, TupleComponent)> {
        self.with_replica(|_, rows| rows.map(|(vid, tuple)| (vid, tuple.clone())).collect())
    }

    /// Calls `f` with the replica's size and every `(vid, tuple)`,
    /// vid-ascending, under the read lock: what
    /// [`persist`](crate::persist) encodes. Only the vids are copied, to
    /// sort them.
    pub(crate) fn with_replica<R>(
        &self,
        f: impl FnOnce(usize, &mut dyn Iterator<Item = (u64, &TupleComponent)>) -> R,
    ) -> R {
        let inner = self.inner.read();
        let mut vids: Vec<Vid> = inner.replica.keys().copied().collect();
        vids.sort_unstable();
        let mut rows = vids.iter().map(|vid| (vid.as_u64(), &inner.replica[vid]));
        f(vids.len(), &mut rows)
    }

    /// Rebuilds the index from an exported replica (a vid given twice
    /// keeps its last tuple), each column with one sort.
    pub fn import_replica(&self, rows: Vec<(u64, TupleComponent)>) {
        let replica: HashMap<Vid, TupleComponent> = rows
            .into_iter()
            .map(|(vid, tuple)| (Vid::from_raw(vid), tuple))
            .collect();
        let mut columns: HashMap<String, Column> = HashMap::new();
        for (&vid, tuple) in &replica {
            for (i, (attr, value)) in tuple.iter().enumerate() {
                let column = columns.entry(attr.name.clone()).or_default();
                column.floats += usize::from(matches!(value, Value::Float(_)));
                column.views += usize::from(first_of_its_name(tuple, i));
                column.base.push((value.clone(), vid));
            }
        }
        for column in columns.values_mut() {
            column.base.sort_unstable_by(entry_cmp);
        }
        *self.inner.write() = Inner { columns, replica };
    }

    /// Number of indexed views.
    pub fn view_count(&self) -> usize {
        self.inner.read().replica.len()
    }

    /// Approximate in-memory footprint in bytes (columns + replica).
    pub fn footprint_bytes(&self) -> usize {
        let inner = self.inner.read();
        let columns: usize = inner
            .columns
            .iter()
            .map(|(name, c)| {
                name.len() + 48 + c.entries().map(|(v, _)| v.footprint() + 8).sum::<usize>()
            })
            .sum();
        let replica: usize = inner.replica.values().map(|t| t.footprint() + 32).sum();
        columns + replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::prelude::Timestamp;

    fn vid(i: u64) -> Vid {
        Vid::from_raw(i)
    }

    fn fs_tuple(size: i64, modified_day: u32) -> TupleComponent {
        TupleComponent::of(vec![
            ("size", Value::Integer(size)),
            (
                "last modified time",
                Value::Date(Timestamp::from_ymd(2005, 6, modified_day).unwrap()),
            ),
        ])
    }

    fn sample() -> TupleIndex {
        let index = TupleIndex::new();
        index.index(vid(1), &fs_tuple(100, 1));
        index.index(vid(2), &fs_tuple(500_000, 10));
        index.index(vid(3), &fs_tuple(420_001, 20));
        index
    }

    #[test]
    fn range_comparisons() {
        let index = sample();
        assert_eq!(
            index.compare("size", CompareOp::Gt, &Value::Integer(420_000)),
            vec![vid(2), vid(3)]
        );
        assert_eq!(
            index.compare("size", CompareOp::Le, &Value::Integer(100)),
            vec![vid(1)]
        );
        assert_eq!(
            index.compare("size", CompareOp::Eq, &Value::Integer(500_000)),
            vec![vid(2)]
        );
        assert_eq!(
            index.compare("size", CompareOp::Ne, &Value::Integer(100)),
            vec![vid(2), vid(3)]
        );
    }

    #[test]
    fn date_comparisons_match_q3() {
        let index = sample();
        let cutoff = Value::Date(Timestamp::parse_dmy("12.06.2005").unwrap());
        let before = index.compare("last modified time", CompareOp::Lt, &cutoff);
        assert_eq!(before, vec![vid(1), vid(2)]);
    }

    #[test]
    fn mixed_domains_in_one_column() {
        let index = TupleIndex::new();
        index.index(
            vid(1),
            &TupleComponent::of(vec![("label", Value::Text("fig:a".into()))]),
        );
        index.index(
            vid(2),
            &TupleComponent::of(vec![("label", Value::Integer(7))]),
        );
        // Text comparison sees only the text entry.
        assert_eq!(
            index.compare("label", CompareOp::Eq, &Value::Text("fig:a".into())),
            vec![vid(1)]
        );
        // Integer comparison sees only the numeric entry.
        assert_eq!(
            index.compare("label", CompareOp::Ge, &Value::Integer(0)),
            vec![vid(2)]
        );
        assert_eq!(index.has_attribute("label"), vec![vid(1), vid(2)]);
    }

    #[test]
    fn int_float_cross_domain_comparison() {
        let index = TupleIndex::new();
        index.index(vid(1), &TupleComponent::of(vec![("x", Value::Float(1.5))]));
        index.index(vid(2), &TupleComponent::of(vec![("x", Value::Integer(2))]));
        assert_eq!(
            index.compare("x", CompareOp::Gt, &Value::Integer(1)),
            vec![vid(1), vid(2)]
        );
        assert_eq!(
            index.compare("x", CompareOp::Gt, &Value::Float(1.6)),
            vec![vid(2)]
        );
    }

    #[test]
    fn reindex_replaces_old_values() {
        let index = TupleIndex::new();
        index.index(vid(1), &fs_tuple(10, 1));
        index.index(vid(1), &fs_tuple(99, 2));
        assert_eq!(
            index.compare("size", CompareOp::Eq, &Value::Integer(10)),
            Vec::<Vid>::new()
        );
        assert_eq!(
            index.compare("size", CompareOp::Eq, &Value::Integer(99)),
            vec![vid(1)]
        );
        assert_eq!(index.view_count(), 1);
    }

    #[test]
    fn remove_clears_everything() {
        let index = sample();
        index.remove(vid(2));
        assert!(index.tuple_of(vid(2)).is_none());
        assert_eq!(
            index.compare("size", CompareOp::Gt, &Value::Integer(420_000)),
            vec![vid(3)]
        );
    }

    #[test]
    fn replica_serves_join_field_access() {
        let index = TupleIndex::new();
        index.index(
            vid(5),
            &TupleComponent::of(vec![("label", Value::Text("fig:idx".into()))]),
        );
        assert_eq!(
            index.value_of(vid(5), "label"),
            Some(Value::Text("fig:idx".into()))
        );
        assert_eq!(index.value_of(vid(5), "nope"), None);
    }

    #[test]
    fn unknown_attribute_matches_nothing() {
        let index = sample();
        assert!(index
            .compare("ghost", CompareOp::Eq, &Value::Integer(1))
            .is_empty());
        assert!(index.has_attribute("ghost").is_empty());
    }
}
