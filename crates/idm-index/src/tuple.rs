//! The Tuple Index & Replica: an in-memory, vertically partitioned
//! index over tuple component attributes (Section 7.2 cites the
//! Decomposition Storage Model \[11\]).
//!
//! Each attribute name gets its own sorted column of `(value, vid)`
//! pairs, so predicates like `[size > 42000 and lastmodified <
//! yesterday()]` resolve with two binary searches per attribute, under
//! the read lock (a column dirtied by a write is sorted once, by the
//! next read, under the write lock). iDM schemas are per-tuple, so the
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

#[derive(Default)]
struct Column {
    /// In [`entry_cmp`] order — once `sorted`.
    entries: Vec<(Value, Vid)>,
    sorted: bool,
    /// Whether the numeric section held a float at the last sort.
    has_float: bool,
    /// Distinct views with an entry (a tuple may name an attribute
    /// twice).
    views: usize,
}

impl Column {
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.entries.sort_by(entry_cmp);
            self.has_float = self
                .entries
                .iter()
                .any(|(v, _)| matches!(v, Value::Float(_)));
            self.sorted = true;
        }
    }

    /// The vids whose value satisfies `op` against `constant`, sorted.
    /// Requires a sorted column.
    fn select(&self, op: CompareOp, constant: &Value) -> Vec<Vid> {
        // Only the constant's domain section can match.
        let rank = section(constant);
        let lo = self.entries.partition_point(|(v, _)| section(v) < rank);
        let hi = self.entries.partition_point(|(v, _)| section(v) <= rank);
        let domain = &self.entries[lo..hi];
        let floats = self.has_float || matches!(constant, Value::Float(_));
        let mut out: Vec<Vid> = if rank == 0 && floats {
            // Not provably totally ordered: test every entry.
            domain
                .iter()
                .filter(|(v, _)| v.compare(constant).is_some_and(|ord| op.accepts(ord)))
                .map(|(_, vid)| *vid)
                .collect()
        } else {
            // Two binary searches split the section into the entries
            // less than, equal to and greater than the constant.
            let less = domain.partition_point(|(v, _)| v.compare(constant) == Some(Ordering::Less));
            let less_eq =
                domain.partition_point(|(v, _)| v.compare(constant) != Some(Ordering::Greater));
            let (head, tail) = match op {
                CompareOp::Eq => (less..less_eq, 0..0),
                CompareOp::Ne => (0..less, less_eq..domain.len()),
                CompareOp::Lt => (0..less, 0..0),
                CompareOp::Le => (0..less_eq, 0..0),
                CompareOp::Gt => (less_eq..domain.len(), 0..0),
                CompareOp::Ge => (less..domain.len(), 0..0),
            };
            domain[head]
                .iter()
                .chain(&domain[tail])
                .map(|(_, vid)| *vid)
                .collect()
        };
        out.sort();
        out.dedup();
        out
    }
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
    /// tuples gave them. In a sorted column each old `(value, vid)` is
    /// found by binary search; a column written since its last read is
    /// scanned for the dropped vids. Either way one pass over the
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
            at.clear();
            if column.sorted {
                for (k, (_, entry, _)) in run.iter().enumerate() {
                    // A tuple naming one attribute twice with one value
                    // gave the column two equal entries; both go.
                    if k > 0 && entry_cmp(&run[k - 1].1, entry) == Ordering::Equal {
                        continue;
                    }
                    let lo = column
                        .entries
                        .partition_point(|e| entry_cmp(e, entry) == Ordering::Less);
                    let hi = lo
                        + column.entries[lo..]
                            .iter()
                            .take_while(|e| entry_cmp(e, entry) == Ordering::Equal)
                            .count();
                    at.extend(lo..hi);
                }
            } else {
                let mut views: Vec<Vid> = run.iter().map(|(_, (_, vid), _)| *vid).collect();
                views.sort_unstable();
                at.extend(
                    (0..column.entries.len())
                        .filter(|&i| views.binary_search(&column.entries[i].1).is_ok()),
                );
            }
            remove_positions(&mut column.entries, &at);
            column.views -= run.iter().filter(|(_, _, first)| *first).count();
            // A column nobody names is gone, as in a rebuilt index.
            if column.entries.is_empty() {
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
            column.entries.push((value.clone(), vid));
            column.sorted = false;
            column.views += usize::from(first_of_its_name(tuple, i));
        }
    }

    /// Removes a view's tuple from index and replica.
    pub fn remove(&self, vid: Vid) {
        self.remove_all(&[vid]);
    }

    /// Removes a set of views' tuples: only the columns they name are
    /// touched, and a sorted one by binary search (see
    /// `Inner::drop_views`).
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
        {
            let inner = self.inner.read();
            match inner.columns.get(attr) {
                None => return Vec::new(),
                Some(column) if column.sorted => return column.select(op, constant),
                Some(_) => {}
            }
        }
        // Dirtied since the last read: sort it once, under the write lock.
        let mut inner = self.inner.write();
        let Some(column) = inner.columns.get_mut(attr) else {
            return Vec::new();
        };
        column.ensure_sorted();
        column.select(op, constant)
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
        let mut out: Vec<Vid> = column.entries.iter().map(|(_, v)| *v).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Exports the tuple replica for persistence (columns are derived on
    /// import), sorted by vid.
    pub fn export_replica(&self) -> Vec<(u64, TupleComponent)> {
        let inner = self.inner.read();
        let mut rows: Vec<(u64, TupleComponent)> = inner
            .replica
            .iter()
            .map(|(vid, tuple)| (vid.as_u64(), tuple.clone()))
            .collect();
        rows.sort_by_key(|(v, _)| *v);
        rows
    }

    /// Rebuilds the index from an exported replica.
    pub fn import_replica(&self, rows: Vec<(u64, TupleComponent)>) {
        {
            let mut inner = self.inner.write();
            *inner = Inner::default();
        }
        for (vid, tuple) in rows {
            self.index(Vid::from_raw(vid), &tuple);
        }
    }

    /// Number of indexed views.
    pub fn view_count(&self) -> usize {
        self.inner.read().replica.len()
    }

    /// Number of attribute columns.
    pub fn column_count(&self) -> usize {
        self.inner.read().columns.len()
    }

    /// Approximate in-memory footprint in bytes (columns + replica).
    pub fn footprint_bytes(&self) -> usize {
        let inner = self.inner.read();
        let columns: usize = inner
            .columns
            .iter()
            .map(|(name, c)| {
                name.len()
                    + 48
                    + c.entries
                        .iter()
                        .map(|(v, _)| v.footprint() + 8)
                        .sum::<usize>()
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
