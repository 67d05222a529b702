//! The full Replica&Indexes bundle: one of each per-component structure
//! plus the catalog, with the maintenance logic that keeps them in sync
//! with a [`ViewStore`]. This is the physical layer the iQL query
//! processor runs against and the unit whose sizes Table 3 reports.

use idm_core::prelude::*;

use crate::catalog::ResourceViewCatalog;
use crate::fulltext::FullTextIndex;
use crate::group::GroupReplica;
use crate::name::NameIndex;
use crate::tuple::TupleIndex;

/// Per-index byte sizes (one Table 3 row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexSizes {
    /// Name index & replica.
    pub name: usize,
    /// Tuple index & replica.
    pub tuple: usize,
    /// Content (full-text) index.
    pub content: usize,
    /// Group replica.
    pub group: usize,
    /// Resource view catalog.
    pub catalog: usize,
}

impl IndexSizes {
    /// Sum of all structures.
    pub fn total(&self) -> usize {
        self.name + self.tuple + self.content + self.group + self.catalog
    }
}

/// All indexes, replicas and the catalog of one dataspace.
#[derive(Default)]
pub struct IndexBundle {
    /// Name Index & Replica.
    pub name: NameIndex,
    /// Tuple Index & Replica.
    pub tuple: TupleIndex,
    /// Content Index (full text; not a replica).
    pub content: FullTextIndex,
    /// Group Replica (DFS intervals over a spanning forest of the
    /// group edges, answering `//` by a range test).
    pub group: GroupReplica,
    /// Resource View Catalog.
    pub catalog: ResourceViewCatalog,
}

/// What [`IndexBundle::index_view`] did with a view's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentIndexing {
    /// Content was empty; nothing to index.
    Empty,
    /// Content was textual and went into the content index.
    Indexed {
        /// Number of bytes handed to the index (net input size).
        bytes: usize,
    },
    /// Content was binary or infinite; only its size was recorded.
    Skipped,
}

/// Heuristic: is this finite content textual (indexable)?
/// NUL bytes in the head mark binary formats (images, archives, …).
pub fn is_texty(bytes: &[u8]) -> bool {
    !bytes.iter().take(512).any(|b| *b == 0)
}

impl IndexBundle {
    /// An empty bundle.
    pub fn new() -> Self {
        IndexBundle::default()
    }

    /// Registers one view in the catalog and inserts its components into
    /// all four index structures: [`IndexBundle::index_views`] over one
    /// vid. `source` labels the data source for Table 2/3-style
    /// accounting. Lazy groups are **not** forced here: a lazy group is
    /// replicated once something else has forced it.
    pub fn index_view(&self, store: &ViewStore, vid: Vid, source: &str) -> Result<ContentIndexing> {
        let mut outcome = ContentIndexing::Empty;
        self.index_chunks(store, &[vid], source, |segment| {
            if let Some((_, indexed)) = segment.outcomes().next() {
                outcome = indexed;
            }
        })?;
        Ok(outcome)
    }

    /// Lets the catalog's and the group replica's columns reach every
    /// vid below `next`, the store's next vid
    /// ([`ViewStore::next_vid`]). Every index write does this first;
    /// after a load, which bounds the columns by the file's own entries,
    /// the caller does.
    pub fn reserve_vids(&self, next: u64) {
        self.catalog.reserve_vids(next);
        self.group.reserve_vids(next);
    }

    /// Removes a view from every structure.
    pub fn remove_view(&self, vid: Vid) {
        self.remove_views(&[vid]);
    }

    /// Removes a set of views from every structure, visiting only the
    /// entries the views hold: their terms' posting lists, the tuple
    /// columns they name and their catalog class and source lists, each
    /// searched once for the whole set. Duplicates and unknown vids are
    /// no-ops.
    pub fn remove_views(&self, vids: &[Vid]) {
        for &vid in vids {
            self.catalog.with_name(vid, |name| {
                if let Some(name) = name.filter(|name| !name.is_empty()) {
                    self.name.remove(vid, name);
                }
            });
            self.group.remove(vid);
        }
        self.tuple.remove_all(vids);
        self.content.remove_all(vids);
        self.catalog.unregister_all(vids);
    }

    /// Current byte sizes of all structures.
    pub fn sizes(&self) -> IndexSizes {
        IndexSizes {
            name: self.name.footprint_bytes(),
            tuple: self.tuple.footprint_bytes(),
            content: self.content.footprint_bytes(),
            group: self.group.footprint_bytes(),
            catalog: self.catalog.footprint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::class::builtin::names;

    fn fs_tuple(size: i64) -> TupleComponent {
        TupleComponent::of(vec![
            ("size", Value::Integer(size)),
            ("creation time", Value::Date(Timestamp(0))),
            ("last modified time", Value::Date(Timestamp(0))),
        ])
    }

    #[test]
    fn index_view_populates_all_structures() {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        let child = store.build("child").insert();
        let vid = store
            .build("notes.txt")
            .tuple(fs_tuple(42))
            .text("searching for database tuning hints")
            .children(vec![child])
            .class_named(names::FILE)
            .insert();

        let outcome = bundle.index_view(&store, vid, "filesystem").unwrap();
        assert!(matches!(outcome, ContentIndexing::Indexed { bytes } if bytes > 0));

        assert_eq!(bundle.name.exact("notes.txt"), vec![vid]);
        assert_eq!(
            bundle
                .tuple
                .compare("size", crate::tuple::CompareOp::Eq, &Value::Integer(42)),
            vec![vid]
        );
        assert_eq!(bundle.content.phrase_query("database tuning"), vec![vid]);
        assert_eq!(bundle.group.children(vid), vec![child]);
        let entry = bundle.catalog.entry(vid).unwrap();
        assert_eq!(entry.class.as_deref(), Some("file"));
        assert_eq!(entry.source, "filesystem");
        assert!(entry.content_indexed);
    }

    #[test]
    fn binary_content_is_size_counted_not_indexed() {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        let vid = store
            .build("photo.jpg")
            .content(Content::inline(vec![0xFFu8, 0xD8, 0x00, 0x10, 0x00]))
            .insert();
        let outcome = bundle.index_view(&store, vid, "filesystem").unwrap();
        assert_eq!(outcome, ContentIndexing::Skipped);
        let entry = bundle.catalog.entry(vid).unwrap();
        assert!(!entry.content_indexed);
        assert_eq!(entry.content_size, Some(5));
        assert_eq!(bundle.content.document_count(), 0);
    }

    #[test]
    fn unforced_lazy_groups_not_replicated() {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        let provider = std::sync::Arc::new(|store: &ViewStore, _vid: Vid| {
            Ok(GroupData::of_set(vec![store.build("late").insert()]))
        });
        let vid = store.build("lazy").group(Group::lazy(provider)).insert();
        bundle.index_view(&store, vid, "fs").unwrap();
        assert!(bundle.group.children(vid).is_empty());

        // After forcing, re-indexing picks the members up.
        store.group(vid).unwrap();
        bundle.index_view(&store, vid, "fs").unwrap();
        assert_eq!(bundle.group.children(vid).len(), 1);
    }

    #[test]
    fn remove_view_clears_all_structures() {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        let vid = store
            .build("gone.txt")
            .tuple(fs_tuple(1))
            .text("ephemeral words")
            .insert();
        bundle.index_view(&store, vid, "fs").unwrap();
        bundle.remove_view(vid);
        assert!(bundle.name.exact("gone.txt").is_empty());
        assert!(bundle.content.term_query("ephemeral").is_empty());
        assert!(bundle.tuple.tuple_of(vid).is_none());
        assert!(!bundle.catalog.contains(vid));
    }

    #[test]
    fn sizes_total_adds_up() {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        for i in 0..50 {
            let vid = store
                .build(format!("doc{i}.txt"))
                .tuple(fs_tuple(i))
                .text(format!("document number {i} about dataspaces"))
                .insert();
            bundle.index_view(&store, vid, "fs").unwrap();
        }
        let sizes = bundle.sizes();
        assert_eq!(
            sizes.total(),
            sizes.name + sizes.tuple + sizes.content + sizes.group + sizes.catalog
        );
        assert!(sizes.content > 0 && sizes.name > 0 && sizes.catalog > 0);
    }
}
