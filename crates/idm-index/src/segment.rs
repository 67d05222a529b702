//! Index segments: the one write path into the indexes.
//!
//! Every view enters the bundle through [`IndexBundle::index_views`]:
//! its views are cut into chunks of [`SEGMENT_VIEWS`], each chunk is
//! *built* into an [`IndexSegment`] — all store reads and tokenization,
//! no index locks — and the segment is *merged* into the live bundle
//! ([`IndexBundle::merge_segment`]) before the next chunk is built, so
//! one segment is alive at a time. Everything runs on the calling
//! thread. Ingest, sync events, audit repair, the reopen catch-up, a
//! full rebuild and [`IndexBundle::index_view`] all go through it.
//!
//! Merge invariants:
//!
//! - Chunks partition the caller's vid-sorted view list contiguously,
//!   and segments are merged in chunk order, so every per-index insert
//!   happens in ascending-vid order, keeping posting lists and replicas
//!   byte-identical to indexing the views one at a time.
//! - A segment captures the view *at build time*; mutations racing an
//!   ingest are reconciled by the later re-index, not by the segment.
//! - Segments are process-local staging only — nothing here persists.
//!   The merged bundle is stamped with its LSN epoch at the next
//!   checkpoint (`save_with_epoch`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use idm_core::prelude::*;

use crate::bundle::{is_texty, ContentIndexing, IndexBundle};
use crate::catalog::RowRef;
use crate::fulltext::{pretokenize, PretokenizedDoc};

/// Views per index segment: the views built between two merges, which
/// bounds the staging one segment holds.
pub const SEGMENT_VIEWS: usize = 512;

/// What one [`IndexBundle::index_views`] call did, split the way
/// Figure 5 splits indexing time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexRun {
    /// Bytes handed to the content index (Table 3's net input size).
    pub net_input_bytes: u64,
    /// Segments built and merged.
    pub segments: usize,
    /// Time building segments (Figure 5's component indexing).
    pub build: Duration,
    /// Time merging them into the bundle (Figure 5's catalog insert).
    pub merge: Duration,
}

/// One view's fully-prepared index contributions.
#[derive(Debug)]
struct SegmentEntry {
    vid: Vid,
    /// The name the name index and the catalog both read.
    name: String,
    class: Option<ClassId>,
    content_size: Option<u64>,
    tuple: Option<TupleComponent>,
    doc: Option<PretokenizedDoc>,
    members: Option<Vec<Vid>>,
    outcome: ContentIndexing,
}

/// A batch of views' index contributions, built off the live bundle and
/// merged in with [`IndexBundle::merge_segment`].
#[derive(Debug, Default)]
pub struct IndexSegment {
    entries: Vec<SegmentEntry>,
    /// The data source label of every view in the segment.
    source: String,
    /// The name of each class a view in the segment has.
    classes: BTreeMap<ClassId, String>,
    /// Total bytes handed to the content index (net input size).
    net_input_bytes: u64,
}

impl IndexSegment {
    /// Prepares the index contributions of `vids` (one contiguous chunk
    /// of an ingest's view list). Reads the store — under its read
    /// lock — and tokenizes content, but touches no index.
    pub fn build(store: &ViewStore, vids: &[Vid], source: &str) -> Result<IndexSegment> {
        let mut segment = IndexSegment {
            entries: Vec::with_capacity(vids.len()),
            source: source.to_owned(),
            ..IndexSegment::default()
        };
        for &vid in vids {
            let name = store.with_name(vid, |name| name.unwrap_or_default().to_owned())?;
            let tuple = store.with_tuple(vid, |tuple| tuple.cloned())?;

            let content = store.content(vid)?;
            let mut doc = None;
            let outcome = if content.is_empty() {
                ContentIndexing::Empty
            } else if content.is_finite() {
                let bytes = content.bytes()?;
                if is_texty(&bytes) {
                    doc = pretokenize(&String::from_utf8_lossy(&bytes));
                    segment.net_input_bytes += bytes.len() as u64;
                    ContentIndexing::Indexed { bytes: bytes.len() }
                } else {
                    ContentIndexing::Skipped
                }
            } else {
                ContentIndexing::Skipped
            };

            // Group members: materialized only. Lazy groups are not
            // forced here (callers decide when the graph expands);
            // infinite groups are managed through stream windows.
            let members = match &store.group_handle(vid)? {
                Group::Materialized(data) => Some(data.members().collect::<Vec<Vid>>()),
                Group::Lazy(lazy) => {
                    if lazy.is_materialized() {
                        // Re-force returns the cached value without computing.
                        Some(lazy.force(store, vid)?.members().collect())
                    } else {
                        None
                    }
                }
                Group::Empty | Group::InfiniteSeq(_) => None,
            };

            let content_size = match outcome {
                ContentIndexing::Indexed { bytes } => Some(bytes as u64),
                _ => content.size_hint(),
            };
            let class = store.class(vid)?;
            if let Some(class) = class {
                segment
                    .classes
                    .entry(class)
                    .or_insert_with(|| store.classes().name(class));
            }

            segment.entries.push(SegmentEntry {
                vid,
                name,
                class,
                content_size,
                tuple,
                doc,
                members,
                outcome,
            });
        }
        Ok(segment)
    }

    /// Total bytes handed to the content index.
    pub fn net_input_bytes(&self) -> u64 {
        self.net_input_bytes
    }

    /// Per-view content outcomes, in segment order (for stats).
    pub fn outcomes(&self) -> impl Iterator<Item = (Vid, ContentIndexing)> + '_ {
        self.entries.iter().map(|e| (e.vid, e.outcome))
    }
}

impl IndexBundle {
    /// Indexes `vids` (vid-sorted) under the data source label `source`:
    /// registers each in the catalog and inserts its components into the
    /// four index structures, one chunk of [`SEGMENT_VIEWS`] at a time
    /// (see the module doc).
    pub fn index_views(&self, store: &ViewStore, vids: &[Vid], source: &str) -> Result<IndexRun> {
        self.index_chunks(store, vids, source, |_| {})
    }

    /// The chunk loop behind [`IndexBundle::index_views`]; `merged` sees
    /// each segment just before it is merged.
    pub(crate) fn index_chunks(
        &self,
        store: &ViewStore,
        vids: &[Vid],
        source: &str,
        mut merged: impl FnMut(&IndexSegment),
    ) -> Result<IndexRun> {
        // However many vids the store handed out that never reached the
        // index, the columns reach the ones about to.
        self.reserve_vids(store.next_vid());
        let mut run = IndexRun::default();
        for chunk in vids.chunks(SEGMENT_VIEWS) {
            let started = Instant::now();
            let segment = IndexSegment::build(store, chunk, source)?;
            run.build += started.elapsed();

            let started = Instant::now();
            run.net_input_bytes += segment.net_input_bytes();
            run.segments += 1;
            merged(&segment);
            self.merge_segment(segment);
            run.merge += started.elapsed();
        }
        Ok(run)
    }

    /// Merges a prepared segment into the live structures. Cheap
    /// relative to [`IndexSegment::build`]: tokenization is done, so
    /// this is pure insertion under the per-index locks. Segments of
    /// one vid-sorted list are merged in chunk order, so every insert
    /// happens in ascending-vid order.
    pub fn merge_segment(&self, segment: IndexSegment) {
        for entry in segment.entries {
            self.name.index(entry.vid, &entry.name);
            if let Some(tuple) = &entry.tuple {
                self.tuple.index(entry.vid, tuple);
            }
            if let Some(doc) = entry.doc {
                self.content.index_pretokenized(entry.vid, doc);
            }
            if let Some(members) = &entry.members {
                self.group.index(entry.vid, members);
            }
            self.catalog.register_row(RowRef {
                vid: entry.vid.as_u64(),
                name: &entry.name,
                class: entry.class.map(|class| segment.classes[&class].as_str()),
                source: &segment.source,
                content_size: entry.content_size,
                content_indexed: matches!(entry.outcome, ContentIndexing::Indexed { .. }),
            });
        }
    }

    /// Brings `vids` up to date with the store — the one re-index body
    /// behind audit repair and the reopen catch-up. Each view is removed
    /// from every structure ([`IndexBundle::remove_views`], set-wise)
    /// and, if the store still holds it, rebuilt through
    /// [`IndexBundle::index_views`] under the source label its catalog
    /// row carried (`"dataspace"` when it had none), one call per label.
    /// A vid neither the catalog nor the store knows is skipped.
    /// Idempotent; the result is the bundle a rebuild from the same
    /// store with the same labels produces. Returns the number of views
    /// rebuilt.
    pub fn reindex_views(&self, store: &ViewStore, vids: &[Vid]) -> Result<usize> {
        let mut vids = vids.to_vec();
        vids.sort_unstable();
        vids.dedup();
        let mut known = Vec::new();
        let mut by_source: BTreeMap<String, Vec<Vid>> = BTreeMap::new();
        for vid in vids {
            let entry = self.catalog.entry(vid);
            let live = store.contains(vid);
            if entry.is_none() && !live {
                continue;
            }
            known.push(vid);
            if live {
                let source = entry.map_or_else(|| "dataspace".to_owned(), |e| e.source);
                by_source.entry(source).or_default().push(vid);
            }
        }
        self.remove_views(&known);
        let mut rebuilt = 0;
        for (source, vids) in by_source {
            self.index_views(store, &vids, &source)?;
            rebuilt += vids.len();
        }
        Ok(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::CompareOp;

    fn populate(store: &ViewStore, n: usize) -> Vec<Vid> {
        (0..n)
            .map(|i| {
                let child = store.build(format!("child{i}")).insert();
                store
                    .build(format!("doc{i}.txt"))
                    .tuple(TupleComponent::of(vec![("size", Value::Integer(i as i64))]))
                    .text(format!("segment document {i} about dataspaces"))
                    .children(vec![child])
                    .insert()
            })
            .collect()
    }

    /// However many vids the store hands out without their reaching the
    /// index, the views indexed after them get slots, not side entries.
    #[test]
    fn views_past_a_run_of_unindexed_vids_get_slots() {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        let first = store.build("first").insert();
        bundle.index_view(&store, first, "fs").unwrap();
        for _ in 0..(1 << 16) + 10 {
            store.remove(store.build_unnamed().insert()).unwrap();
        }
        let leaf = store.build("leaf").insert();
        let folder = store.build("folder").children(vec![leaf]).insert();
        bundle.index_views(&store, &[leaf, folder], "fs").unwrap();
        bundle.group.relabel();
        let group = bundle.group.read();
        assert_eq!(group.reach(&[]).size(), 0, "every view is labeled");
        assert_eq!(group.reach(&[folder]).size(), 1);
        drop(group);
        assert_eq!(bundle.catalog.vids(), [first, leaf, folder]);
    }

    /// One `index_views` call over more than two segments' worth of
    /// views builds the bundle that indexing them one at a time builds,
    /// down to the persisted bytes.
    #[test]
    fn segment_merge_matches_sequential_indexing() {
        let store = ViewStore::new();
        let vids = populate(&store, 2 * SEGMENT_VIEWS + 7);

        let sequential = IndexBundle::new();
        for &vid in &vids {
            sequential.index_view(&store, vid, "fs").unwrap();
        }

        let bulk = IndexBundle::new();
        let run = bulk.index_views(&store, &vids, "fs").unwrap();
        assert_eq!(run.segments, vids.len().div_ceil(SEGMENT_VIEWS));
        assert_eq!(run.segments, 3);

        assert_eq!(
            sequential.content.document_count(),
            bulk.content.document_count()
        );
        assert_eq!(sequential.content.token_count(), bulk.content.token_count());
        for &vid in &vids {
            let seq_entry = sequential.catalog.entry(vid).unwrap();
            let bulk_entry = bulk.catalog.entry(vid).unwrap();
            assert_eq!(seq_entry, bulk_entry);
            assert_eq!(sequential.group.children(vid), bulk.group.children(vid));
        }
        assert_eq!(
            sequential.content.phrase_query("segment document"),
            bulk.content.phrase_query("segment document"),
        );
        assert_eq!(
            sequential
                .tuple
                .compare("size", CompareOp::Eq, &Value::Integer(3)),
            bulk.tuple
                .compare("size", CompareOp::Eq, &Value::Integer(3)),
        );
        assert_eq!(sequential.sizes().total(), bulk.sizes().total());
        assert!(
            crate::persist::to_bytes_with_epoch(&sequential, 0)
                == crate::persist::to_bytes_with_epoch(&bulk, 0),
            "persisted index bytes differ"
        );
    }

    #[test]
    fn segment_reports_net_input_bytes() {
        let store = ViewStore::new();
        let vid = store.build("a.txt").text("hello world").insert();
        let seg = IndexSegment::build(&store, &[vid], "fs").unwrap();
        assert_eq!(seg.net_input_bytes(), "hello world".len() as u64);
        assert_eq!(
            seg.outcomes().next().unwrap().1,
            ContentIndexing::Indexed { bytes: 11 }
        );
    }
}
