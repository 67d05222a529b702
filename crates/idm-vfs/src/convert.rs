//! Instantiating the files&folders data model in iDM (Section 3.2).
//!
//! Every folder becomes a `folder` resource view (children in the set
//! `S`), every file a `file` view whose content component reads the file
//! bytes **lazily** from the filesystem (the bytes are extensional base
//! facts, but the iDM graph does not materialize them until asked —
//! Section 4.2), and every folder link becomes a plain view whose group
//! points at the target folder's view, which is how Figure 1's cyclic
//! `Projects → PIM → All Projects → Projects` path arises.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use idm_core::prelude::*;

use crate::{NodeId, NodeKind, VirtualFs};

/// The result of instantiating a filesystem subtree in a view store.
#[derive(Debug)]
pub struct FsMapping {
    /// The view representing the subtree root.
    pub root: Vid,
    /// Filesystem node → resource view.
    pub by_node: HashMap<NodeId, Vid>,
}

impl FsMapping {
    /// The view for a filesystem node, if it was part of the subtree.
    pub fn view_of(&self, node: NodeId) -> Option<Vid> {
        self.by_node.get(&node).copied()
    }
}

struct FileContentProvider {
    fs: Arc<VirtualFs>,
    node: NodeId,
    size: u64,
}

impl ContentProvider for FileContentProvider {
    fn compute(&self) -> Result<Bytes> {
        self.fs.read_file(self.node)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.size)
    }
}

/// Instantiates the filesystem subtree rooted at `from` as resource
/// views in `store`.
///
/// Two passes: the first mints a view per node, the second wires group
/// components — necessary because folder links may point anywhere,
/// including ancestors (cycles). Pass 1 collects the whole subtree's
/// view records and inserts them through [`ViewStore::insert_batch`]:
/// one store write-lock acquisition and one WAL group commit for the
/// entire subtree, with vids minted by the store's
/// monotone counter in walk order. If pass 2 fails, the views pass 1
/// inserted are removed before the error returns.
pub fn materialize(fs: &Arc<VirtualFs>, store: &ViewStore, from: NodeId) -> Result<FsMapping> {
    let file_class = store
        .classes()
        .require(idm_core::class::builtin::names::FILE)?;
    let folder_class = store
        .classes()
        .require(idm_core::class::builtin::names::FOLDER)?;
    let link_class = store
        .classes()
        .require(idm_core::class::builtin::names::FOLDERLINK)?;

    let nodes = fs.walk(from)?;

    // Pass 1: mint views with η, τ, χ.
    let mut batch = Vec::with_capacity(nodes.len());
    for (node, _depth) in &nodes {
        let name = fs.name(*node)?;
        let meta = fs.metadata(*node)?;
        let kind = fs.kind(*node)?;
        let mut builder = store.build(name).tuple(meta.to_tuple());
        builder = match kind {
            NodeKind::File => builder
                .content(Content::lazy(Arc::new(FileContentProvider {
                    fs: Arc::clone(fs),
                    node: *node,
                    size: meta.size,
                })))
                .class(file_class),
            NodeKind::Folder => builder.class(folder_class),
            // A link view's group points at the target folder's view
            // (wired in pass 2).
            NodeKind::FolderLink => builder.class(link_class),
        };
        batch.push(builder.into_record());
    }
    let vids = store.insert_batch(batch);
    let by_node: HashMap<NodeId, Vid> = nodes
        .iter()
        .map(|(node, _depth)| *node)
        .zip(vids.iter().copied())
        .collect();

    // Pass 2: wire groups. A failure here removes pass 1's views, so a
    // failed materialization leaves none.
    if let Err(err) = wire_groups(fs, store, &nodes, &by_node) {
        for &vid in &vids {
            store.remove(vid).ok();
        }
        return Err(err);
    }

    let root = by_node.get(&from).copied().ok_or_else(|| {
        IdmError::provider(format!("vfs: walk of node {from:?} did not visit its root"))
    })?;
    Ok(FsMapping { root, by_node })
}

/// Pass 2 of [`materialize`]: a folder's group holds its children's
/// views, a link's group its target folder's view.
fn wire_groups(
    fs: &VirtualFs,
    store: &ViewStore,
    nodes: &[(NodeId, usize)],
    by_node: &HashMap<NodeId, Vid>,
) -> Result<()> {
    for (node, _depth) in nodes {
        // Pass 1 minted a view for every node of this same walk
        // snapshot, so the lookup cannot miss.
        let vid = by_node[node];
        match fs.kind(*node)? {
            NodeKind::Folder => {
                let children: Vec<Vid> = fs
                    .list(*node)?
                    .into_iter()
                    .filter_map(|e| by_node.get(&e.id).copied())
                    .collect();
                if !children.is_empty() {
                    store.set_group(vid, Group::of_set(children))?;
                }
            }
            NodeKind::FolderLink => {
                if let Some(target) = fs.link_target(*node)? {
                    // The target may be outside the materialized subtree;
                    // only wire it when we know its view.
                    if let Some(target_vid) = by_node.get(&target) {
                        store.set_group(vid, Group::of_set(vec![*target_vid]))?;
                    }
                }
            }
            NodeKind::File => {}
        }
    }
    Ok(())
}

/// Instantiates a folder as a **lazy** resource view: its group component
/// expands (and recursively creates child views, themselves lazy) only
/// when `getGroupComponent()` is first called — the Section 4.1 behaviour.
///
/// Folder links inside lazily expanded subtrees resolve to *fresh* lazy
/// views of the target folder rather than to a shared view; callers that
/// need shared, cycle-preserving identity use [`materialize`].
pub fn lazy_root(fs: &Arc<VirtualFs>, store: &ViewStore, from: NodeId) -> Result<Vid> {
    let name = fs.name(from)?;
    let meta = fs.metadata(from)?;
    match fs.kind(from)? {
        NodeKind::File => {
            let file_class = store
                .classes()
                .require(idm_core::class::builtin::names::FILE)?;
            Ok(store
                .build(name)
                .tuple(meta.to_tuple())
                .content(Content::lazy(Arc::new(FileContentProvider {
                    fs: Arc::clone(fs),
                    node: from,
                    size: meta.size,
                })))
                .class(file_class)
                .insert())
        }
        NodeKind::FolderLink => {
            let target = fs
                .link_target(from)?
                .ok_or_else(|| IdmError::provider("vfs: dangling folder link"))?;
            let fs2 = Arc::clone(fs);
            let provider = Arc::new(move |store: &ViewStore, _owner: Vid| {
                let child = lazy_root(&fs2, store, target)?;
                Ok(GroupData::of_set(vec![child]))
            });
            Ok(store.build(name).group(Group::lazy(provider)).insert())
        }
        NodeKind::Folder => {
            let folder_class = store
                .classes()
                .require(idm_core::class::builtin::names::FOLDER)?;
            let fs2 = Arc::clone(fs);
            let provider = Arc::new(move |store: &ViewStore, _owner: Vid| {
                let mut children = Vec::new();
                for entry in fs2.list(from)? {
                    children.push(lazy_root(&fs2, store, entry.id)?);
                }
                Ok(GroupData::of_set(children))
            });
            Ok(store
                .build(name)
                .tuple(meta.to_tuple())
                .group(Group::lazy(provider))
                .class(folder_class)
                .insert())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::class::builtin::names;
    use idm_core::graph;

    fn t() -> Timestamp {
        Timestamp::from_ymd(2005, 6, 1).unwrap()
    }

    fn figure1_fs() -> Arc<VirtualFs> {
        let fs = Arc::new(VirtualFs::new(t()));
        let projects = fs.mkdir_p("/Projects", t()).unwrap();
        let pim = fs.mkdir_p("/Projects/PIM", t()).unwrap();
        fs.mkdir_p("/Projects/OLAP", t()).unwrap();
        fs.create_file(pim, "vldb 2006.tex", "\\section{Introduction}", t())
            .unwrap();
        fs.create_file(pim, "Grant.doc", "grant proposal", t())
            .unwrap();
        fs.create_link(pim, "All Projects", projects, t()).unwrap();
        fs
    }

    #[test]
    fn materialize_maps_every_node() {
        let fs = figure1_fs();
        let store = ViewStore::new();
        let mapping = materialize(&fs, &store, NodeId::ROOT).unwrap();
        assert_eq!(mapping.by_node.len(), fs.node_count());
        assert_eq!(store.len(), fs.node_count());
    }

    #[test]
    fn materialize_preserves_classes_and_tuples() {
        let fs = figure1_fs();
        let store = ViewStore::new();
        let mapping = materialize(&fs, &store, NodeId::ROOT).unwrap();
        let pim_node = fs.resolve("/Projects/PIM").unwrap();
        let pim = mapping.view_of(pim_node).unwrap();
        assert!(store.conforms_to(pim, names::FOLDER).unwrap());
        assert_eq!(
            store.tuple(pim).unwrap().unwrap().get("size"),
            Some(&Value::Integer(4096))
        );
        let file_node = fs.resolve("/Projects/PIM/Grant.doc").unwrap();
        let file = mapping.view_of(file_node).unwrap();
        assert!(store.conforms_to(file, names::FILE).unwrap());
    }

    #[test]
    fn file_content_is_lazy_but_correct() {
        let fs = figure1_fs();
        let store = ViewStore::new();
        let mapping = materialize(&fs, &store, NodeId::ROOT).unwrap();
        let file_node = fs.resolve("/Projects/PIM/vldb 2006.tex").unwrap();
        let file = mapping.view_of(file_node).unwrap();
        let content = store.content(file).unwrap();
        assert!(content.is_intensional(), "reads bytes on demand");
        assert_eq!(content.size_hint(), Some(22), "size known without read");
        assert_eq!(content.text_lossy().unwrap(), "\\section{Introduction}");
    }

    #[test]
    fn folder_link_creates_cycle_in_view_graph() {
        let fs = figure1_fs();
        let store = ViewStore::new();
        let mapping = materialize(&fs, &store, NodeId::ROOT).unwrap();
        let projects = mapping.view_of(fs.resolve("/Projects").unwrap()).unwrap();
        // Projects →* Projects via PIM → All Projects → Projects.
        assert!(graph::is_indirectly_related(&store, projects, projects).unwrap());
    }

    #[test]
    fn materialize_mints_vids_in_walk_order() {
        let fs = figure1_fs();
        let store = ViewStore::new();
        let before = store.build("unrelated").insert();
        let mapping = materialize(&fs, &store, NodeId::ROOT).unwrap();

        let walk = fs.walk(NodeId::ROOT).unwrap();
        let minted: Vec<Vid> = walk.iter().map(|(node, _)| mapping.by_node[node]).collect();
        let expected: Vec<Vid> = (1..=walk.len() as u64)
            .map(|i| Vid::from_raw(before.as_u64() + i))
            .collect();
        assert_eq!(
            minted, expected,
            "one batch, consecutive vids in walk order"
        );
        assert_eq!(mapping.root, minted[0]);
        for (node, _) in &walk {
            let vid = mapping.by_node[node];
            assert_eq!(store.name(vid).unwrap(), Some(fs.name(*node).unwrap()));
        }
    }

    #[test]
    fn lazy_root_defers_child_creation() {
        let fs = figure1_fs();
        let store = ViewStore::new();
        let root = lazy_root(&fs, &store, fs.resolve("/Projects").unwrap()).unwrap();
        assert_eq!(store.len(), 1, "only the root view exists");
        let children = store.group(root).unwrap().finite_members();
        assert_eq!(children.len(), 2, "PIM and OLAP");
        assert!(store.len() >= 3);
        // Forcing again does not duplicate.
        let again = store.group(root).unwrap().finite_members();
        assert_eq!(children, again);
    }

    #[test]
    fn lazy_link_expansion_terminates() {
        let fs = figure1_fs();
        let store = ViewStore::new();
        let root = lazy_root(&fs, &store, fs.resolve("/Projects/PIM").unwrap()).unwrap();
        let children = store.group(root).unwrap().finite_members();
        // Find the link view and expand it one step: it mints a fresh
        // Projects view rather than looping forever.
        let link = children
            .iter()
            .copied()
            .find(|c| store.name(*c).unwrap().as_deref() == Some("All Projects"))
            .unwrap();
        let targets = store.group(link).unwrap().finite_members();
        assert_eq!(targets.len(), 1);
        assert_eq!(store.name(targets[0]).unwrap().as_deref(), Some("Projects"));
    }
}
