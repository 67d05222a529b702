//! # idm-vfs — a simulated filesystem substrate
//!
//! The paper's evaluation indexes a real NTFS volume. This crate provides
//! the equivalent substrate: an in-memory virtual filesystem with folders,
//! files, per-node metadata (`size`, `creation time`, `last modified
//! time` — the `W_FS` schema of Section 3.2), **folder links** (so the
//! cyclic `Projects → PIM → All Projects → Projects` structure of
//! Figure 1 is expressible) and change notifications (standing in for the
//! Mac OS X file events the paper's Synchronization Manager subscribes
//! to, Section 5.2).
//!
//! The substitution preserves the behaviour the experiments depend on:
//! enumeration order, metadata shape, byte content and notification
//! semantics are all faithful; only the medium (RAM instead of a 2006
//! IDE disk) differs, which the benchmarks account for by comparing
//! shapes, not absolute times.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod convert;

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use idm_core::prelude::*;
use parking_lot::{Mutex, RwLock};

/// Identifier of a node within one [`VirtualFs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u64);

impl NodeId {
    /// The root folder's id.
    pub const ROOT: NodeId = NodeId(0);

    /// Raw accessor.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Filesystem-level metadata carried by every node (the `W_FS` schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metadata {
    /// Size in bytes (folder size is the conventional block size, 4096).
    pub size: u64,
    /// Creation time.
    pub created: Timestamp,
    /// Last modification time.
    pub modified: Timestamp,
}

impl Metadata {
    /// Folder metadata at the given creation time.
    pub fn folder(at: Timestamp) -> Self {
        Metadata {
            size: 4096,
            created: at,
            modified: at,
        }
    }

    /// The metadata as an iDM tuple component over `W_FS`.
    pub fn to_tuple(&self) -> TupleComponent {
        TupleComponent::of(vec![
            ("size", Value::Integer(self.size as i64)),
            ("creation time", Value::Date(self.created)),
            ("last modified time", Value::Date(self.modified)),
        ])
    }
}

/// The kind of a filesystem node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A folder with child nodes (files, folders, links).
    Folder,
    /// A file with byte content.
    File,
    /// A link to another folder (enables cycles, like Figure 1's
    /// 'All Projects' link).
    FolderLink,
}

/// A filesystem change notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsEvent {
    /// A node was created (path given).
    Created(String),
    /// A node's content or metadata changed.
    Modified(String),
    /// A node was removed.
    Removed(String),
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
    meta: Metadata,
    parent: Option<NodeId>,
    /// Folder children in creation order; empty for files.
    children: Vec<NodeId>,
    /// Link target for `FolderLink` nodes.
    target: Option<NodeId>,
    /// File content; empty for folders and links.
    content: Bytes,
}

struct FsInner {
    nodes: Vec<Option<Node>>,
}

/// A deterministic latency model for simulated disk access.
///
/// The paper's filesystem source was a 2005 IDE disk whose scan cost is
/// visible in Figure 5; an in-memory filesystem is effectively free, so
/// benchmarks opt into this model to restore the cost *structure*
/// (seek per operation + transfer per byte). Default: no latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskLatency {
    /// Cost per metadata/list/read operation (seek + syscall).
    pub per_op: std::time::Duration,
    /// Transfer cost per byte read.
    pub per_byte: std::time::Duration,
    /// Whether the cost is really slept (true) or only accounted.
    pub sleep: bool,
}

impl DiskLatency {
    /// No simulated latency.
    pub fn none() -> Self {
        DiskLatency {
            per_op: std::time::Duration::ZERO,
            per_byte: std::time::Duration::ZERO,
            sleep: false,
        }
    }

    /// A scaled "2005 IDE disk" model: ~0.1 ms average positioning per
    /// operation and ~30 MB/s sequential transfer at scale 1.0.
    pub fn ide_2005(scale: f64) -> Self {
        DiskLatency {
            per_op: std::time::Duration::from_nanos((100_000.0 * scale) as u64),
            per_byte: std::time::Duration::from_nanos((33.0 * scale).max(0.0) as u64),
            sleep: true,
        }
    }
}

/// Busy-waits short costs (thread::sleep granularity would distort
/// sub-millisecond simulated latencies), sleeps long ones.
fn wait_for(cost: std::time::Duration) {
    if cost >= std::time::Duration::from_millis(5) {
        std::thread::sleep(cost);
    } else {
        let start = std::time::Instant::now();
        while start.elapsed() < cost {
            std::hint::spin_loop();
        }
    }
}

/// An in-memory virtual filesystem.
pub struct VirtualFs {
    inner: RwLock<FsInner>,
    subscribers: Mutex<Vec<Sender<FsEvent>>>,
    latency: Mutex<DiskLatency>,
    simulated: Mutex<std::time::Duration>,
    faults: FaultPoint,
}

/// A directory listing entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Node id.
    pub id: NodeId,
    /// Node name.
    pub name: String,
    /// Node kind.
    pub kind: NodeKind,
    /// Node metadata.
    pub meta: Metadata,
}

impl VirtualFs {
    /// An empty filesystem with a root folder created at `now`.
    pub fn new(now: Timestamp) -> Self {
        VirtualFs {
            inner: RwLock::new(FsInner {
                nodes: vec![Some(Node {
                    name: "/".to_owned(),
                    kind: NodeKind::Folder,
                    meta: Metadata::folder(now),
                    parent: None,
                    children: Vec::new(),
                    target: None,
                    content: Bytes::new(),
                })],
            }),
            subscribers: Mutex::new(Vec::new()),
            latency: Mutex::new(DiskLatency::none()),
            simulated: Mutex::new(std::time::Duration::ZERO),
            faults: FaultPoint::new(),
        }
    }

    /// Installs a fault plan on this filesystem's read/list/walk calls;
    /// returns the injector for call/fault counting.
    pub fn install_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        self.faults.install(plan)
    }

    /// Removes any installed fault plan (the disk heals).
    pub fn clear_faults(&self) {
        self.faults.clear()
    }

    fn fault_check(&self, op: &str) -> Result<FaultAction> {
        self.faults.check("filesystem", op)
    }

    /// Installs a disk latency model (reads and listings pay it).
    pub fn set_latency(&self, latency: DiskLatency) {
        *self.latency.lock() = latency;
    }

    /// Total simulated disk latency accumulated so far.
    pub fn simulated_latency(&self) -> std::time::Duration {
        *self.simulated.lock()
    }

    fn pay(&self, bytes: usize) {
        let latency = *self.latency.lock();
        let cost = latency.per_op + latency.per_byte * (bytes as u32);
        if cost.is_zero() {
            return;
        }
        *self.simulated.lock() += cost;
        if latency.sleep {
            wait_for(cost);
        }
    }

    /// Subscribes to change notifications.
    pub fn subscribe(&self) -> Receiver<FsEvent> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push(tx);
        rx
    }

    fn emit(&self, event: FsEvent) {
        let mut subs = self.subscribers.lock();
        if subs.is_empty() {
            return;
        }
        subs.retain(|tx| tx.send(event.clone()).is_ok());
    }

    fn with_node<T>(&self, id: NodeId, f: impl FnOnce(&Node) -> T) -> Result<T> {
        let inner = self.inner.read();
        inner
            .nodes
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .map(f)
            .ok_or_else(|| IdmError::provider(format!("vfs: no node {id}")))
    }

    /// Resolves an absolute `/a/b/c` path to a node id, following folder
    /// links en route.
    pub fn resolve(&self, path: &str) -> Result<NodeId> {
        let mut current = NodeId::ROOT;
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            let next = self.with_node(current, |n| n.children.clone())?;
            let mut found = None;
            for child in next {
                let (name, kind, target) =
                    self.with_node(child, |n| (n.name.clone(), n.kind.clone(), n.target))?;
                if name == segment {
                    found = Some(match kind {
                        NodeKind::FolderLink => target.ok_or_else(|| {
                            IdmError::provider(format!("vfs: dangling link '{segment}'"))
                        })?,
                        _ => child,
                    });
                    break;
                }
            }
            current = found.ok_or_else(|| {
                IdmError::provider(format!("vfs: path '{path}' not found at '{segment}'"))
            })?;
        }
        Ok(current)
    }

    /// The absolute path of a node (links are reported at their own
    /// location, not their target's).
    pub fn path_of(&self, id: NodeId) -> Result<String> {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(node_id) = cur {
            let (name, parent) = self.with_node(node_id, |n| (n.name.clone(), n.parent))?;
            if parent.is_some() {
                parts.push(name);
            }
            cur = parent;
        }
        parts.reverse();
        Ok(format!("/{}", parts.join("/")))
    }

    fn insert_child(&self, parent: NodeId, node: Node) -> Result<NodeId> {
        let name = node.name.clone();
        let id = {
            let mut inner = self.inner.write();
            let id = NodeId(inner.nodes.len() as u64);
            {
                let parent_node = inner
                    .nodes
                    .get_mut(parent.0 as usize)
                    .and_then(Option::as_mut)
                    .ok_or_else(|| IdmError::provider(format!("vfs: no parent {parent}")))?;
                if parent_node.kind != NodeKind::Folder {
                    return Err(IdmError::provider(format!("vfs: {parent} is not a folder")));
                }
            }
            inner.nodes.push(Some(node));
            let parent_node = inner.nodes[parent.0 as usize].as_mut().expect("checked");
            parent_node.children.push(id);
            id
        };
        let path = self.path_of(id).unwrap_or(name);
        self.emit(FsEvent::Created(path));
        Ok(id)
    }

    /// Creates a folder under `parent`.
    pub fn mkdir(&self, parent: NodeId, name: &str, at: Timestamp) -> Result<NodeId> {
        self.check_fresh_name(parent, name)?;
        self.insert_child(
            parent,
            Node {
                name: name.to_owned(),
                kind: NodeKind::Folder,
                meta: Metadata::folder(at),
                parent: Some(parent),
                children: Vec::new(),
                target: None,
                content: Bytes::new(),
            },
        )
    }

    /// Creates every missing folder along an absolute path; returns the
    /// final folder's id.
    pub fn mkdir_p(&self, path: &str, at: Timestamp) -> Result<NodeId> {
        let mut current = NodeId::ROOT;
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            current = match self.child_named(current, segment)? {
                Some(id) => id,
                None => self.mkdir(current, segment, at)?,
            };
        }
        Ok(current)
    }

    /// Creates a file under `parent` with the given content.
    pub fn create_file(
        &self,
        parent: NodeId,
        name: &str,
        content: impl Into<Bytes>,
        at: Timestamp,
    ) -> Result<NodeId> {
        self.check_fresh_name(parent, name)?;
        let content = content.into();
        self.insert_child(
            parent,
            Node {
                name: name.to_owned(),
                kind: NodeKind::File,
                meta: Metadata {
                    size: content.len() as u64,
                    created: at,
                    modified: at,
                },
                parent: Some(parent),
                children: Vec::new(),
                target: None,
                content,
            },
        )
    }

    /// Creates a file at an absolute path, creating parent folders.
    pub fn create_file_at(
        &self,
        path: &str,
        content: impl Into<Bytes>,
        at: Timestamp,
    ) -> Result<NodeId> {
        let (dir, name) = path
            .rsplit_once('/')
            .ok_or_else(|| IdmError::provider(format!("vfs: '{path}' is not an absolute path")))?;
        let parent = self.mkdir_p(dir, at)?;
        self.create_file(parent, name, content, at)
    }

    /// Creates a folder link under `parent` pointing at `target`.
    pub fn create_link(
        &self,
        parent: NodeId,
        name: &str,
        target: NodeId,
        at: Timestamp,
    ) -> Result<NodeId> {
        self.check_fresh_name(parent, name)?;
        self.with_node(target, |n| {
            if n.kind == NodeKind::Folder {
                Ok(())
            } else {
                Err(IdmError::provider("vfs: links may only target folders"))
            }
        })??;
        self.insert_child(
            parent,
            Node {
                name: name.to_owned(),
                kind: NodeKind::FolderLink,
                meta: Metadata::folder(at),
                parent: Some(parent),
                children: Vec::new(),
                target: Some(target),
                content: Bytes::new(),
            },
        )
    }

    fn check_fresh_name(&self, parent: NodeId, name: &str) -> Result<()> {
        if name.is_empty() || name.contains('/') {
            return Err(IdmError::provider(format!(
                "vfs: invalid node name '{name}'"
            )));
        }
        if self.child_named(parent, name)?.is_some() {
            return Err(IdmError::provider(format!(
                "vfs: '{name}' already exists in {parent}"
            )));
        }
        Ok(())
    }

    /// The id of the child of `parent` named `name`, if any.
    pub fn child_named(&self, parent: NodeId, name: &str) -> Result<Option<NodeId>> {
        let children = self.with_node(parent, |n| n.children.clone())?;
        for child in children {
            if self.with_node(child, |n| n.name == name)? {
                return Ok(Some(child));
            }
        }
        Ok(None)
    }

    /// Overwrites a file's content, bumping size and mtime.
    pub fn write_file(&self, id: NodeId, content: impl Into<Bytes>, at: Timestamp) -> Result<()> {
        let content = content.into();
        {
            let mut inner = self.inner.write();
            let node = inner
                .nodes
                .get_mut(id.0 as usize)
                .and_then(Option::as_mut)
                .ok_or_else(|| IdmError::provider(format!("vfs: no node {id}")))?;
            if node.kind != NodeKind::File {
                return Err(IdmError::provider(format!("vfs: {id} is not a file")));
            }
            node.meta.size = content.len() as u64;
            node.meta.modified = at;
            node.content = content;
        }
        let path = self.path_of(id)?;
        self.emit(FsEvent::Modified(path));
        Ok(())
    }

    /// Reads a file's content.
    pub fn read_file(&self, id: NodeId) -> Result<Bytes> {
        let action = self.fault_check("read_file")?;
        if let Ok(meta) = self.metadata(id) {
            self.pay(meta.size as usize);
        }
        let content = self.with_node(id, |n| {
            if n.kind == NodeKind::File {
                Ok(n.content.clone())
            } else {
                Err(IdmError::provider(format!("vfs: {id} is not a file")))
            }
        })??;
        Ok(match action {
            // Torn read: the transfer was interrupted mid-stream.
            FaultAction::Truncate(keep) => content.slice(..keep.min(content.len())),
            FaultAction::Proceed => content,
        })
    }

    /// A node's metadata.
    pub fn metadata(&self, id: NodeId) -> Result<Metadata> {
        self.with_node(id, |n| n.meta)
    }

    /// A node's name.
    pub fn name(&self, id: NodeId) -> Result<String> {
        self.with_node(id, |n| n.name.clone())
    }

    /// A node's kind.
    pub fn kind(&self, id: NodeId) -> Result<NodeKind> {
        self.with_node(id, |n| n.kind.clone())
    }

    /// A link's target folder.
    pub fn link_target(&self, id: NodeId) -> Result<Option<NodeId>> {
        self.with_node(id, |n| n.target)
    }

    /// Lists a folder's entries in creation order.
    pub fn list(&self, id: NodeId) -> Result<Vec<DirEntry>> {
        // Torn reads do not apply to listings; only injected errors do.
        self.fault_check("list")?;
        self.pay(0);
        let children = self.with_node(id, |n| {
            if n.kind == NodeKind::Folder {
                Ok(n.children.clone())
            } else {
                Err(IdmError::provider(format!("vfs: {id} is not a folder")))
            }
        })??;
        let mut out = Vec::with_capacity(children.len());
        for child in children {
            out.push(self.with_node(child, |n| DirEntry {
                id: child,
                name: n.name.clone(),
                kind: n.kind.clone(),
                meta: n.meta,
            })?);
        }
        Ok(out)
    }

    /// Removes a node (recursively for folders).
    pub fn remove(&self, id: NodeId) -> Result<()> {
        if id == NodeId::ROOT {
            return Err(IdmError::provider("vfs: cannot remove the root"));
        }
        let path = self.path_of(id)?;
        let mut stack = vec![id];
        let mut to_remove = Vec::new();
        while let Some(node) = stack.pop() {
            to_remove.push(node);
            // Links do not own their targets: don't recurse through them.
            let (kind, children) =
                self.with_node(node, |n| (n.kind.clone(), n.children.clone()))?;
            if kind == NodeKind::Folder {
                stack.extend(children);
            }
        }
        {
            let mut inner = self.inner.write();
            let parent = inner.nodes[id.0 as usize].as_ref().and_then(|n| n.parent);
            if let Some(parent) = parent {
                if let Some(p) = inner.nodes[parent.0 as usize].as_mut() {
                    p.children.retain(|c| *c != id);
                }
            }
            for node in to_remove {
                inner.nodes[node.0 as usize] = None;
            }
        }
        self.emit(FsEvent::Removed(path));
        Ok(())
    }

    /// Depth-first walk from a folder, visiting every node exactly once
    /// (folder links are yielded but not traversed into, so cyclic
    /// filesystems terminate). Returns `(id, depth)` pairs, parent before
    /// children, siblings in creation order.
    pub fn walk(&self, from: NodeId) -> Result<Vec<(NodeId, usize)>> {
        self.fault_check("walk")?;
        let mut out = Vec::new();
        let mut stack = vec![(from, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            out.push((id, depth));
            let (kind, children) = self.with_node(id, |n| (n.kind.clone(), n.children.clone()))?;
            if kind == NodeKind::Folder {
                for child in children.into_iter().rev() {
                    stack.push((child, depth + 1));
                }
            }
        }
        Ok(out)
    }

    /// Total number of live nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.inner
            .read()
            .nodes
            .iter()
            .filter(|n| n.is_some())
            .count()
    }

    /// Sum of all file sizes in bytes.
    pub fn total_file_bytes(&self) -> u64 {
        self.inner
            .read()
            .nodes
            .iter()
            .flatten()
            .filter(|n| n.kind == NodeKind::File)
            .map(|n| n.meta.size)
            .sum()
    }
}

impl fmt::Debug for VirtualFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualFs")
            .field("nodes", &self.node_count())
            .finish()
    }
}

/// Shared handle type used by converters and data source plugins.
pub type SharedFs = Arc<VirtualFs>;

#[cfg(test)]
mod tests {
    use super::*;

    fn t(day: u32) -> Timestamp {
        Timestamp::from_ymd(2005, 6, day).unwrap()
    }

    #[test]
    fn mkdir_p_and_resolve() {
        let fs = VirtualFs::new(t(1));
        let pim = fs.mkdir_p("/Projects/PIM", t(2)).unwrap();
        assert_eq!(fs.resolve("/Projects/PIM").unwrap(), pim);
        assert_eq!(fs.path_of(pim).unwrap(), "/Projects/PIM");
        // Idempotent.
        assert_eq!(fs.mkdir_p("/Projects/PIM", t(3)).unwrap(), pim);
    }

    #[test]
    fn file_roundtrip_and_metadata() {
        let fs = VirtualFs::new(t(1));
        let dir = fs.mkdir_p("/docs", t(1)).unwrap();
        let f = fs.create_file(dir, "a.txt", "hello", t(2)).unwrap();
        assert_eq!(fs.read_file(f).unwrap(), Bytes::from_static(b"hello"));
        let meta = fs.metadata(f).unwrap();
        assert_eq!(meta.size, 5);
        assert_eq!(meta.created, t(2));

        fs.write_file(f, "hello world", t(3)).unwrap();
        let meta = fs.metadata(f).unwrap();
        assert_eq!(meta.size, 11);
        assert_eq!(meta.modified, t(3));
        assert_eq!(meta.created, t(2), "creation time is immutable");
    }

    #[test]
    fn create_file_at_builds_parents() {
        let fs = VirtualFs::new(t(1));
        let f = fs.create_file_at("/a/b/c.txt", "x", t(1)).unwrap();
        assert_eq!(fs.path_of(f).unwrap(), "/a/b/c.txt");
        assert_eq!(fs.resolve("/a/b/c.txt").unwrap(), f);
    }

    #[test]
    fn duplicate_names_rejected() {
        let fs = VirtualFs::new(t(1));
        fs.create_file(NodeId::ROOT, "a", "1", t(1)).unwrap();
        assert!(fs.create_file(NodeId::ROOT, "a", "2", t(1)).is_err());
        assert!(fs.mkdir(NodeId::ROOT, "a", t(1)).is_err());
        assert!(fs.create_file(NodeId::ROOT, "a/b", "x", t(1)).is_err());
        assert!(fs.create_file(NodeId::ROOT, "", "x", t(1)).is_err());
    }

    #[test]
    fn folder_links_enable_cycles() {
        // Figure 1: Projects/PIM/All Projects → Projects.
        let fs = VirtualFs::new(t(1));
        let projects = fs.mkdir_p("/Projects", t(1)).unwrap();
        let pim = fs.mkdir_p("/Projects/PIM", t(1)).unwrap();
        fs.create_link(pim, "All Projects", projects, t(1)).unwrap();

        // Path resolution follows the link.
        let via_link = fs.resolve("/Projects/PIM/All Projects/PIM").unwrap();
        assert_eq!(via_link, pim);

        // Walking terminates despite the cycle.
        let walked = fs.walk(NodeId::ROOT).unwrap();
        assert_eq!(walked.len(), 4); // root, Projects, PIM, link
    }

    #[test]
    fn links_may_only_target_folders() {
        let fs = VirtualFs::new(t(1));
        let f = fs.create_file(NodeId::ROOT, "a.txt", "x", t(1)).unwrap();
        assert!(fs.create_link(NodeId::ROOT, "lnk", f, t(1)).is_err());
    }

    #[test]
    fn list_preserves_creation_order() {
        let fs = VirtualFs::new(t(1));
        fs.create_file(NodeId::ROOT, "b.txt", "", t(1)).unwrap();
        fs.create_file(NodeId::ROOT, "a.txt", "", t(1)).unwrap();
        let names: Vec<String> = fs
            .list(NodeId::ROOT)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["b.txt", "a.txt"]);
    }

    #[test]
    fn remove_is_recursive_and_notifies() {
        let fs = VirtualFs::new(t(1));
        let rx = fs.subscribe();
        let dir = fs.mkdir_p("/x/y", t(1)).unwrap();
        fs.create_file(dir, "f.txt", "1", t(1)).unwrap();
        let x = fs.resolve("/x").unwrap();
        fs.remove(x).unwrap();
        assert_eq!(fs.node_count(), 1, "only root remains");
        assert!(fs.resolve("/x").is_err());
        let events: Vec<FsEvent> = rx.try_iter().collect();
        assert!(events.contains(&FsEvent::Removed("/x".to_owned())));
    }

    #[test]
    fn remove_does_not_chase_links() {
        let fs = VirtualFs::new(t(1));
        let a = fs.mkdir_p("/a", t(1)).unwrap();
        let b = fs.mkdir_p("/b", t(1)).unwrap();
        fs.create_link(b, "to-a", a, t(1)).unwrap();
        fs.remove(b).unwrap();
        assert!(fs.resolve("/a").is_ok(), "link target survives");
    }

    #[test]
    fn walk_reports_depths() {
        let fs = VirtualFs::new(t(1));
        let a = fs.mkdir_p("/a", t(1)).unwrap();
        fs.create_file(a, "f", "x", t(1)).unwrap();
        let walked = fs.walk(NodeId::ROOT).unwrap();
        let depths: Vec<usize> = walked.iter().map(|(_, d)| *d).collect();
        assert_eq!(depths, vec![0, 1, 2]);
    }

    #[test]
    fn total_file_bytes_sums_files_only() {
        let fs = VirtualFs::new(t(1));
        let a = fs.mkdir_p("/a", t(1)).unwrap();
        fs.create_file(a, "f", "12345", t(1)).unwrap();
        fs.create_file(NodeId::ROOT, "g", "123", t(1)).unwrap();
        assert_eq!(fs.total_file_bytes(), 8);
    }

    #[test]
    fn remove_root_rejected() {
        let fs = VirtualFs::new(t(1));
        assert!(fs.remove(NodeId::ROOT).is_err());
    }
}
