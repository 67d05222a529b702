//! The views an ingest indexes for a source: its base views and every
//! view reachable from one. Pinned against the per-base-view walk
//! (`graph::descendants` from each base view) on a filesystem whose
//! folder links form a cycle and share a target.

use std::collections::BTreeSet;
use std::sync::Arc;

use idm_core::graph::descendants;
use idm_core::prelude::*;
use idm_system::{BulkIngestOptions, FsPlugin, Pdsms};
use idm_vfs::{NodeId, VirtualFs};

fn t() -> Timestamp {
    Timestamp::from_ymd(2005, 6, 1).unwrap()
}

/// `/papers` holds a `.tex` and an `.xml` file and a subfolder whose
/// link points back at `/papers`; `/links` holds two links to that
/// subfolder.
fn linked_fs() -> Arc<VirtualFs> {
    let fs = Arc::new(VirtualFs::new(t()));
    let papers = fs.mkdir_p("/papers", t()).unwrap();
    fs.create_file(
        papers,
        "vision.tex",
        "\\section{A Vision}\ndataspace text\n\\subsection{Outlook}\nmore text",
        t(),
    )
    .unwrap();
    fs.create_file(papers, "data.xml", "<r><e>payload</e><e>more</e></r>", t())
        .unwrap();
    let sub = fs.mkdir_p("/papers/sub", t()).unwrap();
    fs.create_file(sub, "notes.tex", "\\section{Notes}\nsome notes", t())
        .unwrap();
    fs.create_file(sub, "tree.xml", "<a><b/><c>x</c></a>", t())
        .unwrap();
    fs.create_link(sub, "back", papers, t()).unwrap();
    let links = fs.mkdir_p("/links", t()).unwrap();
    fs.create_link(links, "one", sub, t()).unwrap();
    fs.create_link(links, "two", sub, t()).unwrap();
    fs.create_file_at("/misc/readme.txt", "plain words", t())
        .unwrap();
    fs
}

#[test]
fn ingest_indexes_exactly_the_views_the_per_base_view_walk_reaches() {
    for parallelism in [1, 4] {
        let fs = linked_fs();
        let plugin = Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT));
        let mut system = Pdsms::new();
        system.register_source(Arc::clone(&plugin) as Arc<_>);
        let report = system
            .index_all_bulk(&BulkIngestOptions {
                parallelism,
                segment_size: 3,
            })
            .unwrap();
        let stats = &report.stats[0];

        let store = system.store();
        let nodes = fs.walk(NodeId::ROOT).unwrap();
        let base: BTreeSet<Vid> = nodes
            .iter()
            .map(|&(node, _)| plugin.view_of(node).unwrap())
            .collect();
        assert_eq!(base.len(), stats.base_views);

        // The oracle: every base view, and the descendants of each.
        let mut want = base.clone();
        for &root in &base {
            want.extend(descendants(store, root, usize::MAX).unwrap());
        }
        let got: BTreeSet<Vid> = system.indexes().catalog.vids().into_iter().collect();
        assert_eq!(got, want, "parallelism {parallelism}");
        assert_eq!(got.len(), stats.total_views());

        // Derived views hang under the file they were converted from.
        let derived_under = |suffix: &str| -> usize {
            nodes
                .iter()
                .filter(|&&(node, _)| fs.name(node).unwrap().ends_with(suffix))
                .map(|&(node, _)| {
                    let root = plugin.view_of(node).unwrap();
                    descendants(store, root, usize::MAX).unwrap().len()
                })
                .sum()
        };
        assert!(stats.derived_latex > 0 && stats.derived_xml > 0);
        assert_eq!(stats.derived_latex, derived_under(".tex"));
        assert_eq!(stats.derived_xml, derived_under(".xml"));
    }
}
