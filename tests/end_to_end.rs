//! End-to-end integration tests spanning every crate: generate a
//! synthetic dataspace, ingest all sources through the PDSMS, and check
//! the evaluation invariants (result counts, plan agreement,
//! catalog consistency, index sizes).

use std::sync::Arc;
use std::sync::OnceLock;

use imemex::dataset::{generate, DatasetConfig};
use imemex::query::{parse, QueryRequest};
use imemex::system::{FsPlugin, ImapPlugin, Pdsms, RssPlugin};
use imemex::vfs::NodeId;

/// One shared workbench for the whole test file (building it is the
/// expensive part; every test only reads).
struct World {
    system: Pdsms,
    dataset: imemex::dataset::GeneratedDataset,
    stats: Vec<imemex::system::SourceIngestStats>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = generate(DatasetConfig::at_scale(0.03));
        let mut system = Pdsms::new();
        system.register_source(Arc::new(FsPlugin::new(
            Arc::clone(&dataset.fs),
            NodeId::ROOT,
        )));
        system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&dataset.imap))));
        system.register_source(Arc::new(RssPlugin::new(
            Arc::clone(&dataset.feeds),
            dataset.feed_urls.clone(),
        )));
        let stats = system.index_all().expect("ingest");
        World {
            system,
            dataset,
            stats,
        }
    })
}

const TABLE4: [&str; 8] = [
    r#""database""#,
    r#""database tuning""#,
    r#"[size > 420000 and lastmodified < @12.06.2005]"#,
    r#"//papers//*Vision/*["Franklin"]"#,
    r#"//VLDB200?//?onclusion*/*["systems"]"#,
    r#"union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])"#,
    r#"join( //VLDB2006//*[class="texref"] as A, //VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)"#,
    r#"join ( //*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
];

#[test]
fn table4_queries_return_planted_counts() {
    let w = world();
    let e = w.dataset.expected;
    let expected = [e.q1, e.q2, e.q3, e.q4, e.q5, e.q6, e.q7, e.q8];
    for (i, iql) in TABLE4.iter().enumerate() {
        let result = w
            .system
            .run(&QueryRequest::new(*iql))
            .expect("query runs")
            .result;
        assert_eq!(
            result.rows.len(),
            expected[i],
            "Q{} '{}' returned {} instead of {}",
            i + 1,
            iql,
            result.rows.len(),
            expected[i]
        );
    }
}

/// Every Table 4 query answers alike through the system, through an
/// additional processor, and through its plan without sideways key
/// passing, which hands Q8's email-side step every `.tex` view instead
/// of the few named by the other side.
#[test]
fn every_query_agrees_through_system_processor_and_plan_without_key_passing() {
    let w = world();
    let processor = w.system.query_processor();
    for iql in TABLE4 {
        let rows = w.system.run(&QueryRequest::new(iql)).expect("query");
        let rows = rows.result.rows;
        assert_eq!(processor.execute(iql).expect("query").rows, rows, "{iql}");
        let plain = processor
            .plan_without_key_passing(&parse(iql).expect("parses"))
            .expect("plans");
        let plain = processor.execute_plan(&plain).expect("query").rows;
        assert_eq!(plain, rows, "{iql} without key passing");
    }
}

#[test]
fn every_store_view_is_in_the_catalog() {
    let w = world();
    let store = w.system.store();
    let catalog = &w.system.indexes().catalog;
    for vid in store.vids() {
        assert!(
            catalog.contains(vid),
            "view {vid} ({:?}) missing from catalog",
            store.name(vid).unwrap()
        );
    }
    assert_eq!(catalog.len(), store.len());
}

#[test]
fn table2_shape_derived_views_dominate() {
    let w = world();
    let fs = w.stats.iter().find(|s| s.source == "filesystem").unwrap();
    // Paper: filesystem derived views ≈ 9x base items.
    assert!(
        fs.derived_views() > 3 * fs.base_views,
        "derived {} vs base {}",
        fs.derived_views(),
        fs.base_views
    );
    let email = w.stats.iter().find(|s| s.source == "imap").unwrap();
    // Paper: email derived views are a small fraction of base items.
    assert!(email.derived_views() < email.base_views);
}

#[test]
fn table3_shape_content_index_dominates() {
    let w = world();
    let sizes = w.system.indexes().sizes();
    assert!(sizes.content > sizes.name, "content > name index");
    assert!(sizes.content > sizes.group, "content > group replica");
    assert!(sizes.total() > 0);
    // Net input exceeds zero and the content index is its largest
    // consumer, as in Table 3.
    let net: u64 = w.stats.iter().map(|s| s.net_input_bytes).sum();
    assert!(net > 0);
}

#[test]
fn class_conformance_of_all_ingested_views() {
    use imemex::core::validate::{validate, ValidationMode};
    let w = world();
    let store = w.system.store();
    let mut checked = 0;
    for vid in store.vids() {
        validate(store, vid, ValidationMode::Shallow)
            .unwrap_or_else(|e| panic!("view {vid} fails conformance: {e}"));
        checked += 1;
    }
    assert!(checked > 1000, "dataspace too small: {checked}");
}

#[test]
fn explain_works_for_all_queries() {
    let w = world();
    for iql in TABLE4 {
        let plan = w.system.explain(iql).expect("explain");
        assert!(!plan.is_empty());
    }
}

#[test]
fn query_stats_show_q8_expansion_blowup() {
    // The paper: Q8 processes a large number of intermediate results
    // relative to its final result size (Section 7.2). That is forward
    // expansion from Q8's contexts, which `idm_core::graph` still does
    // over the store. The executor answers both steps from the group
    // replica's labels and expands a fraction of it.
    let w = world();
    let run = |iql: &str| w.system.run(&QueryRequest::new(iql)).expect(iql).result;
    let q8 = run(TABLE4[7]);
    let q1 = run(TABLE4[0]);
    let mut contexts = run(r#"//*[class="emailmessage"]"#).rows.views();
    contexts.extend(run("//papers").rows.views());
    let forward: usize = contexts
        .iter()
        .map(|&vid| {
            imemex::core::graph::descendants(w.system.store(), vid, usize::MAX)
                .expect("walk")
                .len()
        })
        .sum();
    assert!(
        forward > 100 * q8.rows.len().max(1),
        "expected intermediate-results blowup, got {forward} expanded for {} rows",
        q8.rows.len()
    );
    assert!(
        q8.stats.nodes_expanded < forward,
        "the labels expand {} of {forward}",
        q8.stats.nodes_expanded
    );
    // Keyword queries expand nothing.
    assert_eq!(q1.stats.nodes_expanded, 0);
}

#[test]
fn indexes_survive_a_restart() {
    // The paper's Derby/Lucene stores were disk-backed: an iMeMex
    // restart did not re-scan the dataspace. Same here: persist the
    // index bundle, load it into a *fresh* system (empty view store),
    // and every Table 4 query still answers identically — the indexes
    // and catalog are self-sufficient for query processing.
    use imemex::index::persist;
    use imemex::query::QueryProcessor;
    let w = world();
    let bytes = persist::to_bytes_with_epoch(w.system.indexes(), 0);
    let (restored, _) = persist::from_bytes_with_epoch(&bytes).expect("load");
    let restored = Arc::new(restored);

    let fresh_store = Arc::new(imemex::core::prelude::ViewStore::new());
    let expected: Vec<_> = TABLE4
        .iter()
        .map(|iql| w.system.run(&QueryRequest::new(*iql)).unwrap().result.rows)
        .collect();
    let processor = QueryProcessor::new(fresh_store, restored);
    for (iql, before) in TABLE4.iter().zip(&expected) {
        let after = processor.execute(iql).unwrap().rows;
        assert_eq!(*before, after, "restart changed '{iql}'");
    }
}
