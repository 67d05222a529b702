//! Index persistence: a PDSMS restart without re-scanning the dataspace.
//!
//! The paper's prototype kept the catalog in Apache Derby and the text
//! indexes in Lucene, both disk-backed. This example shows the same
//! lifecycle here: ingest once, save the index bundle, simulate a
//! restart by loading it into a fresh processor, and keep querying.
//!
//! ```sh
//! cargo run --example persistence
//! ```

use std::sync::Arc;
use std::time::Instant;

use imemex::core::prelude::*;
use imemex::index::persist;
use imemex::query::QueryProcessor;
use imemex::system::{FsPlugin, Pdsms, QueryRequest};
use imemex::vfs::{NodeId, VirtualFs};

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let now = Timestamp::from_ymd(2006, 9, 12)?;

    // Session 1: ingest and index a dataspace, then save.
    let fs = Arc::new(VirtualFs::new(now));
    let dir = fs.mkdir_p("/papers", now)?;
    for i in 0..25 {
        fs.create_file(
            dir,
            &format!("paper{i:02}.tex"),
            format!(
                "\\section{{Study {i}}}\nThis paper number {i} discusses \
                 {} at length.",
                if i % 5 == 0 {
                    "database tuning"
                } else {
                    "other topics"
                }
            ),
            now,
        )?;
    }
    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(Arc::clone(&fs), NodeId::ROOT)));
    let ingest_start = Instant::now();
    system.index_all()?;
    let ingest_time = ingest_start.elapsed();

    let path = std::env::temp_dir().join("imemex-example-indexes.idm");
    persist::save_with_epoch(system.indexes(), &path, 0)?;
    let file_size = std::fs::metadata(&path)?.len();
    println!(
        "session 1: ingested {} views in {:.1} ms; saved indexes ({} bytes) to {}",
        system.store().len(),
        ingest_time.as_secs_f64() * 1e3,
        file_size,
        path.display()
    );
    let answer_before = system
        .run(&QueryRequest::new(r#""database tuning""#))?
        .result
        .rows
        .len();
    drop(system); // the first session ends

    // Session 2: restart — load the indexes, no re-scan.
    let load_start = Instant::now();
    let restored = Arc::new(persist::load_with_epoch(&path)?.0);
    let load_time = load_start.elapsed();
    let fresh_store = Arc::new(ViewStore::new());
    let processor = QueryProcessor::new(fresh_store, restored);
    let answer_after = processor.execute(r#""database tuning""#)?.rows.len();
    println!(
        "session 2: loaded indexes in {:.1} ms (vs {:.1} ms to re-ingest)",
        load_time.as_secs_f64() * 1e3,
        ingest_time.as_secs_f64() * 1e3,
    );
    println!("  query answers before restart: {answer_before}");
    println!("  query answers after restart:  {answer_after}");
    assert_eq!(answer_before, answer_after);

    // Structural queries work too: the catalog and the group replica
    // travelled with the file.
    let sections = processor.execute(r#"//papers//*[class="latex_section"]"#)?;
    println!(
        "  sections still reachable via the group replica: {}",
        sections.rows.len()
    );
    assert_eq!(sections.rows.len(), 25);

    std::fs::remove_file(&path).ok();
    Ok(())
}
