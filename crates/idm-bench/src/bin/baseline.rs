//! Baseline comparison — the Section 1 motivation, quantified.
//!
//! The paper argues that 2006-era tools (grep/find, keyword desktop
//! search à la Google Desktop / Spotlight) cannot express queries that
//! bridge the inside/outside-file boundary: the user gets a flat list
//! of *files* matching keywords and must dig through each one manually
//! ("for structured file formats the user typically has to conduct a
//! second search inside the file" \[13\]).
//!
//! This harness runs the paper's Example 1 and Example 2 information
//! needs three ways over the same dataspace and reports how many
//! results the user must examine:
//!
//! 1. grep-style — keyword match over raw file/email bytes,
//! 2. desktop-search — keyword match over every indexed view
//!    (no structure, no path/class constraints),
//! 3. iDM + iQL — the structural query.
//!
//! `cargo run --release -p idm-bench --bin baseline -- --sf 0.25`

use idm_bench::{build, cli_options};
use idm_core::prelude::Vid;

struct Need {
    label: &'static str,
    /// The phrase a keyword tool would be given.
    keyword: &'static str,
    /// The precise iQL query.
    iql: &'static str,
}

const NEEDS: &[Need] = &[
    Need {
        label: "Example 1: PIM Introduction sections mentioning Mike Franklin",
        keyword: "Mike Franklin",
        iql: r#"//PIM//Introduction[class="latex_section" and "Mike Franklin"]"#,
    },
    Need {
        label: "Example 2-style: OLAP figures captioned 'Indexing Time'",
        keyword: "Indexing Time",
        iql: r#"//OLAP//*[class="figure" and "Indexing Time"]"#,
    },
    Need {
        label: "Q4: Vision sections under /papers that cite Franklin",
        keyword: "Franklin",
        iql: r#"//papers//*Vision/*["Franklin"]"#,
    },
];

fn main() {
    let mut options = cli_options();
    options.imap_latency_scale = 0.0;
    options.fs_latency_scale = 0.0;
    println!(
        "Baseline comparison (scale {}): results the user must examine\n",
        options.scale
    );
    let bench = build(options);
    let indexes = bench.system.indexes();
    let store = bench.system.store();
    let processor = bench.processor();

    let is_base_item = |vid: Vid| {
        store.class_name(vid).ok().flatten().is_some_and(|c| {
            matches!(
                c.as_str(),
                "file" | "xmlfile" | "latexfile" | "attachment" | "emailmessage"
            )
        })
    };

    println!(
        "{:<62} {:>10} {:>10} {:>6}",
        "information need", "grep", "desktop", "iQL"
    );
    for need in NEEDS {
        // grep-style: files/emails whose bytes contain the phrase.
        let grep: usize = indexes
            .content
            .phrase_query(need.keyword)
            .into_iter()
            .filter(|v| is_base_item(*v))
            .count();
        // desktop search: every view containing the keyword (flat).
        let desktop = indexes.content.phrase_query(need.keyword).len();
        // iDM/iQL: the structural answer.
        let precise = processor.execute(need.iql).expect("iql runs").rows.len();
        println!(
            "{:<62} {:>10} {:>10} {:>6}",
            need.label, grep, desktop, precise
        );
    }

    println!(
        "\n'grep' returns whole files — finding the right *section* still\n\
         requires a second, manual search inside each hit. 'desktop' search\n\
         has no way to say \"only Introduction sections under PIM\", so it\n\
         over-returns. The iQL column is the exact answer set, because the\n\
         structure inside files and the folders outside them live in one\n\
         resource view graph."
    );
}
