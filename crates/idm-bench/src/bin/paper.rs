//! The paper's evaluation (Section 7) from one dataspace build: Table 2
//! (dataset characteristics), Table 3 (index sizes), Figure 5 (indexing
//! times), Table 4 (query result counts), Figure 6 (query response
//! times) and our baseline comparison, each beside the paper's values.
//!
//! `cargo run --release -p idm-bench --bin paper -- --sf 1.0`
//!
//! `--sf` is the dataset scale factor (1.0 ≈ the paper's dataset, 0.05
//! if omitted); the bin takes no other argument.

use std::time::Duration;

use idm_bench::{mb, paper_scale, Paper, INDEXES, PAPER_RESULT_COUNTS, PAPER_USAGE};
use idm_system::SourceIngestStats;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = paper_scale(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{PAPER_USAGE}");
        std::process::exit(2);
    });
    let paper = Paper::measure(scale);
    println!(
        "iDM evaluation — scale factor {} (paper = 1.0), {} cores, one dataspace build\n\
         with simulated source latency (IMAP network model ×1.0, IDE-disk model ×0.25)\n",
        paper.scale, paper.cores
    );
    table2(&paper);
    table3(&paper);
    figure5(&paper);
    table4(&paper);
    figure6(&paper);
    baseline(&paper);
}

fn label(stats: &SourceIngestStats) -> &str {
    match stats.source.as_str() {
        "filesystem" => "Filesystem",
        "imap" => "Email / IMAP",
        other => other,
    }
}

fn secs(duration: Duration) -> String {
    format!("{:.3}", duration.as_secs_f64())
}

fn table2(paper: &Paper) {
    println!("== Table 2 — dataset characteristics\n");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Data Source",
        "Size (MB)",
        "Base views",
        "XML-derived",
        "LaTeX-der.",
        "Derived",
        "Total views"
    );
    let (mut bytes, mut base, mut derived, mut total) = (0u64, 0usize, 0usize, 0usize);
    for stats in &paper.sources {
        println!(
            "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            label(stats),
            mb(stats.total_content_bytes),
            stats.base_views,
            stats.derived_xml,
            stats.derived_latex,
            stats.derived_views(),
            stats.total_views()
        );
        bytes += stats.total_content_bytes;
        base += stats.base_views;
        derived += stats.derived_views();
        total += stats.total_views();
    }
    println!(
        "{:<14} {:>10} {:>12} {:>25} {:>12} {:>12}",
        "Total",
        mb(bytes),
        base,
        "",
        derived,
        total
    );

    println!("\nPaper values (scale 1.0) for comparison:");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "Data Source", "Size (MB)", "Base total", "XML-derived", "LaTeX-der.", "Total views"
    );
    for (label, row) in [
        ("Filesystem", [4_243, 14_297, 117_298, 11_528, 143_123]),
        ("Email / IMAP", [189, 6_335, 672, 350, 7_357]),
        ("Total", [4_435, 20_632, 117_970, 11_878, 150_480]),
    ] {
        println!(
            "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12}",
            label, row[0], row[1], row[2], row[3], row[4]
        );
    }

    let c = &paper.composition;
    println!(
        "\nGenerator composition: {} fs items, {} emails ({} mail folders, {} attachments),",
        c.fs_items, c.emails, c.mail_folders, c.attachments
    );
    println!(
        "{} + {} XML docs, {} + {} LaTeX docs (filesystem + email).",
        c.fs_xml_docs, c.email_xml_docs, c.fs_latex_docs, c.email_latex_docs
    );
    println!(
        "\nShape check: derived views {:.1}x the base items (paper: {:.1}x).\n",
        derived as f64 / base.max(1) as f64,
        129_848.0 / 20_632.0
    );
}

fn table3(paper: &Paper) {
    println!("== Table 3 — index sizes\n");
    // Our bundle is global (one set of structures over the dataspace);
    // attribute per-source *net input* like the paper and report the
    // structure sizes once.
    println!("{:<14} {:>16}", "Data Source", "Net Input (MB)");
    let mut net_total = 0u64;
    for stats in &paper.sources {
        println!("{:<14} {:>16}", label(stats), mb(stats.net_input_bytes));
        net_total += stats.net_input_bytes;
    }
    println!("{:<14} {:>16}\n", "Total", mb(net_total));

    let total: usize = paper.index_bytes.iter().sum();
    println!("Index sizes (MB):");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>12} {:>8}",
        INDEXES[0], INDEXES[1], INDEXES[2], INDEXES[3], INDEXES[4], "Total"
    );
    let [name, tuple, content, group, catalog] = paper.index_bytes.map(|b| mb(b as u64));
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>12} {:>8}",
        name,
        tuple,
        content,
        group,
        catalog,
        mb(total as u64),
    );

    let ratio = total as f64 / net_total.max(1) as f64 * 100.0;
    let content_share = paper.index_bytes[2] as f64 / total.max(1) as f64 * 100.0;
    println!("\nTotal index size = {ratio:.1}% of net input (paper: 67.5%).");
    println!("Content index share of total = {content_share:.1}% (paper: 68.4%).");

    println!("\nPaper values (scale 1.0) for comparison, MB:");
    println!(
        "{:<14} {:>10} {:>7} {:>7} {:>8} {:>7} {:>11} {:>7}",
        "Data Source", "Net Input", "Name", "Tuple", "Content", "Group", "RV Catalog", "Total"
    );
    for (label, row) in [
        ("Filesystem", [212.3, 12.5, 11.5, 113.0, 3.3, 24.4, 164.7]),
        ("Email / IMAP", [43.1, 0.4, 1.8, 5.0, 0.2, 0.4, 7.8]),
        ("Total", [255.4, 12.9, 13.3, 118.0, 3.5, 24.8, 172.5]),
    ] {
        println!(
            "{:<14} {:>10} {:>7} {:>7} {:>8} {:>7} {:>11} {:>7}",
            label, row[0], row[1], row[2], row[3], row[4], row[5], row[6]
        );
    }
    println!();
}

fn figure5(paper: &Paper) {
    println!("== Figure 5 — indexing times [s]\n");
    println!(
        "{:<14} {:>14} {:>20} {:>20} {:>10}",
        "Data Source", "Catalog [s]", "Comp. Indexing [s]", "Source Access [s]", "Total [s]"
    );
    // Conversion is part of component indexing in the paper's
    // three-way split.
    let component = |s: &SourceIngestStats| s.component_indexing + s.conversion;
    for stats in &paper.sources {
        println!(
            "{:<14} {:>14} {:>20} {:>20} {:>10}",
            label(stats),
            secs(stats.catalog_insert),
            secs(component(stats)),
            secs(stats.data_source_access),
            secs(stats.total_time()),
        );
    }

    println!("\nASCII stacked bars (normalized per source):");
    for stats in &paper.sources {
        let total = stats.total_time().as_secs_f64().max(1e-9);
        let mut bar = String::new();
        for (tag, value) in [
            ("C", stats.catalog_insert),
            ("I", component(stats)),
            ("A", stats.data_source_access),
        ] {
            let cells = (value.as_secs_f64() / total * 40.0).round() as usize;
            bar.push_str(&tag.repeat(cells));
        }
        println!("{:<14} |{bar}|", stats.source);
    }
    println!("(C = catalog insert, I = component indexing, A = data source access)");

    println!("\nPaper shape (Figure 5): filesystem ≈ 22 min with roughly half");
    println!("spent on component indexing; email ≈ 68 min dominated by data");
    println!("source access. Shape checks:");
    for stats in &paper.sources {
        let total = stats.total_time().as_secs_f64().max(1e-9);
        match stats.source.as_str() {
            "filesystem" => println!(
                "  filesystem: component indexing share = {:.0}% (paper ≈ 50%)",
                component(stats).as_secs_f64() / total * 100.0
            ),
            "imap" => println!(
                "  email: data source access share = {:.0}% (paper: dominant, ≈ 80%)",
                stats.data_source_access.as_secs_f64() / total * 100.0
            ),
            _ => {}
        }
    }
    println!(
        "\n(total simulated IMAP latency: {} s)",
        secs(paper.imap_latency)
    );
    let phases: Duration = paper
        .sources
        .iter()
        .map(SourceIngestStats::total_time)
        .sum();
    println!(
        "(ingest wall time: {} s beside {} s of phases: the IMAP source is read while the filesystem ingests)\n",
        secs(paper.ingest_wall),
        secs(phases)
    );
}

fn table4(paper: &Paper) {
    println!("== Table 4 — iQL queries and result counts\n");
    println!(
        "{:<4} {:>9} {:>9} {:>9}  iQL",
        "Q", "measured", "planted", "paper@1.0"
    );
    for (q, paper_count) in paper.queries.iter().zip(PAPER_RESULT_COUNTS) {
        let display = match q.iql.char_indices().nth(72) {
            Some((end, _)) => format!("{}…", &q.iql[..end]),
            None => q.iql.to_owned(),
        };
        println!(
            "{:<4} {:>9} {:>9} {:>9}  {}{}",
            q.name,
            q.rows,
            q.planted,
            paper_count,
            display,
            if q.rows == q.planted {
                ""
            } else {
                "   <-- MISMATCH"
            }
        );
    }
    println!(
        "\n{}",
        if paper.queries.iter().all(|q| q.rows == q.planted) {
            "All measured counts equal the planted ground truth."
        } else {
            "MISMATCH between measured and planted counts — investigate!"
        }
    );
    println!(
        "At --sf 1.0 the planted counts are calibrated to the paper's values\n\
         (941, 39, 88, 2, 2, ~30, 21, 16).\n"
    );
}

fn figure6(paper: &Paper) {
    println!("== Figure 6 — query response times (warm cache)\n");
    println!(
        "{:<4} {:>12} {:>10} {:>16} {:>18}",
        "Q", "time [ms]", "results", "nodes expanded", "candidates seen"
    );
    for q in &paper.queries {
        println!(
            "{:<4} {:>12.3} {:>10} {:>16} {:>18}",
            q.name,
            q.time.as_secs_f64() * 1e3,
            q.rows,
            q.nodes_expanded,
            q.candidates,
        );
    }

    println!("\nASCII bars (relative to the slowest query):");
    let slowest = paper
        .queries
        .iter()
        .max_by_key(|q| q.time)
        .expect("eight queries");
    let max = slowest.time.as_secs_f64().max(1e-9);
    for q in &paper.queries {
        let cells = (q.time.as_secs_f64() / max * 50.0).round() as usize;
        println!(
            "{:<4} |{}{}|",
            q.name,
            "#".repeat(cells),
            " ".repeat(50 - cells)
        );
    }

    println!("\nPaper shape: Q1–Q7 < 0.2 s, Q8 ≈ 0.5 s (slowest; cross-subsystem");
    println!(
        "join via forward expansion). Here the slowest query is {}.",
        slowest.name
    );
    println!(
        "Interactivity: all queries {} the 1-second HCI threshold [39].",
        if max < 1.0 { "meet" } else { "MISS" }
    );
    println!(
        "(simulated source latency charged by the queries and the baseline: {} s)\n",
        secs(paper.query_source_latency)
    );
}

fn baseline(paper: &Paper) {
    println!("== Baseline comparison: results the user must examine\n");
    println!(
        "{:<62} {:>10} {:>10} {:>6}",
        "information need", "grep", "desktop", "iQL"
    );
    for row in &paper.baseline {
        println!(
            "{:<62} {:>10} {:>10} {:>6}",
            row.label,
            row.grep,
            row.desktop.len(),
            row.iql.len()
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
