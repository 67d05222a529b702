//! The paper's shape claims (EXPERIMENTS.md) as plain assertions on the
//! same [`Paper`] value the `paper` bin prints, measured once at one
//! small scale factor: counts and ratios, never a wall-clock bound
//! except Figure 5's, whose source access is the latency model's sleep.

use std::collections::HashSet;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

use idm_bench::{paper_scale, Paper, INDEXES};
use idm_system::SourceIngestStats;

/// The one scale factor every claim is checked at.
const SF: f64 = 0.05;

fn paper() -> &'static Paper {
    static PAPER: OnceLock<Paper> = OnceLock::new();
    PAPER.get_or_init(|| Paper::measure(SF))
}

fn source(name: &str) -> &'static SourceIngestStats {
    paper()
        .sources
        .iter()
        .find(|s| s.source == name)
        .unwrap_or_else(|| panic!("no {name} stats"))
}

/// Table 2: derived views are 5–8× the base items (paper 6.3×), and XML
/// derives more views than LaTeX.
#[test]
fn table2_derived_views_are_several_fold_the_base_items() {
    let sources = &paper().sources;
    let base: usize = sources.iter().map(|s| s.base_views).sum();
    let derived: usize = sources.iter().map(|s| s.derived_views()).sum();
    let ratio = derived as f64 / base as f64;
    assert!(
        (5.0..=8.0).contains(&ratio),
        "derived {derived} ÷ base {base} = {ratio:.2}"
    );
    let xml: usize = sources.iter().map(|s| s.derived_xml).sum();
    let latex: usize = sources.iter().map(|s| s.derived_latex).sum();
    assert!(xml > latex, "XML-derived {xml} vs LaTeX-derived {latex}");
}

/// Table 3: the indexes total 50–70 % of the net input (paper 67.5 %),
/// and the content index is the largest of them.
#[test]
fn table3_indexes_are_half_to_two_thirds_of_net_input() {
    let p = paper();
    let net: u64 = p.sources.iter().map(|s| s.net_input_bytes).sum();
    let total: usize = p.index_bytes.iter().sum();
    let ratio = total as f64 / net as f64;
    assert!(
        (0.50..=0.70).contains(&ratio),
        "indexes {total} B ÷ net input {net} B = {ratio:.3}"
    );
    let content = p.index_bytes[2];
    for (name, &bytes) in INDEXES.iter().zip(&p.index_bytes) {
        assert!(
            *name == "Content" || bytes < content,
            "{name} {bytes} B vs content {content} B"
        );
    }
}

/// Table 4: every query returns the planted count.
#[test]
fn table4_counts_match_expectations_at_small_scale() {
    for q in &paper().queries {
        assert_eq!(
            q.rows, q.planted,
            "{}: measured {} vs planted {}",
            q.name, q.rows, q.planted
        );
    }
}

/// Figure 5: email ingest is dominated by data source access, which the
/// IMAP latency model charges (and sleeps).
#[test]
fn figure5_shape_email_access_dominates() {
    let email = source("imap");
    assert!(
        email.data_source_access > email.component_indexing + email.catalog_insert,
        "access {:?} vs rest {:?}",
        email.data_source_access,
        email.component_indexing + email.catalog_insert
    );
}

/// Figure 6: Q8, the cross-subsystem join, sees the most candidates per
/// result row.
#[test]
fn figure6_q8_sees_the_most_candidates_per_row() {
    let per_row = |q: &idm_bench::QueryRow| q.candidates as f64 / q.rows.max(1) as f64;
    let queries = &paper().queries;
    let q8 = per_row(&queries[7]);
    for q in &queries[..7] {
        assert!(
            per_row(q) < q8,
            "{} sees {:.1} candidates per row, Q8 {q8:.1}",
            q.name,
            per_row(q)
        );
    }
}

/// Baseline: the iQL answer is a subset of what desktop search returns.
#[test]
fn baseline_iql_rows_are_desktop_search_rows() {
    for row in &paper().baseline {
        let desktop: HashSet<_> = row.desktop.iter().collect();
        assert!(!row.iql.is_empty(), "{}: no iQL rows", row.label);
        assert!(
            row.iql.iter().all(|v| desktop.contains(v)),
            "{}: iQL {:?} ⊄ desktop {:?}",
            row.label,
            row.iql,
            row.desktop
        );
    }
}

/// The queries and the baseline read indexes only: neither source is
/// charged any simulated latency while they run.
#[test]
fn queries_do_not_read_the_sources() {
    assert_eq!(paper().query_source_latency, Duration::ZERO);
}

#[test]
fn paper_takes_a_positive_sf_and_nothing_else() {
    let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(paper_scale(&args(&[])), Ok(0.05));
    assert_eq!(paper_scale(&args(&["--sf", "0.25"])), Ok(0.25));
    assert_eq!(paper_scale(&args(&["--sf", "1"])), Ok(1.0));
    for bad in [
        &["--sf", "abc"][..],
        &["--sf=0.25"],
        &["--sf"],
        &["--sf", "0"],
        &["--sf", "-1"],
        &["--sf", "NaN"],
        &["--sf", "inf"],
        &["--rss"],
        &["--sf", "0.25", "--rss"],
        &["--sf", "0.25", "--sf", "0.5"],
        &["0.25"],
    ] {
        assert!(paper_scale(&args(bad)).is_err(), "{bad:?} accepted");
    }
}

/// A bad argument makes the bin print its usage and exit nonzero
/// before it builds anything.
#[test]
fn paper_bin_rejects_a_bad_sf() {
    for bad in [&["--sf", "abc"][..], &["--sf=0.25"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(bad)
            .output()
            .expect("paper runs");
        assert!(!out.status.success(), "{bad:?} exited 0");
        assert!(out.stdout.is_empty(), "{bad:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: paper"), "{bad:?}: {stderr}");
    }
}
