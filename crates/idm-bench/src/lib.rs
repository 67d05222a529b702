//! # idm-bench — the evaluation harness (Section 7)
//!
//! Shared machinery for regenerating every table and figure of the
//! paper's evaluation over the synthetic personal dataspace:
//!
//! | Target | Binary |
//! |---|---|
//! | Table 2 (dataset characteristics) | `table2` |
//! | Table 3 (index sizes) | `table3` |
//! | Figure 5 (indexing times) | `figure5` |
//! | Table 4 (queries + result counts) | `table4` |
//! | Figure 6 (query response times) | `figure6` |
//! | Budget overshoot, scrub interference, chaos (ours) | `overload`, `scrub`, `chaos` |
//!
//! Run binaries as
//! `cargo run --release -p idm-bench --bin table4 -- --sf 0.1`.
//! Ingest throughput, WAL, index, converter and per-query latencies are
//! measured by the end-to-end benchmark in `bench-e2e/` (see
//! `BENCHMARK.json`), not here.

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use idm_dataset::{generate, DatasetConfig, GeneratedDataset};
use idm_email::LatencyModel;
use idm_query::QueryProcessor;
use idm_system::{FsPlugin, ImapPlugin, Pdsms, RssPlugin, SourceIngestStats};
use idm_vfs::NodeId;

/// The Table 4 queries, verbatim from the paper.
pub const TABLE4_QUERIES: [(&str, &str); 8] = [
    ("Q1", r#""database""#),
    ("Q2", r#""database tuning""#),
    ("Q3", r#"[size > 420000 and lastmodified < @12.06.2005]"#),
    ("Q4", r#"//papers//*Vision/*["Franklin"]"#),
    ("Q5", r#"//VLDB200?//?onclusion*/*["systems"]"#),
    (
        "Q6",
        r#"union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])"#,
    ),
    (
        "Q7",
        r#"join( //VLDB2006//*[class="texref"] as A, //VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)"#,
    ),
    (
        "Q8",
        r#"join ( //*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
    ),
];

/// Result counts the paper reports for Q1–Q8 (Table 4).
pub const PAPER_RESULT_COUNTS: [usize; 8] = [941, 39, 88, 2, 2, 31, 21, 16];

/// A fully built dataspace system ready for measurements.
pub struct Workbench {
    /// The generated dataset (sources + ground truth).
    pub dataset: GeneratedDataset,
    /// The PDSMS over it.
    pub system: Pdsms,
    /// Per-source ingestion statistics.
    pub stats: Vec<SourceIngestStats>,
    /// Wall time of the full ingestion.
    pub ingest_time: Duration,
}

/// Workbench build options.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Dataset scale factor (1.0 ≈ paper size).
    pub scale: f64,
    /// Scale of the simulated IMAP latency (0 disables it).
    pub imap_latency_scale: f64,
    /// Scale of the simulated IDE-disk latency (0 disables it).
    pub fs_latency_scale: f64,
    /// Whether the IMAP server sleeps its latency (end-to-end timing)
    /// or only accounts it.
    pub imap_sleep: bool,
    /// Whether to register the RSS source as well.
    pub with_rss: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            scale: 0.05,
            imap_latency_scale: 1.0,
            fs_latency_scale: 0.25,
            imap_sleep: true,
            with_rss: false,
        }
    }
}

/// Generates the dataset and registers the sources, without ingesting.
fn assemble(options: BuildOptions) -> (GeneratedDataset, Pdsms) {
    let config = DatasetConfig {
        scale: options.scale,
        imap_latency: if options.imap_latency_scale > 0.0 {
            LatencyModel::remote_2005(options.imap_latency_scale)
        } else {
            LatencyModel::none()
        },
        imap_sleep: options.imap_sleep,
        ..DatasetConfig::default()
    };
    let dataset = generate(config);
    if options.fs_latency_scale > 0.0 {
        dataset
            .fs
            .set_latency(idm_vfs::DiskLatency::ide_2005(options.fs_latency_scale));
    }

    let mut system = Pdsms::new();
    system.register_source(Arc::new(FsPlugin::new(
        Arc::clone(&dataset.fs),
        NodeId::ROOT,
    )));
    system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&dataset.imap))));
    if options.with_rss {
        system.register_source(Arc::new(RssPlugin::new(
            Arc::clone(&dataset.feeds),
            dataset.feed_urls.clone(),
        )));
    }
    (dataset, system)
}

/// Builds a workbench: generate the dataset, register the sources,
/// ingest and index everything.
pub fn build(options: BuildOptions) -> Workbench {
    let (dataset, system) = assemble(options);
    let start = Instant::now();
    let stats = system.index_all().expect("ingestion succeeds");
    let ingest_time = start.elapsed();

    Workbench {
        dataset,
        system,
        stats,
        ingest_time,
    }
}

impl Workbench {
    /// A query processor of its own over the workbench's dataspace.
    pub fn processor(&self) -> QueryProcessor {
        self.system.query_processor()
    }

    /// Executes one of the Table 4 queries (0-based index), returning
    /// the result count.
    pub fn run_query(&self, index: usize) -> usize {
        let (_name, iql) = TABLE4_QUERIES[index];
        self.processor()
            .execute(iql)
            .unwrap_or_else(|e| panic!("query {index} failed: {e}"))
            .rows
            .len()
    }

    /// The expected (planted) result counts at this scale.
    pub fn expected_counts(&self) -> [usize; 8] {
        let e = self.dataset.expected;
        [e.q1, e.q2, e.q3, e.q4, e.q5, e.q6, e.q7, e.q8]
    }

    /// Total views by source, from the catalog.
    pub fn views_by_source(&self, source: &str) -> usize {
        self.system.indexes().catalog.by_source(source).len()
    }

    /// Warm-cache timing of a query: runs it `warmup + runs` times,
    /// averaging the last `runs` (the paper reports warm-cache averages
    /// once the deviation is small).
    pub fn time_query(&self, iql: &str, runs: usize) -> Duration {
        let processor = self.processor();
        for _ in 0..2 {
            let _ = processor.execute(iql).expect("warmup run");
        }
        let start = Instant::now();
        for _ in 0..runs {
            let _ = processor.execute(iql).expect("timed run");
        }
        start.elapsed() / runs as u32
    }
}

/// Parses `--sf <f64>` (and `--imap-latency <f64>`) from argv, with
/// defaults. Used by every harness binary.
pub fn cli_options() -> BuildOptions {
    let mut options = BuildOptions::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" | "--scale" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    options.scale = v;
                }
                i += 2;
            }
            "--fs-latency" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    options.fs_latency_scale = v;
                }
                i += 2;
            }
            "--imap-latency" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    options.imap_latency_scale = v;
                }
                i += 2;
            }
            "--no-imap-sleep" => {
                options.imap_sleep = false;
                i += 1;
            }
            "--rss" => {
                options.with_rss = true;
                i += 1;
            }
            _ => i += 1,
        }
    }
    options
}

/// The `p`-quantile (`0.0..=1.0`) of ascending-sorted samples, by
/// nearest rank; zero for no samples.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Formats a byte count as MB with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a duration as seconds with three decimals.
pub fn secs(duration: Duration) -> String {
    format!("{:.3}", duration.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The central reproduction check: the Table 4 queries return the
    /// planted counts on a small-scale workbench.
    #[test]
    fn table4_counts_match_expectations_at_small_scale() {
        let bench = build(BuildOptions {
            scale: 0.02,
            imap_latency_scale: 0.0,
            fs_latency_scale: 0.0,
            imap_sleep: false,
            with_rss: false,
        });
        let expected = bench.expected_counts();
        for (i, (name, _)) in TABLE4_QUERIES.iter().enumerate() {
            let measured = bench.run_query(i);
            assert_eq!(
                measured, expected[i],
                "{name}: measured {measured} vs planted {}",
                expected[i]
            );
        }
    }

    #[test]
    fn figure5_shape_email_access_dominates() {
        let bench = build(BuildOptions {
            scale: 0.02,
            imap_latency_scale: 1.0,
            fs_latency_scale: 1.0,
            imap_sleep: true,
            with_rss: false,
        });
        let email = bench
            .stats
            .iter()
            .find(|s| s.source == "imap")
            .expect("email stats");
        // The paper's key observation: email indexing is dominated by
        // data source access.
        assert!(
            email.data_source_access > email.component_indexing + email.catalog_insert,
            "access {:?} vs rest {:?}",
            email.data_source_access,
            email.component_indexing + email.catalog_insert
        );
    }
}
