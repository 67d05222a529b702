//! Regenerates **Figure 6** — warm-cache query response times for
//! Q1–Q8, plus the execution-statistics view of why Q8 is the slowest
//! (expansion through many intermediate results). No path step walks
//! group edges: a `//` step is a range test of its candidates against
//! the context's DFS intervals in the group replica.
//!
//! `cargo run --release -p idm-bench --bin figure6 -- --sf 0.2`

use idm_bench::{build, cli_options, TABLE4_QUERIES};

fn main() {
    let mut options = cli_options();
    options.imap_latency_scale = 0.0; // warm cache: indexes only
    println!(
        "Figure 6 — query response times (scale {}, warm cache)\n",
        options.scale
    );
    let bench = build(options);

    println!(
        "{:<4} {:>12} {:>10} {:>16} {:>18}",
        "Q", "time [ms]", "results", "nodes expanded", "candidates seen"
    );
    let mut times = Vec::new();
    for (i, (name, iql)) in TABLE4_QUERIES.iter().enumerate() {
        let avg = bench.time_query(iql, 9);
        let result = bench.processor().execute(iql).expect("query");
        times.push((i, avg));
        println!(
            "{:<4} {:>12.3} {:>10} {:>16} {:>18}",
            name,
            avg.as_secs_f64() * 1e3,
            result.rows.len(),
            result.stats.nodes_expanded,
            result.stats.candidates_examined,
        );
    }

    println!("\nASCII bars (relative to the slowest query):");
    let max = times
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .fold(0.0, f64::max)
        .max(1e-9);
    for (i, duration) in &times {
        let cells = ((duration.as_secs_f64() / max) * 50.0).round() as usize;
        println!(
            "{:<4} |{}{}|",
            TABLE4_QUERIES[*i].0,
            "#".repeat(cells),
            " ".repeat(50 - cells)
        );
    }

    let slowest = times
        .iter()
        .max_by(|a, b| a.1.cmp(&b.1))
        .map(|(i, _)| TABLE4_QUERIES[*i].0)
        .unwrap_or("?");
    println!("\nPaper shape: Q1–Q7 < 0.2 s, Q8 ≈ 0.5 s (slowest; cross-subsystem");
    println!("join via forward expansion). Here the slowest query is {slowest}.");
    println!(
        "Interactivity: all queries {} the 1-second HCI threshold [39].",
        if max < 1.0 { "meet" } else { "MISS" }
    );
}
