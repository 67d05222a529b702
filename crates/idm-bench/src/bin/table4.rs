//! Regenerates **Table 4** — the iQL evaluation queries and their
//! result counts, comparing measured counts against the generator's
//! planted ground truth and the paper's values.
//!
//! `cargo run --release -p idm-bench --bin table4 -- --sf 1.0`
//! reproduces paper-scale counts.

use idm_bench::{build, cli_options, PAPER_RESULT_COUNTS, TABLE4_QUERIES};

fn main() {
    let mut options = cli_options();
    // Latency only matters for indexing-time experiments.
    options.imap_latency_scale = 0.0;
    println!(
        "Table 4 — iQL queries and result counts (scale {}, paper = 1.0)\n",
        options.scale
    );
    let bench = build(options);
    let expected = bench.expected_counts();

    println!(
        "{:<4} {:>9} {:>9} {:>9}  iQL",
        "Q", "measured", "planted", "paper@1.0"
    );
    let mut all_match = true;
    for (i, (name, iql)) in TABLE4_QUERIES.iter().enumerate() {
        let measured = bench.run_query(i);
        let ok = measured == expected[i];
        all_match &= ok;
        let display = if iql.len() > 72 {
            format!("{}…", &iql[..72])
        } else {
            (*iql).to_owned()
        };
        println!(
            "{:<4} {:>9} {:>9} {:>9}  {}{}",
            name,
            measured,
            expected[i],
            PAPER_RESULT_COUNTS[i],
            display,
            if ok { "" } else { "   <-- MISMATCH" }
        );
    }
    println!(
        "\n{}",
        if all_match {
            "All measured counts equal the planted ground truth."
        } else {
            "MISMATCH between measured and planted counts — investigate!"
        }
    );
    println!(
        "At --sf 1.0 the planted counts are calibrated to the paper's values\n\
         (941, 39, 88, 2, 2, ~30, 21, 16)."
    );
}
