//! Overload benchmark — cancellation latency of the resource-governance
//! layer. Runs the Table 4 workload under wall-clock deadlines that fire
//! mid-execution and prints the *overshoot*: how long past its deadline
//! a query takes to unwind through the cooperative checkpoints and
//! return `ResourceExhausted`, as p50/p99/max.
//!
//! ```sh
//! cargo run --release -p idm-bench --bin overload -- --sf 1 --reps 20
//! ```
//!
//! It measures and gates nothing: that a tripped budget stops within one
//! operator batch is the counted test
//! `crates/idm-bench/tests/cancellation.rs`.

use std::time::{Duration, Instant};

use idm_bench::{bin_args, build, percentile, BinArgs, BuildOptions, Workbench, TABLE4_QUERIES};
use idm_query::QueryBudget;

const USAGE: &str =
    "usage: overload [--sf <positive number>] [--reps <positive integer>]   (default --sf 1 --reps 20)";

/// The bin's arguments; a bad one prints the usage and exits 2.
fn parse_args() -> BinArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = BinArgs { sf: 1.0, reps: 20 };
    bin_args(&args, defaults).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    })
}

/// Dataset without simulated source latency: the cost being measured is
/// the executor's own unwind path, not sleeps in the substrate model.
fn options_at(scale: f64) -> BuildOptions {
    BuildOptions {
        scale,
        latency: false,
        with_rss: true,
    }
}

/// Cancellation overshoots: every Table 4 query, `reps` deadline runs
/// each. Even reps use an already-expired deadline (overshoot is
/// the full elapsed time: trip at the first checkpoint and unwind);
/// odd reps use half the query's own baseline so the deadline fires
/// mid-plan. Runs that finish under their deadline are not
/// cancellations and yield no sample.
fn cancel_overshoots(bench: &Workbench, reps: usize) -> Vec<Duration> {
    let mut processor = bench.processor();

    let mut samples = Vec::new();
    for (_name, iql) in TABLE4_QUERIES.iter() {
        processor.set_budget(QueryBudget::none());
        let start = Instant::now();
        processor.execute(iql).expect("baseline run");
        let baseline = start.elapsed();

        for rep in 0..reps {
            let deadline = if rep % 2 == 0 {
                Duration::ZERO
            } else {
                baseline / 2
            };
            processor.set_budget(QueryBudget::with_deadline(deadline));
            let start = Instant::now();
            if processor.execute(iql).is_err() {
                samples.push(start.elapsed().saturating_sub(deadline));
            }
        }
    }
    samples
}

fn main() {
    let BinArgs { sf: scale, reps } = parse_args();
    let bench = build(options_at(scale));
    println!(
        "Overload — cancellation overshoot past the deadline (sf {scale}, {} views)\n",
        bench.system.store().vids().len()
    );
    let mut overshoots = cancel_overshoots(&bench, reps);
    overshoots.sort();
    println!("{:>8} {:>10} {:>10} {:>10}", "samples", "p50", "p99", "max");
    println!(
        "{:>8} {:>10?} {:>10?} {:>10?}",
        overshoots.len(),
        percentile(&overshoots, 0.50),
        percentile(&overshoots, 0.99),
        overshoots.last().copied().unwrap_or(Duration::ZERO)
    );
}
