//! Overload benchmark — cancellation latency of the resource-governance
//! layer. Runs the Table 4 workload under wall-clock deadlines that fire
//! mid-execution and measures the *overshoot*: how long past its
//! deadline a query takes to unwind through the cooperative checkpoints
//! and return `ResourceExhausted`. Emits `results/BENCH_overload.json`
//! with p50/p99 per parallelism level.
//!
//! ```sh
//! cargo run --release -p idm-bench --bin overload -- --sf 1
//! cargo run --release -p idm-bench --bin overload -- --smoke   # CI gate
//! ```
//!
//! `--smoke` runs a small-sf sweep and exits nonzero unless cancel p99
//! stays under 50ms — the acceptance bound for "exceeding any limit
//! aborts within one operator batch".

use std::path::PathBuf;
use std::time::{Duration, Instant};

use idm_bench::{build, percentile, BuildOptions, Workbench, TABLE4_QUERIES};
use idm_query::{ExecOptions, ExpansionStrategy, QueryBudget};

/// The acceptance bound on cancel p99.
const CANCEL_P99_BOUND: Duration = Duration::from_millis(50);

struct Args {
    scale: f64,
    out: PathBuf,
    smoke: bool,
    reps: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        out: PathBuf::from("results/BENCH_overload.json"),
        smoke: false,
        reps: 20,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--sf" => {
                if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    args.scale = v;
                }
                i += 2;
            }
            "--reps" => {
                if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    args.reps = v;
                }
                i += 2;
            }
            "--out" => {
                if let Some(path) = argv.get(i + 1) {
                    args.out = PathBuf::from(path);
                }
                i += 2;
            }
            "--smoke" => {
                args.smoke = true;
                i += 1;
            }
            _ => i += 1,
        }
    }
    args
}

/// Dataset without simulated source latency: the cost being measured is
/// the executor's own unwind path, not sleeps in the substrate model.
fn options_at(scale: f64) -> BuildOptions {
    BuildOptions {
        scale,
        imap_latency_scale: 0.0,
        fs_latency_scale: 0.0,
        imap_sleep: false,
        with_rss: true,
    }
}

/// One cancellation-latency sweep: every Table 4 query, `reps` deadline
/// runs each. Even reps use an already-expired deadline (overshoot is
/// the full elapsed time: trip at the first checkpoint and unwind);
/// odd reps use half the query's own baseline so the deadline fires
/// mid-plan. Runs that finish under their deadline are not
/// cancellations and yield no sample.
fn cancel_overshoots(bench: &Workbench, parallelism: usize, reps: usize) -> Vec<Duration> {
    let processor = bench.processor(ExpansionStrategy::Forward);
    let options = ExecOptions {
        parallelism,
        ..processor.options()
    };
    let mut processor = processor.with_options(options);

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

struct Sweep {
    parallelism: usize,
    samples: usize,
    p50: Duration,
    p99: Duration,
    max: Duration,
}

fn sweep(bench: &Workbench, parallelism: usize, reps: usize) -> Sweep {
    let mut overshoots = cancel_overshoots(bench, parallelism, reps);
    overshoots.sort();
    Sweep {
        parallelism,
        samples: overshoots.len(),
        p50: percentile(&overshoots, 0.50),
        p99: percentile(&overshoots, 0.99),
        max: overshoots.last().copied().unwrap_or(Duration::ZERO),
    }
}

fn to_json(s: &Sweep) -> String {
    format!(
        "{{\"parallelism\":{},\"samples\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        s.parallelism,
        s.samples,
        s.p50.as_micros(),
        s.p99.as_micros(),
        s.max.as_micros()
    )
}

fn run(scale: f64, reps: usize, out: &PathBuf) -> Vec<Sweep> {
    let bench = build(options_at(scale));
    println!(
        "Overload — cancellation overshoot past the deadline (sf {scale}, {} views)\n",
        bench.system.store().vids().len()
    );
    println!(
        "{:>12} {:>8} {:>10} {:>10} {:>10}",
        "parallelism", "samples", "p50", "p99", "max"
    );

    let sweeps: Vec<Sweep> = [1, 4]
        .iter()
        .map(|&parallelism| {
            let s = sweep(&bench, parallelism, reps);
            println!(
                "{:>12} {:>8} {:>10?} {:>10?} {:>10?}",
                s.parallelism, s.samples, s.p50, s.p99, s.max
            );
            s
        })
        .collect();

    let json = format!(
        "{{\"bench\":\"overload\",\"sf\":{scale},\"reps\":{reps},\"bound_us\":{},\"runs\":[\n  {}\n]}}\n",
        CANCEL_P99_BOUND.as_micros(),
        sweeps.iter().map(to_json).collect::<Vec<_>>().join(",\n  ")
    );
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    std::fs::write(out, &json).expect("write BENCH_overload.json");
    println!("\nwrote {}", out.display());
    sweeps
}

fn main() {
    let args = parse_args();
    let (scale, reps) = if args.smoke {
        (0.05, args.reps.min(10))
    } else {
        (args.scale, args.reps)
    };
    let sweeps = run(scale, reps, &args.out);

    if args.smoke {
        for s in &sweeps {
            if s.samples == 0 {
                println!(
                    "FAIL: no cancellations sampled at parallelism {}",
                    s.parallelism
                );
                std::process::exit(1);
            }
            if s.p99 >= CANCEL_P99_BOUND {
                println!(
                    "FAIL: cancel p99 {:?} at parallelism {} exceeds the {:?} bound",
                    s.p99, s.parallelism, CANCEL_P99_BOUND
                );
                std::process::exit(1);
            }
        }
        println!("OK: cancel p99 under {CANCEL_P99_BOUND:?} at every parallelism");
    }
}
