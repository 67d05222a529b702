//! Background-scrub measurement — integrity verification throughput
//! and its cost to foreground queries. Builds a durable dataspace from
//! the synthetic workload, measures (a) raw scrub throughput over the
//! snapshot + WAL + index artifacts and (b) foreground query p50/p99
//! with and without a budgeted scrub running concurrently, and prints
//! both. It gates nothing: what a round may read is pinned by a
//! countable test (`budgeted_rounds_read_at_most_the_budget_plus_one_frame`
//! in `idm-system`), not by wall-clock percentiles.
//!
//! ```sh
//! cargo run --release -p idm-bench --bin scrub -- --sf 1 --reps 600
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use idm_bench::{build, percentile, BuildOptions};
use idm_core::durability::Scrubber;
use idm_query::ExpansionStrategy;
use idm_system::Pdsms;

struct Args {
    scale: f64,
    reps: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        reps: 600,
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
            _ => i += 1,
        }
    }
    args
}

/// The foreground mix: one latency sample per preset workbench query,
/// cycling through all eight shapes.
fn query_latencies(bench: &idm_bench::Workbench, reps: usize) -> Vec<Duration> {
    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        let start = Instant::now();
        let rows = bench.run_query(i % 8, ExpansionStrategy::Forward);
        samples.push(start.elapsed());
        std::hint::black_box(rows);
    }
    samples.sort();
    samples
}

/// Raw scrub throughput: unbudgeted rounds over every durable artifact
/// until ~1.5 s of wall time has been spent.
fn scrub_throughput(system: &Pdsms) -> (f64, u64) {
    let mut scrubber = Scrubber::new(None);
    let mut bytes = 0u64;
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed() < Duration::from_millis(1500) || rounds == 0 {
        let report = system.scrub_round(&mut scrubber).expect("scrub round");
        assert!(report.findings.is_empty(), "pristine artifacts must verify");
        bytes += report.bytes_verified;
        rounds += 1;
    }
    (bytes as f64 / start.elapsed().as_secs_f64(), rounds)
}

fn main() {
    let args = parse_args();
    let dir = std::env::temp_dir().join(format!("idm-bench-scrub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("building workbench at sf {} ...", args.scale);
    let mut bench = build(BuildOptions {
        scale: args.scale,
        imap_latency_scale: 0.0,
        fs_latency_scale: 0.0,
        imap_sleep: false,
        with_rss: true,
    });
    bench.system.make_durable(&dir).expect("make durable");
    bench.system.checkpoint().expect("checkpoint");
    // Leave a live WAL tail behind the snapshot so the scrub walks
    // every artifact class.
    for i in 0..256 {
        let store = bench.system.store();
        let vid = store
            .build(format!("scrub-tail-{i}.txt"))
            .text(format!("wal resident record {i}"))
            .insert();
        bench
            .system
            .indexes()
            .index_view(store, vid, "bench")
            .expect("index");
    }

    let (bytes_per_sec, rounds) = scrub_throughput(&bench.system);
    println!(
        "scrub throughput: {:.1} MB/s over {rounds} full round(s)",
        bytes_per_sec / 1e6
    );

    println!("baseline foreground queries ({} reps) ...", args.reps);
    let baseline = query_latencies(&bench, args.reps);

    println!("foreground queries with concurrent budgeted scrub ...");
    let stop = AtomicBool::new(false);
    let scrubbed = AtomicU64::new(0);
    let system = &bench.system;
    let concurrent = std::thread::scope(|s| {
        s.spawn(|| {
            // A production scrubber is paced: a small budgeted burst,
            // then yield the core. 128 KiB per round at a 25 ms cadence
            // is a ~5 MB/s background verification rate whose bursts
            // are short enough (~0.2 ms) to hide below query tails even
            // on a single-core host.
            let mut scrubber = Scrubber::new(Some(128 * 1024));
            while !stop.load(Ordering::Relaxed) {
                match system.scrub_round(&mut scrubber) {
                    Ok(report) => {
                        scrubbed.fetch_add(report.bytes_verified, Ordering::Relaxed);
                    }
                    Err(e) => {
                        eprintln!("background scrub failed: {e}");
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let samples = query_latencies(&bench, args.reps);
        stop.store(true, Ordering::Relaxed);
        samples
    });
    let concurrent_bytes = scrubbed.load(Ordering::Relaxed);

    let base_p50 = percentile(&baseline, 0.50);
    let base_p99 = percentile(&baseline, 0.99);
    let conc_p50 = percentile(&concurrent, 0.50);
    let conc_p99 = percentile(&concurrent, 0.99);
    let degradation = if base_p99.as_nanos() > 0 {
        conc_p99.as_secs_f64() / base_p99.as_secs_f64() - 1.0
    } else {
        0.0
    };
    println!(
        "query p50 {:>9.1?} -> {:>9.1?}   p99 {:>9.1?} -> {:>9.1?}   ({:+.1}% p99, {} scrubbed alongside)",
        base_p50,
        conc_p50,
        base_p99,
        conc_p99,
        degradation * 100.0,
        idm_bench::mb(concurrent_bytes),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
