//! Manual timing aid for the thread-scaling ablation: times the Table 4
//! mix per executor thread count. (That the rows are the same at every
//! thread count is a test, `tests/determinism.rs`.)

use std::time::Instant;

use idm_bench::{build, cli_options, TABLE4_QUERIES};
use idm_query::ExecOptions;

fn main() {
    let mut options = cli_options();
    options.imap_latency_scale = 0.0;
    options.fs_latency_scale = 0.0;
    options.imap_sleep = false;
    let bench = build(options);
    eprintln!(
        "dataset built: sf={} views={}",
        options.scale,
        bench.system.indexes().catalog.len()
    );

    let mut base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let processor = bench.processor().with_options(ExecOptions {
            parallelism: threads,
            ..ExecOptions::default()
        });
        // Warm up.
        for (_, iql) in TABLE4_QUERIES {
            processor.execute(iql).expect("warmup");
        }
        let runs = 5;
        let start = Instant::now();
        for _ in 0..runs {
            for (_, iql) in TABLE4_QUERIES {
                std::hint::black_box(processor.execute(iql).expect("run"));
            }
        }
        let secs = start.elapsed().as_secs_f64() / runs as f64;
        if threads == 1 {
            base = secs;
        }
        eprintln!(
            "threads={threads}: {:.1} ms/mix  speedup {:.2}x",
            secs * 1e3,
            base / secs
        );
    }

    // Per-query timing at 1 vs 4 threads.
    for threads in [1usize, 4] {
        let processor = bench.processor().with_options(ExecOptions {
            parallelism: threads,
            ..ExecOptions::default()
        });
        for (name, iql) in TABLE4_QUERIES {
            processor.execute(iql).expect("warm");
            let start = Instant::now();
            let runs = 5;
            for _ in 0..runs {
                std::hint::black_box(processor.execute(iql).expect("run"));
            }
            eprintln!(
                "  {name} threads={threads}: {:.2} ms",
                start.elapsed().as_secs_f64() / runs as f64 * 1e3
            );
        }
    }
}
