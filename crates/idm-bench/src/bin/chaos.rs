//! Deterministic chaos driver — runs the whole-system simulator
//! ([`idm_system::run_sim`]) across a seed range and fails loudly on
//! the first violating seed, printing everything needed to reproduce:
//! the seed itself (the run is a pure function of it), the violations,
//! and the full event log.
//!
//! ```sh
//! cargo run --release -p idm-bench --bin chaos -- --seeds 200
//! cargo run --release -p idm-bench --bin chaos -- --seed 1337 --ops 500
//! ```
//!
//! CI runs `--seeds 200` (the `sim-chaos` job); a red run prints
//! `FAILING SEED <n>` — rerun that seed locally with `--seed <n>` to
//! get the identical schedule.

use idm_system::{run_sim, SimConfig, SimCounters};

struct Args {
    seeds: u64,
    first_seed: u64,
    single: Option<u64>,
    ops: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 200,
        first_seed: 1,
        single: None,
        ops: 120,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--seeds" => {
                if let Some(n) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    args.seeds = n;
                }
                i += 2;
            }
            "--first-seed" => {
                if let Some(n) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    args.first_seed = n;
                }
                i += 2;
            }
            "--seed" => {
                args.single = argv.get(i + 1).and_then(|s| s.parse().ok());
                i += 2;
            }
            "--ops" => {
                if let Some(n) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    args.ops = n;
                }
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Runs one seed; `None` when it failed (everything needed to reproduce
/// it is printed), its counters otherwise.
fn run_seed(seed: u64, ops: usize, verbose: bool) -> Option<SimCounters> {
    let outcome = match run_sim(&SimConfig::new(seed, ops)) {
        Ok(outcome) => outcome,
        Err(e) => {
            println!("FAILING SEED {seed}: hard error: {e}");
            return None;
        }
    };
    if verbose {
        println!("seed {seed}: fingerprint {:#018x}", outcome.fingerprint);
        println!("{:#?}", outcome.counters);
        for event in &outcome.events {
            println!("  {event}");
        }
    }
    if outcome.violations.is_empty() {
        return Some(outcome.counters);
    }
    println!(
        "FAILING SEED {seed} ({} violation(s), fingerprint {:#018x})",
        outcome.violations.len(),
        outcome.fingerprint
    );
    for violation in &outcome.violations {
        println!("  VIOLATION {violation}");
    }
    println!("  event log:");
    for event in &outcome.events {
        println!("    {event}");
    }
    None
}

fn main() {
    let args = parse_args();
    if let Some(seed) = args.single {
        let ok = run_seed(seed, args.ops, true).is_some();
        std::process::exit(if ok { 0 } else { 1 });
    }

    let mut totals = (0u64, 0u64);
    // Reopens by index fate: loaded, caught up, rebuilt.
    let mut reopens = (0u64, 0u64, 0u64);
    for seed in args.first_seed..args.first_seed + args.seeds {
        match run_seed(seed, args.ops, false) {
            Some(counters) => {
                totals.0 += 1;
                reopens.0 += counters.reopens_loaded;
                reopens.1 += counters.reopens_caught_up;
                reopens.2 += counters.reopens_rebuilt;
            }
            None => totals.1 += 1,
        }
        if seed % 50 == 0 {
            println!("... {} seed(s) done", seed - args.first_seed + 1);
        }
    }
    println!(
        "chaos: {} seed(s) passed, {} failed ({} ops each)",
        totals.0, totals.1, args.ops
    );
    println!(
        "reopens (each followed by a clean full index audit): {} loaded, {} caught up, {} rebuilt",
        reopens.0, reopens.1, reopens.2
    );
    if totals.1 > 0 {
        std::process::exit(1);
    }
    if args.seeds >= 50 && reopens.1 == 0 {
        println!(
            "no reopen caught up from the WAL tail: every one fell back to loading or rebuilding"
        );
        std::process::exit(1);
    }
}
