//! `e2e` — the repo's end-to-end benchmark. See `README.md` beside this
//! crate and `BENCHMARK.json` at the repo root.
//!
//! ```sh
//! cargo run --release --manifest-path bench-e2e/Cargo.toml -- \
//!     --workload sync_live --seed 7 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the spans); `--workload all` runs the four workloads
//! one after another; `--aa` runs the untraced set twice in alternation
//! and fails if two runs of the same code disagree by more than a
//! metric's bound. The last line of a run's output is its result as one
//! JSON object; the exit code is non-zero on any correctness mismatch.

mod layers;
mod report;
mod run;
mod scenario;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{result_is_correct, result_value, Report};
use run::{run_traced, run_untraced, RunConfig};
use workloads::{workload, Workload, END_TO_END, WORKLOADS};

const USAGE: &str =
    "usage: e2e --workload <ingest_durable|ingest_remote|query_exec|sync_live|all> \
[--seed N] [--seconds S] [--trace 0|1] [--data-dir DIR] [--aa]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
    aa: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        // Inside the checkout: the benchmark writes nowhere else.
        data_dir: PathBuf::from(".bench_data"),
        aa: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = match name.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    one => vec![*workload(one).ok_or_else(|| format!("unknown workload {one}"))?],
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--data-dir" => args.data_dir = PathBuf::from(value()?),
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn run_one(args: &Args, w: &Workload, trace: bool) -> Report {
    let cfg = RunConfig {
        workload: *w,
        seed: args.seed,
        seconds: args.seconds,
        data_dir: args.data_dir.clone(),
    };
    // Before the environment is recorded: the directory's filesystem is
    // part of it.
    let _ = std::fs::create_dir_all(&cfg.data_dir);
    let env = cfg.env(trace);
    let report = if trace {
        run_traced(&cfg)
    } else {
        run_untraced(&cfg)
    };
    report.print_table(&env, w.why);
    println!("{}", report.to_json());
    report
}

/// Runs one workload in a process of its own — peak memory and the
/// allocator's state belong to a process, so workloads must not share
/// one — passing its output through. Returns its result line.
fn run_child(args: &Args, w: &Workload, trace: bool) -> Option<String> {
    let output = Command::new(std::env::current_exe().ok()?)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(&args.data_dir)
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    stdout
        .lines()
        .last()
        .filter(|line| line.starts_with("{\"correct\""))
        .map(str::to_owned)
}

/// Runs the untraced set twice, alternating workloads, and compares the
/// two values of every end-to-end metric with its bound.
fn aa(args: &Args) -> bool {
    let sets: Vec<Vec<Option<String>>> = (0..2)
        .map(|_| {
            args.workloads
                .iter()
                .map(|w| run_child(args, w, false))
                .collect()
        })
        .collect();
    let mut agree = true;
    println!(
        "{:<16} {:<28} {:<7} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "better", "first", "second", "rel.diff", "bound"
    );
    for ((w, a), b) in args.workloads.iter().zip(&sets[0]).zip(&sets[1]) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("{:<16} produced no result line", w.name);
            agree = false;
            continue;
        };
        agree &= result_is_correct(a) && result_is_correct(b);
        for spec in &END_TO_END {
            let (Some(x), Some(y)) = (result_value(a, spec.name), result_value(b, spec.name))
            else {
                agree = false;
                continue;
            };
            let diff = (y - x).abs() / x.abs();
            let within = diff <= spec.bound;
            agree &= within;
            println!(
                "{:<16} {:<28} {:<7} {:>16.6} {:>16.6} {:>9.4} {:>7.2}{}",
                w.name,
                spec.name,
                if spec.lower_is_better {
                    "lower"
                } else {
                    "higher"
                },
                x,
                y,
                diff,
                spec.bound,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    agree
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.aa {
        aa(&args)
    } else if let [w] = args.workloads.as_slice() {
        run_one(&args, w, args.trace).correct()
    } else {
        // Every workload runs even after one fails.
        let mut ok = true;
        for w in &args.workloads {
            ok &= run_child(&args, w, args.trace).is_some_and(|line| result_is_correct(&line));
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config(w: &Workload, tag: &str) -> RunConfig {
        RunConfig {
            workload: Workload {
                scale: 0.02,
                side_scale: 0.02,
                ..*w
            },
            seed: 3,
            // The fewest rounds after each set-up.
            seconds: 0.0,
            data_dir: std::env::temp_dir().join(format!("idm-e2e-{tag}-{}", std::process::id())),
        }
    }

    /// Every workload, small, emits every named end-to-end metric as a
    /// finite, non-zero number with no failed operation.
    #[test]
    fn every_workload_emits_every_end_to_end_metric() {
        for w in &WORKLOADS {
            let cfg = smoke_config(w, "smoke");
            let report = run_untraced(&cfg);
            let _ = std::fs::remove_dir_all(&cfg.data_dir);
            assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.notes);
            assert!(report.attempted > 0);
            assert_eq!(report.metrics.len(), END_TO_END.len());
            for spec in &END_TO_END {
                let m = report
                    .metric(spec.name)
                    .unwrap_or_else(|| panic!("{}: {} missing", w.name, spec.name));
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{}: {} = {}",
                    w.name,
                    spec.name,
                    m.value
                );
                assert_eq!(m.unit, spec.unit);
            }
        }
    }

    /// `BENCHMARK.json` repeats the tables in `workloads.rs`, and its
    /// per-layer list is what a traced run emits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for w in &WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
            assert!(json.contains(w.why), "why of {}", w.name);
        }
        for spec in &END_TO_END {
            let better = if spec.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                spec.name, spec.unit, spec.bound
            );
            assert!(json.contains(&entry), "{entry}");
        }

        let cfg = smoke_config(&WORKLOADS[3], "layers");
        let report = run_traced(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        assert_eq!(report.failed, 0, "{:?}", report.notes);
        let per_layer = json.split("\"per_layer\"").nth(1).expect("per_layer key");
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(per_layer.contains(&entry), "{entry} not in BENCHMARK.json");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), report.metrics.len());
    }

    #[test]
    fn arguments_of_the_driver_parse() {
        let argv: Vec<String> = "--workload query_exec --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse_args(&argv).expect("valid");
        assert_eq!(args.workloads[0].name, "query_exec");
        assert_eq!((args.seed, args.seconds, args.trace), (9, 20.0, true));
        assert!(parse_args(&["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
