//! The `overload` and `scrub` bins read their arguments strictly: a bad
//! one prints the usage and exits 2 before anything is built.

use std::process::Command;

use idm_bench::{bin_args, BinArgs};

const DEFAULTS: BinArgs = BinArgs { sf: 1.0, reps: 20 };

fn args(a: &[&str]) -> Vec<String> {
    a.iter().map(|s| s.to_string()).collect()
}

#[test]
fn bins_take_a_positive_sf_and_reps_and_nothing_else() {
    assert_eq!(bin_args(&args(&[]), DEFAULTS), Ok(DEFAULTS));
    assert_eq!(
        bin_args(&args(&["--sf", "0.25"]), DEFAULTS),
        Ok(BinArgs { sf: 0.25, reps: 20 })
    );
    assert_eq!(
        bin_args(&args(&["--reps", "2", "--sf", "0.02"]), DEFAULTS),
        Ok(BinArgs { sf: 0.02, reps: 2 })
    );
    for bad in [
        &["--sf", "abc"][..],
        &["--sf=0.25"],
        &["--sf"],
        &["--sf", "0"],
        &["--sf", "NaN"],
        &["--sf", "inf"],
        &["--reps", "0"],
        &["--reps", "-1"],
        &["--reps", "2.5"],
        &["--reps"],
        &["--sf", "0.25", "--sf", "0.5"],
        &["--reps", "2", "--reps", "3"],
        &["--seeds", "4"],
        &["--sf", "0.25", "--rss"],
        &["0.25"],
    ] {
        assert!(bin_args(&args(bad), DEFAULTS).is_err(), "{bad:?} accepted");
    }
}

fn rejects_bad_arguments(bin: &str, name: &str) {
    for bad in [&["--sf", "abc"][..], &["--sf=0.25"], &["--quick"]] {
        let out = Command::new(bin).args(bad).output().expect("bin runs");
        assert_eq!(out.status.code(), Some(2), "{name} {bad:?}");
        assert!(out.stdout.is_empty(), "{name} {bad:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {bad:?}: {stderr}"
        );
    }
}

#[test]
fn overload_bin_rejects_bad_arguments() {
    rejects_bad_arguments(env!("CARGO_BIN_EXE_overload"), "overload");
}

#[test]
fn scrub_bin_rejects_bad_arguments() {
    rejects_bad_arguments(env!("CARGO_BIN_EXE_scrub"), "scrub");
}
