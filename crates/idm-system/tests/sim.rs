//! Deterministic chaos simulation, driven from outside the crate the
//! way CI drives it: many seeds, full invariant suite, and an exact
//! reproducibility check (same seed -> same event log and fingerprint).

use idm_system::{run_sim, SimConfig};

fn tagged(seed: u64, ops: usize, tag: &str) -> SimConfig {
    let mut config = SimConfig::new(seed, ops);
    config.dir =
        std::env::temp_dir().join(format!("idm-simtest-{}-{tag}-{seed}", std::process::id()));
    config
}

#[test]
fn a_seed_replays_to_an_identical_fingerprint() {
    let first = run_sim(&tagged(42, 120, "replay-a")).unwrap();
    let second = run_sim(&tagged(42, 120, "replay-b")).unwrap();
    assert!(first.violations.is_empty(), "{:#?}", first.violations);
    assert_eq!(first.events, second.events, "event sequences diverged");
    assert_eq!(first.fingerprint, second.fingerprint);
    assert_eq!(first.counters, second.counters);
}

#[test]
fn twenty_seeds_hold_every_invariant() {
    for seed in 100..120 {
        let outcome = run_sim(&tagged(seed, 80, "sweep")).unwrap();
        assert!(
            outcome.violations.is_empty(),
            "seed {seed} violated invariants: {:#?}\nevents:\n{}",
            outcome.violations,
            outcome.events.join("\n")
        );
    }
}

#[test]
fn long_schedule_exercises_every_operation_class() {
    let outcome = run_sim(&tagged(7777, 400, "long")).unwrap();
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    let c = outcome.counters;
    assert!(c.inserts > 0, "{c:?}");
    assert!(c.mutations > 0, "{c:?}");
    assert!(c.removes > 0, "{c:?}");
    assert!(c.queries > 0, "{c:?}");
    assert!(c.pumps > 0, "{c:?}");
    assert!(c.checkpoints > 0, "{c:?}");
    assert!(c.health_rounds > 0, "{c:?}");
    assert!(c.corruptions > 0, "{c:?}");
    assert!(c.repairs > 0, "{c:?}");
    assert!(c.crashes > 0, "{c:?}");
    // A reopen after a write loads the index file and catches it up; a
    // change that silently falls back to rebuilding shows here.
    assert!(c.reopens_caught_up > 0, "{c:?}");
    assert_eq!(
        c.reopens_loaded + c.reopens_caught_up + c.reopens_rebuilt,
        c.crashes,
        "{c:?}"
    );
    assert!(c.faults_injected > 0, "{c:?}");
    assert!(c.resyncs > 0, "{c:?}");
}
