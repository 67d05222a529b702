//! Deterministic whole-system chaos simulator.
//!
//! [`run_sim`] drives one [`Pdsms`] through a seeded schedule of
//! ingest, mutation, queries, live subscriptions, checkpoints,
//! crash-and-reopen cycles, byte-flip corruption with scrub repair, and
//! live-maintenance fault injection — all interleaved by a SplitMix64
//! scheduler, with an in-memory **model oracle** (the ground-truth map
//! of view names and content words) checked after every query-bearing
//! step, and a full index audit after every reopen, whichever way the
//! reopen got its indexes (counted per [`IndexFate`]).
//!
//! Determinism is the contract: the engine uses no wall-clock and no
//! ambient randomness, so the same seed always produces the same event
//! sequence, the same counters, and the same final fingerprint — a
//! failing seed from CI reproduces locally from the seed alone.
//! Violations (oracle divergence, undetected corruption, broken store
//! invariants, index drift) are collected rather than panicking, so the
//! driver can print the full context for the failing seed.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use idm_core::durability::codec::fnv1a64;
use idm_core::durability::{Artifact, Scrubber};
use idm_core::prelude::*;
use idm_index::AuditScope;

use crate::health::HealthMonitor;
use crate::live::LiveQuery;
use crate::{durability_err, IndexFate, Pdsms, QueryRequest};

/// Closed content vocabulary: every simulated view's text is drawn from
/// these words, and every oracle-checked keyword query asks for one of
/// them. Names (`v<id>`) never collide with the vocabulary.
const VOCAB: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    "lambda", "sigma",
];

/// The term the standing live subscription watches.
const LIVE_TERM: &str = "alpha";

/// One simulation run's parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the SplitMix64 scheduler; fully determines the run.
    pub seed: u64,
    /// Operations to schedule after the seed population.
    pub ops: usize,
    /// Scratch directory for the durable dataspace (removed on finish).
    pub dir: PathBuf,
}

impl SimConfig {
    /// A config with a per-process, per-seed scratch directory.
    pub fn new(seed: u64, ops: usize) -> Self {
        SimConfig {
            seed,
            ops,
            dir: std::env::temp_dir().join(format!("idm-sim-{}-{seed}", std::process::id())),
        }
    }
}

/// How many of each operation a run performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SimCounters {
    pub inserts: u64,
    pub mutations: u64,
    pub renames: u64,
    pub removes: u64,
    pub queries: u64,
    pub pumps: u64,
    pub checkpoints: u64,
    pub health_rounds: u64,
    pub corruptions: u64,
    pub repairs: u64,
    pub crashes: u64,
    /// Reopens by [`IndexFate`]: `Loaded`, `CaughtUp`, any `Rebuilt*`.
    pub reopens_loaded: u64,
    pub reopens_caught_up: u64,
    pub reopens_rebuilt: u64,
    pub records_replayed: u64,
    pub faults_injected: u64,
    pub resyncs: u64,
}

/// What one simulation run did and found.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Ordered event log (one line per scheduled operation).
    pub events: Vec<String>,
    /// FNV-1a-64 digest of the event log, counters and final oracle
    /// state; identical for identical seeds.
    pub fingerprint: u64,
    /// Operation counts.
    pub counters: SimCounters,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
}

/// Ground truth for one simulated view.
struct ModelView {
    name: String,
    words: Vec<&'static str>,
}

/// The standing live subscription plus its maintained row set.
struct LiveSub {
    query: LiveQuery,
    standing: BTreeSet<u64>,
}

struct Sim {
    rng: u64,
    ops: usize,
    dir: PathBuf,
    system: Option<Pdsms>,
    model: BTreeMap<u64, ModelView>,
    live: Option<LiveSub>,
    monitor: HealthMonitor,
    next_id: u64,
    counters: SimCounters,
    events: Vec<String>,
    violations: Vec<String>,
}

/// Runs one seeded chaos schedule to completion (see module docs).
pub fn run_sim(config: &SimConfig) -> Result<SimOutcome> {
    let mut sim = Sim::new(config)?;
    for step in 0..sim.ops {
        sim.step(step)?;
    }
    sim.finish()
}

impl Sim {
    fn new(config: &SimConfig) -> Result<Self> {
        let _ = fs::remove_dir_all(&config.dir);
        let mut sim = Sim {
            rng: config.seed ^ 0x6a09_e667_f3bc_c908,
            ops: config.ops,
            dir: config.dir.clone(),
            system: Some(Pdsms::new()),
            model: BTreeMap::new(),
            live: None,
            monitor: HealthMonitor::new(),
            next_id: 0,
            counters: SimCounters::default(),
            events: Vec::new(),
            violations: Vec::new(),
        };
        for _ in 0..6 {
            sim.insert(usize::MAX)?;
        }
        if let Some(system) = sim.system.as_mut() {
            // The configuration every other caller runs (and the one a
            // simulated crash reopens with). A dropped system must lose
            // nothing: with one appender each group is one record,
            // written before `append` returns.
            system.make_durable(&sim.dir)?;
        }
        sim.subscribe_live()?;
        Ok(sim)
    }

    fn system(&self) -> Result<&Pdsms> {
        self.system.as_ref().ok_or_else(|| IdmError::Parse {
            detail: "simulated system is not open".into(),
        })
    }

    fn rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn event(&mut self, step: usize, line: String) {
        self.events.push(format!("{step}: {line}"));
    }

    fn violation(&mut self, step: usize, line: String) {
        self.violations.push(format!("{step}: {line}"));
    }

    fn random_words(&mut self) -> Vec<&'static str> {
        let count = 3 + (self.rand() as usize) % 5;
        (0..count)
            .map(|_| VOCAB[(self.rand() as usize) % VOCAB.len()])
            .collect()
    }

    fn pick_vid(&mut self) -> Option<u64> {
        if self.model.is_empty() {
            return None;
        }
        let nth = (self.rand() as usize) % self.model.len();
        self.model.keys().nth(nth).copied()
    }

    /// Re-registers a view's postings after a component change, the way
    /// source re-synchronization does.
    fn reindex(&self, vid: Vid) -> Result<()> {
        let system = self.system()?;
        system.indexes().remove_view(vid);
        system
            .indexes()
            .index_view(system.store(), vid, "dataspace")?;
        Ok(())
    }

    fn insert(&mut self, step: usize) -> Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        let name = format!("v{id}");
        let words = self.random_words();
        let text = words.join(" ");
        let system = self.system()?;
        let vid = system.store().build(name.clone()).text(text).insert();
        system
            .indexes()
            .index_view(system.store(), vid, "dataspace")?;
        self.model.insert(vid.as_u64(), ModelView { name, words });
        self.counters.inserts += 1;
        if step != usize::MAX {
            self.event(step, format!("insert {id} -> vid {}", vid.as_u64()));
        }
        Ok(())
    }

    fn mutate(&mut self, step: usize) -> Result<()> {
        let Some(raw) = self.pick_vid() else {
            return self.insert(step);
        };
        let words = self.random_words();
        let text = words.join(" ");
        let vid = Vid::from_raw(raw);
        self.system()?
            .store()
            .set_content(vid, Content::text(text))?;
        self.reindex(vid)?;
        if let Some(view) = self.model.get_mut(&raw) {
            view.words = words;
        }
        self.counters.mutations += 1;
        self.event(step, format!("mutate vid {raw}"));
        Ok(())
    }

    fn rename(&mut self, step: usize) -> Result<()> {
        let Some(raw) = self.pick_vid() else {
            return self.insert(step);
        };
        let id = self.next_id;
        self.next_id += 1;
        let name = format!("v{id}");
        let vid = Vid::from_raw(raw);
        self.system()?.store().set_name(vid, Some(name.clone()))?;
        self.reindex(vid)?;
        if let Some(view) = self.model.get_mut(&raw) {
            view.name = name;
        }
        self.counters.renames += 1;
        self.event(step, format!("rename vid {raw} -> v{id}"));
        Ok(())
    }

    fn remove(&mut self, step: usize) -> Result<()> {
        let Some(raw) = self.pick_vid() else {
            return self.insert(step);
        };
        let vid = Vid::from_raw(raw);
        let system = self.system()?;
        system.indexes().remove_view(vid);
        system.store().remove(vid)?;
        self.model.remove(&raw);
        self.counters.removes += 1;
        self.event(step, format!("remove vid {raw}"));
        Ok(())
    }

    /// Oracle: vids whose content contains `term`, sorted.
    fn expected_term(&self, term: &str) -> Vec<u64> {
        self.model
            .iter()
            .filter(|(_, view)| view.words.contains(&term))
            .map(|(vid, _)| *vid)
            .collect()
    }

    fn query_views(&self, iql: &str) -> Result<Vec<u64>> {
        let response = self.system()?.run(&QueryRequest::new(iql))?;
        let mut rows: Vec<u64> = response
            .result
            .rows
            .views()
            .iter()
            .map(|v| v.as_u64())
            .collect();
        rows.sort_unstable();
        rows.dedup();
        Ok(rows)
    }

    fn check_term(&mut self, step: usize, term: &'static str) -> Result<()> {
        let expected = self.expected_term(term);
        let actual = self.query_views(&format!("\"{term}\""))?;
        self.counters.queries += 1;
        if actual != expected {
            self.violation(
                step,
                format!("query \"{term}\": got {actual:?}, oracle says {expected:?}"),
            );
        }
        Ok(())
    }

    fn check_name(&mut self, step: usize) -> Result<()> {
        let Some(raw) = self.pick_vid() else {
            return Ok(());
        };
        let Some(name) = self.model.get(&raw).map(|v| v.name.clone()) else {
            return Ok(());
        };
        let actual = self.query_views(&format!("//{name}"))?;
        self.counters.queries += 1;
        if actual != vec![raw] {
            self.violation(
                step,
                format!("query //{name}: got {actual:?}, oracle says [{raw}]"),
            );
        }
        Ok(())
    }

    /// Full oracle sweep: every vocabulary term, the store population,
    /// and the store's own structural invariants.
    fn check_all(&mut self, step: usize, label: &str) -> Result<()> {
        for term in VOCAB {
            self.check_term(step, term)?;
        }
        let stored = self.system()?.store().len();
        if stored != self.model.len() {
            self.violation(
                step,
                format!(
                    "{label}: store has {stored} views, oracle has {}",
                    self.model.len()
                ),
            );
        }
        let invariants = self.system()?.store().verify_invariants();
        if !invariants.is_ok() {
            self.violation(
                step,
                format!("{label}: store invariants broken: {invariants:?}"),
            );
        }
        Ok(())
    }

    fn subscribe_live(&mut self) -> Result<()> {
        let query = self
            .system()?
            .subscribe(&QueryRequest::new(format!("\"{LIVE_TERM}\"")))?;
        let standing: BTreeSet<u64> = query
            .initial()
            .rows
            .views()
            .iter()
            .map(|v| v.as_u64())
            .collect();
        self.live = Some(LiveSub { query, standing });
        Ok(())
    }

    /// Reads the watched term through the standing-result table twice —
    /// a `.cached()` lookup, then the subscription's pushed deltas — and
    /// checks both against the oracle.
    fn pump(&mut self, step: usize) -> Result<()> {
        let iql = format!("\"{LIVE_TERM}\"");
        let cached = self.system()?.run(&QueryRequest::new(iql).cached())?;
        let pumped = self.system()?.pump_subscriptions();
        self.counters.pumps += 1;
        let expected: BTreeSet<u64> = self.expected_term(LIVE_TERM).into_iter().collect();
        let cached: BTreeSet<u64> = cached
            .result
            .rows
            .views()
            .iter()
            .map(|v| v.as_u64())
            .collect();
        if cached != expected {
            self.violation(
                step,
                format!("cached \"{LIVE_TERM}\": got {cached:?}, oracle {expected:?}"),
            );
        }
        if let Some(live) = self.live.as_mut() {
            for delta in live.query.poll() {
                for vid in delta.removed.views() {
                    live.standing.remove(&vid.as_u64());
                }
                for vid in delta.added.views() {
                    live.standing.insert(vid.as_u64());
                }
            }
            let standing = live.standing.clone();
            if standing != expected {
                self.violation(
                    step,
                    format!("live \"{LIVE_TERM}\": standing {standing:?}, oracle {expected:?}"),
                );
            }
        }
        self.event(step, format!("pump ({pumped} change(s))"));
        Ok(())
    }

    fn checkpoint(&mut self, step: usize) -> Result<()> {
        let stats = self.system()?.checkpoint()?;
        self.counters.checkpoints += 1;
        self.event(
            step,
            format!("checkpoint seq {} ({} views)", stats.seq, stats.views),
        );
        Ok(())
    }

    /// One budgeted health round; any finding here (without an injected
    /// corruption) or audit drift is a violation.
    fn health_round(&mut self, step: usize) -> Result<()> {
        let Some(system) = self.system.as_ref() else {
            return Err(IdmError::Parse {
                detail: "simulated system is not open".into(),
            });
        };
        let report = self.monitor.round(system)?;
        self.counters.health_rounds += 1;
        if !report.scrub.findings.is_empty() {
            self.violation(
                step,
                format!("spontaneous scrub finding: {:?}", report.scrub.findings),
            );
        }
        if !report.audit.is_clean() {
            self.violation(
                step,
                format!(
                    "index drift: {:?} stale {:?}",
                    report.audit.mismatches, report.audit.stale_entries
                ),
            );
        }
        self.event(
            step,
            format!(
                "health round {} ({} bytes verified, {} views audited)",
                report.round, report.scrub.bytes_verified, report.audit.views_checked
            ),
        );
        Ok(())
    }

    /// Flips one random bit of one random durable artifact — picked from
    /// the list every scrub round walks — then runs an unbudgeted scrub
    /// round and expects the damage to be detected, quarantined and
    /// repaired, with the oracle sweep byte-identical afterwards.
    fn corrupt_and_repair(&mut self, step: usize) -> Result<()> {
        let artifacts = self.system()?.artifacts()?;
        if artifacts.is_empty() {
            return Ok(());
        }
        let pick = artifacts[(self.rand() as usize) % artifacts.len()].clone();
        let path = pick.path();
        let len = fs::metadata(path).map_err(durability_err)?.len();
        if len == 0 {
            return Ok(());
        }
        let offset = self.rand() % len;
        let mask = 1u8 << (self.rand() % 8);
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(durability_err)?;
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(offset)).map_err(durability_err)?;
        file.read_exact(&mut byte).map_err(durability_err)?;
        byte[0] ^= mask;
        file.seek(SeekFrom::Start(offset)).map_err(durability_err)?;
        file.write_all(&byte).map_err(durability_err)?;
        drop(file);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.counters.corruptions += 1;
        self.event(
            step,
            format!("flip {name} offset {offset} mask {mask:#04x}"),
        );

        let mut scrubber = Scrubber::new(None);
        let report = self.system()?.scrub_round(&mut scrubber)?;
        let mut detected = !report.findings.is_empty();
        if !detected && matches!(pick, Artifact::LiveWal(_)) {
            // A flip inside the live WAL's trailing frame header can
            // masquerade as an in-flight append, which a concurrent
            // scrub must tolerate. Sealing the segment (checkpoint)
            // forces the truth out: pruning verifies superseded
            // segments and quarantines the damaged one.
            self.checkpoint(step)?;
            let followup = self.system()?.scrub_round(&mut scrubber)?;
            detected = true;
            self.event(
                step,
                format!(
                    "latent live-wal flip sealed and swept ({} finding(s))",
                    followup.findings.len()
                ),
            );
        }
        if detected {
            self.counters.repairs += 1;
            self.event(
                step,
                format!(
                    "repair: {} finding(s), {} quarantined, checkpoint {}",
                    report.findings.len(),
                    report.quarantined.len(),
                    report.repaired.map(|s| s.seq).unwrap_or_default()
                ),
            );
        } else {
            self.violation(step, format!("flip of {name} went undetected"));
        }
        self.check_all(step, "post-repair")
    }

    /// Kill -9 equivalent: drop the system with no shutdown path, reopen
    /// from disk, and require the recovered dataspace to answer every
    /// oracle query identically.
    fn crash_and_reopen(&mut self, step: usize) -> Result<()> {
        self.live = None;
        self.system = None; // drop: no shutdown hook runs
        let (system, report) = Pdsms::open(&self.dir)?;
        self.counters.crashes += 1;
        match report.index {
            IndexFate::Loaded => self.counters.reopens_loaded += 1,
            IndexFate::CaughtUp => self.counters.reopens_caught_up += 1,
            IndexFate::RebuiltStaleEpoch
            | IndexFate::RebuiltUnreadable
            | IndexFate::RebuiltMissing => self.counters.reopens_rebuilt += 1,
        }
        self.counters.records_replayed += report.recovery.records_replayed;
        self.event(
            step,
            format!(
                "crash+reopen: {} record(s) replayed, index {:?}",
                report.recovery.records_replayed, report.index
            ),
        );
        // Whatever the fate, the bundle must be the store's: every view
        // cross-checked before anything else touches it.
        let audit = system.audit_indexes(AuditScope::Full, None)?;
        if !audit.is_clean() {
            self.violation(
                step,
                format!(
                    "index {:?} after reopen: drifted {:?} stale {:?}",
                    report.index, audit.mismatches, audit.stale_entries
                ),
            );
        }
        self.system = Some(system);
        // Fresh monitor: scrub cursors and audit memos died with the
        // process being simulated.
        self.monitor = HealthMonitor::new();
        self.check_all(step, "post-recovery")?;
        self.subscribe_live()
    }

    /// Arms a deterministic live-maintenance failure, then mutates and
    /// pumps: the subscription must survive via counted resync.
    fn fault_and_pump(&mut self, step: usize) -> Result<()> {
        let before = self.system()?.live_stats().resyncs;
        self.system()?.inject_live_failures(1, 0);
        self.counters.faults_injected += 1;
        self.event(step, "inject live maintenance fault".into());
        self.mutate(step)?;
        self.pump(step)?;
        let resyncs = self.system()?.live_stats().resyncs - before;
        self.counters.resyncs += resyncs;
        if resyncs != 1 {
            self.violation(
                step,
                format!("injected maintenance fault led to {resyncs} resync(s), not 1"),
            );
        }
        Ok(())
    }

    fn step(&mut self, step: usize) -> Result<()> {
        let roll = self.rand() % 100;
        match roll {
            0..=21 => self.insert(step),
            22..=35 => self.mutate(step),
            36..=43 => self.rename(step),
            44..=51 => self.remove(step),
            52..=58 => {
                let term = VOCAB[(self.rand() as usize) % VOCAB.len()];
                self.check_term(step, term)
            }
            59..=63 => self.check_name(step),
            64..=71 => self.pump(step),
            72..=79 => self.checkpoint(step),
            80..=87 => self.health_round(step),
            88..=93 => self.corrupt_and_repair(step),
            94..=96 => self.crash_and_reopen(step),
            _ => self.fault_and_pump(step),
        }
    }

    fn finish(mut self) -> Result<SimOutcome> {
        self.check_all(self.ops, "final")?;
        let live_stats = self.system()?.live_stats();
        if live_stats.dropped > 0 {
            self.violation(
                self.ops,
                format!("live subscription dropped ({} total)", live_stats.dropped),
            );
        }
        self.live = None;
        self.system = None;
        let _ = fs::remove_dir_all(&self.dir);

        let mut digest = self.events.join("\n");
        digest.push_str("\n--counters--\n");
        digest.push_str(&format!("{:?}", self.counters));
        digest.push_str("\n--model--\n");
        for (vid, view) in &self.model {
            digest.push_str(&format!("{vid} {} {:?}\n", view.name, view.words));
        }
        digest.push_str("\n--violations--\n");
        digest.push_str(&self.violations.join("\n"));
        Ok(SimOutcome {
            fingerprint: fnv1a64(digest.as_bytes()),
            events: self.events,
            counters: self.counters,
            violations: self.violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_events_and_fingerprint() {
        let a = run_sim(&SimConfig {
            dir: SimConfig::new(7, 60).dir.with_extension("a"),
            ..SimConfig::new(7, 60)
        })
        .unwrap();
        let b = run_sim(&SimConfig {
            dir: SimConfig::new(7, 60).dir.with_extension("b"),
            ..SimConfig::new(7, 60)
        })
        .unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.counters, b.counters);
        assert!(a.violations.is_empty(), "{:#?}", a.violations);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_sim(&SimConfig::new(1, 40)).unwrap();
        let b = run_sim(&SimConfig::new(2, 40)).unwrap();
        assert!(a.violations.is_empty(), "{:#?}", a.violations);
        assert!(b.violations.is_empty(), "{:#?}", b.violations);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn a_handful_of_seeds_hold_every_invariant() {
        for seed in 10..16 {
            let outcome = run_sim(&SimConfig::new(seed, 50)).unwrap();
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:#?}\nevents: {:#?}",
                outcome.violations,
                outcome.events
            );
            assert!(outcome.counters.inserts > 0);
        }
    }
}
