//! Substrate fault tolerance: deterministic fault injection, bounded
//! retry with backoff, per-source circuit breakers and shared fault
//! counters.
//!
//! The PDSMS sits on inherently unreliable substrates — filesystems,
//! IMAP servers, RSS feeds (Section 5.2) — yet must keep the dataspace
//! as a whole available: a flaky mail server degrades *one* source, not
//! every query. This module provides the building blocks, all
//! deterministic so chaos tests are reproducible:
//!
//! - [`FaultPlan`] / [`FaultInjector`] / [`FaultPoint`] — a scriptable
//!   fault model (fail-the-first-N, fail-every-Nth, seeded failure rate,
//!   latency, torn reads, crashes and torn writes). Every substrate and
//!   the WAL writer embed a [`FaultPoint`] and consult it on each call;
//!   it is always compiled and inert until a plan is installed, so the
//!   build that is tested is the build that ships.
//! - [`RetryPolicy`] — bounded exponential backoff with deterministic
//!   jitter and a per-call time budget.
//! - [`CircuitBreaker`] — the classic closed/open/half-open state
//!   machine with a trip threshold and cool-down.
//! - [`SourceGuard`] — retry policy + breaker + shared [`FaultStats`],
//!   wrapped around every plugin ingest and lazy-provider force.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::{IdmError, Result, SubstrateFaultKind};

/// SplitMix64: tiny, high-quality, seedable — the deterministic PRNG
/// behind failure rates and retry jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a SplitMix64 state.
fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Busy-waits short costs (thread::sleep granularity would distort
/// sub-millisecond delays), sleeps long ones. Mirrors the substrate
/// latency models in `idm-vfs` and `idm-email`.
fn wait_for(cost: Duration) {
    if cost.is_zero() {
        return;
    }
    if cost >= Duration::from_millis(5) {
        std::thread::sleep(cost);
    } else {
        let start = Instant::now();
        while start.elapsed() < cost {
            std::hint::spin_loop();
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A deterministic fault schedule, installed on a substrate.
///
/// Calls are counted per injector (1-based), so "fail the 3rd call"
/// means the 3rd substrate operation after installation, whatever it is.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlan {
    /// Fail the first `n` calls, then succeed forever (the retry
    /// recovery scenario).
    FailFirst {
        /// How many leading calls fail.
        n: u64,
        /// The classification injected failures carry.
        kind: SubstrateFaultKind,
    },
    /// Fail every `n`-th call (the periodically flaky source).
    FailEveryNth {
        /// The period; every call whose 1-based index is a multiple
        /// fails.
        n: u64,
        /// The classification injected failures carry.
        kind: SubstrateFaultKind,
    },
    /// Fail each call independently with probability `rate`, drawn from
    /// a PRNG seeded with `seed` (reproducible chaos).
    FailRate {
        /// Failure probability in `[0, 1]`.
        rate: f64,
        /// PRNG seed; the same seed yields the same failure sequence.
        seed: u64,
        /// The classification injected failures carry.
        kind: SubstrateFaultKind,
    },
    /// Delay every call by `delay` without failing it (the slow disk /
    /// congested link scenario).
    Latency {
        /// Injected delay per call.
        delay: Duration,
    },
    /// Let reads through but truncate their payload to `keep` bytes
    /// (the torn read: a fetch interrupted mid-transfer). Non-read
    /// operations proceed untouched.
    TornRead {
        /// How many payload bytes survive.
        keep: usize,
    },
    /// Simulate a process crash at call `at`: that call and every call
    /// after it fail permanently, as if the process died mid-operation
    /// and the handle can never be used again.
    CrashAt {
        /// The 1-based call index the crash strikes at.
        at: u64,
    },
    /// Tear exactly one *write*: call `at` persists only the first
    /// `keep` bytes of its payload, and every later call fails
    /// permanently (the process died mid-`write(2)`).
    TornWrite {
        /// The 1-based call index of the torn write.
        at: u64,
        /// How many payload bytes reach the disk.
        keep: usize,
    },
}

impl FaultPlan {
    /// Fail the first `n` calls with transient errors, then succeed.
    pub fn fail_n(n: u64) -> Self {
        FaultPlan::FailFirst {
            n,
            kind: SubstrateFaultKind::Transient,
        }
    }

    /// Fail every `n`-th call with transient errors.
    pub fn fail_every(n: u64) -> Self {
        FaultPlan::FailEveryNth {
            n: n.max(1),
            kind: SubstrateFaultKind::Transient,
        }
    }

    /// Fail each call with probability `rate`, seeded.
    pub fn fail_rate(rate: f64, seed: u64) -> Self {
        FaultPlan::FailRate {
            rate: rate.clamp(0.0, 1.0),
            seed,
            kind: SubstrateFaultKind::Transient,
        }
    }

    /// Delay every call by `delay`.
    pub fn latency(delay: Duration) -> Self {
        FaultPlan::Latency { delay }
    }

    /// Truncate read payloads to `keep` bytes.
    pub fn torn_read(keep: usize) -> Self {
        FaultPlan::TornRead { keep }
    }

    /// Crash the process at call `at`: that call and all later ones
    /// fail permanently.
    pub fn crash_at(at: u64) -> Self {
        FaultPlan::CrashAt { at: at.max(1) }
    }

    /// Tear write number `at` down to `keep` bytes, then crash.
    pub fn torn_write(at: u64, keep: usize) -> Self {
        FaultPlan::TornWrite {
            at: at.max(1),
            keep,
        }
    }

    /// Reclassifies injected failures as permanent (the default is
    /// transient). No effect on latency/torn-read plans.
    pub fn permanent(self) -> Self {
        match self {
            FaultPlan::FailFirst { n, .. } => FaultPlan::FailFirst {
                n,
                kind: SubstrateFaultKind::Permanent,
            },
            FaultPlan::FailEveryNth { n, .. } => FaultPlan::FailEveryNth {
                n,
                kind: SubstrateFaultKind::Permanent,
            },
            FaultPlan::FailRate { rate, seed, .. } => FaultPlan::FailRate {
                rate,
                seed,
                kind: SubstrateFaultKind::Permanent,
            },
            other => other,
        }
    }
}

/// What a substrate should do for the current call, as decided by its
/// installed [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute normally.
    Proceed,
    /// Execute, but truncate the returned payload to this many bytes.
    Truncate(usize),
}

/// Executes a [`FaultPlan`] deterministically: counts calls, draws from
/// the seeded PRNG, and tells the substrate what to do.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    calls: AtomicU64,
    rng: Mutex<u64>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector executing `plan` from call 1.
    pub fn new(plan: FaultPlan) -> Self {
        let seed = match &plan {
            FaultPlan::FailRate { seed, .. } => *seed,
            _ => 0,
        };
        FaultInjector {
            plan,
            calls: AtomicU64::new(0),
            rng: Mutex::new(seed),
            injected: AtomicU64::new(0),
        }
    }

    /// Total calls observed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total faults injected (errors and truncations; latency is not a
    /// fault, only a delay).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Decides the fate of the next call against `source`/`op`.
    pub fn on_call(&self, source: &str, op: &str) -> Result<FaultAction> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let fail_kind = match &self.plan {
            FaultPlan::FailFirst { n, kind } if call <= *n => Some(*kind),
            FaultPlan::FailEveryNth { n, kind } if call.is_multiple_of(*n) => Some(*kind),
            FaultPlan::FailRate { rate, kind, .. } => {
                let mut rng = self.rng.lock();
                (uniform(&mut rng) < *rate).then_some(*kind)
            }
            FaultPlan::Latency { delay } => {
                wait_for(*delay);
                None
            }
            FaultPlan::TornRead { keep } => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Ok(FaultAction::Truncate(*keep));
            }
            FaultPlan::CrashAt { at } if call >= *at => Some(SubstrateFaultKind::Permanent),
            FaultPlan::TornWrite { at, keep } => {
                if call == *at {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    return Ok(FaultAction::Truncate(*keep));
                }
                (call > *at).then_some(SubstrateFaultKind::Permanent)
            }
            _ => None,
        };
        match fail_kind {
            Some(kind) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(IdmError::Substrate {
                    source: source.to_owned(),
                    kind,
                    attempt: 1,
                    detail: format!("injected fault at {op} (call {call})"),
                })
            }
            None => Ok(FaultAction::Proceed),
        }
    }
}

/// The installation point a substrate embeds: an optional injector
/// behind a mutex. With no plan installed, [`FaultPoint::check`] is one
/// uncontended lock on calls that already lock or do I/O.
#[derive(Debug, Default)]
pub struct FaultPoint {
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl FaultPoint {
    /// An empty fault point (no plan installed).
    pub fn new() -> Self {
        FaultPoint::default()
    }

    /// Installs a plan, replacing any previous one.
    pub fn install(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let injector = Arc::new(FaultInjector::new(plan));
        *self.injector.lock() = Some(Arc::clone(&injector));
        injector
    }

    /// Removes the installed plan (the substrate heals).
    pub fn clear(&self) {
        *self.injector.lock() = None;
    }

    /// Whether a plan is currently installed.
    pub fn is_armed(&self) -> bool {
        self.injector.lock().is_some()
    }

    /// Consults the installed injector; `Proceed` when none is armed.
    pub fn check(&self, source: &str, op: &str) -> Result<FaultAction> {
        let injector = self.injector.lock().clone();
        match injector {
            Some(injector) => injector.on_call(source, op),
            None => Ok(FaultAction::Proceed),
        }
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Bounded exponential backoff with deterministic jitter and a per-call
/// time budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of *re*tries after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter (same seed → same delays).
    pub jitter_seed: u64,
    /// Total time budget for the call including backoff; once exceeded,
    /// the last error is returned reclassified as a timeout.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x1d4_7e57,
            budget: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (breaker-only guarding).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// A policy with `max_retries` retries and no backoff sleeping —
    /// what deterministic tests want.
    pub fn immediate(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_delay: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `retry` (1-based): exponential
    /// from `base_delay`, capped at `max_backoff`, jittered
    /// deterministically into `[50%, 100%]` of the nominal value.
    pub fn delay_for(&self, retry: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let nominal = self
            .base_delay
            .saturating_mul(
                1u32.checked_shl(retry.saturating_sub(1))
                    .unwrap_or(u32::MAX),
            )
            .min(self.max_backoff);
        let mut state = self.jitter_seed ^ u64::from(retry).wrapping_mul(0x9E37_79B9);
        let factor = 0.5 + uniform(&mut state) / 2.0;
        nominal.mul_f64(factor)
    }

    /// Runs `f` under this policy. Retries only [retryable] failures,
    /// sleeps the jittered backoff between attempts, stops when retries
    /// or the time budget are exhausted, and stamps the final error with
    /// the attempt count. Returns the number of retries performed
    /// alongside the outcome.
    ///
    /// [retryable]: IdmError::is_retryable
    pub fn run<T>(&self, mut f: impl FnMut() -> Result<T>) -> (Result<T>, u32) {
        let start = Instant::now();
        let mut retries = 0u32;
        loop {
            match f() {
                Ok(value) => return (Ok(value), retries),
                Err(err) => {
                    let attempt = retries + 1;
                    if !err.is_retryable() || retries >= self.max_retries {
                        return (Err(err.with_attempt(attempt)), retries);
                    }
                    if start.elapsed() >= self.budget {
                        let timed_out = match err {
                            IdmError::Substrate { source, detail, .. } => IdmError::Substrate {
                                source,
                                kind: SubstrateFaultKind::Timeout,
                                attempt,
                                detail: format!("retry budget exhausted: {detail}"),
                            },
                            other => other.with_attempt(attempt),
                        };
                        return (Err(timed_out), retries);
                    }
                    retries += 1;
                    wait_for(self.delay_for(retries));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls fail fast until the cool-down elapses.
    Open,
    /// One probe call is allowed through; success closes the breaker,
    /// failure re-opens it.
    HalfOpen,
}

#[derive(Debug)]
enum BreakerInner {
    Closed { consecutive_failures: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// A per-source circuit breaker: `trip_threshold` consecutive failures
/// open it; after `cooldown` one probe is admitted (half-open); the
/// probe's outcome closes or re-opens it.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: Mutex<BreakerInner>,
    trip_threshold: u32,
    cooldown: Duration,
    trips: AtomicU64,
    fast_failures: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `trip_threshold` consecutive
    /// failures, cooling down for `cooldown`.
    pub fn new(trip_threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            state: Mutex::new(BreakerInner::Closed {
                consecutive_failures: 0,
            }),
            trip_threshold: trip_threshold.max(1),
            cooldown,
            trips: AtomicU64::new(0),
            fast_failures: AtomicU64::new(0),
        }
    }

    /// The current state (open flips to half-open lazily on admission,
    /// so an elapsed cool-down still reports `Open` until probed).
    pub fn state(&self) -> BreakerState {
        match &*self.state.lock() {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { .. } => BreakerState::Open,
            BreakerInner::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// How often the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// How many calls were rejected while open.
    pub fn fast_failures(&self) -> u64 {
        self.fast_failures.load(Ordering::Relaxed)
    }

    /// Asks to place a call. `Ok` admits it (and may move the breaker
    /// to half-open); `Err` is the fast failure of an open breaker.
    pub fn admit(&self, source: &str) -> Result<()> {
        let mut state = self.state.lock();
        match &*state {
            BreakerInner::Closed { .. } | BreakerInner::HalfOpen => Ok(()),
            BreakerInner::Open { since } => {
                if since.elapsed() >= self.cooldown {
                    *state = BreakerInner::HalfOpen;
                    Ok(())
                } else {
                    self.fast_failures.fetch_add(1, Ordering::Relaxed);
                    Err(IdmError::transient(
                        source,
                        "circuit breaker open: failing fast",
                    ))
                }
            }
        }
    }

    /// Reports a successful call: closes the breaker and resets the
    /// failure count.
    pub fn on_success(&self) {
        *self.state.lock() = BreakerInner::Closed {
            consecutive_failures: 0,
        };
    }

    /// Reports a failed call; returns `true` when this failure tripped
    /// the breaker open.
    pub fn on_failure(&self) -> bool {
        let mut state = self.state.lock();
        match &mut *state {
            BreakerInner::Closed {
                consecutive_failures,
            } => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.trip_threshold {
                    *state = BreakerInner::Open {
                        since: Instant::now(),
                    };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
            BreakerInner::HalfOpen => {
                // Failed probe: straight back to open for another
                // cool-down.
                *state = BreakerInner::Open {
                    since: Instant::now(),
                };
                self.trips.fetch_add(1, Ordering::Relaxed);
                true
            }
            BreakerInner::Open { .. } => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared fault statistics
// ---------------------------------------------------------------------------

/// Shared, thread-safe fault counters, aggregated across every guard of
/// one dataspace system.
#[derive(Debug, Default)]
pub struct FaultStats {
    retries: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_fast_failures: AtomicU64,
}

/// A point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Substrate calls retried after a retryable failure.
    pub retries: u64,
    /// Circuit breakers tripped open.
    pub breaker_trips: u64,
    /// Calls rejected fast by an open breaker.
    pub breaker_fast_failures: u64,
}

impl FaultStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        FaultStats::default()
    }

    /// Records `n` retries.
    pub fn add_retries(&self, n: u64) {
        self.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a breaker trip.
    pub fn add_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fast failure from an open breaker.
    pub fn add_breaker_fast_failure(&self) {
        self.breaker_fast_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of all counters.
    pub fn snapshot(&self) -> FaultCounters {
        FaultCounters {
            retries: self.retries.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_failures: self.breaker_fast_failures.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Source guard
// ---------------------------------------------------------------------------

/// The fault-tolerance wrapper for one data source: every substrate
/// call goes breaker-first, then through the retry policy, with all
/// outcomes counted in the shared [`FaultStats`].
#[derive(Debug)]
pub struct SourceGuard {
    source: String,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    stats: Arc<FaultStats>,
}

impl SourceGuard {
    /// A guard for `source` with explicit policy and breaker.
    pub fn new(
        source: impl Into<String>,
        policy: RetryPolicy,
        breaker: CircuitBreaker,
        stats: Arc<FaultStats>,
    ) -> Self {
        SourceGuard {
            source: source.into(),
            policy,
            breaker,
            stats,
        }
    }

    /// A guard with the default policy (3 retries, 1 ms base backoff)
    /// and a 5-failure / 100 ms-cool-down breaker.
    pub fn with_defaults(source: impl Into<String>, stats: Arc<FaultStats>) -> Self {
        SourceGuard::new(
            source,
            RetryPolicy::default(),
            CircuitBreaker::new(5, Duration::from_millis(100)),
            stats,
        )
    }

    /// The guarded source's name.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The breaker (state inspection).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The shared stats handle.
    pub fn stats(&self) -> &Arc<FaultStats> {
        &self.stats
    }

    /// Places a guarded call: fail fast if the breaker is open, retry
    /// per policy otherwise, then report the overall outcome to the
    /// breaker. Errors leave attributed to this source.
    pub fn call<T>(&self, f: impl FnMut() -> Result<T>) -> Result<T> {
        if let Err(err) = self.breaker.admit(&self.source) {
            self.stats.add_breaker_fast_failure();
            return Err(err);
        }
        let (result, retries) = self.policy.run(f);
        self.stats.add_retries(u64::from(retries));
        match result {
            Ok(value) => {
                self.breaker.on_success();
                Ok(value)
            }
            Err(err) => {
                if self.breaker.on_failure() {
                    self.stats.add_breaker_trip();
                }
                Err(err.with_source(&self.source))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_n_fails_then_heals() {
        let injector = FaultInjector::new(FaultPlan::fail_n(2));
        assert!(injector.on_call("fs", "read").is_err());
        assert!(injector.on_call("fs", "read").is_err());
        assert_eq!(
            injector.on_call("fs", "read").unwrap(),
            FaultAction::Proceed
        );
        assert_eq!(injector.injected(), 2);
        assert_eq!(injector.calls(), 3);
    }

    #[test]
    fn fail_every_nth_is_periodic() {
        let injector = FaultInjector::new(FaultPlan::fail_every(3));
        let outcomes: Vec<bool> = (0..9)
            .map(|_| injector.on_call("imap", "fetch").is_err())
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn fail_rate_is_seed_deterministic() {
        let run = |seed| {
            let injector = FaultInjector::new(FaultPlan::fail_rate(0.5, seed));
            (0..64)
                .map(|_| injector.on_call("rss", "fetch").is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42), "same seed, same faults");
        assert_ne!(run(42), run(43), "different seed, different faults");
        let failures = run(42).iter().filter(|f| **f).count();
        assert!((16..=48).contains(&failures), "rate roughly respected");
    }

    #[test]
    fn torn_read_truncates() {
        let injector = FaultInjector::new(FaultPlan::torn_read(4));
        assert_eq!(
            injector.on_call("fs", "read").unwrap(),
            FaultAction::Truncate(4)
        );
        assert_eq!(injector.injected(), 1);
    }

    #[test]
    fn injected_errors_carry_classification() {
        let injector = FaultInjector::new(FaultPlan::fail_n(1).permanent());
        let err = injector.on_call("imap", "fetch").unwrap_err();
        assert_eq!(err.substrate_kind(), Some(SubstrateFaultKind::Permanent));
        assert!(!err.is_retryable());
    }

    #[test]
    fn fault_point_idle_proceeds() {
        let point = FaultPoint::new();
        assert!(!point.is_armed());
        assert_eq!(point.check("fs", "read").unwrap(), FaultAction::Proceed);
        point.install(FaultPlan::fail_n(1));
        assert!(point.is_armed());
        assert!(point.check("fs", "read").is_err());
        point.clear();
        assert_eq!(point.check("fs", "read").unwrap(), FaultAction::Proceed);
    }

    #[test]
    fn retry_succeeds_on_third_attempt_with_two_retries() {
        let mut attempts = 0;
        let policy = RetryPolicy::immediate(5);
        let (result, retries) = policy.run(|| {
            attempts += 1;
            if attempts <= 2 {
                Err(IdmError::transient("fs", "flaky"))
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(result.unwrap(), 3);
        assert_eq!(retries, 2, "exactly two retries");
    }

    #[test]
    fn retry_stops_on_permanent_errors() {
        let mut attempts = 0;
        let (result, retries) = RetryPolicy::immediate(5).run(|| -> Result<()> {
            attempts += 1;
            Err(IdmError::permanent("imap", "no such mailbox"))
        });
        assert_eq!(attempts, 1, "permanent failures are not retried");
        assert_eq!(retries, 0);
        let err = result.unwrap_err();
        assert_eq!(err.substrate_kind(), Some(SubstrateFaultKind::Permanent));
    }

    #[test]
    fn retry_exhaustion_reports_attempts() {
        let (result, retries) = RetryPolicy::immediate(2)
            .run(|| -> Result<()> { Err(IdmError::transient("fs", "still down")) });
        assert_eq!(retries, 2);
        let IdmError::Substrate { attempt, .. } = result.unwrap_err() else {
            panic!("substrate error expected");
        };
        assert_eq!(attempt, 3, "first attempt plus two retries");
    }

    #[test]
    fn retry_budget_converts_to_timeout() {
        let policy = RetryPolicy {
            max_retries: 100,
            base_delay: Duration::ZERO,
            max_backoff: Duration::ZERO,
            budget: Duration::ZERO, // expires immediately
            ..RetryPolicy::default()
        };
        let (result, retries) =
            policy.run(|| -> Result<()> { Err(IdmError::transient("imap", "slow")) });
        assert_eq!(retries, 0, "budget gate fires before the first retry");
        assert_eq!(
            result.unwrap_err().substrate_kind(),
            Some(SubstrateFaultKind::Timeout)
        );
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_monotone() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            ..RetryPolicy::default()
        };
        for retry in 1..8 {
            let d = policy.delay_for(retry);
            assert_eq!(d, policy.delay_for(retry), "deterministic");
            let nominal = Duration::from_millis(10 * (1 << (retry - 1).min(3)));
            assert!(d <= nominal.min(Duration::from_millis(80)));
            assert!(d >= nominal.min(Duration::from_millis(80)) / 2);
        }
        assert_eq!(RetryPolicy::immediate(3).delay_for(5), Duration::ZERO);
    }

    #[test]
    fn breaker_trips_fails_fast_and_recovers() {
        let breaker = CircuitBreaker::new(2, Duration::ZERO);
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.admit("fs").is_ok());
        assert!(!breaker.on_failure());
        assert!(breaker.on_failure(), "second failure trips");
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trips(), 1);

        // Zero cool-down: the next admission is the half-open probe.
        assert!(breaker.admit("fs").is_ok());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn open_breaker_fails_fast_until_cooldown() {
        let breaker = CircuitBreaker::new(1, Duration::from_secs(3600));
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(breaker.admit("imap").is_err());
        assert!(breaker.admit("imap").is_err());
        assert_eq!(breaker.fast_failures(), 2);
    }

    #[test]
    fn failed_probe_reopens() {
        let breaker = CircuitBreaker::new(1, Duration::ZERO);
        breaker.on_failure();
        assert!(breaker.admit("rss").is_ok(), "probe admitted");
        assert!(breaker.on_failure(), "failed probe re-trips");
        assert_eq!(breaker.trips(), 2);
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn guard_counts_retries_and_trips() {
        let stats = Arc::new(FaultStats::new());
        let guard = SourceGuard::new(
            "imap",
            RetryPolicy::immediate(1),
            CircuitBreaker::new(2, Duration::from_secs(3600)),
            Arc::clone(&stats),
        );

        // Transient failure that heals on retry.
        let mut calls = 0;
        let value = guard
            .call(|| {
                calls += 1;
                if calls == 1 {
                    Err(IdmError::transient("imap", "reset"))
                } else {
                    Ok(7)
                }
            })
            .unwrap();
        assert_eq!(value, 7);
        assert_eq!(stats.snapshot().retries, 1);
        assert_eq!(guard.breaker().state(), BreakerState::Closed);

        // Two exhausted calls trip the breaker; the third fails fast.
        for _ in 0..2 {
            let err = guard
                .call(|| -> Result<()> { Err(IdmError::transient("imap", "down")) })
                .unwrap_err();
            assert!(err.is_retryable());
        }
        assert_eq!(stats.snapshot().breaker_trips, 1);
        let err = guard
            .call(|| -> Result<()> { panic!("must not run: breaker is open") })
            .unwrap_err();
        assert!(err.to_string().contains("circuit breaker open"), "{err}");
        assert_eq!(stats.snapshot().breaker_fast_failures, 1);
    }

    #[test]
    fn guard_attributes_errors_to_source() {
        let stats = Arc::new(FaultStats::new());
        let guard = SourceGuard::new(
            "filesystem",
            RetryPolicy::none(),
            CircuitBreaker::new(99, Duration::ZERO),
            stats,
        );
        let err = guard
            .call(|| -> Result<()> { Err(IdmError::provider("read failed")) })
            .unwrap_err();
        let IdmError::Provider { source, .. } = &err else {
            panic!("provider error expected, got {err:?}");
        };
        assert_eq!(source.as_deref(), Some("filesystem"));
    }
}
