//! Per-query resource governance: budgets, cooperative cancellation and
//! consumption accounting.
//!
//! The nested model makes plan-time cost prediction unreliable — a `//`
//! step's fan-out is whatever the lazily-expanded sources produce — so
//! bounds are enforced at *run time*: a [`QueryBudget`] rides in
//! [`crate::ExecOptions`], the executor materializes it into one
//! [`BudgetTracker`] per query, and every physical operator polls the
//! tracker at cooperative checkpoints on the query's one thread.
//! Exceeding any limit aborts within one operator batch:
//!
//! - **strict** (the default): the checkpoint returns
//!   [`IdmError::ResourceExhausted`], which unwinds the plan walker —
//!   store and index guards release on the way out, caches stay
//!   consistent.
//! - **partial** ([`QueryBudget::partial`]): the checkpoint flips to
//!   [`Tick::Truncate`] forever after; operators stop consuming input
//!   but still produce *sound subsets* of their true result, and the
//!   walker still visits every plan node (keeping the plan/exec
//!   operator-count invariant), so the caller gets the rows found so
//!   far with `stats.partial == true`.
//!
//! An unbudgeted query constructs a disabled tracker — every checkpoint
//! is then a single untaken branch and no counter is touched, so
//! ungoverned execution (including `ExecStats` equality across reruns)
//! is bit-identical to what it was before this layer existed.
//!
//! The tracker's state is plain [`Cell`]s: a query's operators all run
//! on the thread that called the executor, so the tracker is not
//! `Sync`, and only its own checkpoints and charges can trip it.

use std::cell::Cell;
use std::time::{Duration, Instant};

use idm_core::prelude::*;

/// Resource limits one query may consume. All limits are optional; the
/// default ([`QueryBudget::none`]) is unlimited and adds no per-item
/// work to execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryBudget {
    /// Wall-clock deadline, measured from the start of `execute_plan`.
    pub deadline: Option<Duration>,
    /// Accounted memory in bytes (result rows, expansion frontiers,
    /// join keys — an accounting of the executor's own intermediates,
    /// not an allocator measurement).
    pub max_bytes: Option<u64>,
    /// Cap on rows produced across all operators.
    pub max_rows: Option<u64>,
    /// Cap on graph nodes expanded (`//` step frontiers).
    pub max_nodes: Option<u64>,
    /// Trip cancellation at the Nth cooperative checkpoint — the
    /// cancellation-soundness tests' injection point (deterministic:
    /// checkpoint counting does not depend on timing).
    pub cancel_after_checks: Option<u64>,
    /// Opt into graceful degradation: return the sound subset of rows
    /// produced so far (`stats.partial == true`) instead of
    /// [`IdmError::ResourceExhausted`].
    pub partial: bool,
}

impl QueryBudget {
    /// No limits (the default): execution is bit-identical to an
    /// ungoverned run.
    pub fn none() -> Self {
        QueryBudget::default()
    }

    /// A wall-clock deadline, strict by default.
    pub fn with_deadline(deadline: Duration) -> Self {
        QueryBudget {
            deadline: Some(deadline),
            ..QueryBudget::default()
        }
    }

    /// Switches this budget to partial-result mode.
    pub fn degrade_to_partial(mut self) -> Self {
        self.partial = true;
        self
    }

    /// Whether any limit is set (a probe-only budget counts: it tracks
    /// consumption without limiting).
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
            || self.max_bytes.is_some()
            || self.max_rows.is_some()
            || self.max_nodes.is_some()
            || self.cancel_after_checks.is_some()
    }

    /// A budget that never trips but keeps the tracker enabled, so a
    /// run reports its checkpoint and consumption counts — used to
    /// enumerate cancellation points before injecting at each one.
    pub fn probe() -> Self {
        QueryBudget {
            cancel_after_checks: Some(u64::MAX),
            ..QueryBudget::default()
        }
    }
}

/// What a cooperative checkpoint tells the operator to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// Within budget: keep going.
    Continue,
    /// A limit tripped under a partial-mode budget: stop consuming
    /// input and return the sound subset accumulated so far.
    Truncate,
}

/// Deterministic consumption counters of one governed query. Wall-clock
/// time is deliberately absent — it lives in the error/deadline path —
/// so the struct stays `Eq` and bit-identical across reruns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetConsumption {
    /// Rows charged by operators.
    pub rows: u64,
    /// Graph nodes charged by expansions.
    pub nodes: u64,
    /// Accounted intermediate bytes.
    pub bytes: u64,
    /// Cooperative checkpoints passed.
    pub checkpoints: u64,
}

/// The tripped-limit record: kind, consumed, limit, phase.
type Exhaustion = (BudgetKind, u64, u64, &'static str);

/// Per-query runtime state of a [`QueryBudget`]: the deadline instant,
/// the consumption counters and the first tripped limit.
#[derive(Debug)]
pub struct BudgetTracker {
    enabled: bool,
    partial: bool,
    budget: QueryBudget,
    started: Instant,
    deadline_at: Option<Instant>,
    rows: Cell<u64>,
    nodes: Cell<u64>,
    bytes: Cell<u64>,
    checks: Cell<u64>,
    exhausted: Cell<Option<Exhaustion>>,
}

/// Adds `n` to `counter` and returns the new count.
fn add(counter: &Cell<u64>, n: u64) -> u64 {
    let count = counter.get() + n;
    counter.set(count);
    count
}

impl BudgetTracker {
    /// A tracker for one query under `budget`, starting its deadline
    /// clock now. An unlimited budget yields a disabled tracker whose
    /// checkpoints are single untaken branches.
    pub fn start(budget: QueryBudget) -> Self {
        let started = Instant::now();
        BudgetTracker {
            enabled: budget.is_limited(),
            partial: budget.partial,
            budget,
            started,
            deadline_at: budget.deadline.map(|d| started + d),
            rows: Cell::new(0),
            nodes: Cell::new(0),
            bytes: Cell::new(0),
            checks: Cell::new(0),
            exhausted: Cell::new(None),
        }
    }

    /// Whether any limit is armed. When false, checkpoints are no-ops.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether a limit has already tripped. Operators consult this to
    /// decide between returning a subset and skipping unsound work —
    /// the complement of a truncated input is a *superset*, so
    /// `Complement` returns empty once the budget has tripped.
    pub fn tripped(&self) -> bool {
        self.exhausted.get().is_some()
    }

    /// Which limit tripped first, if any.
    pub fn exhaustion(&self) -> Option<BudgetKind> {
        self.exhausted.get().map(|(kind, ..)| kind)
    }

    /// The consumption so far (deterministic counters only).
    pub fn consumption(&self) -> BudgetConsumption {
        BudgetConsumption {
            rows: self.rows.get(),
            nodes: self.nodes.get(),
            bytes: self.bytes.get(),
            checkpoints: self.checks.get(),
        }
    }

    /// Time since the tracker started — the query's elapsed wall clock.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Records the first exhaustion. In strict mode the caller gets the
    /// structured error; in partial mode it gets [`Tick::Truncate`]
    /// (forever after).
    fn trip(
        &self,
        kind: BudgetKind,
        consumed: u64,
        limit: u64,
        phase: &'static str,
    ) -> Result<Tick> {
        let first = self
            .exhausted
            .get()
            .unwrap_or((kind, consumed, limit, phase));
        self.exhausted.set(Some(first));
        if self.partial {
            Ok(Tick::Truncate)
        } else {
            let (kind, consumed, limit, phase) = first;
            Err(IdmError::resource_exhausted(kind, consumed, limit, phase))
        }
    }

    /// A cooperative checkpoint: counts itself, then checks for an
    /// earlier trip, the injected cancel-at-check limit, and the wall-clock
    /// deadline. Called at every operator entry and at the start of
    /// every operator's batch loop; with no budget armed it is one
    /// untaken branch.
    #[inline]
    pub fn checkpoint(&self, phase: &'static str) -> Result<Tick> {
        if !self.enabled {
            return Ok(Tick::Continue);
        }
        let checks = add(&self.checks, 1);
        if let Some((kind, consumed, limit, phase)) = self.exhausted.get() {
            // Already tripped: re-raise the first exhaustion rather than
            // minting a new one, so the caller sees which limit fired.
            if self.partial {
                return Ok(Tick::Truncate);
            }
            return Err(IdmError::resource_exhausted(kind, consumed, limit, phase));
        }
        if let Some(limit) = self.budget.cancel_after_checks {
            if checks >= limit {
                return self.trip(BudgetKind::Cancelled, checks, limit, phase);
            }
        }
        if let Some(deadline_at) = self.deadline_at {
            if Instant::now() >= deadline_at {
                let limit = self.budget.deadline.unwrap_or_default().as_millis() as u64;
                let consumed = self.started.elapsed().as_millis() as u64;
                return self.trip(BudgetKind::WallClock, consumed.max(limit), limit, phase);
            }
        }
        Ok(Tick::Continue)
    }

    /// Charges `n` produced rows (plus their accounted bytes) against
    /// the budget, tripping on the row or byte limit.
    pub fn charge_rows(&self, n: usize, phase: &'static str) -> Result<Tick> {
        if !self.enabled {
            return Ok(Tick::Continue);
        }
        let rows = add(&self.rows, n as u64);
        if let Some(limit) = self.budget.max_rows {
            if rows > limit {
                return self.trip(BudgetKind::Rows, rows, limit, phase);
            }
        }
        // A row of intermediate state is one Vid (or one of a pair).
        self.charge_bytes(n * std::mem::size_of::<Vid>(), phase)
    }

    /// Charges `n` expanded graph nodes, tripping on the node limit.
    pub fn charge_nodes(&self, n: usize, phase: &'static str) -> Result<Tick> {
        if !self.enabled {
            return Ok(Tick::Continue);
        }
        let nodes = add(&self.nodes, n as u64);
        if let Some(limit) = self.budget.max_nodes {
            if nodes > limit {
                return self.trip(BudgetKind::Nodes, nodes, limit, phase);
            }
        }
        self.charge_bytes(n * std::mem::size_of::<Vid>(), phase)
    }

    /// Charges `n` accounted bytes of intermediate state, tripping on
    /// the memory limit.
    pub fn charge_bytes(&self, n: usize, phase: &'static str) -> Result<Tick> {
        if !self.enabled {
            return Ok(Tick::Continue);
        }
        let bytes = add(&self.bytes, n as u64);
        if let Some(limit) = self.budget.max_bytes {
            if bytes > limit {
                return self.trip(BudgetKind::MemoryBytes, bytes, limit, phase);
            }
        }
        Ok(Tick::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let tracker = BudgetTracker::start(QueryBudget::none());
        assert!(!tracker.is_enabled());
        for _ in 0..1000 {
            assert_eq!(tracker.checkpoint("op"), Ok(Tick::Continue));
            assert_eq!(tracker.charge_rows(1_000_000, "op"), Ok(Tick::Continue));
        }
        assert_eq!(tracker.consumption(), BudgetConsumption::default());
        assert!(!tracker.tripped());
    }

    #[test]
    fn row_limit_trips_strict() {
        let tracker = BudgetTracker::start(QueryBudget {
            max_rows: Some(10),
            ..QueryBudget::default()
        });
        assert_eq!(tracker.charge_rows(10, "scan"), Ok(Tick::Continue));
        let err = tracker.charge_rows(1, "scan").unwrap_err();
        assert_eq!(err.budget_kind(), Some(BudgetKind::Rows));
        assert!(tracker.tripped());
        // Subsequent checkpoints re-raise the first exhaustion.
        let err = tracker.checkpoint("later").unwrap_err();
        assert_eq!(err.budget_kind(), Some(BudgetKind::Rows));
    }

    #[test]
    fn partial_mode_truncates_instead_of_erroring() {
        let tracker = BudgetTracker::start(QueryBudget {
            max_nodes: Some(5),
            partial: true,
            ..QueryBudget::default()
        });
        assert_eq!(tracker.charge_nodes(5, "relate"), Ok(Tick::Continue));
        assert_eq!(tracker.charge_nodes(1, "relate"), Ok(Tick::Truncate));
        assert_eq!(tracker.checkpoint("relate"), Ok(Tick::Truncate));
        assert_eq!(tracker.exhaustion(), Some(BudgetKind::Nodes));
    }

    #[test]
    fn memory_budget_accounts_bytes() {
        let tracker = BudgetTracker::start(QueryBudget {
            max_bytes: Some(64),
            partial: true,
            ..QueryBudget::default()
        });
        // 8 rows × 8 bytes = 64 — at the limit, not over.
        assert_eq!(tracker.charge_rows(8, "scan"), Ok(Tick::Continue));
        assert_eq!(tracker.charge_rows(1, "scan"), Ok(Tick::Truncate));
        assert_eq!(tracker.exhaustion(), Some(BudgetKind::MemoryBytes));
        assert!(tracker.consumption().bytes > 64);
    }

    #[test]
    fn deadline_trips_at_a_checkpoint() {
        let tracker = BudgetTracker::start(QueryBudget::with_deadline(Duration::ZERO));
        let err = tracker.checkpoint("scan").unwrap_err();
        assert_eq!(err.budget_kind(), Some(BudgetKind::WallClock));
        assert!(tracker.tripped());
    }

    #[test]
    fn injected_cancellation_trips_at_the_nth_checkpoint() {
        let tracker = BudgetTracker::start(QueryBudget {
            cancel_after_checks: Some(3),
            partial: true,
            ..QueryBudget::default()
        });
        assert_eq!(tracker.checkpoint("a"), Ok(Tick::Continue));
        assert_eq!(tracker.checkpoint("b"), Ok(Tick::Continue));
        assert_eq!(tracker.checkpoint("c"), Ok(Tick::Truncate));
        assert_eq!(tracker.exhaustion(), Some(BudgetKind::Cancelled));
        assert_eq!(tracker.consumption().checkpoints, 3);
    }

    #[test]
    fn probe_counts_checkpoints_without_tripping() {
        let tracker = BudgetTracker::start(QueryBudget::probe());
        assert!(tracker.is_enabled());
        for _ in 0..100 {
            assert_eq!(tracker.checkpoint("op"), Ok(Tick::Continue));
        }
        assert_eq!(tracker.consumption().checkpoints, 100);
    }
}
