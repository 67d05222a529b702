//! Error types shared across the iDM core model.

use std::fmt;

use crate::store::Vid;

/// How a substrate failure should be treated by retry and breaker logic.
///
/// Substrates — filesystems, IMAP servers, feed servers, streams — fail
/// in ways the dataspace layer must distinguish: a dropped connection is
/// worth retrying, a missing mailbox is not, and an exceeded deadline is
/// its own signal (the work may still be running remotely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubstrateFaultKind {
    /// A fault expected to heal on its own (I/O hiccup, torn read,
    /// connection reset). Safe to retry.
    Transient,
    /// A fault that will recur on every attempt (not found, permission,
    /// malformed request). Retrying is wasted work.
    Permanent,
    /// The per-call time budget was exhausted before the substrate
    /// answered. Retryable, but counted separately because the cause is
    /// slowness rather than failure.
    Timeout,
}

impl fmt::Display for SubstrateFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstrateFaultKind::Transient => write!(f, "transient"),
            SubstrateFaultKind::Permanent => write!(f, "permanent"),
            SubstrateFaultKind::Timeout => write!(f, "timeout"),
        }
    }
}

/// Which per-query resource limit was exhausted.
///
/// Query execution is governed at runtime (the nested model makes
/// plan-time cost prediction unreliable): a query carries a budget of
/// wall-clock time, accounted memory, produced rows and expanded graph
/// nodes. Exceeding any of them raises
/// [`IdmError::ResourceExhausted`] tagged with the kind that tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline passed before the query finished.
    WallClock,
    /// The accounted-bytes memory budget was exceeded.
    MemoryBytes,
    /// The produced-row cap was exceeded.
    Rows,
    /// The expanded-graph-node cap was exceeded.
    Nodes,
    /// An injected cancellation (a query budget's `cancel_after_checks`)
    /// stopped the query.
    Cancelled,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::WallClock => write!(f, "wall-clock deadline"),
            BudgetKind::MemoryBytes => write!(f, "memory bytes"),
            BudgetKind::Rows => write!(f, "result rows"),
            BudgetKind::Nodes => write!(f, "expanded nodes"),
            BudgetKind::Cancelled => write!(f, "cancellation"),
        }
    }
}

/// Errors raised by the iDM core model.
#[derive(Debug, Clone, PartialEq)]
pub enum IdmError {
    /// A tuple did not conform to its schema.
    SchemaMismatch {
        /// Human readable description of the mismatch.
        detail: String,
    },
    /// A referenced view does not exist in the store.
    UnknownVid(Vid),
    /// A referenced resource view class is not registered.
    UnknownClass(String),
    /// A view does not conform to the class it claims.
    Conformance {
        /// The view that failed validation.
        vid: Vid,
        /// Name of the class it was validated against.
        class: String,
        /// Which constraint failed.
        detail: String,
    },
    /// A group component violated the `S ∩ Q = ∅` invariant (Def. 1 (ii)).
    GroupOverlap(Vid),
    /// A lazy provider failed to compute a component.
    Provider {
        /// Description of the failure.
        detail: String,
        /// The data source whose provider failed, when known
        /// (`"filesystem"`, `"imap"`, `"rss"`, …).
        source: Option<String>,
        /// The view whose component was being forced, when known.
        vid: Option<Vid>,
    },
    /// A substrate (filesystem, IMAP server, feed server, stream) call
    /// failed. Carries the classification retry/breaker logic needs.
    Substrate {
        /// The data source the call targeted.
        source: String,
        /// Whether the fault is transient, permanent or a timeout.
        kind: SubstrateFaultKind,
        /// Which attempt produced this error (1-based; > 1 means the
        /// call was already retried).
        attempt: u32,
        /// Description of the failure.
        detail: String,
    },
    /// A per-query resource budget was exhausted before the query
    /// finished. Not retryable as-is (the same budget fails the same
    /// way), but degradable: callers that opted into partial results
    /// receive the rows produced so far instead of this error.
    ResourceExhausted {
        /// Which limit tripped.
        budget: BudgetKind,
        /// How much was consumed when it tripped (ms for wall clock,
        /// bytes/rows/nodes for the others).
        consumed: u64,
        /// The configured limit.
        limit: u64,
        /// The execution phase that hit the limit (an operator label
        /// such as `"relate"`).
        phase: String,
    },
    /// An operation that requires a finite component met an infinite one.
    InfiniteComponent {
        /// Description of the operation that was attempted.
        detail: String,
    },
    /// A date or value literal could not be parsed.
    Parse {
        /// Description of the parse failure.
        detail: String,
    },
}

impl IdmError {
    /// A provider failure with no attribution yet (the common case at
    /// the raising site; [`IdmError::with_source`] and
    /// [`IdmError::with_vid`] attach attribution as the error bubbles
    /// through layers that know it).
    pub fn provider(detail: impl Into<String>) -> Self {
        IdmError::Provider {
            detail: detail.into(),
            source: None,
            vid: None,
        }
    }

    /// A transient substrate failure (first attempt).
    pub fn transient(source: impl Into<String>, detail: impl Into<String>) -> Self {
        IdmError::Substrate {
            source: source.into(),
            kind: SubstrateFaultKind::Transient,
            attempt: 1,
            detail: detail.into(),
        }
    }

    /// A permanent substrate failure (first attempt).
    pub fn permanent(source: impl Into<String>, detail: impl Into<String>) -> Self {
        IdmError::Substrate {
            source: source.into(),
            kind: SubstrateFaultKind::Permanent,
            attempt: 1,
            detail: detail.into(),
        }
    }

    /// A substrate timeout (first attempt).
    pub fn timeout(source: impl Into<String>, detail: impl Into<String>) -> Self {
        IdmError::Substrate {
            source: source.into(),
            kind: SubstrateFaultKind::Timeout,
            attempt: 1,
            detail: detail.into(),
        }
    }

    /// A resource-budget exhaustion in `phase`.
    pub fn resource_exhausted(
        budget: BudgetKind,
        consumed: u64,
        limit: u64,
        phase: impl Into<String>,
    ) -> Self {
        IdmError::ResourceExhausted {
            budget,
            consumed,
            limit,
            phase: phase.into(),
        }
    }

    /// The exhausted budget kind, if this is a resource-governance error.
    pub fn budget_kind(&self) -> Option<BudgetKind> {
        match self {
            IdmError::ResourceExhausted { budget, .. } => Some(*budget),
            _ => None,
        }
    }

    /// The substrate fault classification, if this is a substrate error.
    pub fn substrate_kind(&self) -> Option<SubstrateFaultKind> {
        match self {
            IdmError::Substrate { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// Whether retrying the failed operation may succeed.
    ///
    /// Classified substrate errors answer from their kind. An
    /// unclassified [`IdmError::Provider`] is treated as retryable —
    /// providers wrap substrate calls whose failure mode is unknown, and
    /// a bounded retry of an unknown fault is the safer default. Model
    /// errors (schema, conformance, parse, unknown ids) never are.
    pub fn is_retryable(&self) -> bool {
        match self {
            IdmError::Substrate { kind, .. } => {
                matches!(
                    kind,
                    SubstrateFaultKind::Transient | SubstrateFaultKind::Timeout
                )
            }
            IdmError::Provider { .. } => true,
            _ => false,
        }
    }

    /// Attaches a data source name to a provider/substrate error
    /// (no-op for other variants, and never overwrites attribution
    /// already present).
    pub fn with_source(self, source: impl Into<String>) -> Self {
        match self {
            IdmError::Provider {
                detail,
                source: None,
                vid,
            } => IdmError::Provider {
                detail,
                source: Some(source.into()),
                vid,
            },
            other => other,
        }
    }

    /// Attaches the view whose component force failed to a provider
    /// error (no-op for other variants; never overwrites).
    pub fn with_vid(self, vid: Vid) -> Self {
        match self {
            IdmError::Provider {
                detail,
                source,
                vid: None,
            } => IdmError::Provider {
                detail,
                source,
                vid: Some(vid),
            },
            other => other,
        }
    }

    /// Stamps the attempt number on a substrate error (no-op otherwise).
    pub fn with_attempt(self, attempt: u32) -> Self {
        match self {
            IdmError::Substrate {
                source,
                kind,
                detail,
                ..
            } => IdmError::Substrate {
                source,
                kind,
                attempt,
                detail,
            },
            other => other,
        }
    }
}

impl fmt::Display for IdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdmError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            IdmError::UnknownVid(vid) => write!(f, "unknown resource view id {vid}"),
            IdmError::UnknownClass(name) => write!(f, "unknown resource view class '{name}'"),
            IdmError::Conformance { vid, class, detail } => {
                write!(
                    f,
                    "view {vid} does not conform to class '{class}': {detail}"
                )
            }
            IdmError::GroupOverlap(vid) => {
                write!(f, "group component of view {vid} violates S ∩ Q = ∅")
            }
            IdmError::Provider {
                detail,
                source,
                vid,
            } => {
                write!(f, "lazy provider failed")?;
                if let Some(source) = source {
                    write!(f, " (source '{source}')")?;
                }
                if let Some(vid) = vid {
                    write!(f, " (view {vid})")?;
                }
                write!(f, ": {detail}")
            }
            IdmError::Substrate {
                source,
                kind,
                attempt,
                detail,
            } => {
                write!(
                    f,
                    "substrate '{source}' failed ({kind}, attempt {attempt}): {detail}"
                )
            }
            IdmError::ResourceExhausted {
                budget,
                consumed,
                limit,
                phase,
            } => {
                write!(
                    f,
                    "resource budget exhausted in {phase}: {budget} at {consumed} of {limit}"
                )
            }
            IdmError::InfiniteComponent { detail } => {
                write!(f, "operation requires a finite component: {detail}")
            }
            IdmError::Parse { detail } => write!(f, "parse error: {detail}"),
        }
    }
}

impl std::error::Error for IdmError {}

/// Convenience result alias used throughout the core crate.
pub type Result<T> = std::result::Result<T, IdmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_display_carries_attribution() {
        let bare = IdmError::provider("disk on fire");
        assert_eq!(bare.to_string(), "lazy provider failed: disk on fire");

        let attributed = bare
            .with_source("filesystem")
            .with_vid(Vid::from_raw(7))
            .to_string();
        assert!(attributed.contains("filesystem"), "{attributed}");
        assert!(attributed.contains("v7"), "{attributed}");
        assert!(attributed.contains("disk on fire"), "{attributed}");
    }

    #[test]
    fn attribution_never_overwrites() {
        let e = IdmError::provider("x")
            .with_source("imap")
            .with_source("filesystem");
        let IdmError::Provider { source, .. } = &e else {
            panic!()
        };
        assert_eq!(source.as_deref(), Some("imap"));
    }

    #[test]
    fn classification_helpers() {
        assert!(IdmError::transient("fs", "x").is_retryable());
        assert!(IdmError::timeout("fs", "x").is_retryable());
        assert!(!IdmError::permanent("fs", "x").is_retryable());
        assert!(IdmError::provider("x").is_retryable());
        assert!(!IdmError::Parse { detail: "x".into() }.is_retryable());

        assert_eq!(
            IdmError::timeout("fs", "x").substrate_kind(),
            Some(SubstrateFaultKind::Timeout)
        );
        assert_eq!(IdmError::provider("x").substrate_kind(), None);
    }

    #[test]
    fn resource_exhaustion_is_classified_and_not_retryable() {
        let e = IdmError::resource_exhausted(BudgetKind::WallClock, 52, 10, "relate");
        assert!(!e.is_retryable(), "rerunning with the same budget fails");
        assert_eq!(e.budget_kind(), Some(BudgetKind::WallClock));
        assert_eq!(e.substrate_kind(), None);
        let text = e.to_string();
        assert!(text.contains("relate"), "{text}");
        assert!(text.contains("52 of 10"), "{text}");
        assert!(IdmError::provider("x").budget_kind().is_none());
    }

    #[test]
    fn attempt_is_stamped_and_displayed() {
        let e = IdmError::transient("imap", "reset").with_attempt(3);
        assert!(e.to_string().contains("attempt 3"), "{e}");
        assert!(IdmError::provider("x").with_attempt(9).is_retryable());
    }
}
