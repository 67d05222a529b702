//! # idm-core — the iMeMex Data Model (iDM)
//!
//! A from-scratch Rust implementation of the iDM data model from
//! *"iDM: A Unified and Versatile Data Model for Personal Dataspace
//! Management"* (Dittrich & Vaz Salles, VLDB 2006).
//!
//! iDM represents **all** personal information — files & folders, XML,
//! LaTeX, relational data, email, RSS feeds and infinite data streams —
//! as a single graph of *resource views*. A resource view
//! `V = (η, τ, χ, γ)` has:
//!
//! - a **name** component `η` (a finite string),
//! - a **tuple** component `τ = (W, T)` (a per-tuple schema and one tuple),
//! - a **content** component `χ` (a finite or infinite symbol sequence),
//! - a **group** component `γ = (S, Q)` (an unordered set and an ordered
//!   sequence of other resource views, finite or infinite, `S ∩ Q = ∅`).
//!
//! Views connect into arbitrary directed graphs (cycles welcome), and all
//! components may be computed **lazily**: extensionally (base facts),
//! intensionally (query/service results — including an ActiveXML
//! use-case) or infinitely (streams).
//!
//! ## Quick example
//!
//! ```
//! use idm_core::prelude::*;
//!
//! let store = ViewStore::new();
//! let tau = TupleComponent::of(vec![
//!     ("size", Value::Integer(4096)),
//!     ("creation time", Value::Date(Timestamp::from_ymd(2005, 3, 19).unwrap())),
//!     ("last modified time", Value::Date(Timestamp::from_ymd(2005, 9, 22).unwrap())),
//! ]);
//! let paper = store.build("vldb2006.tex").text("\\section{Introduction} ...").insert();
//! let pim = store.build("PIM").tuple(tau).children(vec![paper]).insert();
//! assert_eq!(store.name(pim).unwrap().as_deref(), Some("PIM"));
//! assert_eq!(idm_core::graph::directly_related(&store, pim).unwrap(), vec![paper]);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod axml;
pub mod class;
pub mod content;
pub mod durability;
pub mod error;
pub mod fault;
pub mod graph;
pub mod group;
pub mod lineage;
pub mod store;
pub mod validate;
pub mod value;
pub mod version;

/// Commonly used types, re-exported.
pub mod prelude {
    pub use crate::class::{builtin, ClassId, ClassRegistry, Constraints};
    pub use crate::content::{Content, ContentProvider, ContentReader, SymbolSource};
    pub use crate::durability::record::ChangeRecord;
    pub use crate::durability::{
        CheckpointStats, DurabilityManager, RecoveryReport, ScrubReport, Scrubber, SyncPolicy,
    };
    pub use crate::error::{BudgetKind, IdmError, Result, SubstrateFaultKind};
    pub use crate::fault::{
        BreakerState, CancelToken, CircuitBreaker, FaultAction, FaultCounters, FaultInjector,
        FaultPlan, FaultPoint, FaultStats, RetryPolicy, SourceGuard,
    };
    pub use crate::group::{Group, GroupData, GroupProvider, ViewSequenceSource};
    pub use crate::store::{
        ChangeEvent, ChangeKind, GroupSnapshot, InvariantReport, StoreExport, Vid, ViewBuilder,
        ViewRecord, ViewStore,
    };
    pub use crate::validate::{validate, validate_as, ValidationMode};
    pub use crate::value::{Attribute, Domain, Schema, Timestamp, TupleComponent, Value};
}

pub use prelude::*;
