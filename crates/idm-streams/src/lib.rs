//! # idm-streams — data streams for the iMeMex dataspace
//!
//! Sections 3.4 and 4.4 of the paper: data streams are resource views
//! with *infinite* group sequences, and "in order to efficiently support
//! stream processing, any system implementing iDM graphs has to provide
//! push-based protocols". This crate supplies:
//!
//! - [`engine`] — the push-operator machinery: operators receive the
//!   store's change feed (every committed change record, in log order)
//!   and process each record immediately, in the spirit of data-driven
//!   DSMS processing (standing results need no engine: the
//!   standing-result table in `idm-query`, which serves cached requests
//!   and live queries alike, watches
//!   [`idm_core::store::ViewStore::change_count`]),
//! - [`window`] — stream windows over infinite group components
//!   (Section 5.2: "infinite group components are managed using a
//!   stream window"),
//! - [`sources`] — infinite sequence sources: generator-backed tuple
//!   streams (`tupstream`), RSS/ATOM polling pseudo-streams (`rssatom`;
//!   RSS servers offer no notifications, so state is converted into a
//!   pseudo data stream by polling — Section 4.4.1), and a generic
//!   polling facility.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
pub mod sources;
pub mod window;

pub use engine::{PushEngine, PushOperator};
pub use sources::{GeneratorTupleStream, PollingStream, RssStreamSource};
pub use window::StreamWindow;
