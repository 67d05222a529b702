//! # idm-index — the Replica&Indexes module of iMeMex (Section 5.2)
//!
//! The paper's prototype used Apache Lucene for full-text indexes and
//! Apache Derby for the Resource View Catalog; this crate rebuilds both
//! from scratch, mirroring the four per-component structures used in the
//! evaluation (Section 7.2):
//!
//! 1. **Name Index & Replica** ([`name`]) — resolves exact and wildcard
//!    name patterns and stores the name values themselves,
//! 2. **Tuple Index & Replica** (mod `tuple`) — an in-memory, vertically
//!    partitioned sorted-column index over tuple component attributes
//!    (the paper cites the Decomposition Storage Model \[11\]),
//! 3. **Content Index** ([`fulltext`]) — a positional inverted keyword
//!    index supporting keyword, boolean and phrase queries; *not* a
//!    replica: the original content cannot be reconstructed from it,
//! 4. **Group Replica** ([`group`]) — forward and reverse adjacency over
//!    group components, so path expansion never touches the sources.
//!
//! Plus the **Resource View Catalog** ([`catalog`]) where every managed
//! view is registered. All structures report their approximate byte
//! footprint so Table 3 (index sizes) can be regenerated.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
pub mod bundle;
pub mod catalog;
pub mod fulltext;
pub mod group;
pub mod name;
pub mod persist;
pub mod segment;
pub mod tokenizer;
pub mod tuple;

pub use audit::{audit, repair, AuditMemo, AuditMismatch, AuditReport, AuditScope};
pub use bundle::{ContentIndexing, IndexBundle, IndexSizes};
pub use catalog::{CatalogEntry, ResourceViewCatalog};
pub use fulltext::FullTextIndex;
pub use group::GroupReplica;
pub use name::NameIndex;
pub use segment::IndexSegment;
pub use tokenizer::tokenize;
pub use tuple::TupleIndex;
