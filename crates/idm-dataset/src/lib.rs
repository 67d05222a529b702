//! # idm-dataset — a synthetic personal dataspace
//!
//! The paper evaluates iMeMex on the real personal files and emails of
//! one of the authors (Table 2: 14,297 files&folders, 6,335 emails,
//! 47 + 13 XML documents, 282 + 7 LaTeX documents, ≈150k resource
//! views). That dataset is obviously unavailable, so this crate
//! generates a **deterministic, seeded** stand-in that reproduces the
//! *shape* the evaluation depends on:
//!
//! - the ratio of base items to views derived from XML/LaTeX content,
//! - the folder topology the Table 4 queries navigate (`papers`,
//!   `Projects/{PIM,OLAP,VLDB2005,VLDB2006}`, mail folders),
//! - planted phrases and structures calibrated so each Table 4 query
//!   returns a result count near the paper's at scale factor 1.0
//!   (and proportionally fewer at smaller scale factors),
//! - a mix of indexable text and binary content so the "net input
//!   size" vs. "total size" distinction of Table 3 is meaningful.
//!
//! Everything scales with [`DatasetConfig::scale`]; the default bench
//! configuration uses a small scale factor so the harness stays
//! laptop-friendly, while `--sf 1.0` reproduces paper-sized counts.

#![warn(missing_docs)]

pub mod generator;
pub mod text;

pub use generator::{generate, DatasetConfig, ExpectedResults, GeneratedDataset};
