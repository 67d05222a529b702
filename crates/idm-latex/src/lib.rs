//! # idm-latex — LaTeX for the iMeMex dataspace
//!
//! The paper repeatedly uses LaTeX as the canonical example of
//! **graph-structured** content inside files (Figure 1: the `ref` node in
//! `vldb 2006.tex` connects the subsection 'The Problem' to the section
//! 'Preliminaries'). This crate provides:
//!
//! - [`parser`] — a from-scratch structural LaTeX parser extracting
//!   document class, title, abstract, (sub)sections with labels, figure
//!   and table environments with captions/labels, inline `\ref{…}`
//!   references, and paragraph text;
//! - [`convert`] — the `LaTeX2iDM` Content2iDM converter producing
//!   resource view subgraphs with classes `latex_document`,
//!   `latex_section`, `environment`, `figure`, `texref` and `text`.
//!   Resolved `\ref`s become *group edges to the referenced view*, which
//!   is what makes the resulting subgraph a graph rather than a tree.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod convert;
pub mod parser;

pub use convert::{latex_to_views, LatexMapping};
pub use parser::{parse_latex, Inline, LatexBlock, LatexDocument, LatexEnv, LatexSection};
