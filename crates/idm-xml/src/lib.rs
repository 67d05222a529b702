//! # idm-xml — XML for the iMeMex dataspace
//!
//! A from-scratch XML 1.0 parser covering the core subset of the XML
//! Information Set the paper instantiates in iDM (Section 3.3): document,
//! element, attribute and character information items. On top of the
//! parser sit:
//!
//! - [`convert`] — the `XML2iDM` Content2iDM converter that turns a
//!   document into a resource view subgraph (classes `xmldoc`,
//!   `xmlelem`, `xmltext`, `xmlfile`),
//! - [`rss`] — an RSS/ATOM feed model (feeds are "just simple XML
//!   documents published on a web server", Section 3.4), used by the
//!   stream substrate and the synthetic dataset.
//!
//! The parser favors robustness over DTD completeness: declarations,
//! comments, processing instructions and CDATA are handled; DTD internal
//! subsets are skipped; the five XML entities and numeric character
//! references are decoded. This matches what a 2006 PDSMS content
//! converter needed from office-document XML.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod convert;
pub mod parser;
pub mod rss;
pub mod writer;
pub mod zip;

pub use parser::{parse, parse_with, ParseOptions, XmlDocument, XmlElement, XmlError, XmlNode};
pub use writer::to_xml_string;
