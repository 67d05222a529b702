//! The Content2iDM Converter registry (Section 5.2, part 2): enriches
//! the initial iDM graph by converting content components into resource
//! view subgraphs. The paper's prototype provided converters for XML
//! and LaTeX — so does this registry. Every view a converter mints is
//! owned by a base view ([`ViewRecord::owner`]), which
//! [`ConverterRegistry::convert_view`] alone decides.

use idm_core::prelude::*;

/// What a converter produced for one view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Conversion {
    /// Views derived from XML content.
    pub derived_xml: usize,
    /// Views derived from LaTeX content.
    pub derived_latex: usize,
}

impl Conversion {
    /// Total derived views.
    pub fn total(&self) -> usize {
        self.derived_xml + self.derived_latex
    }

    fn add(&mut self, other: Conversion) {
        self.derived_xml += other.derived_xml;
        self.derived_latex += other.derived_latex;
    }
}

/// A Content2iDM converter.
pub trait Content2IdmConverter: Send + Sync {
    /// Converter name (`"xml2idm"`, `"latex2idm"`).
    fn name(&self) -> &str;

    /// Whether this converter handles the view (typically by the name
    /// component's extension).
    fn applies(&self, store: &ViewStore, vid: Vid) -> Result<bool>;

    /// Converts the view's content component into a subgraph hanging
    /// off its group component, every view of it owned by `owner`;
    /// returns counts.
    fn convert(&self, store: &ViewStore, vid: Vid, owner: Vid) -> Result<Conversion>;
}

fn has_extension(store: &ViewStore, vid: Vid, extension: &str) -> Result<bool> {
    Ok(store
        .name(vid)?
        .is_some_and(|name| name.to_ascii_lowercase().ends_with(extension)))
}

/// `XML2iDM`: upgrades `.xml` file views to `xmlfile` with the parsed
/// document subgraph.
pub struct XmlConverter;

impl Content2IdmConverter for XmlConverter {
    fn name(&self) -> &str {
        "xml2idm"
    }

    fn applies(&self, store: &ViewStore, vid: Vid) -> Result<bool> {
        has_extension(store, vid, ".xml")
    }

    fn convert(&self, store: &ViewStore, vid: Vid, owner: Vid) -> Result<Conversion> {
        let (_doc, derived) = idm_xml::convert::enrich_xml_file(store, vid, owner)?;
        Ok(Conversion {
            derived_xml: derived,
            derived_latex: 0,
        })
    }
}

/// `LaTeX2iDM`: attaches the structural subgraph of `.tex` files.
pub struct LatexConverter;

impl Content2IdmConverter for LatexConverter {
    fn name(&self) -> &str {
        "latex2idm"
    }

    fn applies(&self, store: &ViewStore, vid: Vid) -> Result<bool> {
        has_extension(store, vid, ".tex")
    }

    fn convert(&self, store: &ViewStore, vid: Vid, owner: Vid) -> Result<Conversion> {
        let mapping = idm_latex::convert::latex_to_views(store, vid, owner)?;
        Ok(Conversion {
            derived_xml: 0,
            derived_latex: mapping.derived,
        })
    }
}

/// `Office2iDM`: opens Office-12 / OpenOffice "zipped XML" containers
/// (paper footnote 1) and converts the main document part into an XML
/// subgraph hanging off the file view.
pub struct OfficeConverter;

impl Content2IdmConverter for OfficeConverter {
    fn name(&self) -> &str {
        "office2idm"
    }

    fn applies(&self, store: &ViewStore, vid: Vid) -> Result<bool> {
        for extension in [".docx", ".odt", ".pptx"] {
            if has_extension(store, vid, extension)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn convert(&self, store: &ViewStore, vid: Vid, owner: Vid) -> Result<Conversion> {
        let bytes = store.content(vid)?.bytes()?;
        if !idm_xml::zip::is_zip(&bytes) {
            return Err(IdmError::Parse {
                detail: "office: not a zip container".into(),
            });
        }
        // The container is a file carrying an XML document: xmlfile.
        let document_xml = idm_xml::zip::office_document_xml(&bytes)?;
        let (_doc, derived) = idm_xml::convert::attach_document(store, vid, &document_xml, owner)?;
        Ok(Conversion {
            derived_xml: derived,
            derived_latex: 0,
        })
    }
}

/// The converter registry: the paper's converters, fixed.
pub struct ConverterRegistry {
    converters: Vec<Box<dyn Content2IdmConverter>>,
}

impl ConverterRegistry {
    /// A registry with the paper's converter set (XML and LaTeX) plus
    /// the Office-container converter.
    pub fn with_defaults() -> Self {
        ConverterRegistry {
            converters: vec![
                Box::new(XmlConverter),
                Box::new(LatexConverter),
                Box::new(OfficeConverter),
            ],
        }
    }

    /// Runs the first applicable converter on one view. What it mints
    /// is owned by the view's owner, or by the view itself if it is a
    /// base view: ownership is never more than one step deep, so an
    /// email attachment's converted views belong to the message.
    ///
    /// Malformed documents are tolerated: a converter parse failure
    /// leaves the view unconverted (a PDSMS must survive odd files),
    /// reported as a zero conversion.
    pub fn convert_view(&self, store: &ViewStore, vid: Vid) -> Result<Conversion> {
        for converter in &self.converters {
            if converter.applies(store, vid)? {
                let owner = store.owner(vid)?.unwrap_or(vid);
                return match converter.convert(store, vid, owner) {
                    Ok(conversion) => Ok(conversion),
                    Err(IdmError::Parse { .. }) => Ok(Conversion::default()),
                    Err(other) => Err(other),
                };
            }
        }
        Ok(Conversion::default())
    }

    /// Runs converters over a set of views, totalling the counts.
    pub fn convert_all(&self, store: &ViewStore, vids: &[Vid]) -> Result<Conversion> {
        let mut total = Conversion::default();
        for &vid in vids {
            total.add(self.convert_view(store, vid)?);
        }
        Ok(total)
    }
}

impl Default for ConverterRegistry {
    fn default() -> Self {
        ConverterRegistry::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(store: &ViewStore, name: &str, content: &str) -> Vid {
        store
            .build(name)
            .tuple(TupleComponent::of(vec![
                ("size", Value::Integer(content.len() as i64)),
                ("creation time", Value::Date(Timestamp(0))),
                ("last modified time", Value::Date(Timestamp(0))),
            ]))
            .text(content)
            .class_named("file")
            .insert()
    }

    #[test]
    fn xml_files_get_xml_converter() {
        let store = ViewStore::new();
        let vid = file(&store, "data.XML", "<a><b>x</b></a>");
        let registry = ConverterRegistry::with_defaults();
        let conversion = registry.convert_view(&store, vid).unwrap();
        assert!(conversion.derived_xml >= 4);
        assert_eq!(conversion.derived_latex, 0);
        assert!(store.conforms_to(vid, "xmlfile").unwrap());
    }

    #[test]
    fn tex_files_get_latex_converter() {
        let store = ViewStore::new();
        let vid = file(&store, "paper.tex", "\\section{Intro}\nwords");
        let registry = ConverterRegistry::with_defaults();
        let conversion = registry.convert_view(&store, vid).unwrap();
        assert!(conversion.derived_latex >= 3);
        assert_eq!(conversion.derived_xml, 0);
    }

    #[test]
    fn other_files_untouched() {
        let store = ViewStore::new();
        let vid = file(&store, "notes.txt", "plain text");
        let registry = ConverterRegistry::with_defaults();
        let conversion = registry.convert_view(&store, vid).unwrap();
        assert_eq!(conversion, Conversion::default());
        assert!(store.group(vid).unwrap().finite().unwrap().is_empty());
    }

    #[test]
    fn malformed_documents_tolerated() {
        let store = ViewStore::new();
        let vid = file(&store, "broken.xml", "<a><b></a>");
        let registry = ConverterRegistry::with_defaults();
        let conversion = registry.convert_view(&store, vid).unwrap();
        assert_eq!(conversion.total(), 0);
        // Still a plain file.
        assert!(store.conforms_to(vid, "file").unwrap());
    }

    #[test]
    fn office_containers_get_unzipped_and_converted() {
        let store = ViewStore::new();
        let container = idm_xml::zip::office_document(
            "<doc><section><title>Grant Proposal</title><p>Budget plan for PIM.</p></section></doc>",
        );
        let vid = store
            .build("Grant.docx")
            .tuple(TupleComponent::of(vec![
                ("size", Value::Integer(container.len() as i64)),
                ("creation time", Value::Date(Timestamp(0))),
                ("last modified time", Value::Date(Timestamp(0))),
            ]))
            .content(Content::inline(container))
            .class_named("file")
            .insert();
        let registry = ConverterRegistry::with_defaults();
        let conversion = registry.convert_view(&store, vid).unwrap();
        assert!(conversion.derived_xml >= 6, "{conversion:?}");
        assert_eq!(store.owned(vid).len(), conversion.derived_xml);
        assert!(store.conforms_to(vid, "xmlfile").unwrap());
        // The inside of the container is queryable graph structure.
        let inside = idm_core::graph::descendants(&store, vid, usize::MAX).unwrap();
        assert!(inside
            .iter()
            .any(|v| store.name(*v).unwrap().as_deref() == Some("title")));
    }

    #[test]
    fn corrupt_office_containers_are_tolerated() {
        let store = ViewStore::new();
        let vid = file(&store, "broken.docx", "not a zip at all");
        let registry = ConverterRegistry::with_defaults();
        let conversion = registry.convert_view(&store, vid).unwrap();
        assert_eq!(conversion.total(), 0);
        assert!(store.conforms_to(vid, "file").unwrap());
    }

    #[test]
    fn convert_all_totals() {
        let store = ViewStore::new();
        let a = file(&store, "a.xml", "<r><c/></r>");
        let b = file(&store, "b.tex", "\\section{S}\ntext");
        let c = file(&store, "c.bin", "xx");
        let registry = ConverterRegistry::with_defaults();
        let conversion = registry.convert_all(&store, &[a, b, c]).unwrap();
        assert!(conversion.derived_xml > 0);
        assert!(conversion.derived_latex > 0);
    }
}
