//! The Content2iDM converters (Section 5.2, part 2): enrich the initial
//! iDM graph by converting content components into resource view
//! subgraphs. The paper's prototype provided converters for XML and
//! LaTeX; [`convert_view`] runs those two and the Office-container one,
//! chosen by the view's name. Every view a converter mints is owned by a
//! base view ([`ViewRecord::owner`]), which [`convert_view`] alone
//! decides.

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

/// Converts one view by the extension of its name: `.xml` files get
/// their parsed document subgraph (`XML2iDM`, the view becomes an
/// `xmlfile`), `.tex` files their structural subgraph (`LaTeX2iDM`), and
/// `.docx` / `.odt` / `.pptx` containers the document subgraph of their
/// main part (`Office2iDM`, paper footnote 1). Any other view is left as
/// it is. What it mints is owned by the view's owner, or by the view
/// itself if it is a base view: ownership is never more than one step
/// deep, so an email attachment's converted views belong to the message.
///
/// Malformed documents are tolerated: a parse failure leaves the view
/// unconverted (a PDSMS must survive odd files), reported as a zero
/// conversion.
pub fn convert_view(store: &ViewStore, vid: Vid) -> Result<Conversion> {
    let name = store.name(vid)?.unwrap_or_default().to_ascii_lowercase();
    let extension = name.rsplit_once('.').map_or("", |(_, extension)| extension);
    if !matches!(extension, "xml" | "tex" | "docx" | "odt" | "pptx") {
        return Ok(Conversion::default());
    }
    let owner = store.owner(vid)?.unwrap_or(vid);
    let xml = |(_doc, derived): (Vid, usize)| Conversion {
        derived_xml: derived,
        derived_latex: 0,
    };
    let converted = match extension {
        "xml" => idm_xml::convert::enrich_xml_file(store, vid, owner).map(xml),
        "tex" => idm_latex::convert::latex_to_views(store, vid, owner).map(|mapping| Conversion {
            derived_xml: 0,
            derived_latex: mapping.derived,
        }),
        _ => attach_office_document(store, vid, owner).map(xml),
    };
    match converted {
        Err(IdmError::Parse { .. }) => Ok(Conversion::default()),
        converted => converted,
    }
}

/// Attaches the main document part of an Office-12 / OpenOffice "zipped
/// XML" container as an XML subgraph of the file view, which becomes an
/// `xmlfile`.
fn attach_office_document(store: &ViewStore, vid: Vid, owner: Vid) -> Result<(Vid, usize)> {
    let bytes = store.content(vid)?.bytes()?;
    if !idm_xml::zip::is_zip(&bytes) {
        return Err(IdmError::Parse {
            detail: "office: not a zip container".into(),
        });
    }
    let document_xml = idm_xml::zip::office_document_xml(&bytes)?;
    idm_xml::convert::attach_document(store, vid, &document_xml, owner)
}

/// Runs [`convert_view`] over a set of views, totalling the counts.
pub fn convert_all(store: &ViewStore, vids: &[Vid]) -> Result<Conversion> {
    let mut total = Conversion::default();
    for &vid in vids {
        total.add(convert_view(store, vid)?);
    }
    Ok(total)
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
        let conversion = convert_view(&store, vid).unwrap();
        assert!(conversion.derived_xml >= 4);
        assert_eq!(conversion.derived_latex, 0);
        assert!(store.conforms_to(vid, "xmlfile").unwrap());
    }

    #[test]
    fn tex_files_get_latex_converter() {
        let store = ViewStore::new();
        let vid = file(&store, "paper.tex", "\\section{Intro}\nwords");
        let conversion = convert_view(&store, vid).unwrap();
        assert!(conversion.derived_latex >= 3);
        assert_eq!(conversion.derived_xml, 0);
    }

    #[test]
    fn other_files_untouched() {
        let store = ViewStore::new();
        let vid = file(&store, "notes.txt", "plain text");
        let conversion = convert_view(&store, vid).unwrap();
        assert_eq!(conversion, Conversion::default());
        assert!(store.group(vid).unwrap().finite().unwrap().is_empty());
    }

    #[test]
    fn malformed_documents_tolerated() {
        let store = ViewStore::new();
        let vid = file(&store, "broken.xml", "<a><b></a>");
        let conversion = convert_view(&store, vid).unwrap();
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
        let conversion = convert_view(&store, vid).unwrap();
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
        let conversion = convert_view(&store, vid).unwrap();
        assert_eq!(conversion.total(), 0);
        assert!(store.conforms_to(vid, "file").unwrap());
    }

    #[test]
    fn convert_all_totals() {
        let store = ViewStore::new();
        let a = file(&store, "a.xml", "<r><c/></r>");
        let b = file(&store, "b.tex", "\\section{S}\ntext");
        let c = file(&store, "c.bin", "xx");
        let conversion = convert_all(&store, &[a, b, c]).unwrap();
        assert!(conversion.derived_xml > 0);
        assert!(conversion.derived_latex > 0);
    }
}
