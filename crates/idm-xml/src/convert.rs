//! The `XML2iDM` Content2iDM converter (Section 3.3).
//!
//! Instantiates the XML data model in iDM:
//!
//! - a character item becomes a `xmltext` view: `V = (χ)` with `χ = C_t`,
//! - an element item becomes a `xmlelem` view: `η = N_E`,
//!   `τ = (W_E, T_E)` (the attributes), `γ = (∅, ⟨children⟩)`,
//! - a document item becomes a `xmldoc` view: `γ = (∅, ⟨V_root⟩)`,
//! - an XML *file* view is upgraded to class `xmlfile` with
//!   `γ = (∅, ⟨V_doc⟩)`, removing the boundary between the file on the
//!   outside and its structure on the inside. Every view of the document
//!   is minted with the base view the file belongs to as its owner.

use idm_core::class::builtin::names;
use idm_core::prelude::*;

use crate::parser::{parse, XmlElement, XmlNode};

/// Converts attributes to the element's tuple component `(W_E, T_E)`.
///
/// All XML attribute values are text; the schema records one text
/// attribute per XML attribute, in document order.
fn attributes_to_tuple(element: &XmlElement) -> Option<TupleComponent> {
    if element.attributes.is_empty() {
        return None;
    }
    Some(TupleComponent::of(
        element
            .attributes
            .iter()
            .map(|(name, value)| (name.as_str(), Value::Text(value.clone())))
            .collect(),
    ))
}

/// The `xmlelem` and `xmltext` classes, and the owner every view is
/// minted with.
struct Minter {
    xmlelem: ClassId,
    xmltext: ClassId,
    owner: Option<Vid>,
}

/// Instantiates an element subtree; returns the `xmlelem` view.
fn element_to_views(store: &ViewStore, element: &XmlElement, minter: &Minter) -> Result<Vid> {
    let mut children = Vec::with_capacity(element.children.len());
    for child in &element.children {
        let vid = match child {
            XmlNode::Element(e) => element_to_views(store, e, minter)?,
            XmlNode::Text(t) => store
                .build_unnamed()
                .content(Content::text(t.clone()))
                .class(minter.xmltext)
                .owner(minter.owner)
                .insert(),
        };
        children.push(vid);
    }
    let mut builder = store
        .build(element.name.clone())
        .class(minter.xmlelem)
        .owner(minter.owner);
    if let Some(tuple) = attributes_to_tuple(element) {
        builder = builder.tuple(tuple);
    }
    if !children.is_empty() {
        builder = builder.sequence(children);
    }
    Ok(builder.insert())
}

/// Parses XML text and instantiates it, every view owned by `owner`;
/// returns the `xmldoc` view and the number of views created.
fn owned_text_to_views(store: &ViewStore, xml: &str, owner: Option<Vid>) -> Result<(Vid, usize)> {
    let doc = parse(xml).map_err(|e| IdmError::Parse {
        detail: e.to_string(),
    })?;
    let classes = store.classes();
    let xmldoc = classes.require(names::XMLDOC)?;
    let minter = Minter {
        xmlelem: classes.require(names::XMLELEM)?,
        xmltext: classes.require(names::XMLTEXT)?,
        owner,
    };
    let root = element_to_views(store, &doc.root, &minter)?;
    let vid = store
        .build_unnamed()
        .sequence(vec![root])
        .class(xmldoc)
        .owner(owner)
        .insert();
    // One view per information item, the document's included.
    Ok((vid, doc.item_count()))
}

/// Parses XML text and instantiates it as views of no base view;
/// returns the `xmldoc` view and the number of views created.
pub fn text_to_views(store: &ViewStore, xml: &str) -> Result<(Vid, usize)> {
    owned_text_to_views(store, xml, None)
}

/// Upgrades `file` into an `xmlfile` view carrying the document `xml`:
/// instantiates the document subgraph, every view owned by `owner`, and
/// wires it as the file's group sequence `⟨V_doc⟩`. The document is the
/// file's own content ([`enrich_xml_file`]) or, for an Office container,
/// its main part.
///
/// Returns the `xmldoc` view and the number of derived views.
pub fn attach_document(
    store: &ViewStore,
    file: Vid,
    xml: &str,
    owner: Vid,
) -> Result<(Vid, usize)> {
    let (doc_vid, derived) = owned_text_to_views(store, xml, Some(owner))?;
    let xmlfile = store.classes().require(names::XMLFILE)?;
    store.set_group(file, Group::of_seq(vec![doc_vid]))?;
    store.set_class(file, Some(xmlfile))?;
    Ok((doc_vid, derived))
}

/// Upgrades a `file` view whose content is XML into an `xmlfile` view
/// ([`attach_document`] of its content component).
pub fn enrich_xml_file(store: &ViewStore, file: Vid, owner: Vid) -> Result<(Vid, usize)> {
    let xml = store.content(file)?.text_lossy()?;
    attach_document(store, file, &xml, owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::graph;

    #[test]
    fn figure_2_instantiation() {
        // Figure 2: an <article> fragment as a resource view graph.
        let store = ViewStore::new();
        let (doc, derived) = text_to_views(
            &store,
            r#"<article year="2005"><title>Dataspaces</title></article>"#,
        )
        .unwrap();

        // Views: xmldoc, article, title, text("Dataspaces") = 4.
        assert_eq!(derived, 4);
        assert!(store.conforms_to(doc, "xmldoc").unwrap());

        let root = store.group(doc).unwrap().finite_members()[0];
        assert_eq!(store.name(root).unwrap().as_deref(), Some("article"));
        assert!(store.conforms_to(root, "xmlelem").unwrap());
        // Attributes live in τ.
        assert_eq!(
            store.tuple(root).unwrap().unwrap().get("year"),
            Some(&Value::Text("2005".into()))
        );

        let title = store.group(root).unwrap().finite_members()[0];
        assert_eq!(store.name(title).unwrap().as_deref(), Some("title"));
        let text = store.group(title).unwrap().finite_members()[0];
        assert!(store.conforms_to(text, "xmltext").unwrap());
        assert_eq!(
            store.content(text).unwrap().text_lossy().unwrap(),
            "Dataspaces"
        );
    }

    #[test]
    fn element_children_are_ordered() {
        let store = ViewStore::new();
        let (doc, _) = text_to_views(&store, "<r><a/><b/><c/>tail</r>").unwrap();
        let root = store.group(doc).unwrap().finite_members()[0];
        let snapshot = store.group(root).unwrap();
        let data = snapshot.finite().unwrap();
        assert!(data.set().is_empty(), "children live in the sequence Q");
        let names: Vec<Option<String>> =
            data.seq().iter().map(|v| store.name(*v).unwrap()).collect();
        assert_eq!(
            names,
            vec![
                Some("a".into()),
                Some("b".into()),
                Some("c".into()),
                None // the text node is unnamed
            ]
        );
    }

    #[test]
    fn derived_view_count_matches_item_count() {
        let xml = "<a><b x=\"1\">t1</b><c><d/>t2</c></a>";
        let doc = parse(xml).unwrap();
        let store = ViewStore::new();
        let (_, derived) = text_to_views(&store, xml).unwrap();
        assert_eq!(derived, doc.item_count());
    }

    #[test]
    fn enrich_file_removes_inside_outside_boundary() {
        let store = ViewStore::new();
        let tau = TupleComponent::of(vec![
            ("size", Value::Integer(42)),
            ("creation time", Value::Date(Timestamp(0))),
            ("last modified time", Value::Date(Timestamp(0))),
        ]);
        let file = store
            .build("feed.xml")
            .tuple(tau)
            .text(r#"<feed><entry>Mike Franklin</entry></feed>"#)
            .class_named("file")
            .insert();

        let (doc, derived) = enrich_xml_file(&store, file, file).unwrap();
        assert_eq!(derived, 4);
        assert_eq!(store.owned(file).len(), derived);
        assert!(store.conforms_to(file, "xmlfile").unwrap());
        assert!(store.conforms_to(file, "file").unwrap(), "still a file");
        // The inside structure is now indirectly related to the file view.
        let inside = graph::descendants(&store, file, usize::MAX).unwrap();
        assert!(inside.contains(&doc));
        let texts: Vec<String> = inside
            .iter()
            .filter(|v| store.conforms_to(**v, "xmltext").unwrap())
            .map(|v| store.content(*v).unwrap().text_lossy().unwrap())
            .collect();
        assert_eq!(texts, vec!["Mike Franklin"]);
    }

    #[test]
    fn malformed_xml_surfaces_as_parse_error() {
        let store = ViewStore::new();
        let err = text_to_views(&store, "<a><b></a>").unwrap_err();
        assert!(matches!(err, IdmError::Parse { .. }));
    }

    #[test]
    fn converted_views_validate_deeply() {
        let store = ViewStore::new();
        let (doc, _) = text_to_views(&store, r#"<r a="1"><s>text</s><t/></r>"#).unwrap();
        // Every derived view must conform to its class.
        for vid in idm_core::graph::descendants(&store, doc, usize::MAX)
            .unwrap()
            .into_iter()
            .chain([doc])
        {
            validate(&store, vid, ValidationMode::Deep).unwrap();
        }
    }
}
