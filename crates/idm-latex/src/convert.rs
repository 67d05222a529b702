//! The `LaTeX2iDM` Content2iDM converter.
//!
//! Produces the Figure 1(b) subgraph shape for a LaTeX file:
//!
//! ```text
//! latexfile ──⟨ latex_document ⟩
//!   latex_document ──⟨ documentclass, title, abstract, document ⟩
//!     document ──⟨ sections… ⟩
//!       latex_section ──⟨ text…, texref…, environments…, subsections… ⟩
//!         environment(figure) ──⟨ figure ⟩      (tuple: label, caption)
//!         texref ──⟨ referenced view ⟩          (graph edge, not tree!)
//! ```
//!
//! Resolved `\ref{…}` views point at the *referenced* section/figure view
//! through their group component — the same label-directed edge that in
//! Figure 1(b) connects the `ref` node to 'Preliminaries' and makes the
//! extracted structure a genuine graph.

use std::collections::HashMap;

use idm_core::class::builtin::names;
use idm_core::prelude::*;

use crate::parser::{parse_latex, Inline, LatexBlock, LatexEnv};

/// Result of instantiating a LaTeX document in a view store.
#[derive(Debug)]
pub struct LatexMapping {
    /// The `latex_document` root view.
    pub document: Vid,
    /// Number of views created.
    pub derived: usize,
    /// Label → view (sections and figures with `\label`s).
    pub labels: HashMap<String, Vid>,
    /// All `texref` views created.
    pub refs: Vec<Vid>,
}

struct Converter<'a> {
    store: &'a ViewStore,
    text: ClassId,
    section: ClassId,
    environment: ClassId,
    figure: ClassId,
    texref: ClassId,
    labels: HashMap<String, Vid>,
    refs: Vec<(Vid, String)>,
    figure_counter: usize,
    table_counter: usize,
    /// Views inserted so far.
    derived: usize,
    /// The base view every inserted view belongs to.
    owner: Option<Vid>,
}

impl<'a> Converter<'a> {
    /// Inserts one view of the subgraph, owned by `owner`, counting it.
    fn insert(&mut self, builder: ViewBuilder<'a>) -> Vid {
        self.derived += 1;
        builder.owner(self.owner).insert()
    }

    fn text_view(&mut self, text: &str) -> Vid {
        let builder = self
            .store
            .build_unnamed()
            .content(Content::text(text.to_owned()))
            .class(self.text);
        self.insert(builder)
    }

    fn convert_blocks(&mut self, blocks: &[LatexBlock]) -> Result<Vec<Vid>> {
        let mut out = Vec::new();
        for block in blocks {
            match block {
                LatexBlock::Paragraph(inlines) => {
                    for inline in inlines {
                        match inline {
                            Inline::Text(t) => out.push(self.text_view(t)),
                            Inline::Ref(label) => {
                                let builder = self.store.build(label.clone()).class(self.texref);
                                let vid = self.insert(builder);
                                self.refs.push((vid, label.clone()));
                                out.push(vid);
                            }
                            Inline::Cite(key) => {
                                // Citations become text for search purposes.
                                out.push(self.text_view(key));
                            }
                        }
                    }
                }
                LatexBlock::Section(section) => {
                    let children = self.convert_blocks(&section.blocks)?;
                    // The section view's own content component is the
                    // symbol sequence of its whole region (Section 5.1
                    // queries test phrases against a *section's* χ:
                    // "//Introduction[… and "Mike Franklin"]").
                    let deep_text = section_deep_text(section);
                    let mut builder = self
                        .store
                        .build(section.title.clone())
                        .tuple(TupleComponent::of(vec![(
                            "level",
                            Value::Integer(i64::from(section.level)),
                        )]))
                        .class(self.section);
                    if !deep_text.is_empty() {
                        builder = builder.content(Content::text(deep_text));
                    }
                    if !children.is_empty() {
                        builder = builder.sequence(children);
                    }
                    let vid = self.insert(builder);
                    if let Some(label) = &section.label {
                        self.labels.insert(label.clone(), vid);
                    }
                    out.push(vid);
                }
                LatexBlock::Environment(env) => {
                    out.push(self.convert_environment(env)?);
                }
            }
        }
        Ok(out)
    }

    fn convert_environment(&mut self, env: &LatexEnv) -> Result<Vid> {
        // The inner content view: `figure<n>`/`table<n>` under the
        // environment view, carrying label and caption in its tuple and
        // the caption text in its content — this is what Q7's
        // `[class="environment"]//figure*` and the Section 5.1 OLAP
        // query `[class="figure" and "Indexing time"]` select.
        let (inner_name, inner_class) = if env.kind == "figure" {
            self.figure_counter += 1;
            (format!("figure{}", self.figure_counter), self.figure)
        } else {
            self.table_counter += 1;
            (format!("table{}", self.table_counter), self.figure)
        };
        let caption = env.caption.clone().unwrap_or_default();
        let mut pairs = Vec::new();
        if let Some(label) = &env.label {
            pairs.push(("label", Value::Text(label.clone())));
        }
        pairs.push(("caption", Value::Text(caption.clone())));
        let mut inner_builder = self
            .store
            .build(inner_name)
            .tuple(TupleComponent::of(pairs))
            .class(inner_class);
        if !caption.is_empty() {
            inner_builder = inner_builder.content(Content::text(caption));
        }
        let inner = self.insert(inner_builder);
        if let Some(label) = &env.label {
            self.labels.insert(label.clone(), inner);
        }

        let mut children = vec![inner];
        if !env.body_text.trim().is_empty() {
            children.push(self.text_view(&env.body_text));
        }
        let builder = self
            .store
            .build(env.kind.clone())
            .sequence(children)
            .class(self.environment);
        Ok(self.insert(builder))
    }
}

/// The concatenated text of a section's region: paragraph text,
/// environment captions/bodies and nested sections' text.
fn section_deep_text(section: &crate::parser::LatexSection) -> String {
    fn walk(blocks: &[LatexBlock], out: &mut String) {
        for block in blocks {
            match block {
                LatexBlock::Paragraph(inlines) => {
                    for inline in inlines {
                        if let Inline::Text(t) = inline {
                            if !out.is_empty() {
                                out.push(' ');
                            }
                            out.push_str(t);
                        }
                    }
                }
                LatexBlock::Environment(env) => {
                    for part in [env.caption.as_deref(), Some(env.body_text.as_str())]
                        .into_iter()
                        .flatten()
                    {
                        if !part.is_empty() {
                            if !out.is_empty() {
                                out.push(' ');
                            }
                            out.push_str(part);
                        }
                    }
                }
                LatexBlock::Section(nested) => walk(&nested.blocks, out),
            }
        }
    }
    let mut out = String::new();
    walk(&section.blocks, &mut out);
    out
}

/// Parses LaTeX text and instantiates it as resource views owned by
/// `owner`.
fn owned_text_to_views(store: &ViewStore, latex: &str, owner: Option<Vid>) -> Result<LatexMapping> {
    let doc = parse_latex(latex).map_err(|e| IdmError::Parse {
        detail: e.to_string(),
    })?;
    let classes = store.classes();
    let mut converter = Converter {
        store,
        text: classes.require(names::TEXT)?,
        section: classes.require(names::LATEX_SECTION)?,
        environment: classes.require(names::ENVIRONMENT)?,
        figure: classes.require(names::FIGURE)?,
        texref: classes.require(names::TEXREF)?,
        labels: HashMap::new(),
        refs: Vec::new(),
        figure_counter: 0,
        table_counter: 0,
        derived: 0,
        owner,
    };

    let mut doc_children = Vec::new();
    // Metadata views (Figure 1(b): documentclass, title, abstract) are
    // `text`-classed, which requires non-empty content — empty metadata
    // simply has no view.
    for (node_name, value) in [
        ("documentclass", doc.doc_class.as_deref()),
        ("title", doc.title.as_deref()),
        ("abstract", doc.abstract_text.as_deref()),
    ] {
        if let Some(value) = value.filter(|v| !v.is_empty()) {
            let builder = store
                .build(node_name)
                .content(Content::text(value.to_owned()))
                .class(converter.text);
            doc_children.push(converter.insert(builder));
        }
    }
    let body_children = converter.convert_blocks(&doc.blocks)?;
    // The 'document' portion view is a pure structural node (no class:
    // schema-later modeling is fine in iDM).
    let body = converter.insert(store.build("document").sequence(body_children));
    doc_children.push(body);

    let document = converter.insert(
        store
            .build(doc.title.clone().unwrap_or_else(|| "document".to_owned()))
            .sequence(doc_children)
            .class_named(names::LATEX_DOCUMENT),
    );

    // Resolve references: each texref's group points at the labeled view.
    for (ref_vid, label) in &converter.refs {
        if let Some(target) = converter.labels.get(label) {
            store.set_group(*ref_vid, Group::of_set(vec![*target]))?;
        }
    }

    Ok(LatexMapping {
        document,
        derived: converter.derived,
        labels: converter.labels,
        refs: converter.refs.iter().map(|(v, _)| *v).collect(),
    })
}

/// Parses LaTeX text and instantiates it as views of no base view.
pub fn text_to_views(store: &ViewStore, latex: &str) -> Result<LatexMapping> {
    owned_text_to_views(store, latex, None)
}

/// Upgrades a `file` view whose content is LaTeX: instantiates the
/// document subgraph, every view owned by `owner`, and wires it as the
/// file's group `⟨V_document⟩`, marking the file with class `latexfile`.
pub fn latex_to_views(store: &ViewStore, file: Vid, owner: Vid) -> Result<LatexMapping> {
    let latex = store.content(file)?.text_lossy()?;
    let mapping = owned_text_to_views(store, &latex, Some(owner))?;
    store.set_group(file, Group::of_seq(vec![mapping.document]))?;
    store.set_class(file, store.classes().lookup(names::LATEX_FILE))?;
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::graph;

    const VLDB_TEX: &str = r"
\documentclass{vldb}
\title{iDM: A Unified and Versatile Data Model}
\begin{abstract}
A data model for dataspaces.
\end{abstract}
\section{Introduction}
Mike Franklin proposed dataspaces.
\subsection{The Problem}
See Section~\ref{sec:prelim} for definitions.
\section{Preliminaries} \label{sec:prelim}
Definitions go here.
\begin{figure}
\caption{Indexing Time by source}
\label{fig:idx}
\end{figure}
The results in Figure~\ref{fig:idx} show interactive times.
";

    #[test]
    fn figure_1b_shape() {
        let store = ViewStore::new();
        let mapping = text_to_views(&store, VLDB_TEX).unwrap();
        let doc_children = store.group(mapping.document).unwrap().finite_members();
        let names: Vec<Option<String>> = doc_children
            .iter()
            .map(|v| store.name(*v).unwrap())
            .collect();
        assert_eq!(
            names,
            vec![
                Some("documentclass".into()),
                Some("title".into()),
                Some("abstract".into()),
                Some("document".into())
            ]
        );
    }

    #[test]
    fn sections_become_named_class_views() {
        let store = ViewStore::new();
        let mapping = text_to_views(&store, VLDB_TEX).unwrap();
        let all = graph::descendants(&store, mapping.document, usize::MAX).unwrap();
        let sections: Vec<String> = all
            .iter()
            .filter(|v| store.conforms_to(**v, names::LATEX_SECTION).unwrap())
            .map(|v| store.name(*v).unwrap().unwrap())
            .collect();
        assert!(sections.contains(&"Introduction".to_owned()));
        assert!(sections.contains(&"The Problem".to_owned()));
        assert!(sections.contains(&"Preliminaries".to_owned()));
        // Level in the tuple component.
        let intro = all
            .iter()
            .find(|v| store.name(**v).unwrap().as_deref() == Some("Introduction"))
            .unwrap();
        assert_eq!(
            store.tuple(*intro).unwrap().unwrap().get("level"),
            Some(&Value::Integer(1))
        );
    }

    #[test]
    fn refs_point_at_their_targets() {
        // The graph structure of Figure 1(b): ref → Preliminaries.
        let store = ViewStore::new();
        let mapping = text_to_views(&store, VLDB_TEX).unwrap();
        assert_eq!(mapping.refs.len(), 2);
        let prelim = mapping.labels.get("sec:prelim").copied().unwrap();
        let sec_ref = mapping
            .refs
            .iter()
            .copied()
            .find(|r| store.name(*r).unwrap().as_deref() == Some("sec:prelim"))
            .unwrap();
        assert_eq!(store.group(sec_ref).unwrap().finite_members(), vec![prelim]);
        // The target is now related to BOTH its section parent and the ref
        // (two in-edges: a graph, not a tree).
        let rev = graph::reverse_adjacency(&store);
        assert!(rev.get(&prelim).unwrap().len() >= 2);
    }

    #[test]
    fn figure_environment_structure_for_q7() {
        let store = ViewStore::new();
        let mapping = text_to_views(&store, VLDB_TEX).unwrap();
        let all = graph::descendants(&store, mapping.document, usize::MAX).unwrap();
        let env = all
            .iter()
            .copied()
            .find(|v| store.conforms_to(*v, names::ENVIRONMENT).unwrap())
            .unwrap();
        assert_eq!(store.name(env).unwrap().as_deref(), Some("figure"));
        let inner = store.group(env).unwrap().finite_members()[0];
        assert!(store.conforms_to(inner, names::FIGURE).unwrap());
        assert_eq!(store.name(inner).unwrap().as_deref(), Some("figure1"));
        let tuple = store.tuple(inner).unwrap().unwrap();
        assert_eq!(tuple.get("label"), Some(&Value::Text("fig:idx".into())));
        assert!(store
            .content(inner)
            .unwrap()
            .text_lossy()
            .unwrap()
            .contains("Indexing Time"));
    }

    #[test]
    fn unresolved_refs_stay_leaf_views() {
        let store = ViewStore::new();
        let mapping = text_to_views(&store, "\\section{S}\nSee \\ref{missing}").unwrap();
        let r = mapping.refs[0];
        assert!(store.group(r).unwrap().finite().unwrap().is_empty());
        assert_eq!(store.name(r).unwrap().as_deref(), Some("missing"));
    }

    #[test]
    fn file_enrichment_marks_latexfile() {
        let store = ViewStore::new();
        let tau = TupleComponent::of(vec![
            ("size", Value::Integer(1)),
            ("creation time", Value::Date(Timestamp(0))),
            ("last modified time", Value::Date(Timestamp(0))),
        ]);
        let file = store
            .build("vldb 2006.tex")
            .tuple(tau)
            .text(VLDB_TEX)
            .class_named(names::FILE)
            .insert();
        let mapping = latex_to_views(&store, file, file).unwrap();
        assert_eq!(store.owned(file).len(), mapping.derived);
        assert!(store.conforms_to(file, names::LATEX_FILE).unwrap());
        assert!(store.conforms_to(file, names::FILE).unwrap());
        assert_eq!(
            store.group(file).unwrap().finite_members(),
            vec![mapping.document]
        );
        // Inside-outside boundary removed: sections reachable from file.
        assert!(graph::is_indirectly_related(&store, file, mapping.labels["sec:prelim"]).unwrap());
    }

    /// The converter counts its own inserts; on a store nobody else
    /// writes to, that is the growth of the store.
    #[test]
    fn derived_count_reported() {
        let store = ViewStore::new();
        let before = store.len();
        let mapping = text_to_views(&store, VLDB_TEX).unwrap();
        assert_eq!(mapping.derived, store.len() - before);
        assert!(mapping.derived >= 12, "got {}", mapping.derived);
    }
}
