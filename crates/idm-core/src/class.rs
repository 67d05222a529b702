//! Resource view classes (Definition 2) and the built-in classes of Table 1.
//!
//! A resource view class is a set of formal restrictions on the `η`, `τ`,
//! `χ` and `γ` components of the views that conform to it:
//!
//! 1. emptiness of components,
//! 2. the schema of `τ`,
//! 3. finiteness of `χ` and of the group members `S`/`Q`,
//! 4. the classes acceptable for directly related views.
//!
//! Classes are organized in generalization hierarchies: a view conforming
//! to class `C` automatically conforms to every generalization of `C`
//! (e.g. `xmlfile` specializes `file`). Not every view needs a class —
//! iDM supports schema-first, schema-later and schema-never modeling.

use std::collections::HashMap;
use std::fmt;

use parking_lot::RwLock;

use crate::error::{IdmError, Result};
use crate::value::Schema;

/// Interned identifier of a registered resource view class.
///
/// Stable within one [`ClassRegistry`]; resolve to a name with
/// [`ClassRegistry::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// Raw index accessor.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// Emptiness restriction on a single component (Def. 2, restriction 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Emptiness {
    /// No restriction.
    #[default]
    Any,
    /// The component must be empty.
    MustBeEmpty,
    /// The component must be non-empty.
    MustBeNonEmpty,
}

/// Finiteness restriction on `χ` or `γ` (Def. 2, restriction 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Finiteness {
    /// No restriction.
    #[default]
    Any,
    /// Must be finite (possibly empty).
    Finite,
    /// Must be infinite.
    Infinite,
}

/// Schema restriction on `τ` (Def. 2, restriction 2).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SchemaConstraint {
    /// No restriction.
    #[default]
    Any,
    /// `τ` must carry exactly this schema (attribute names, domains, order).
    Exact(Schema),
    /// `τ`'s schema must contain at least these attributes (any order).
    Covers(Schema),
}

/// Restriction on the classes of directly related views
/// (Def. 2, restriction 4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ChildClasses {
    /// No restriction.
    #[default]
    Any,
    /// Every directly related view must conform to (a specialization of)
    /// one of these classes. An empty list forbids related views entirely
    /// — equivalent to requiring `γ` to be empty.
    OneOf(Vec<ClassId>),
}

/// The full restriction set of one resource view class.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Constraints {
    /// Emptiness of the name component `η`.
    pub name: Emptiness,
    /// Emptiness of the tuple component `τ`.
    pub tuple: Emptiness,
    /// Emptiness of the content component `χ`.
    pub content: Emptiness,
    /// Emptiness of the group component `γ` as a whole.
    pub group: Emptiness,
    /// Schema restriction on `τ`.
    pub tuple_schema: SchemaConstraint,
    /// Finiteness of `χ`.
    pub content_finiteness: Finiteness,
    /// Finiteness of `γ`.
    pub group_finiteness: Finiteness,
    /// Restriction on member ordering: `Some(true)` requires all members in
    /// the sequence `Q`, `Some(false)` requires all members in the set `S`.
    pub ordered_members: Option<bool>,
    /// Acceptable classes for directly related views.
    pub child_classes: ChildClasses,
}

/// One registered class: its name, optional generalization, constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Class name (unique within the registry), e.g. `"xmlelem"`.
    pub name: String,
    /// The class this one specializes, if any.
    pub parent: Option<ClassId>,
    /// The restriction set.
    pub constraints: Constraints,
}

/// Registry of resource view classes, including the Table 1 built-ins.
///
/// Thread-safe; classes are append-only (a dataspace never unlearns a
/// class, though new specializations may arrive at any time).
pub struct ClassRegistry {
    inner: RwLock<RegistryInner>,
}

struct RegistryInner {
    defs: Vec<ClassDef>,
    by_name: HashMap<String, ClassId>,
}

impl RegistryInner {
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(id) = cur {
            if id == sup {
                return true;
            }
            cur = self.defs.get(id.0 as usize).and_then(|d| d.parent);
        }
        false
    }
}

impl ClassRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        ClassRegistry {
            inner: RwLock::new(RegistryInner {
                defs: Vec::new(),
                by_name: HashMap::new(),
            }),
        }
    }

    /// A registry pre-loaded with the built-in classes of Table 1 plus the
    /// document/email classes used throughout the paper's examples
    /// (`latex_*`, `emailmessage`, …). See [`builtin`] for the list.
    pub fn with_builtins() -> Self {
        let registry = ClassRegistry::empty();
        builtin::register_all(&registry);
        registry
    }

    /// Registers a class; errors if the name is taken.
    pub fn register(&self, def: ClassDef) -> Result<ClassId> {
        let mut inner = self.inner.write();
        if inner.by_name.contains_key(&def.name) {
            return Err(IdmError::Parse {
                detail: format!("class '{}' already registered", def.name),
            });
        }
        if let Some(parent) = def.parent {
            if parent.0 as usize >= inner.defs.len() {
                return Err(IdmError::UnknownClass(format!("{parent}")));
            }
        }
        let id = ClassId(inner.defs.len() as u32);
        inner.by_name.insert(def.name.clone(), id);
        inner.defs.push(def);
        Ok(id)
    }

    /// Registers a class with no parent and the given constraints.
    pub fn define(&self, name: &str, constraints: Constraints) -> Result<ClassId> {
        self.register(ClassDef {
            name: name.to_owned(),
            parent: None,
            constraints,
        })
    }

    /// Registers a specialization of `parent`.
    pub fn specialize(
        &self,
        name: &str,
        parent: ClassId,
        constraints: Constraints,
    ) -> Result<ClassId> {
        self.register(ClassDef {
            name: name.to_owned(),
            parent: Some(parent),
            constraints,
        })
    }

    /// Looks a class up by name.
    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Looks a class up by name, erroring if unknown.
    pub fn require(&self, name: &str) -> Result<ClassId> {
        self.lookup(name)
            .ok_or_else(|| IdmError::UnknownClass(name.to_owned()))
    }

    /// The name of a class.
    pub fn name(&self, id: ClassId) -> String {
        self.inner
            .read()
            .defs
            .get(id.0 as usize)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("{id}"))
    }

    /// The definition of a class, cloned.
    pub fn def(&self, id: ClassId) -> Option<ClassDef> {
        self.inner.read().defs.get(id.0 as usize).cloned()
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.inner.read().defs.len()
    }

    /// Whether no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `sub` is `sup` or a (transitive) specialization of it —
    /// i.e. a view of class `sub` automatically conforms to `sup`.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.inner.read().is_subclass(sub, sup)
    }

    /// Calls `f` with the names of the named class and of every
    /// specialization of it (the classes whose views conform to it), in
    /// id order, under one read guard: what a class predicate reads.
    /// `None` if the class is unknown. `f` runs under the guard, so it
    /// must not call back into the registry.
    pub fn with_conforming_names<R>(&self, class: &str, f: impl FnOnce(&[&str]) -> R) -> Option<R> {
        let inner = self.inner.read();
        let sup = *inner.by_name.get(class)?;
        let names: Vec<&str> = (0..inner.defs.len() as u32)
            .filter(|&id| inner.is_subclass(ClassId(id), sup))
            .map(|id| inner.defs[id as usize].name.as_str())
            .collect();
        Some(f(&names))
    }

    /// Looks a class up by name, registering it with default
    /// (unconstrained) restrictions if unknown — schema-later modeling,
    /// used by durability recovery where a WAL record may carry a class
    /// name the replaying registry has not seen yet.
    pub fn lookup_or_register(&self, name: &str) -> ClassId {
        let mut inner = self.inner.write();
        if let Some(id) = inner.by_name.get(name).copied() {
            return id;
        }
        let id = ClassId(inner.defs.len() as u32);
        inner.by_name.insert(name.to_owned(), id);
        inner.defs.push(ClassDef {
            name: name.to_owned(),
            parent: None,
            constraints: Constraints::default(),
        });
        id
    }

    /// Every registered definition in id order — the durable image of
    /// this registry. Parent ids refer to positions in the returned
    /// vector, so replaying the list through [`ClassRegistry::from_defs`]
    /// reproduces identical interned ids.
    pub fn export_defs(&self) -> Vec<ClassDef> {
        self.inner.read().defs.clone()
    }

    /// Rebuilds a registry from an exported definition list, preserving
    /// interned id assignment.
    pub fn from_defs(defs: Vec<ClassDef>) -> Result<ClassRegistry> {
        let registry = ClassRegistry::empty();
        for def in defs {
            registry.register(def)?;
        }
        Ok(registry)
    }

    /// The class and all of its generalizations, most specific first.
    pub fn ancestry(&self, id: ClassId) -> Vec<ClassId> {
        let inner = self.inner.read();
        let mut out = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            out.push(c);
            cur = inner.defs.get(c.0 as usize).and_then(|d| d.parent);
        }
        out
    }
}

impl Default for ClassRegistry {
    fn default() -> Self {
        ClassRegistry::with_builtins()
    }
}

impl fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("ClassRegistry")
            .field("classes", &inner.defs.len())
            .finish()
    }
}

/// The built-in resource view classes of Table 1, plus the document
/// structure and email classes the paper's examples and evaluation use
/// (`latex_document`, `latex_section`, `figure`, `texref`, `environment`,
/// `emailmessage`, `mailfolder`, `attachment`, `text`).
pub mod builtin {
    use super::*;
    use crate::value::Domain;

    /// Class name constants, so call sites cannot typo them.
    pub mod names {
        /// A file (Table 1).
        pub const FILE: &str = "file";
        /// A folder (Table 1).
        pub const FOLDER: &str = "folder";
        /// A link to another folder (Figure 1's 'All Projects' node) —
        /// a `folder` specialization whose single member is the target.
        pub const FOLDERLINK: &str = "folderlink";
        /// A relational tuple (Table 1).
        pub const TUPLE: &str = "tuple";
        /// A relation (Table 1).
        pub const RELATION: &str = "relation";
        /// A relational database (Table 1).
        pub const RELDB: &str = "reldb";
        /// An XML text node (Table 1).
        pub const XMLTEXT: &str = "xmltext";
        /// An XML element (Table 1).
        pub const XMLELEM: &str = "xmlelem";
        /// An XML document (Table 1).
        pub const XMLDOC: &str = "xmldoc";
        /// An XML file (Table 1) — a `file` specialization.
        pub const XMLFILE: &str = "xmlfile";
        /// A generic data stream (Table 1).
        pub const DATSTREAM: &str = "datstream";
        /// A tuple stream (Table 1).
        pub const TUPSTREAM: &str = "tupstream";
        /// An RSS/ATOM stream (Table 1).
        pub const RSSATOM: &str = "rssatom";
        /// An ActiveXML element (Section 4.3.1) — `xmlelem` specialization.
        pub const AXML: &str = "axml";
        /// A web service call element inside an AXML element.
        pub const SERVICE_CALL: &str = "sc";
        /// The materialized result of a web service call.
        pub const SERVICE_RESULT: &str = "scresult";
        /// A LaTeX file — a `file` specialization.
        pub const LATEX_FILE: &str = "latexfile";
        /// A LaTeX document root.
        pub const LATEX_DOCUMENT: &str = "latex_document";
        /// A LaTeX (sub)section; queries in the paper filter on this name.
        pub const LATEX_SECTION: &str = "latex_section";
        /// A LaTeX environment (figure, table, …); used by Q7.
        pub const ENVIRONMENT: &str = "environment";
        /// A figure with caption/label; used by Q7 and the Section 5.1
        /// OLAP example query.
        pub const FIGURE: &str = "figure";
        /// A `\ref{…}` reference node; used by Q7.
        pub const TEXREF: &str = "texref";
        /// Unstructured text content extracted from documents.
        pub const TEXT: &str = "text";
        /// An email message; used by Q8.
        pub const EMAILMESSAGE: &str = "emailmessage";
        /// An email (IMAP) folder.
        pub const MAILFOLDER: &str = "mailfolder";
        /// An email attachment — a `file` specialization.
        pub const ATTACHMENT: &str = "attachment";
    }

    /// The filesystem-level schema `W_FS` used by file/folder views.
    pub fn w_fs() -> Schema {
        Schema::of(&[
            ("size", Domain::Integer),
            ("creation time", Domain::Date),
            ("last modified time", Domain::Date),
        ])
    }

    /// Registers every built-in class into `registry`.
    ///
    /// Idempotence is not attempted: call once per registry.
    pub fn register_all(registry: &ClassRegistry) {
        use names::*;

        // --- files & folders (Section 3.2) ---
        let file = registry
            .define(
                FILE,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    tuple: Emptiness::MustBeNonEmpty,
                    tuple_schema: SchemaConstraint::Covers(w_fs()),
                    content_finiteness: Finiteness::Finite,
                    group_finiteness: Finiteness::Finite,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        let folder = registry
            .define(
                FOLDER,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    tuple: Emptiness::MustBeNonEmpty,
                    content: Emptiness::MustBeEmpty,
                    tuple_schema: SchemaConstraint::Covers(w_fs()),
                    group_finiteness: Finiteness::Finite,
                    ordered_members: Some(false),
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        // Folder children are files or folders (or their specializations).
        // Registered after both ids exist:
        {
            let mut inner = registry.inner.write();
            inner.defs[folder.0 as usize].constraints.child_classes =
                ChildClasses::OneOf(vec![file, folder]);
        }
        registry
            .specialize(FOLDERLINK, folder, Constraints::default())
            .expect("builtin");

        // --- relational (Table 1) ---
        let tuple = registry
            .define(
                TUPLE,
                Constraints {
                    name: Emptiness::MustBeEmpty,
                    tuple: Emptiness::MustBeNonEmpty,
                    content: Emptiness::MustBeEmpty,
                    group: Emptiness::MustBeEmpty,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        let relation = registry
            .define(
                RELATION,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    tuple: Emptiness::MustBeEmpty,
                    content: Emptiness::MustBeEmpty,
                    group_finiteness: Finiteness::Finite,
                    ordered_members: Some(false),
                    child_classes: ChildClasses::OneOf(vec![tuple]),
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .define(
                RELDB,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    tuple: Emptiness::MustBeEmpty,
                    content: Emptiness::MustBeEmpty,
                    ordered_members: Some(false),
                    child_classes: ChildClasses::OneOf(vec![relation]),
                    ..Constraints::default()
                },
            )
            .expect("builtin");

        // --- XML (Section 3.3) ---
        let xmltext = registry
            .define(
                XMLTEXT,
                Constraints {
                    name: Emptiness::MustBeEmpty,
                    tuple: Emptiness::MustBeEmpty,
                    content: Emptiness::MustBeNonEmpty,
                    group: Emptiness::MustBeEmpty,
                    content_finiteness: Finiteness::Finite,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        let xmlelem = registry
            .define(
                XMLELEM,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    content: Emptiness::MustBeEmpty,
                    group_finiteness: Finiteness::Finite,
                    ordered_members: Some(true),
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        {
            let mut inner = registry.inner.write();
            inner.defs[xmlelem.0 as usize].constraints.child_classes =
                ChildClasses::OneOf(vec![xmltext, xmlelem]);
        }
        let xmldoc = registry
            .define(
                XMLDOC,
                Constraints {
                    name: Emptiness::MustBeEmpty,
                    tuple: Emptiness::MustBeEmpty,
                    content: Emptiness::MustBeEmpty,
                    group: Emptiness::MustBeNonEmpty,
                    ordered_members: Some(true),
                    child_classes: ChildClasses::OneOf(vec![xmlelem]),
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .specialize(
                XMLFILE,
                file,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    tuple: Emptiness::MustBeNonEmpty,
                    tuple_schema: SchemaConstraint::Covers(w_fs()),
                    group: Emptiness::MustBeNonEmpty,
                    ordered_members: Some(true),
                    child_classes: ChildClasses::OneOf(vec![xmldoc]),
                    ..Constraints::default()
                },
            )
            .expect("builtin");

        // --- streams (Section 3.4) ---
        let datstream = registry
            .define(
                DATSTREAM,
                Constraints {
                    tuple: Emptiness::MustBeEmpty,
                    content: Emptiness::MustBeEmpty,
                    group: Emptiness::MustBeNonEmpty,
                    group_finiteness: Finiteness::Infinite,
                    ordered_members: Some(true),
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .specialize(
                TUPSTREAM,
                datstream,
                Constraints {
                    tuple: Emptiness::MustBeEmpty,
                    content: Emptiness::MustBeEmpty,
                    group: Emptiness::MustBeNonEmpty,
                    group_finiteness: Finiteness::Infinite,
                    ordered_members: Some(true),
                    child_classes: ChildClasses::OneOf(vec![tuple]),
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .specialize(
                RSSATOM,
                datstream,
                Constraints {
                    tuple: Emptiness::MustBeEmpty,
                    content: Emptiness::MustBeEmpty,
                    group: Emptiness::MustBeNonEmpty,
                    group_finiteness: Finiteness::Infinite,
                    ordered_members: Some(true),
                    child_classes: ChildClasses::OneOf(vec![xmldoc]),
                    ..Constraints::default()
                },
            )
            .expect("builtin");

        // --- ActiveXML (Section 4.3.1) ---
        let sc = registry
            .define(
                SERVICE_CALL,
                Constraints {
                    content: Emptiness::MustBeNonEmpty,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        let scresult = registry
            .define(SERVICE_RESULT, Constraints::default())
            .expect("builtin");
        registry
            .specialize(
                AXML,
                xmlelem,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    ordered_members: Some(true),
                    child_classes: ChildClasses::OneOf(vec![sc, scresult]),
                    ..Constraints::default()
                },
            )
            .expect("builtin");

        // --- LaTeX document structure (Sections 2.3, 5.1, Table 4) ---
        let text = registry
            .define(
                TEXT,
                Constraints {
                    content: Emptiness::MustBeNonEmpty,
                    content_finiteness: Finiteness::Finite,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        let _ = text;
        registry
            .specialize(LATEX_FILE, file, Constraints::default())
            .expect("builtin");
        registry
            .define(LATEX_DOCUMENT, Constraints::default())
            .expect("builtin");
        registry
            .define(
                LATEX_SECTION,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .define(
                ENVIRONMENT,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .define(
                FIGURE,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .define(
                TEXREF,
                // A `\ref` view is named after the referenced label and its
                // group points at the referenced view (Figure 1(b): the
                // 'ref' node connects to 'Preliminaries'), which is what
                // makes LaTeX content graph-structured rather than a tree.
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    ..Constraints::default()
                },
            )
            .expect("builtin");

        // --- email (Section 4.4.1, Q8) ---
        registry
            .define(
                EMAILMESSAGE,
                Constraints {
                    tuple: Emptiness::MustBeNonEmpty,
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .define(
                MAILFOLDER,
                Constraints {
                    name: Emptiness::MustBeNonEmpty,
                    ordered_members: Some(false),
                    ..Constraints::default()
                },
            )
            .expect("builtin");
        registry
            .specialize(ATTACHMENT, file, Constraints::default())
            .expect("builtin");
    }
}

#[cfg(test)]
mod tests {
    use super::builtin::names;
    use super::*;

    #[test]
    fn builtins_register_and_resolve() {
        let reg = ClassRegistry::with_builtins();
        for name in [
            names::FILE,
            names::FOLDER,
            names::TUPLE,
            names::RELATION,
            names::RELDB,
            names::XMLTEXT,
            names::XMLELEM,
            names::XMLDOC,
            names::XMLFILE,
            names::DATSTREAM,
            names::TUPSTREAM,
            names::RSSATOM,
            names::AXML,
            names::LATEX_SECTION,
            names::FIGURE,
            names::TEXREF,
            names::EMAILMESSAGE,
        ] {
            let id = reg.lookup(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(reg.name(id), name);
        }
    }

    #[test]
    fn duplicate_registration_rejected() {
        let reg = ClassRegistry::with_builtins();
        assert!(reg.define("file", Constraints::default()).is_err());
    }

    #[test]
    fn specialization_hierarchy() {
        let reg = ClassRegistry::with_builtins();
        let file = reg.lookup(names::FILE).unwrap();
        let xmlfile = reg.lookup(names::XMLFILE).unwrap();
        let folder = reg.lookup(names::FOLDER).unwrap();
        assert!(reg.is_subclass(xmlfile, file), "xmlfile ⊑ file");
        assert!(reg.is_subclass(file, file));
        assert!(!reg.is_subclass(file, xmlfile));
        assert!(!reg.is_subclass(xmlfile, folder));
        assert_eq!(reg.ancestry(xmlfile), vec![xmlfile, file]);
    }

    #[test]
    fn tupstream_specializes_datstream() {
        let reg = ClassRegistry::with_builtins();
        let dat = reg.lookup(names::DATSTREAM).unwrap();
        let tup = reg.lookup(names::TUPSTREAM).unwrap();
        let rss = reg.lookup(names::RSSATOM).unwrap();
        assert!(reg.is_subclass(tup, dat));
        assert!(reg.is_subclass(rss, dat));
    }

    #[test]
    fn unknown_class_lookup() {
        let reg = ClassRegistry::with_builtins();
        assert!(reg.lookup("nope").is_none());
        assert!(matches!(
            reg.require("nope"),
            Err(IdmError::UnknownClass(_))
        ));
    }

    #[test]
    fn user_defined_specialization() {
        let reg = ClassRegistry::with_builtins();
        let file = reg.lookup(names::FILE).unwrap();
        let custom = reg
            .specialize("pptfile", file, Constraints::default())
            .unwrap();
        assert!(reg.is_subclass(custom, file));
        assert_eq!(reg.name(custom), "pptfile");
    }
}
