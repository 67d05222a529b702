//! # idm-relational — relational data for the iMeMex dataspace
//!
//! A minimal relational store (schemas, relations, tuples) and its iDM
//! instantiation per Table 1 of the paper:
//!
//! - a stored tuple becomes a `tuple` view whose `τ = (W_R, t_i)`,
//! - a relation becomes a `relation` view named `N_R` whose set `S`
//!   holds its tuple views,
//! - a database becomes a `reldb` view named `N_DB` over its relations.
//!
//! The paper notes that a view defined over DB tables is *intensional*
//! data even when materialized; [`convert::relation_to_views_lazily`]
//! exhibits exactly that: the relation's group component is computed on
//! first access from the store's current contents.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;
use std::sync::Arc;

use idm_core::prelude::*;
use parking_lot::RwLock;

/// A relation: a named set of tuples sharing one schema `W_R`.
pub struct Relation {
    name: String,
    schema: Schema,
    tuples: RwLock<Vec<Vec<Value>>>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            tuples: RwLock::new(Vec::new()),
        }
    }

    /// The relation name `N_R`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema `W_R`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Inserts a tuple after validating it against `W_R`.
    pub fn insert(&self, values: Vec<Value>) -> Result<()> {
        // TupleComponent::new performs the arity/domain validation.
        TupleComponent::new(self.schema.clone(), values.clone())?;
        self.tuples.write().push(values);
        Ok(())
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.read().len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all tuples.
    pub fn scan(&self) -> Vec<Vec<Value>> {
        self.tuples.read().clone()
    }

    /// Tuples for which `predicate` holds on the named attribute.
    pub fn select(&self, attr: &str, predicate: impl Fn(&Value) -> bool) -> Vec<Vec<Value>> {
        let Some(pos) = self.schema.position(attr) else {
            return Vec::new();
        };
        self.tuples
            .read()
            .iter()
            .filter(|t| predicate(&t[pos]))
            .cloned()
            .collect()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("name", &self.name)
            .field("arity", &self.schema.arity())
            .field("tuples", &self.len())
            .finish()
    }
}

/// A named collection of relations.
pub struct RelationalDb {
    name: String,
    relations: RwLock<Vec<Arc<Relation>>>,
}

impl RelationalDb {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        RelationalDb {
            name: name.into(),
            relations: RwLock::new(Vec::new()),
        }
    }

    /// The database name `N_DB`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a relation; errors if the name is taken.
    pub fn create_relation(&self, name: &str, schema: Schema) -> Result<Arc<Relation>> {
        let mut relations = self.relations.write();
        if relations.iter().any(|r| r.name() == name) {
            return Err(IdmError::Parse {
                detail: format!("relation '{name}' already exists"),
            });
        }
        let relation = Arc::new(Relation::new(name, schema));
        relations.push(Arc::clone(&relation));
        Ok(relation)
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        self.relations
            .read()
            .iter()
            .find(|r| r.name() == name)
            .cloned()
    }

    /// All relations.
    pub fn relations(&self) -> Vec<Arc<Relation>> {
        self.relations.read().clone()
    }
}

/// Instantiation of relational data in iDM.
pub mod convert {
    use super::*;
    use idm_core::class::builtin::names;

    /// Builds a `tuple` view for one stored tuple.
    pub fn tuple_to_view(store: &ViewStore, schema: &Schema, values: Vec<Value>) -> Result<Vid> {
        let tau = TupleComponent::new(schema.clone(), values)?;
        let class = store.classes().require(names::TUPLE)?;
        Ok(store.build_unnamed().tuple(tau).class(class).insert())
    }

    /// Eagerly instantiates a relation and its tuples.
    pub fn relation_to_views(store: &ViewStore, relation: &Relation) -> Result<Vid> {
        let class = store.classes().require(names::RELATION)?;
        let mut members = Vec::with_capacity(relation.len());
        for values in relation.scan() {
            members.push(tuple_to_view(store, relation.schema(), values)?);
        }
        Ok(store
            .build(relation.name().to_owned())
            .children(members)
            .class(class)
            .insert())
    }

    /// Lazily instantiates a relation: the `relation` view's group is an
    /// intensional component materialized from the store's contents at
    /// first access (Section 4.3 — even a materialized view remains
    /// logically intensional).
    pub fn relation_to_views_lazily(store: &ViewStore, relation: Arc<Relation>) -> Result<Vid> {
        let class = store.classes().require(names::RELATION)?;
        let name = relation.name().to_owned();
        let provider = Arc::new(move |store: &ViewStore, _owner: Vid| {
            let mut members = Vec::with_capacity(relation.len());
            for values in relation.scan() {
                members.push(tuple_to_view(store, relation.schema(), values)?);
            }
            Ok(GroupData::of_set(members))
        });
        Ok(store
            .build(name)
            .group(Group::lazy(provider))
            .class(class)
            .insert())
    }

    /// Instantiates a whole database as a `reldb` view.
    pub fn database_to_views(store: &ViewStore, db: &RelationalDb) -> Result<Vid> {
        let class = store.classes().require(names::RELDB)?;
        let mut members = Vec::new();
        for relation in db.relations() {
            members.push(relation_to_views(store, &relation)?);
        }
        Ok(store
            .build(db.name().to_owned())
            .children(members)
            .class(class)
            .insert())
    }
}

#[cfg(test)]
mod tests {
    use super::convert::*;
    use super::*;
    use idm_core::class::builtin::names;

    fn people_schema() -> Schema {
        Schema::of(&[("name", Domain::Text), ("age", Domain::Integer)])
    }

    #[test]
    fn insert_validates_schema() {
        let r = Relation::new("people", people_schema());
        r.insert(vec![Value::Text("Mike".into()), Value::Integer(40)])
            .unwrap();
        assert!(r
            .insert(vec![Value::Integer(40), Value::Text("Mike".into())])
            .is_err());
        assert!(r.insert(vec![Value::Text("solo".into())]).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn select_filters() {
        let r = Relation::new("people", people_schema());
        for (name, age) in [("Mike", 40), ("Jens", 35), ("Ana", 28)] {
            r.insert(vec![Value::Text(name.into()), Value::Integer(age)])
                .unwrap();
        }
        let adults = r.select("age", |v| v.as_integer().unwrap_or(0) >= 35);
        assert_eq!(adults.len(), 2);
        assert!(r.select("missing", |_| true).is_empty());
    }

    #[test]
    fn db_rejects_duplicate_relations() {
        let db = RelationalDb::new("personal");
        db.create_relation("people", people_schema()).unwrap();
        assert!(db.create_relation("people", people_schema()).is_err());
        assert!(db.relation("people").is_some());
        assert!(db.relation("ghosts").is_none());
    }

    #[test]
    fn table_1_instantiation_validates() {
        let db = RelationalDb::new("contacts-db");
        let r = db.create_relation("contacts", people_schema()).unwrap();
        r.insert(vec![
            Value::Text("Mike Franklin".into()),
            Value::Integer(40),
        ])
        .unwrap();
        r.insert(vec![Value::Text("Don Knuth".into()), Value::Integer(67)])
            .unwrap();

        let store = ViewStore::new();
        let dbv = database_to_views(&store, &db).unwrap();
        assert!(store.conforms_to(dbv, names::RELDB).unwrap());
        validate(&store, dbv, ValidationMode::Deep).unwrap();

        let relations = store.group(dbv).unwrap().finite_members();
        assert_eq!(relations.len(), 1);
        let rel = relations[0];
        assert_eq!(store.name(rel).unwrap().as_deref(), Some("contacts"));
        validate(&store, rel, ValidationMode::Deep).unwrap();

        let tuples = store.group(rel).unwrap().finite_members();
        assert_eq!(tuples.len(), 2);
        for t in tuples {
            validate(&store, t, ValidationMode::Deep).unwrap();
            assert!(store.name(t).unwrap().is_none(), "tuple views unnamed");
            assert_eq!(store.tuple(t).unwrap().unwrap().schema(), &people_schema());
        }
    }

    #[test]
    fn lazy_relation_sees_later_inserts() {
        let store = ViewStore::new();
        let relation = Arc::new(Relation::new("live", people_schema()));
        let vid = relation_to_views_lazily(&store, Arc::clone(&relation)).unwrap();

        // Insert after the view exists but before first access.
        relation
            .insert(vec![Value::Text("Late".into()), Value::Integer(1)])
            .unwrap();
        let tuples = store.group(vid).unwrap().finite_members();
        assert_eq!(tuples.len(), 1, "intensional group saw the insert");

        // After materialization the group is cached (Section 4.3: a
        // materialized view is still logically intensional, but physical
        // refresh policy is orthogonal to the model).
        relation
            .insert(vec![Value::Text("Later".into()), Value::Integer(2)])
            .unwrap();
        assert_eq!(store.group(vid).unwrap().finite_members().len(), 1);
    }
}
