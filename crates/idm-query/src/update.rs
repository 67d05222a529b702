//! iQL update statements.
//!
//! Section 5.1: "in contrast to NEXI, however, iQL will include
//! features important for a PDSMS, such as support for updates." This
//! module implements that extension:
//!
//! ```text
//! update <query> set name = "new name"
//! update <query> set <attr> = <literal>     -- tuple component attribute
//! update <query> set class = "classname"
//! delete <query>
//! ```
//!
//! The target `<query>` is any read query; updates apply to every
//! result view and write through to the store **and** the index bundle,
//! so subsequent queries observe the change immediately.

use idm_core::prelude::*;

use crate::ast::Query;
use crate::exec::{resolve_attr, QueryProcessor};
use crate::lexer::{lex, Token};
use crate::parser::{parse, word_value};

/// A parsed update statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStatement {
    /// The views to update.
    pub target: Query,
    /// What to do to them.
    pub action: UpdateAction,
}

/// The supported update actions.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateAction {
    /// Replace the name component (`set name = "…"`).
    SetName(String),
    /// Set (or add) one tuple component attribute (`set size = 42`).
    SetAttr {
        /// Attribute name (aliases resolved like in predicates).
        attr: String,
        /// The new value.
        value: Value,
    },
    /// Re-classify the view (`set class = "file"`).
    SetClass(String),
    /// Remove the views (and their index entries).
    Delete,
}

/// What an update did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Views the target query matched.
    pub matched: usize,
    /// Views actually modified/removed.
    pub applied: usize,
}

/// Parses an update statement (`update … set …` or `delete …`).
pub fn parse_update(input: &str) -> Result<UpdateStatement> {
    let trimmed = input.trim_start();
    let lower = trimmed.to_ascii_lowercase();
    if let Some(rest) = lower
        .strip_prefix("delete")
        .and_then(|r| r.starts_with([' ', '/', '[', '"']).then_some(r))
    {
        let offset = trimmed.len() - rest.len();
        let target = parse(trimmed[offset..].trim())?;
        return Ok(UpdateStatement {
            target,
            action: UpdateAction::Delete,
        });
    }
    let Some(rest) = lower.strip_prefix("update") else {
        return Err(IdmError::Parse {
            detail: "iql: expected 'update …' or 'delete …'".into(),
        });
    };
    if !rest.starts_with([' ', '/', '[', '"']) {
        return Err(IdmError::Parse {
            detail: "iql: expected 'update …' or 'delete …'".into(),
        });
    }
    // Split at the LAST top-level " set " (query text cannot contain the
    // bare keyword outside strings; find it via the lexer).
    let body = &trimmed[trimmed.len() - rest.len()..];
    let set_pos = find_set_keyword(body)?;
    let target = parse(body[..set_pos].trim())?;
    let assignment = body[set_pos + 3..].trim();
    let action = parse_assignment(assignment)?;
    Ok(UpdateStatement { target, action })
}

/// Finds the byte offset of the `set` keyword at the top level of the
/// statement body (not inside a quoted phrase).
fn find_set_keyword(body: &str) -> Result<usize> {
    let bytes = body.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_string = !in_string,
            b's' | b'S' if !in_string => {
                let end = i + 3;
                if end <= bytes.len()
                    && body[i..end].eq_ignore_ascii_case("set")
                    && i > 0
                    && bytes[i - 1].is_ascii_whitespace()
                    && (end == bytes.len() || bytes[end].is_ascii_whitespace())
                {
                    return Ok(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    Err(IdmError::Parse {
        detail: "iql: update statement misses 'set'".into(),
    })
}

fn parse_assignment(text: &str) -> Result<UpdateAction> {
    let tokens = lex(text)?;
    let (attr, value_tokens) = match tokens.split_first() {
        Some((Token::Word(attr), [Token::Eq, rest @ ..])) => (attr.to_string(), rest),
        _ => {
            return Err(IdmError::Parse {
                detail: format!("iql: expected '<attr> = <literal>' after set, got '{text}'"),
            })
        }
    };
    let value = match value_tokens {
        [Token::Phrase(s)] => Value::Text(s.to_string()),
        [Token::Date(t)] => Value::Date(*t),
        [Token::Word(w)] => word_value(w),
        _ => {
            return Err(IdmError::Parse {
                detail: format!("iql: expected one literal after '=', got '{text}'"),
            })
        }
    };
    Ok(match attr.to_ascii_lowercase().as_str() {
        "name" => match value {
            Value::Text(name) => UpdateAction::SetName(name),
            other => {
                return Err(IdmError::Parse {
                    detail: format!("iql: name must be a string, got {other}"),
                })
            }
        },
        "class" => match value {
            Value::Text(class) => UpdateAction::SetClass(class),
            other => {
                return Err(IdmError::Parse {
                    detail: format!("iql: class must be a string, got {other}"),
                })
            }
        },
        _ => UpdateAction::SetAttr { attr, value },
    })
}

impl QueryProcessor {
    /// Parses and applies an update statement; returns what happened.
    pub fn execute_update(&self, iql: &str) -> Result<UpdateOutcome> {
        let statement = parse_update(iql)?;
        self.apply_update(&statement)
    }

    /// Applies a parsed update statement. The target query runs through
    /// the same plan pipeline as reads — `explain` on the target shows
    /// exactly how the update located its victims.
    pub fn apply_update(&self, statement: &UpdateStatement) -> Result<UpdateOutcome> {
        let plan = self.plan(&statement.target)?;
        let targets = self.execute_plan(&plan)?.rows.views();
        let mut outcome = UpdateOutcome {
            matched: targets.len(),
            applied: 0,
        };
        let store = self.view_store();
        let indexes = self.index_bundle();
        for vid in targets {
            match &statement.action {
                UpdateAction::SetName(name) => {
                    store.set_name(vid, Some(name.clone()))?;
                }
                UpdateAction::SetAttr { attr, value } => {
                    let attr = resolve_attr(attr);
                    let old = store.tuple(vid)?;
                    let mut pairs: Vec<(String, Value)> = old
                        .map(|t| t.iter().map(|(a, v)| (a.name.clone(), v.clone())).collect())
                        .unwrap_or_default();
                    match pairs.iter_mut().find(|(a, _)| *a == attr) {
                        Some(pair) => pair.1 = value.clone(),
                        None => pairs.push((attr.clone(), value.clone())),
                    }
                    let tuple = TupleComponent::of(
                        pairs.iter().map(|(a, v)| (a.as_str(), v.clone())).collect(),
                    );
                    store.set_tuple(vid, Some(tuple))?;
                }
                UpdateAction::SetClass(class) => {
                    let class_id = store.classes().require(class)?;
                    store.set_class(vid, Some(class_id))?;
                }
                UpdateAction::Delete => {
                    // A view goes with the views it owns: what its
                    // conversion minted.
                    let mut gone = store.owned(vid);
                    gone.push(vid);
                    indexes.remove_views(&gone);
                    for view in gone {
                        if store.contains(view) {
                            store.remove(view)?;
                        }
                    }
                    outcome.applied += 1;
                    continue;
                }
            }
            // Write-through: refresh every index entry for the view.
            let source = indexes
                .catalog
                .entry(vid)
                .map(|e| e.source)
                .unwrap_or_else(|| "updated".to_owned());
            indexes.remove_view(vid);
            indexes.index_view(store, vid, &source)?;
            outcome.applied += 1;
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_index::IndexBundle;
    use std::sync::Arc;

    fn space() -> QueryProcessor {
        let store = Arc::new(ViewStore::new());
        let indexes = Arc::new(IndexBundle::new());
        store
            .build("draft.tex")
            .tuple(TupleComponent::of(vec![("size", Value::Integer(10))]))
            .text("early draft about dataspaces")
            .class_named("file")
            .insert();
        store
            .build("final.tex")
            .tuple(TupleComponent::of(vec![("size", Value::Integer(99))]))
            .text("camera ready")
            .class_named("file")
            .insert();
        for vid in store.vids() {
            indexes.index_view(&store, vid, "filesystem").unwrap();
        }
        QueryProcessor::new(store, indexes)
    }

    #[test]
    fn parse_shapes() {
        let s = parse_update(r#"update //draft.tex set name = "renamed.tex""#).unwrap();
        assert_eq!(s.action, UpdateAction::SetName("renamed.tex".into()));
        let s = parse_update(r#"update //a set size = 42"#).unwrap();
        assert_eq!(
            s.action,
            UpdateAction::SetAttr {
                attr: "size".into(),
                value: Value::Integer(42)
            }
        );
        let s = parse_update(r#"update //a set class = "folder""#).unwrap();
        assert_eq!(s.action, UpdateAction::SetClass("folder".into()));
        let s = parse_update(r#"delete //a["x"]"#).unwrap();
        assert_eq!(s.action, UpdateAction::Delete);

        assert!(parse_update("select nothing").is_err());
        assert!(parse_update("update //a").is_err());
        assert!(parse_update("update //a set").is_err());
        assert!(parse_update(r#"update //a set name = 42"#).is_err());
        // 'set' inside a phrase is not the keyword.
        assert!(parse_update(r#"update //a[" set "]"#).is_err());
    }

    #[test]
    fn only_digit_shaped_words_are_numbers() {
        let value_of = |text: &str| match parse_update(&format!("update //a set x = {text}"))
            .unwrap()
            .action
        {
            UpdateAction::SetAttr { value, .. } => value,
            other => panic!("{other:?}"),
        };
        for special in ["nan", "NaN", "inf", "Infinity", "-inf", "infinity"] {
            assert_eq!(value_of(special), Value::Text(special.into()), "{special}");
        }
        assert_eq!(value_of("1e3"), Value::Float(1000.0));
        assert_eq!(value_of("-0.5"), Value::Float(-0.5));
        assert_eq!(value_of("420000"), Value::Integer(420_000));
        assert_eq!(value_of("TRUE"), Value::Boolean(true));
        let p = space();
        p.execute_update("update //draft.tex set title = Infinity")
            .unwrap();
        assert_eq!(
            p.execute(r#"[title = "Infinity"]"#).unwrap().rows.len(),
            1,
            "stored as text"
        );
    }

    #[test]
    fn rename_writes_through_to_indexes() {
        let p = space();
        let outcome = p
            .execute_update(r#"update //draft.tex set name = "renamed.tex""#)
            .unwrap();
        assert_eq!(
            outcome,
            UpdateOutcome {
                matched: 1,
                applied: 1
            }
        );
        assert_eq!(p.execute("//draft.tex").unwrap().rows.len(), 0);
        assert_eq!(p.execute("//renamed.tex").unwrap().rows.len(), 1);
        // Content search still finds it.
        assert_eq!(p.execute(r#""early draft""#).unwrap().rows.len(), 1);
    }

    #[test]
    fn attribute_updates_are_queryable() {
        let p = space();
        p.execute_update("update //draft.tex set size = 500000")
            .unwrap();
        assert_eq!(p.execute("[size > 420000]").unwrap().rows.len(), 1);
        // Adding a brand-new attribute works too (per-tuple schemas!).
        p.execute_update(r#"update //draft.tex set project = "PIM""#)
            .unwrap();
        assert_eq!(p.execute(r#"[project = "PIM"]"#).unwrap().rows.len(), 1);
    }

    #[test]
    fn class_updates_respect_registry() {
        let p = space();
        p.execute_update(r#"update //final.tex set class = "latexfile""#)
            .unwrap();
        assert_eq!(p.execute(r#"[class = "latexfile"]"#).unwrap().rows.len(), 1);
        // Still a file by specialization.
        assert_eq!(p.execute(r#"[class = "file"]"#).unwrap().rows.len(), 2);
        assert!(p
            .execute_update(r#"update //final.tex set class = "no-such""#)
            .is_err());
    }

    #[test]
    fn delete_removes_everywhere() {
        let p = space();
        let outcome = p.execute_update(r#"delete //*["camera ready"]"#).unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(p.execute("//final.tex").unwrap().rows.len(), 0);
        assert_eq!(p.execute(r#""camera ready""#).unwrap().rows.len(), 0);
        assert_eq!(p.index_bundle().catalog.len(), p.view_store().len());
    }

    #[test]
    fn delete_takes_the_views_the_target_owns() {
        let p = space();
        let store = p.view_store();
        let draft = p.execute("//draft.tex").unwrap().rows.views()[0];
        let section = store
            .build("Drafting")
            .text("owned section")
            .owner(Some(draft))
            .insert();
        p.index_bundle()
            .index_view(store, section, "filesystem")
            .unwrap();
        let outcome = p.execute_update("delete //draft.tex").unwrap();
        assert_eq!(outcome.applied, 1);
        assert!(!store.contains(section));
        assert_eq!(p.execute(r#""owned section""#).unwrap().rows.len(), 0);
        assert_eq!(p.index_bundle().catalog.len(), store.len());
        assert!(store.verify_invariants().is_ok());
    }

    #[test]
    fn zero_match_updates_are_noops() {
        let p = space();
        let outcome = p
            .execute_update(r#"update //ghost.tex set name = "x""#)
            .unwrap();
        assert_eq!(outcome, UpdateOutcome::default());
    }
}
