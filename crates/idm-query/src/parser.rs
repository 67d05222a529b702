//! The iQL parser: tokens → [`Query`] AST.
//!
//! Tokens borrow the query text and are read by copy; a string is
//! allocated only where the AST keeps one.

use idm_core::prelude::{IdmError, Result, Value};
use idm_index::name::NamePattern;
use idm_index::tuple::CompareOp;

use crate::ast::*;
use crate::lexer::{lex, Token};

/// Parses an iQL query string.
pub fn parse(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let query = parser.parse_query(true)?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("trailing tokens after query"));
    }
    Ok(query)
}

/// The value of a bare word literal: an integer, a float, a boolean or
/// else text. A word is a number only if it is digit-shaped (a digit or
/// `.` first, after an optional `-`), so `nan` and `Infinity` stay text.
pub(crate) fn word_value(word: &str) -> Value {
    let unsigned = word.strip_prefix('-').unwrap_or(word);
    if unsigned.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        if let Ok(i) = word.parse::<i64>() {
            return Value::Integer(i);
        }
        if let Ok(f) = word.parse::<f64>() {
            return Value::Float(f);
        }
    }
    if word.eq_ignore_ascii_case("true") || word.eq_ignore_ascii_case("false") {
        return Value::Boolean(word.eq_ignore_ascii_case("true"));
    }
    Value::Text(word.to_owned())
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

fn is_keyword(token: Token<'_>, keyword: &str) -> bool {
    matches!(token, Token::Word(w) if w.eq_ignore_ascii_case(keyword))
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> IdmError {
        IdmError::Parse {
            detail: format!(
                "iql: {} (at token {} of {})",
                message.into(),
                self.pos,
                self.tokens.len()
            ),
        }
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos + 1).copied()
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let token = self.peek();
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    fn expect(&mut self, token: Token<'_>, what: &str) -> Result<()> {
        if self.peek() == Some(token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    /// Parses a query. Only the top level accepts a bare predicate
    /// word; a union member or join input stops before its ',' or ')'.
    fn parse_query(&mut self, top: bool) -> Result<Query> {
        match self.peek() {
            Some(t) if is_keyword(t, "union") && self.peek2() == Some(Token::LParen) => {
                self.parse_union()
            }
            Some(t) if is_keyword(t, "join") && self.peek2() == Some(Token::LParen) => {
                self.parse_join()
            }
            Some(Token::DoubleSlash | Token::Slash) => Ok(Query::Path(self.parse_path()?)),
            Some(Token::LBracket) => {
                self.next();
                let pred = self.parse_pred_or()?;
                self.expect(Token::RBracket, "']'")?;
                Ok(Query::Filter(pred))
            }
            Some(Token::Phrase(_)) => Ok(Query::Filter(self.parse_pred_or()?)),
            Some(Token::Word(_)) if top => Ok(Query::Filter(self.parse_pred_or()?)),
            _ if top => Err(self.error("expected a query")),
            _ => Err(self.error("expected a subquery")),
        }
    }

    fn parse_union(&mut self) -> Result<Query> {
        self.next(); // union
        self.expect(Token::LParen, "'(' after union")?;
        let mut members = vec![self.parse_query(false)?];
        while self.peek() == Some(Token::Comma) {
            self.next();
            members.push(self.parse_query(false)?);
        }
        self.expect(Token::RParen, "')' closing union")?;
        if members.len() < 2 {
            return Err(self.error("union needs at least two members"));
        }
        Ok(Query::Union(members))
    }

    fn parse_join(&mut self) -> Result<Query> {
        self.next(); // join
        self.expect(Token::LParen, "'(' after join")?;
        let left = self.parse_query(false)?;
        let left_binding = self.parse_as_binding()?;
        self.expect(Token::Comma, "',' after first join input")?;
        let right = self.parse_query(false)?;
        let right_binding = self.parse_as_binding()?;
        self.expect(Token::Comma, "',' after second join input")?;
        let left_ref = self.parse_field_ref()?;
        self.expect(Token::Eq, "'=' in join condition")?;
        let right_ref = self.parse_field_ref()?;
        self.expect(Token::RParen, "')' closing join")?;
        Ok(Query::Join(Box::new(JoinExpr {
            left,
            left_binding,
            right,
            right_binding,
            condition: JoinCondition {
                left: left_ref,
                right: right_ref,
            },
        })))
    }

    fn parse_as_binding(&mut self) -> Result<String> {
        match self.next() {
            Some(t) if is_keyword(t, "as") => {}
            _ => return Err(self.error("expected 'as <binding>'")),
        }
        match self.next() {
            Some(Token::Word(w)) => Ok(w.to_owned()),
            _ => Err(self.error("expected a binding name after 'as'")),
        }
    }

    fn parse_field_ref(&mut self) -> Result<FieldRef> {
        let Some(Token::Word(word)) = self.next() else {
            return Err(self.error("expected a field reference like A.name"));
        };
        let mut parts = word.splitn(3, '.');
        let binding = parts
            .next()
            .filter(|b| !b.is_empty())
            .ok_or_else(|| self.error("field reference misses a binding"))?
            .to_owned();
        let field = match parts.next() {
            Some("name") => Field::Name,
            Some("class") => Field::Class,
            // Every dot-separated part of the attribute must be named.
            Some("tuple") => match parts.next() {
                Some(attr) if !attr.split('.').any(str::is_empty) => {
                    Field::TupleAttr(attr.to_owned())
                }
                _ => return Err(self.error("tuple field reference misses an attribute")),
            },
            Some(other) => {
                return Err(self.error(format!(
                    "unknown field '{other}' (expected name, class or tuple.<attr>)"
                )))
            }
            None => return Err(self.error("field reference misses a field")),
        };
        Ok(FieldRef { binding, field })
    }

    fn parse_path(&mut self) -> Result<PathExpr> {
        let mut steps = Vec::new();
        loop {
            let axis = match self.peek() {
                Some(Token::DoubleSlash) => Axis::Descendant,
                Some(Token::Slash) => Axis::Child,
                _ => break,
            };
            self.next();
            // Optional name pattern (absent before a bare predicate:
            // `//OLAP//[class="figure"]`).
            let name = match self.peek() {
                Some(t @ Token::Word(w)) if !is_keyword(t, "and") && !is_keyword(t, "or") => {
                    self.next();
                    NamePattern::new(w)
                }
                _ => NamePattern::new("*"),
            };
            let pred = if self.peek() == Some(Token::LBracket) {
                self.next();
                let pred = self.parse_pred_or()?;
                self.expect(Token::RBracket, "']' closing step predicate")?;
                Some(pred)
            } else {
                None
            };
            steps.push(Step { axis, name, pred });
        }
        if steps.is_empty() {
            return Err(self.error("empty path expression"));
        }
        Ok(PathExpr { steps })
    }

    fn parse_pred_or(&mut self) -> Result<Pred> {
        self.parse_pred_list("or", Self::parse_pred_and, Pred::Or)
    }

    fn parse_pred_and(&mut self) -> Result<Pred> {
        self.parse_pred_list("and", Self::parse_pred_atom, Pred::And)
    }

    /// Members joined by `keyword`; a single member is returned as is,
    /// without a list.
    fn parse_pred_list(
        &mut self,
        keyword: &str,
        member: fn(&mut Self) -> Result<Pred>,
        list: fn(Vec<Pred>) -> Pred,
    ) -> Result<Pred> {
        let first = member(self)?;
        if !self.peek().is_some_and(|t| is_keyword(t, keyword)) {
            return Ok(first);
        }
        let mut members = vec![first];
        while self.peek().is_some_and(|t| is_keyword(t, keyword)) {
            self.next();
            members.push(member(self)?);
        }
        Ok(list(members))
    }

    fn parse_pred_atom(&mut self) -> Result<Pred> {
        match self.peek() {
            Some(Token::Phrase(p)) => {
                self.next();
                Ok(Pred::Phrase(p.to_owned()))
            }
            Some(Token::LParen) => {
                self.next();
                let pred = self.parse_pred_or()?;
                self.expect(Token::RParen, "')' closing group")?;
                Ok(pred)
            }
            Some(t) if is_keyword(t, "not") => {
                self.next();
                Ok(Pred::Not(Box::new(self.parse_pred_atom()?)))
            }
            Some(Token::Word(attr)) => {
                self.next();
                let op = match self.next() {
                    Some(Token::Eq) => CompareOp::Eq,
                    Some(Token::Ne) => CompareOp::Ne,
                    Some(Token::Lt) => CompareOp::Lt,
                    Some(Token::Le) => CompareOp::Le,
                    Some(Token::Gt) => CompareOp::Gt,
                    Some(Token::Ge) => CompareOp::Ge,
                    _ => return Err(self.error(format!("expected an operator after '{attr}'"))),
                };
                let value = self.parse_literal()?;
                if attr.eq_ignore_ascii_case("class") {
                    // class="latex_section" is a class-conformance test.
                    return match (op, value) {
                        (CompareOp::Eq, Literal::Value(Value::Text(class))) => {
                            Ok(Pred::Class(class))
                        }
                        (CompareOp::Ne, Literal::Value(Value::Text(class))) => {
                            Ok(Pred::Not(Box::new(Pred::Class(class))))
                        }
                        _ => Err(self.error("class predicates support = and != with a string")),
                    };
                }
                Ok(Pred::Cmp {
                    attr: attr.to_owned(),
                    op,
                    value,
                })
            }
            _ => Err(self.error("expected a predicate")),
        }
    }

    fn parse_literal(&mut self) -> Result<Literal> {
        match self.next() {
            Some(Token::Phrase(s)) => Ok(Literal::Value(Value::Text(s.to_owned()))),
            Some(Token::Date(t)) => Ok(Literal::Value(Value::Date(t))),
            Some(Token::Word(w)) => {
                // Date function call?
                if self.peek() == Some(Token::LParen) && self.peek2() == Some(Token::RParen) {
                    let date_fn = [
                        ("yesterday", DateFn::Yesterday),
                        ("today", DateFn::Today),
                        ("now", DateFn::Now),
                    ]
                    .into_iter()
                    .find_map(|(name, date_fn)| w.eq_ignore_ascii_case(name).then_some(date_fn));
                    if let Some(date_fn) = date_fn {
                        self.next();
                        self.next();
                        return Ok(Literal::DateFn(date_fn));
                    }
                    return Err(self.error(format!("unknown function '{w}()'")));
                }
                Ok(Literal::Value(word_value(w)))
            }
            _ => Err(self.error("expected a literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::prelude::Timestamp;

    #[test]
    fn q1_bare_phrase() {
        let q = parse(r#""database""#).unwrap();
        assert_eq!(q, Query::Filter(Pred::Phrase("database".into())));
    }

    #[test]
    fn boolean_keyword_query() {
        let q = parse(r#""Donald" and "Knuth""#).unwrap();
        assert_eq!(
            q,
            Query::Filter(Pred::And(vec![
                Pred::Phrase("Donald".into()),
                Pred::Phrase("Knuth".into())
            ]))
        );
    }

    #[test]
    fn q3_attribute_predicate() {
        let q = parse("[size > 420000 and lastmodified < @12.06.2005]").unwrap();
        let Query::Filter(Pred::And(members)) = q else {
            panic!("expected top-level AND filter");
        };
        assert_eq!(members.len(), 2);
        assert_eq!(
            members[0],
            Pred::Cmp {
                attr: "size".into(),
                op: CompareOp::Gt,
                value: Literal::Value(Value::Integer(420_000))
            }
        );
        assert_eq!(
            members[1],
            Pred::Cmp {
                attr: "lastmodified".into(),
                op: CompareOp::Lt,
                value: Literal::Value(Value::Date(Timestamp::from_ymd(2005, 6, 12).unwrap()))
            }
        );
    }

    #[test]
    fn yesterday_function() {
        let q = parse("[size > 42000 and lastmodified < yesterday()]").unwrap();
        let Query::Filter(Pred::And(members)) = q else {
            panic!()
        };
        assert_eq!(
            members[1],
            Pred::Cmp {
                attr: "lastmodified".into(),
                op: CompareOp::Lt,
                value: Literal::DateFn(DateFn::Yesterday)
            }
        );
    }

    #[test]
    fn q4_path_with_child_step() {
        let q = parse(r#"//papers//*Vision/*["Franklin"]"#).unwrap();
        let Query::Path(path) = q else { panic!() };
        assert_eq!(path.steps.len(), 3);
        assert_eq!(path.steps[0].axis, Axis::Descendant);
        assert_eq!(path.steps[0].name.as_str(), "papers");
        assert_eq!(path.steps[1].name.as_str(), "*Vision");
        assert_eq!(path.steps[2].axis, Axis::Child);
        assert_eq!(path.steps[2].name.as_str(), "*");
        assert_eq!(path.steps[2].pred, Some(Pred::Phrase("Franklin".into())));
    }

    #[test]
    fn section_5_1_mike_franklin_query() {
        let q = parse(r#"//PIM//Introduction[class="latex_section" and "Mike Franklin"]"#).unwrap();
        let Query::Path(path) = q else { panic!() };
        assert_eq!(path.steps.len(), 2);
        assert_eq!(
            path.steps[1].pred,
            Some(Pred::And(vec![
                Pred::Class("latex_section".into()),
                Pred::Phrase("Mike Franklin".into())
            ]))
        );
    }

    #[test]
    fn olap_query_with_bare_predicate_step() {
        let q = parse(r#"//OLAP//[class="figure" and "Indexing time"]"#).unwrap();
        let Query::Path(path) = q else { panic!() };
        assert_eq!(path.steps.len(), 2);
        assert_eq!(path.steps[1].name.as_str(), "*");
        assert!(path.steps[1].pred.is_some());
    }

    #[test]
    fn q6_union() {
        let q = parse(r#"union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])"#).unwrap();
        let Query::Union(members) = q else { panic!() };
        assert_eq!(members.len(), 2);
        assert!(matches!(members[0], Query::Path(_)));
    }

    #[test]
    fn q7_join_on_tuple_attr() {
        let q = parse(
            r#"join( //VLDB2006//*[class="texref"] as A,
                     //VLDB2006//*[class="environment"]//figure* as B,
                     A.name=B.tuple.label)"#,
        )
        .unwrap();
        let Query::Join(join) = q else { panic!() };
        assert_eq!(join.left_binding, "A");
        assert_eq!(join.right_binding, "B");
        assert_eq!(join.condition.left.field, Field::Name);
        assert_eq!(join.condition.right.field, Field::TupleAttr("label".into()));
        let Query::Path(right) = &join.right else {
            panic!()
        };
        assert_eq!(right.steps.len(), 3);
        assert_eq!(right.steps[2].name.as_str(), "figure*");
    }

    #[test]
    fn q8_join_on_names() {
        let q = parse(
            r#"join ( //*[class = "emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
        )
        .unwrap();
        let Query::Join(join) = q else { panic!() };
        assert_eq!(join.condition.left.field, Field::Name);
        assert_eq!(join.condition.right.field, Field::Name);
        let Query::Path(left) = &join.left else {
            panic!()
        };
        assert_eq!(left.steps[0].name.as_str(), "*");
        assert_eq!(left.steps[0].pred, Some(Pred::Class("emailmessage".into())));
        assert_eq!(left.steps[1].name.as_str(), "*.tex");
    }

    #[test]
    fn not_and_parens() {
        let q = parse(r#"["a" and not ("b" or class="file")]"#).unwrap();
        let Query::Filter(Pred::And(members)) = q else {
            panic!()
        };
        assert_eq!(members[0], Pred::Phrase("a".into()));
        let Pred::Not(inner) = &members[1] else {
            panic!()
        };
        let Pred::Or(ors) = inner.as_ref() else {
            panic!()
        };
        assert_eq!(ors.len(), 2);
        assert_eq!(ors[1], Pred::Class("file".into()));
    }

    #[test]
    fn only_digit_shaped_words_are_numbers() {
        let value_of = |text: &str| match parse(&format!("[x = {text}]")).unwrap() {
            Query::Filter(Pred::Cmp { value, .. }) => value,
            other => panic!("{other:?}"),
        };
        for special in ["nan", "NaN", "inf", "Infinity", "-inf", "infinity"] {
            assert_eq!(
                value_of(special),
                Literal::Value(Value::Text(special.into())),
                "{special}"
            );
        }
        assert_eq!(value_of("1e3"), Literal::Value(Value::Float(1000.0)));
        assert_eq!(value_of("-0.5"), Literal::Value(Value::Float(-0.5)));
        assert_eq!(value_of(".5"), Literal::Value(Value::Float(0.5)));
        assert_eq!(value_of("420000"), Literal::Value(Value::Integer(420_000)));
        assert_eq!(value_of("false"), Literal::Value(Value::Boolean(false)));
        assert_eq!(value_of("v1.2"), Literal::Value(Value::Text("v1.2".into())));
    }

    #[test]
    fn tuple_field_references_name_every_attribute_part() {
        let field = |cond: &str| {
            parse(&format!("join(//a as A, //b as B, {cond})")).map(|q| match q {
                Query::Join(join) => join.condition.right.field,
                other => panic!("{other:?}"),
            })
        };
        assert_eq!(
            field("A.name = B.tuple.label").unwrap(),
            Field::TupleAttr("label".into())
        );
        assert_eq!(
            field("A.name = B.tuple.a.b").unwrap(),
            Field::TupleAttr("a.b".into())
        );
        for bad in [
            "B.tuple",
            "B.tuple.",
            "B.tuple..x",
            "B.tuple.x.",
            "B.tuple.x..y",
        ] {
            let err = field(&format!("A.name = {bad}")).unwrap_err().to_string();
            assert!(err.contains("misses an attribute"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse("").is_err());
        assert!(parse("//a trailing").is_err());
        assert!(parse("union(//a)").is_err());
        assert!(parse("join(//a as A, //b as B, A.bogus = B.name)").is_err());
        assert!(parse("[size >]").is_err());
        assert!(parse("[class > \"file\"]").is_err());
        assert!(parse("[size = unknownfn()]").is_err());
    }
}
