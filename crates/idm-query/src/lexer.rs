//! The iQL lexer.
//!
//! Words are maximal runs of name-pattern characters (letters, digits,
//! `_ * ? . : -`), which uniformly covers identifiers (`size`), keywords
//! (`union`), wildcard name patterns (`?onclusion*`, `*.tex`,
//! `VLDB200?`) and dotted field references (`B.tuple.label`, split by
//! the parser). Strings are double-quoted phrases; `@` introduces a date
//! literal (`@12.06.2005`).
//!
//! The lexer makes one pass over the query's bytes and decodes a char
//! only at a non-ASCII byte; words and phrases borrow the query text.

use idm_core::prelude::{IdmError, Result, Timestamp};

/// A lexical token, borrowing its text from the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// `//`
    DoubleSlash,
    /// `/`
    Slash,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// A double-quoted phrase (quotes stripped).
    Phrase(&'a str),
    /// A date literal `@dd.mm.yyyy`.
    Date(Timestamp),
    /// A word: identifier, keyword, number or name pattern.
    Word(&'a str),
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '*' | '?' | '.' | ':' | '-' | '\'')
}

/// The char starting at byte `at`, decoded only if it is not ASCII.
fn char_at(input: &str, at: usize) -> char {
    match input.as_bytes()[at] {
        b if b.is_ascii() => char::from(b),
        _ => input[at..]
            .chars()
            .next()
            .expect("tokens end on char boundaries"),
    }
}

/// Tokenizes an iQL query string.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    // An iQL token averages three bytes or more (`//` and a name, a
    // space and a keyword), so this is one allocation for most queries.
    let mut tokens = Vec::with_capacity(bytes.len() / 3 + 1);
    let mut i = 0usize;
    while i < bytes.len() {
        let followed_by = |b: u8| bytes.get(i + 1) == Some(&b);
        let (token, len) = match bytes[i] {
            b'/' if followed_by(b'/') => (Token::DoubleSlash, 2),
            b'/' => (Token::Slash, 1),
            b'[' => (Token::LBracket, 1),
            b']' => (Token::RBracket, 1),
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b',' => (Token::Comma, 1),
            b'=' => (Token::Eq, 1),
            b'!' if followed_by(b'=') => (Token::Ne, 2),
            b'!' => {
                return Err(IdmError::Parse {
                    detail: "iql: lone '!' (did you mean '!=' or 'not'?)".into(),
                })
            }
            b'<' if followed_by(b'=') => (Token::Le, 2),
            b'<' => (Token::Lt, 1),
            b'>' if followed_by(b'=') => (Token::Ge, 2),
            b'>' => (Token::Gt, 1),
            b'"' => {
                let Some(len) = bytes[i + 1..].iter().position(|&b| b == b'"') else {
                    return Err(IdmError::Parse {
                        detail: "iql: unterminated string".into(),
                    });
                };
                (Token::Phrase(&input[i + 1..i + 1 + len]), len + 2)
            }
            b'@' => {
                let len = bytes[i + 1..]
                    .iter()
                    .take_while(|&&b| b.is_ascii_digit() || b == b'.')
                    .count();
                let date = Timestamp::parse_dmy(&input[i + 1..i + 1 + len])?;
                (Token::Date(date), len + 1)
            }
            _ => {
                let c = char_at(input, i);
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                if !is_word_char(c) {
                    return Err(IdmError::Parse {
                        detail: format!("iql: unexpected character '{c}'"),
                    });
                }
                let mut end = i + c.len_utf8();
                while end < bytes.len() {
                    let c = char_at(input, end);
                    if !is_word_char(c) {
                        break;
                    }
                    end += c.len_utf8();
                }
                (Token::Word(&input[i..end]), end - i)
            }
        };
        tokens.push(token);
        i += len;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_q3_from_table_4() {
        let tokens = lex("[size > 420000 and lastmodified < @12.06.2005]").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::LBracket,
                Token::Word("size"),
                Token::Gt,
                Token::Word("420000"),
                Token::Word("and"),
                Token::Word("lastmodified"),
                Token::Lt,
                Token::Date(Timestamp::from_ymd(2005, 6, 12).unwrap()),
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn lexes_paths_and_wildcards() {
        let tokens = lex("//VLDB200?//?onclusion*/*[\"systems\"]").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::DoubleSlash,
                Token::Word("VLDB200?"),
                Token::DoubleSlash,
                Token::Word("?onclusion*"),
                Token::Slash,
                Token::Word("*"),
                Token::LBracket,
                Token::Phrase("systems"),
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn lexes_join_with_dotted_refs() {
        let tokens = lex("join( //a as A, //b as B, A.name=B.tuple.label)").unwrap();
        assert!(tokens.contains(&Token::Word("A.name")));
        assert!(tokens.contains(&Token::Word("B.tuple.label")));
    }

    #[test]
    fn comparison_operators() {
        let tokens = lex("a = b != c < d <= e > f >= g").unwrap();
        let ops: Vec<&Token> = tokens
            .iter()
            .filter(|t| !matches!(t, Token::Word(_)))
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::Eq,
                &Token::Ne,
                &Token::Lt,
                &Token::Le,
                &Token::Gt,
                &Token::Ge
            ]
        );
    }

    #[test]
    fn errors_on_garbage() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("#hash").is_err());
        assert!(lex("@99.99.9999").is_err());
    }

    #[test]
    fn filenames_with_spaces_need_quotes_but_patterns_allow_dots() {
        let tokens = lex("//papers//vldb-2006.tex").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::DoubleSlash,
                Token::Word("papers"),
                Token::DoubleSlash,
                Token::Word("vldb-2006.tex"),
            ]
        );
    }
}
