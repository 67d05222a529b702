//! The analyzer feeding the full-text indexes: lowercased alphanumeric
//! tokens with positions (positions make phrase queries possible).
//!
//! There is one token walk, the private `walk`. The content index's
//! [`pretokenize`](crate::fulltext::pretokenize), [`tokenize`] and the
//! query side's [`terms`] all read its output, so an indexed term and a
//! queried one cannot disagree on what a token is.

/// A token: the normalized term and its position in the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lowercased term text.
    pub term: String,
    /// 0-based position in the document's token stream.
    pub position: u32,
}

/// The token walk: maximal runs of alphanumeric characters, each char
/// lowercased by `char::to_lowercase`; everything else separates
/// tokens. Appends each token's lowercased text to `buf` and calls
/// `emit` with it and where it starts in `buf`; the n-th call is the
/// token at position n. A lowercased char is not re-checked (`'İ'`
/// becomes `"i\u{307}"`, and U+0307 is not alphanumeric), so
/// tokenizing a term again need not return it.
pub(crate) fn walk(text: &str, buf: &mut String, mut emit: impl FnMut(&str, usize)) {
    let mut start = buf.len();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            buf.push(c.to_ascii_lowercase());
        } else if !c.is_ascii() && c.is_alphanumeric() {
            buf.extend(c.to_lowercase());
        } else if buf.len() > start {
            emit(&buf[start..], start);
            start = buf.len();
        }
    }
    if buf.len() > start {
        emit(&buf[start..], start);
    }
}

/// Tokenizes text into its tokens, in order.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    walk(text, &mut String::new(), |term, _| {
        let position = u32::try_from(tokens.len()).expect("fewer than 2^32 tokens");
        tokens.push(Token {
            term: term.to_owned(),
            position,
        });
    });
    tokens
}

/// Tokenizes a query phrase into its terms (no positions needed).
pub fn terms(text: &str) -> Vec<String> {
    let mut terms = Vec::new();
    walk(text, &mut String::new(), |term, _| {
        terms.push(term.to_owned())
    });
    terms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_alphanumerics() {
        let tokens = tokenize("Show me: all LaTeX 'Introduction' sections!");
        let terms: Vec<&str> = tokens.iter().map(|t| t.term.as_str()).collect();
        assert_eq!(
            terms,
            vec!["show", "me", "all", "latex", "introduction", "sections"]
        );
        let positions: Vec<u32> = tokens.iter().map(|t| t.position).collect();
        assert_eq!(positions, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(terms("VLDB 2006 paper"), vec!["vldb", "2006", "paper"]);
        assert_eq!(terms("vldb2006"), vec!["vldb2006"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!@# $%^").is_empty());
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(terms("Zürich ETH"), vec!["zürich", "eth"]);
        assert_eq!(terms("İstanbul"), vec!["i\u{307}stanbul"]);
        assert_eq!(terms("i\u{307}stanbul"), vec!["i", "stanbul"]);
    }

    #[test]
    fn adjacent_positions_for_phrases() {
        let tokens = tokenize("database tuning guide");
        assert_eq!(tokens[0].position + 1, tokens[1].position);
        assert_eq!(tokens[1].position + 1, tokens[2].position);
    }
}
