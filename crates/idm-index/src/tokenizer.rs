//! The analyzer feeding the full-text indexes: lowercased alphanumeric
//! tokens with positions (positions make phrase queries possible).
//!
//! There is one token walk, the crate's `walk`. It writes a text's
//! tokens end to end into one buffer and records where each starts; the
//! content index's [`pretokenize`](crate::fulltext::pretokenize), the
//! phrase statistics and the query side's [`terms`] all read its output,
//! so an indexed term and a queried one cannot disagree on what a token
//! is.
//!
//! A text of at least 16 bytes that is all ASCII takes a table walk with
//! no branch per byte: each byte's lowercase (or 0 for a separator) is
//! written, the write index advances by whether it was a token byte, and
//! a start is recorded where a token byte follows a separator. Any other
//! text takes the `char` walk.

/// A text's tokens, lowercased: their bytes end to end in `text`, and
/// where each starts, with the end of the last one after them, so token
/// `i` is `text[starts[i]..starts[i + 1]]` and sits at position `i`.
#[derive(Debug)]
pub(crate) struct Tokens {
    pub(crate) text: String,
    pub(crate) starts: Vec<u32>,
}

impl Tokens {
    /// Number of tokens.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// The tokens, in position order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.starts
            .windows(2)
            .map(|w| &self.text[w[0] as usize..w[1] as usize])
    }
}

/// Each byte's lowercase if it is an ASCII alphanumeric, else 0.
const LOWER: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        if c.is_ascii_alphanumeric() {
            table[b] = c.to_ascii_lowercase();
        }
        b += 1;
    }
    table
};

/// Texts shorter than this take the `char` walk even when they are
/// ASCII: below it the table walk's two buffers, sized for the most
/// tokens the text could hold, cost more than its per-byte gain. Timed
/// per call after an ingest (shared 2-vCPU host), the table walk read
/// 106 ns against 86 ns for `"database"`, and 150 ns against 262 ns for
/// a 48-byte subject line.
const TABLE_WALK_MIN_LEN: usize = 16;

/// The token walk: maximal runs of alphanumeric characters, each char
/// lowercased by `char::to_lowercase`; everything else separates
/// tokens. A lowercased char is not re-checked (`'İ'` becomes
/// `"i\u{307}"`, and U+0307 is not alphanumeric), so tokenizing a term
/// again need not return it. A text's tokens must take under 4 GiB.
pub(crate) fn walk(text: &str) -> Tokens {
    let tokens = if text.len() >= TABLE_WALK_MIN_LEN && text.is_ascii() {
        walk_ascii(text.as_bytes())
    } else {
        walk_chars(text)
    };
    u32::try_from(tokens.text.len()).expect("a text's tokens take under 4 GiB");
    tokens
}

/// The walk over ASCII text, with no branch per byte. A token start
/// needs a separator before it unless it is the first, so there are at
/// most `⌈len / 2⌉` tokens and `starts` is sized for them up front.
/// Both buffers are collected from `repeat_n`, not made by `vec![0; n]`:
/// that is a zeroed allocation, which glibc serves past its per-thread
/// cache.
fn walk_ascii(text: &[u8]) -> Tokens {
    let mut out = std::iter::repeat_n(0u8, text.len()).collect::<Vec<_>>();
    let mut starts = std::iter::repeat_n(0u32, text.len().div_ceil(2) + 1).collect::<Vec<_>>();
    let (mut written, mut tokens, mut inside) = (0usize, 0usize, 0usize);
    for &byte in text {
        let lower = LOWER[usize::from(byte)];
        let token = usize::from(lower != 0);
        out[written] = lower;
        starts[tokens] = written as u32;
        tokens += token & !inside;
        written += token;
        inside = token;
    }
    out.truncate(written);
    starts.truncate(tokens);
    starts.push(written as u32);
    Tokens {
        text: String::from_utf8(out).expect("lowercase ASCII"),
        starts,
    }
}

/// The walk char by char, over text that is short or not all ASCII.
fn walk_chars(text: &str) -> Tokens {
    let mut buf = String::with_capacity(text.len());
    let mut starts = Vec::new();
    let mut start = 0;
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            buf.push(c.to_ascii_lowercase());
        } else if !c.is_ascii() && c.is_alphanumeric() {
            buf.extend(c.to_lowercase());
        } else if buf.len() > start {
            starts.push(start as u32);
            start = buf.len();
        }
    }
    if buf.len() > start {
        starts.push(start as u32);
    }
    starts.push(buf.len() as u32);
    Tokens { text: buf, starts }
}

/// Tokenizes a query phrase into its terms (no positions needed).
pub fn terms(text: &str) -> Vec<String> {
    walk(text).iter().map(str::to_owned).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_alphanumerics() {
        assert_eq!(
            terms("Show me: all LaTeX 'Introduction' sections!"),
            vec!["show", "me", "all", "latex", "introduction", "sections"]
        );
        let tokens = walk("Show me: all LaTeX");
        assert_eq!(tokens.text, "showmealllatex");
        assert_eq!(tokens.starts, vec![0, 4, 6, 9, 14]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(terms("VLDB 2006 paper"), vec!["vldb", "2006", "paper"]);
        assert_eq!(terms("vldb2006"), vec!["vldb2006"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        for text in ["", "!@# $%^", "— ¿!", "\0"] {
            let tokens = walk(text);
            assert_eq!(tokens.len(), 0, "{text:?}");
            assert_eq!(tokens.starts, vec![0], "{text:?}");
        }
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(terms("Zürich ETH"), vec!["zürich", "eth"]);
        assert_eq!(terms("İstanbul"), vec!["i\u{307}stanbul"]);
        assert_eq!(terms("i\u{307}stanbul"), vec!["i", "stanbul"]);
    }

    #[test]
    fn adjacent_positions_for_phrases() {
        let doc = crate::fulltext::pretokenize("database tuning guide").expect("tokens");
        let per_term: Vec<(&str, &[u32])> = doc.per_term().collect();
        assert_eq!(
            per_term,
            [("database", &[0][..]), ("guide", &[2]), ("tuning", &[1])]
        );
    }

    /// Both walks write the same tokens for text that either can take.
    #[test]
    fn the_ascii_walk_equals_the_char_walk() {
        for text in ["", "a", " a", "a ", "Ab-CD  e9\0Z", "...x.y..", "x\u{7f}y"] {
            let (ascii, chars) = (walk_ascii(text.as_bytes()), walk_chars(text));
            assert_eq!(ascii.text, chars.text, "{text:?}");
            assert_eq!(ascii.starts, chars.starts, "{text:?}");
        }
    }
}
