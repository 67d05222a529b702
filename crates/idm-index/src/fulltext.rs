//! A positional inverted keyword index (the Lucene stand-in).
//!
//! Supports single-term lookups, boolean AND/OR combinations and exact
//! phrase queries via positional intersection. The index is **not** a
//! replica: term positions cannot reconstruct the original content
//! (Section 5.2 makes this distinction explicitly).
//!
//! A change costs the terms it touches. The term dictionary is hashed,
//! so each term of an indexed or removed document is one lookup, and
//! each document keeps the list of its distinct terms, so removing it
//! visits those posting lists and no others, each by binary search.
//! What still grows with a list is the shift behind a posting inserted
//! or removed in its middle. Terms are put in order only on export, so
//! the persisted bytes never depend on hash order.

use std::collections::{HashMap, HashSet};

use idm_core::prelude::Vid;
use parking_lot::RwLock;

use crate::tokenizer::{terms, tokenize};
use crate::{remove_positions, VidMap};

/// A posting: one document (view) and the positions of a term within it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Posting {
    vid: Vid,
    positions: Box<[u32]>,
}

/// Ends each term in a document's term list. Terms are runs of
/// alphanumeric characters, so it never occurs inside one.
const TERM_END: char = '\0';

#[derive(Default)]
struct Inner {
    /// Term → postings sorted by vid; [`FullTextIndex::export_postings`]
    /// puts the terms in order.
    postings: HashMap<String, Vec<Posting>>,
    /// Document → its distinct terms, each followed by [`TERM_END`]:
    /// what removing the document has to visit.
    terms: VidMap<String>,
    /// Number of indexed documents.
    documents: usize,
    /// Total tokens indexed.
    tokens: u64,
}

/// Exported posting lists: `(term, [(vid, positions)])`.
pub type ExportedPostings = Vec<(String, Vec<(u64, Vec<u32>)>)>;

/// A document pre-tokenized off the index lock: its distinct terms in
/// ascending order, each with its positions, plus the total token count.
/// Built by [`pretokenize`] (possibly on a worker thread) and applied
/// with [`FullTextIndex::index_pretokenized`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PretokenizedDoc {
    per_term: Vec<(String, Box<[u32]>)>,
    tokens: u64,
}

/// Tokenizes `text` into the form [`FullTextIndex::index_pretokenized`]
/// consumes — the CPU-heavy half of indexing, safe to run in parallel
/// per document. Returns `None` when the text yields no tokens.
pub fn pretokenize(text: &str) -> Option<PretokenizedDoc> {
    let mut tokens = tokenize(text);
    if tokens.is_empty() {
        return None;
    }
    let count = tokens.len() as u64;
    // Stable, so each term's positions stay ascending; every position
    // list is then allocated once, at its size.
    tokens.sort_by(|a, b| a.term.cmp(&b.term));
    let per_term = tokens
        .chunk_by_mut(|a, b| a.term == b.term)
        .map(|run| {
            let positions = run.iter().map(|t| t.position).collect();
            (std::mem::take(&mut run[0].term), positions)
        })
        .collect();
    Some(PretokenizedDoc {
        per_term,
        tokens: count,
    })
}

/// The inverted full-text index.
#[derive(Default)]
pub struct FullTextIndex {
    inner: RwLock<Inner>,
}

impl FullTextIndex {
    /// An empty index.
    pub fn new() -> Self {
        FullTextIndex::default()
    }

    /// Indexes a document tokenized by [`pretokenize`] under `vid` — the
    /// cheap, lock-holding half of indexing, used by the segment merge.
    ///
    /// A vid must be indexed at most once; re-indexing requires
    /// [`FullTextIndex::remove`] first.
    pub fn index_pretokenized(&self, vid: Vid, doc: PretokenizedDoc) {
        let mut inner = self.inner.write();
        let Inner {
            postings,
            terms,
            documents,
            tokens,
        } = &mut *inner;
        *documents += 1;
        *tokens += doc.tokens;
        let held = terms.entry(vid).or_default();
        held.reserve_exact(doc.per_term.iter().map(|(t, _)| t.len() + 1).sum());
        for (term, positions) in doc.per_term {
            let listed = held.len();
            held.push_str(&term);
            held.push(TERM_END);
            let postings = postings.entry(term).or_default();
            // Insertion keeps vid order if vids are indexed in order;
            // otherwise insert at the right position.
            match postings.binary_search_by_key(&vid, |p| p.vid) {
                Ok(i) => {
                    // Indexed again without a removal: the term is
                    // listed already.
                    held.truncate(listed);
                    let posting = &mut postings[i];
                    posting.positions = [&posting.positions[..], &positions[..]].concat().into();
                }
                Err(i) => postings.insert(i, Posting { vid, positions }),
            }
        }
    }

    /// Removes a document from the index.
    pub fn remove(&self, vid: Vid) {
        self.remove_all(&[vid]);
    }

    /// Removes a set of documents, visiting only the terms their term
    /// lists name. Per term, the set's postings go in one pass: a
    /// binary search and a `remove` for one posting, one compaction from
    /// the first of several. Duplicates and vids never indexed are
    /// no-ops. What stays O(posting list) is shifting the postings
    /// behind a removed one.
    pub fn remove_all(&self, vids: &[Vid]) {
        let mut inner = self.inner.write();
        let Inner {
            postings,
            terms,
            documents,
            tokens,
        } = &mut *inner;
        let gone: Vec<(Vid, String)> = vids
            .iter()
            .filter_map(|&vid| terms.remove(&vid).map(|held| (vid, held)))
            .collect();
        *documents = documents.saturating_sub(gone.len());
        // (term, holder), grouped by term, holders ascending per term.
        let mut holders: Vec<(&str, Vid)> = gone
            .iter()
            .flat_map(|(vid, held)| held.split_terminator(TERM_END).map(|t| (t, *vid)))
            .collect();
        holders.sort_unstable();
        holders.dedup();
        let mut at: Vec<usize> = Vec::new();
        for run in holders.chunk_by(|a, b| a.0 == b.0) {
            let term = run[0].0;
            let Some(list) = postings.get_mut(term) else {
                continue;
            };
            at.clear();
            for &(_, vid) in run {
                if let Ok(i) = list.binary_search_by_key(&vid, |p| p.vid) {
                    *tokens = tokens.saturating_sub(list[i].positions.len() as u64);
                    at.push(i);
                }
            }
            remove_positions(list, &at);
            if list.is_empty() {
                postings.remove(term);
            }
        }
    }

    /// Documents containing `term` (normalized).
    pub fn term_query(&self, term: &str) -> Vec<Vid> {
        let normalized = terms(term);
        let Some(term) = normalized.first() else {
            return Vec::new();
        };
        let inner = self.inner.read();
        inner
            .postings
            .get(term)
            .map(|ps| ps.iter().map(|p| p.vid).collect())
            .unwrap_or_default()
    }

    /// Documents containing the exact phrase (terms at adjacent
    /// positions). A single-term phrase degrades to a term query.
    pub fn phrase_query(&self, phrase: &str) -> Vec<Vid> {
        let query_terms = terms(phrase);
        match query_terms.len() {
            0 => return Vec::new(),
            1 => return self.term_query(&query_terms[0]),
            _ => {}
        }
        let inner = self.inner.read();
        let mut lists: Vec<&Vec<Posting>> = Vec::with_capacity(query_terms.len());
        for term in &query_terms {
            match inner.postings.get(term) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        // Drive by the rarest list.
        let driver = lists
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.len())
            .map(|(i, _)| i)
            .unwrap_or(0);

        let mut out = Vec::new();
        'candidates: for posting in lists[driver] {
            let vid = posting.vid;
            // Gather positions of every term in this document.
            let mut doc_positions: Vec<&[u32]> = Vec::with_capacity(lists.len());
            for list in &lists {
                match list.binary_search_by_key(&vid, |p| p.vid) {
                    Ok(i) => doc_positions.push(&list[i].positions),
                    Err(_) => continue 'candidates,
                }
            }
            // Check adjacency: positions of term i must contain p0 + i.
            for &p0 in doc_positions[0] {
                if (1..doc_positions.len())
                    .all(|i| doc_positions[i].binary_search(&(p0 + i as u32)).is_ok())
                {
                    out.push(vid);
                    break;
                }
            }
        }
        out
    }

    /// Documents containing **all** the given phrases (boolean AND).
    pub fn all_of(&self, phrases: &[&str]) -> Vec<Vid> {
        let mut sets: Vec<HashSet<Vid>> = phrases
            .iter()
            .map(|p| self.phrase_query(p).into_iter().collect())
            .collect();
        let Some(mut acc) = sets.pop() else {
            return Vec::new();
        };
        for set in sets {
            acc.retain(|v| set.contains(v));
        }
        let mut out: Vec<Vid> = acc.into_iter().collect();
        out.sort();
        out
    }

    /// Documents containing **any** of the given phrases (boolean OR).
    pub fn any_of(&self, phrases: &[&str]) -> Vec<Vid> {
        let mut acc: HashSet<Vid> = HashSet::new();
        for phrase in phrases {
            acc.extend(self.phrase_query(phrase));
        }
        let mut out: Vec<Vid> = acc.into_iter().collect();
        out.sort();
        out
    }

    /// Exports the posting lists for persistence:
    /// `(term, [(vid, positions)])`, terms sorted, so the bytes written
    /// never depend on hash order.
    pub fn export_postings(&self) -> ExportedPostings {
        let inner = self.inner.read();
        let mut out: ExportedPostings = inner
            .postings
            .iter()
            .map(|(term, postings)| {
                (
                    term.clone(),
                    postings
                        .iter()
                        .map(|p| (p.vid.as_u64(), p.positions.to_vec()))
                        .collect(),
                )
            })
            .collect();
        out.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Rebuilds the index from exported postings (plus the document and
    /// token counters, which cannot be derived from postings alone).
    /// Each document's term list is derived here, in two hash passes
    /// over the postings: one sizes the lists, one fills them. Each
    /// posting list is expected vid-ascending without repeats, as
    /// [`FullTextIndex::export_postings`] writes it.
    pub fn import_postings(&self, postings: ExportedPostings, documents: usize, tokens: u64) {
        let mut sizes: VidMap<usize> = VidMap::default();
        for (term, list) in &postings {
            for &(vid, _) in list {
                *sizes.entry(Vid::from_raw(vid)).or_default() += term.len() + 1;
            }
        }
        let mut terms: VidMap<String> = sizes
            .into_iter()
            .map(|(vid, size)| (vid, String::with_capacity(size)))
            .collect();
        let postings = postings
            .into_iter()
            .map(|(term, list)| {
                let list = list
                    .into_iter()
                    .map(|(vid, positions)| {
                        let vid = Vid::from_raw(vid);
                        if let Some(held) = terms.get_mut(&vid) {
                            held.push_str(&term);
                            held.push(TERM_END);
                        }
                        Posting {
                            vid,
                            positions: positions.into_boxed_slice(),
                        }
                    })
                    .collect();
                (term, list)
            })
            .collect();
        *self.inner.write() = Inner {
            postings,
            terms,
            documents,
            tokens,
        };
    }

    /// Total indexed tokens (persistence counter).
    pub fn token_count(&self) -> u64 {
        self.inner.read().tokens
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.inner.read().postings.len()
    }

    /// How often `term` occurs in document `vid` (0 if absent).
    pub fn term_frequency(&self, vid: Vid, term: &str) -> usize {
        let normalized = terms(term);
        let Some(term) = normalized.first() else {
            return 0;
        };
        let inner = self.inner.read();
        inner
            .postings
            .get(term)
            .and_then(|postings| {
                postings
                    .binary_search_by_key(&vid, |p| p.vid)
                    .ok()
                    .map(|i| postings[i].positions.len())
            })
            .unwrap_or(0)
    }

    /// Number of documents containing `term` (document frequency).
    pub fn document_frequency(&self, term: &str) -> usize {
        let normalized = terms(term);
        let Some(term) = normalized.first() else {
            return 0;
        };
        self.inner
            .read()
            .postings
            .get(term)
            .map(Vec::len)
            .unwrap_or(0)
    }

    /// Number of indexed documents.
    pub fn document_count(&self) -> usize {
        self.inner.read().documents
    }

    /// Serialized index size in bytes, modeling the compressed on-disk
    /// layout real keyword indexes (like the paper's Lucene) use:
    /// delta-encoded varint document ids and positions per term.
    pub fn footprint_bytes(&self) -> usize {
        fn varint(v: u64) -> usize {
            (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
        }
        let inner = self.inner.read();
        inner
            .postings
            .iter()
            .map(|(term, postings)| {
                let mut bytes = term.len() + varint(postings.len() as u64) + 8;
                let mut prev_vid = 0u64;
                for posting in postings {
                    bytes += varint(posting.vid.as_u64().wrapping_sub(prev_vid));
                    prev_vid = posting.vid.as_u64();
                    bytes += varint(posting.positions.len() as u64);
                    let mut prev_pos = 0u32;
                    for &pos in &posting.positions {
                        bytes += varint(u64::from(pos.wrapping_sub(prev_pos)));
                        prev_pos = pos;
                    }
                }
                bytes
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: u64) -> Vid {
        Vid::from_raw(i)
    }

    /// Indexes `text` the way the segment merge does.
    fn index_text(index: &FullTextIndex, vid: Vid, text: &str) {
        if let Some(doc) = pretokenize(text) {
            index.index_pretokenized(vid, doc);
        }
    }

    fn sample() -> FullTextIndex {
        let index = FullTextIndex::new();
        index_text(&index, vid(1), "database systems and database tuning");
        index_text(&index, vid(2), "tuning a database");
        index_text(&index, vid(3), "the art of computer programming");
        index
    }

    #[test]
    fn term_query_finds_documents() {
        let index = sample();
        assert_eq!(index.term_query("database"), vec![vid(1), vid(2)]);
        assert_eq!(index.term_query("DATABASE"), vec![vid(1), vid(2)]);
        assert_eq!(index.term_query("tuning"), vec![vid(1), vid(2)]);
        assert!(index.term_query("nonexistent").is_empty());
    }

    #[test]
    fn phrase_query_requires_adjacency() {
        let index = sample();
        // "database tuning" is adjacent only in doc 1.
        assert_eq!(index.phrase_query("database tuning"), vec![vid(1)]);
        // Both words occur in doc 2 but not adjacently.
        assert!(index.phrase_query("database tuning").len() == 1);
        assert_eq!(index.phrase_query("tuning a database"), vec![vid(2)]);
        assert!(index.phrase_query("computer database").is_empty());
    }

    #[test]
    fn phrase_across_punctuation() {
        let index = FullTextIndex::new();
        index_text(&index, vid(7), "...phrase 'Mike Franklin' appears here");
        assert_eq!(index.phrase_query("Mike Franklin"), vec![vid(7)]);
    }

    #[test]
    fn boolean_combinations() {
        let index = sample();
        assert_eq!(index.all_of(&["database", "tuning"]), vec![vid(1), vid(2)]);
        assert_eq!(index.all_of(&["database", "systems"]), vec![vid(1)]);
        assert_eq!(
            index.any_of(&["programming", "systems"]),
            vec![vid(1), vid(3)]
        );
        assert!(index.all_of(&[]).is_empty());
        assert!(index.any_of(&[]).is_empty());
    }

    #[test]
    fn remove_document() {
        let index = sample();
        index.remove(vid(1));
        assert_eq!(index.term_query("database"), vec![vid(2)]);
        assert_eq!(index.document_count(), 2);
        assert_eq!(index.token_count(), 3 + 5, "doc 1's five tokens went");
        assert!(index.phrase_query("database tuning").is_empty());
        // Removing twice is a no-op.
        index.remove(vid(1));
        assert_eq!(index.document_count(), 2);
    }

    #[test]
    fn repeated_terms_in_document() {
        let index = FullTextIndex::new();
        index_text(&index, vid(1), "go go go gadget");
        assert_eq!(index.term_query("go"), vec![vid(1)]);
        assert_eq!(index.phrase_query("go go gadget"), vec![vid(1)]);
        assert!(index.phrase_query("gadget go").is_empty());
    }

    #[test]
    fn empty_documents_not_counted() {
        let index = FullTextIndex::new();
        index_text(&index, vid(1), "   !!! ");
        assert_eq!(index.document_count(), 0);
    }

    #[test]
    fn out_of_order_vids() {
        let index = FullTextIndex::new();
        index_text(&index, vid(9), "alpha");
        index_text(&index, vid(3), "alpha");
        index_text(&index, vid(5), "alpha");
        assert_eq!(index.term_query("alpha"), vec![vid(3), vid(5), vid(9)]);
    }

    #[test]
    fn footprint_grows_with_content() {
        let index = FullTextIndex::new();
        let before = index.footprint_bytes();
        index_text(
            &index,
            vid(1),
            "some words to index for footprint accounting",
        );
        assert!(index.footprint_bytes() > before);
    }
}
