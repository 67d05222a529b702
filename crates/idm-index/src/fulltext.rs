//! A positional inverted keyword index (the Lucene stand-in).
//!
//! Supports single-term lookups and exact phrase queries via positional
//! intersection. The index is **not** a replica: term positions cannot
//! reconstruct the original content (Section 5.2 makes this distinction
//! explicitly).
//!
//! As Lucene keys postings by term ordinal, a hashed dictionary (std's
//! SipHash: terms come from untrusted e-mail bodies, and a custom hasher
//! measured no better) gives each term an id, reused after its term's
//! last posting goes. An id's posting list is three columns: vids
//! ascending, each posting's end offset, and every posting's positions
//! as LEB128 deltas that restart at each posting, as Lucene stores them
//! and as `IDMIDX02` writes them (about one byte a position). A phrase
//! is matched by stepping the terms' decoders together, so no posting is
//! decoded into a buffer. Each document keeps its term ids, so removal
//! sorts `(id, vid)` pairs and compacts the lists they name without
//! hashing a term. What still grows with a list is the shift of its
//! columns behind a posting inserted or removed in its middle. Terms
//! are put in order only on export, so the persisted bytes never depend
//! on hash order.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use idm_core::prelude::Vid;
use parking_lot::RwLock;

use crate::tokenizer::{self, terms};
use crate::VidMap;

/// One term's postings, as columns: vids ascending, the end of each
/// posting's bytes, and each posting's positions as LEB128 deltas, the
/// first from 0 — the bytes `IDMIDX02` writes per posting.
#[derive(Debug, Default)]
pub(crate) struct PostingList {
    vids: Vec<Vid>,
    ends: Vec<u32>,
    positions: Vec<u8>,
}

/// Appends ascending `positions` to `out` as LEB128 deltas, the first
/// from 0.
fn encode(out: &mut Vec<u8>, positions: impl IntoIterator<Item = u32>) {
    let mut prev = 0;
    for position in positions {
        let mut delta = position - prev;
        prev = position;
        while delta >= 0x80 {
            out.push(delta as u8 | 0x80);
            delta >>= 7;
        }
        out.push(delta as u8);
    }
}

/// How many positions `bytes` codes: one byte of each delta lacks the
/// continuation bit.
fn count(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b & 0x80 == 0).count()
}

/// A decoder over one posting's positions, lent by [`PostingList`]:
/// yields them ascending.
#[derive(Debug, Default)]
pub(crate) struct Positions<'a> {
    bytes: &'a [u8],
    prev: u32,
}

impl<'a> Positions<'a> {
    /// The bytes not yet decoded: a fresh decoder's are its posting's,
    /// as `IDMIDX02` writes them.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Number of positions left.
    pub(crate) fn len(&self) -> usize {
        count(self.bytes)
    }
}

impl Iterator for Positions<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let mut delta = 0;
        let mut shift = 0;
        loop {
            let (&byte, rest) = self.bytes.split_first()?;
            self.bytes = rest;
            delta |= u32::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        self.prev += delta;
        Some(self.prev)
    }
}

impl PostingList {
    /// Number of postings (documents holding the term).
    pub(crate) fn len(&self) -> usize {
        self.vids.len()
    }

    /// The vid of the last posting.
    pub(crate) fn last_vid(&self) -> Option<Vid> {
        self.vids.last().copied()
    }

    /// Appends a posting of ascending `positions` whose vid exceeds
    /// every vid in the list: the decoder's insert. `false`, and nothing
    /// appended, when the list would hold 2^32 bytes of positions.
    pub(crate) fn push(&mut self, vid: Vid, positions: &[u32]) -> bool {
        let start = self.positions.len();
        encode(&mut self.positions, positions.iter().copied());
        let Ok(end) = u32::try_from(self.positions.len()) else {
            self.positions.truncate(start);
            return false;
        };
        self.vids.push(vid);
        self.ends.push(end);
        true
    }

    /// Where posting `i`'s bytes start.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize)
    }

    /// The positions of posting `i`.
    fn posting(&self, i: usize) -> Positions<'_> {
        Positions {
            bytes: &self.positions[self.start(i)..self.ends[i] as usize],
            prev: 0,
        }
    }

    /// The postings in vid order: each vid with its positions.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Vid, Positions<'_>)> {
        (0..self.vids.len()).map(|i| (self.vids[i], self.posting(i)))
    }

    /// The positions of the term in `vid`, if it holds the term.
    fn positions_of(&self, vid: Vid) -> Option<Positions<'_>> {
        let i = self.vids.binary_search(&vid).ok()?;
        Some(self.posting(i))
    }

    /// Adds ascending `positions` under `vid`: a new posting in vid
    /// order, or, if `vid` holds the term already, merged into its
    /// positions in order, duplicates kept. The bytes are encoded at the
    /// tail and, unless the posting is the last, rotated into place.
    /// Returns whether the posting is new.
    fn add(&mut self, vid: Vid, positions: &[u32]) -> bool {
        let (i, new) = match self.vids.last() {
            Some(&last) if last >= vid => match self.vids.binary_search(&vid) {
                Ok(i) => (i, false),
                Err(i) => (i, true),
            },
            _ => (self.vids.len(), true),
        };
        let start = self.start(i);
        let tail = self.positions.len();
        let old = if new {
            encode(&mut self.positions, positions.iter().copied());
            0
        } else {
            let end = self.ends[i] as usize;
            let mut merged: Vec<u32> = self.posting(i).chain(positions.iter().copied()).collect();
            merged.sort_unstable();
            encode(&mut self.positions, merged);
            end - start
        };
        let added = self.positions.len() - tail;
        self.positions[start..].rotate_right(added);
        self.positions.drain(start + added..start + added + old);
        if new {
            self.vids.insert(i, vid);
            self.ends.insert(i, start as u32);
        }
        let fits = |end: usize| u32::try_from(end).expect("fewer than 2^32 bytes of positions");
        for end in &mut self.ends[i..] {
            *end = fits(*end as usize + added - old);
        }
        new
    }

    /// Drops the postings at the ascending, distinct indices `at`,
    /// moving each run of kept postings down once. Returns the number of
    /// positions dropped.
    fn remove_at(&mut self, at: &[usize]) -> usize {
        let (mut postings_gone, mut bytes_gone, mut positions_gone) = (0, 0, 0);
        for (k, &i) in at.iter().enumerate() {
            let (start, end) = (self.start(i), self.ends[i] as usize);
            positions_gone += count(&self.positions[start..end]);
            bytes_gone += end - start;
            postings_gone += 1;
            // The kept run up to the next removed posting.
            let next = at.get(k + 1).copied().unwrap_or(self.vids.len());
            let run_end = self.start(next);
            self.vids.copy_within(i + 1..next, i + 1 - postings_gone);
            for j in i + 1..next {
                self.ends[j - postings_gone] = self.ends[j] - bytes_gone as u32;
            }
            self.positions.copy_within(end..run_end, end - bytes_gone);
        }
        let kept = self.vids.len() - postings_gone;
        self.vids.truncate(kept);
        self.ends.truncate(kept);
        self.positions.truncate(self.positions.len() - bytes_gone);
        positions_gone
    }
}

#[derive(Default)]
struct Inner {
    /// Term → id. [`FullTextIndex::export_postings`] puts the terms in
    /// order.
    ids: HashMap<Arc<str>, u32>,
    /// Id → term (the key's one allocation, shared); `None` at a free
    /// id.
    terms: Vec<Option<Arc<str>>>,
    /// Id → posting list. A free id's list is empty but keeps its
    /// capacity for the term that reuses the id.
    lists: Vec<PostingList>,
    /// Free ids, reused before the tables grow.
    free: Vec<u32>,
    /// Document → the ids of its distinct terms: what removing it
    /// visits.
    held: VidMap<Box<[u32]>>,
    /// Number of indexed documents.
    documents: usize,
    /// Total tokens indexed.
    tokens: u64,
}

impl Inner {
    fn list(&self, term: &str) -> Option<&PostingList> {
        self.ids.get(term).map(|&id| &self.lists[id as usize])
    }

    /// The id of `term`, entering it if the dictionary lacks it.
    fn id_of(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.terms.push(None);
            self.lists.push(PostingList::default());
            u32::try_from(self.terms.len() - 1).expect("fewer than 2^32 distinct terms")
        });
        let term: Arc<str> = term.into();
        self.terms[id as usize] = Some(Arc::clone(&term));
        self.ids.insert(term, id);
        id
    }
}

/// Exported posting lists: `(term, [(vid, positions)])`.
pub type ExportedPostings = Vec<(String, Vec<(u64, Vec<u32>)>)>;

/// A document pre-tokenized off the index lock: every token's text in
/// one buffer, and its distinct terms in ascending order, each with its
/// positions. Built by [`pretokenize`] (possibly on a worker thread)
/// and applied with [`FullTextIndex::index_pretokenized`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PretokenizedDoc {
    /// The lowercased tokens, end to end.
    text: String,
    /// Per distinct term: its byte range in `text` and the end of its
    /// positions in `positions`.
    terms: Vec<(usize, usize, u32)>,
    /// Every term's positions, ascending per term.
    positions: Vec<u32>,
}

impl PretokenizedDoc {
    /// The distinct terms in ascending order, each with its ascending
    /// positions.
    pub fn per_term(&self) -> impl Iterator<Item = (&str, &[u32])> {
        let mut from = 0;
        self.terms.iter().map(move |&(start, end, to)| {
            let positions = &self.positions[from..to as usize];
            from = to as usize;
            (&self.text[start..end], positions)
        })
    }
}

/// Tokenizes `text` into the form [`FullTextIndex::index_pretokenized`]
/// consumes — the CPU-heavy half of indexing, safe to run in parallel
/// per document. One [`tokenizer`] walk fills one buffer and records
/// each token as a `(key, position)` pair, the key being the token's
/// first eight bytes big-endian. One sort of those primitive pairs
/// groups the tokens by key, positions ascending. No term holds a zero
/// byte, so a key run is one term unless a token in it is longer than
/// eight bytes; only such a run is sorted again, by its bytes. Returns
/// `None` when the text yields no tokens.
pub fn pretokenize(text: &str) -> Option<PretokenizedDoc> {
    let mut buf = String::with_capacity(text.len());
    let mut tokens: Vec<(u64, u32)> = Vec::new();
    // Where each token starts in `buf`, by position. The walk writes
    // the tokens end to end, so a token ends where the next one starts.
    let mut starts: Vec<usize> = Vec::new();
    tokenizer::walk(text, &mut buf, |term, start| {
        let mut key = [0u8; 8];
        let head = &term.as_bytes()[..term.len().min(8)];
        key[..head.len()].copy_from_slice(head);
        let position = u32::try_from(tokens.len()).expect("fewer than 2^32 tokens");
        tokens.push((u64::from_be_bytes(key), position));
        starts.push(start);
    });
    if tokens.is_empty() {
        return None;
    }
    starts.push(buf.len());
    let span = |position: u32| starts[position as usize]..starts[position as usize + 1];
    let term = |position: u32| &buf.as_bytes()[span(position)];
    tokens.sort_unstable();
    let mut positions = Vec::with_capacity(tokens.len());
    let mut terms = Vec::new();
    for run in tokens.chunk_by_mut(|a, b| a.0 == b.0) {
        // A key whose last byte is set came from a token of eight bytes
        // or more; the run holds several terms only if one is longer.
        let mixed =
            run.len() > 1 && run[0].0 & 0xff != 0 && run.iter().any(|&(_, p)| span(p).len() > 8);
        if mixed {
            run.sort_unstable_by(|a, b| term(a.1).cmp(term(b.1)).then(a.1.cmp(&b.1)));
        }
        for same in run.chunk_by(|a, b| !mixed || term(a.1) == term(b.1)) {
            positions.extend(same.iter().map(|&(_, position)| position));
            let first = span(same[0].1);
            terms.push((first.start, first.end, positions.len() as u32));
        }
    }
    Some(PretokenizedDoc {
        text: buf,
        terms,
        positions,
    })
}

/// One term of a phrase being matched: its list, where the search for
/// the next candidate starts (candidates ascend, so none looks behind
/// the last), and a decoder of its positions in the candidate with the
/// position it read last.
struct Cursor<'a> {
    list: &'a PostingList,
    from: usize,
    positions: Positions<'a>,
    head: u32,
}

impl Cursor<'_> {
    /// Moves to `vid`'s posting and reads its first position; `false`
    /// when the list lacks `vid`.
    fn seek(&mut self, vid: Vid) -> bool {
        let vids = &self.list.vids;
        if vids.get(self.from).is_some_and(|&first| first < vid) {
            self.from += vids[self.from..].partition_point(|&v| v < vid);
        }
        if vids.get(self.from) != Some(&vid) {
            return false;
        }
        self.positions = self.list.posting(self.from);
        self.positions.next().map(|head| self.head = head).is_some()
    }
}

/// Whether some position p0 of the first cursor has p0 + i in cursor
/// i, for every i. Each decoder steps forward only, so one pass over
/// the postings decides.
fn adjacent(cursors: &mut [Cursor<'_>]) -> bool {
    let Some((first, rest)) = cursors.split_first_mut() else {
        return false;
    };
    let mut start = Some(first.head);
    'starts: while let Some(p0) = start {
        for (cursor, i) in rest.iter_mut().zip(1u64..) {
            let want = u64::from(p0) + i;
            while u64::from(cursor.head) < want {
                match cursor.positions.next() {
                    Some(position) => cursor.head = position,
                    None => return false,
                }
            }
            if u64::from(cursor.head) > want {
                start = first.positions.next();
                continue 'starts;
            }
        }
        return true;
    }
    false
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
    /// A vid should be indexed at most once; indexing it again without
    /// [`FullTextIndex::remove`] merges the new positions into its
    /// postings in order, duplicates kept.
    pub fn index_pretokenized(&self, vid: Vid, doc: PretokenizedDoc) {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        inner.tokens += doc.positions.len() as u64;
        let mut ids = Vec::with_capacity(doc.terms.len());
        for (term, positions) in doc.per_term() {
            let id = inner.id_of(term);
            if inner.lists[id as usize].add(vid, positions) {
                ids.push(id);
            }
        }
        match inner.held.entry(vid) {
            Entry::Vacant(entry) => {
                inner.documents += 1;
                entry.insert(ids.into_boxed_slice());
            }
            // Indexed again without a removal: add the new terms.
            Entry::Occupied(mut entry) if !ids.is_empty() => {
                let held = [&entry.get()[..], &ids].concat();
                entry.insert(held.into_boxed_slice());
            }
            Entry::Occupied(_) => {}
        }
    }

    /// Removes a document from the index.
    pub fn remove(&self, vid: Vid) {
        self.remove_all(&[vid]);
    }

    /// Removes a set of documents, visiting only the lists their term
    /// ids name: the set's `(id, vid)` pairs are sorted, and each list
    /// loses its share in one compaction of its columns. No term is
    /// hashed, except to drop one whose last posting went. Duplicates
    /// and vids never indexed are no-ops. What stays O(posting list) is
    /// shifting the columns behind a removed posting.
    pub fn remove_all(&self, vids: &[Vid]) {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        let mut pairs: Vec<(u32, Vid)> = Vec::new();
        for vid in vids {
            if let Some(ids) = inner.held.remove(vid) {
                inner.documents = inner.documents.saturating_sub(1);
                pairs.extend(ids.iter().map(|&id| (id, *vid)));
            }
        }
        pairs.sort_unstable();
        let mut at: Vec<usize> = Vec::new();
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let id = run[0].0;
            let list = &mut inner.lists[id as usize];
            at.clear();
            at.extend(
                run.iter()
                    .filter_map(|(_, vid)| list.vids.binary_search(vid).ok()),
            );
            let gone = list.remove_at(&at);
            inner.tokens = inner.tokens.saturating_sub(gone as u64);
            // The term's last posting went: free its id.
            if list.vids.is_empty() {
                if let Some(term) = inner.terms[id as usize].take() {
                    inner.ids.remove(&term);
                }
                inner.free.push(id);
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
            .list(term)
            .map(|list| list.vids.clone())
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
        let mut cursors = Vec::with_capacity(query_terms.len());
        for term in &query_terms {
            match inner.list(term) {
                Some(list) => cursors.push(Cursor {
                    list,
                    from: 0,
                    positions: Positions::default(),
                    head: 0,
                }),
                None => return Vec::new(),
            }
        }
        // Drive by the rarest list.
        let driver = cursors
            .iter()
            .map(|cursor| cursor.list)
            .min_by_key(|list| list.len())
            .expect("a phrase of two terms or more");

        let mut out = Vec::new();
        'candidates: for &vid in &driver.vids {
            for cursor in &mut cursors {
                if !cursor.seek(vid) {
                    continue 'candidates;
                }
            }
            if adjacent(&mut cursors) {
                out.push(vid);
            }
        }
        out
    }

    /// Calls `f` with every posting list, terms in order, under the read
    /// lock: what [`persist`](crate::persist) encodes.
    pub(crate) fn with_sorted_lists<R>(&self, f: impl FnOnce(&[(&str, &PostingList)]) -> R) -> R {
        let inner = self.inner.read();
        let mut lists: Vec<(&str, &PostingList)> = inner
            .ids
            .iter()
            .map(|(term, &id)| (&**term, &inner.lists[id as usize]))
            .collect();
        lists.sort_unstable_by_key(|&(term, _)| term);
        f(&lists)
    }

    /// Exports the posting lists: `(term, [(vid, positions)])`, terms
    /// sorted, so the result never depends on hash order.
    pub fn export_postings(&self) -> ExportedPostings {
        self.with_sorted_lists(|lists| {
            lists
                .iter()
                .map(|(term, list)| {
                    let postings = list
                        .iter()
                        .map(|(vid, positions)| (vid.as_u64(), positions.collect()))
                        .collect();
                    (term.to_string(), postings)
                })
                .collect()
        })
    }

    /// Rebuilds the index from decoded posting lists (plus the document
    /// and token counters, which cannot be derived from postings alone).
    /// Each list is expected vid-ascending without repeats, as
    /// [`FullTextIndex::export_postings`] writes it. Each document's
    /// term ids are derived here, in two hash passes over the postings:
    /// one sizes them, one fills them.
    pub(crate) fn import_lists(
        &self,
        lists: Vec<(String, PostingList)>,
        documents: usize,
        tokens: u64,
    ) {
        let mut inner = Inner {
            documents,
            tokens,
            ..Inner::default()
        };
        for (term, list) in lists {
            // A repeated term replaces the earlier list.
            match inner.ids.entry(term.into()) {
                Entry::Occupied(entry) => inner.lists[*entry.get() as usize] = list,
                Entry::Vacant(entry) => {
                    inner.terms.push(Some(Arc::clone(entry.key())));
                    entry.insert(u32::try_from(inner.lists.len()).expect("fewer than 2^32 terms"));
                    inner.lists.push(list);
                }
            }
        }
        let mut sizes: VidMap<usize> = VidMap::default();
        for &vid in inner.lists.iter().flat_map(|list| &list.vids) {
            *sizes.entry(vid).or_default() += 1;
        }
        let mut held: VidMap<Vec<u32>> = sizes
            .into_iter()
            .map(|(vid, size)| (vid, Vec::with_capacity(size)))
            .collect();
        for (id, list) in (0u32..).zip(&inner.lists) {
            for vid in &list.vids {
                if let Some(ids) = held.get_mut(vid) {
                    ids.push(id);
                }
            }
        }
        inner.held = held.into_iter().map(|(v, ids)| (v, ids.into())).collect();
        *self.inner.write() = inner;
    }

    /// Total indexed tokens (persistence counter).
    pub fn token_count(&self) -> u64 {
        self.inner.read().tokens
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.inner.read().ids.len()
    }

    /// How often `term` occurs in document `vid` (0 if absent). The
    /// term is normalized first, as a query's would be.
    pub fn term_frequency(&self, vid: Vid, term: &str) -> usize {
        terms(term)
            .first()
            .map_or(0, |term| self.normalized_frequency(vid, term))
    }

    /// How often the already-normalized `term` occurs in document
    /// `vid`: the read of the audit and of ranking, whose terms are
    /// tokenized once, not again per document.
    pub fn normalized_frequency(&self, vid: Vid, term: &str) -> usize {
        let inner = self.inner.read();
        inner
            .list(term)
            .and_then(|list| list.positions_of(vid))
            .map_or(0, |positions| positions.len())
    }

    /// Number of documents containing `term` (document frequency).
    pub fn document_frequency(&self, term: &str) -> usize {
        let normalized = terms(term);
        let Some(term) = normalized.first() else {
            return 0;
        };
        self.inner.read().list(term).map_or(0, PostingList::len)
    }

    /// A phrase's term count and its rarest term's document frequency
    /// (0 for no terms): one token walk, one read guard. The phrase's
    /// rows are bounded by that frequency.
    pub fn phrase_statistics(&self, phrase: &str) -> (usize, usize) {
        let inner = self.inner.read();
        let (mut count, mut rarest) = (0, usize::MAX);
        tokenizer::walk(phrase, &mut String::new(), |term, _| {
            count += 1;
            rarest = rarest.min(inner.list(term).map_or(0, PostingList::len));
        });
        (count, if count == 0 { 0 } else { rarest })
    }

    /// Number of indexed documents.
    pub fn document_count(&self) -> usize {
        self.inner.read().documents
    }

    /// Serialized index size in bytes, modeling the compressed on-disk
    /// layout real keyword indexes (like the paper's Lucene) use:
    /// delta-encoded varint document ids and positions per term. The
    /// positions are held in that coding, so they count as held.
    pub fn footprint_bytes(&self) -> usize {
        fn varint(v: u64) -> usize {
            (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
        }
        let inner = self.inner.read();
        inner
            .ids
            .iter()
            .map(|(term, &id)| {
                let list = &inner.lists[id as usize];
                let mut bytes = term.len() + varint(list.len() as u64) + 8;
                let mut prev_vid = 0u64;
                for (vid, positions) in list.iter() {
                    bytes += varint(vid.as_u64().wrapping_sub(prev_vid));
                    prev_vid = vid.as_u64();
                    bytes += varint(positions.len() as u64) + positions.bytes().len();
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
    fn terms_sharing_a_prefix_key_stay_apart() {
        let doc = pretokenize("database databases database databasesystems").unwrap();
        let got: Vec<(&str, &[u32])> = doc.per_term().collect();
        assert_eq!(
            got,
            vec![
                ("database", &[0, 2][..]),
                ("databases", &[1][..]),
                ("databasesystems", &[3][..]),
            ]
        );
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

    /// Documents of fresh terms come and go for 1 000 rounds: every term
    /// leaves the dictionary with its last posting, and its id is reused,
    /// so the id tables never outgrow the peak number of live terms.
    #[test]
    fn churned_terms_free_their_ids() {
        let index = sample();
        let baseline = index.term_count();
        let mut peak = baseline;
        for round in 0..1_000u64 {
            let vids: Vec<Vid> = (0..1 + round % 3).map(|i| vid(100 + i)).collect();
            for (i, &v) in vids.iter().enumerate() {
                index_text(
                    &index,
                    v,
                    &format!("fresh{round}x{i} shared{round} database"),
                );
            }
            peak = peak.max(index.term_count());
            index.remove_all(&vids);
            assert_eq!(index.term_count(), baseline, "round {round}");
        }
        let inner = index.inner.read();
        assert!(
            inner.lists.len() <= peak,
            "{} ids for a peak of {peak}",
            inner.lists.len()
        );
        assert_eq!(inner.terms.len(), inner.lists.len());
        assert_eq!(inner.held.len(), 3);
        drop(inner);
        assert_eq!(index.term_query("database"), vec![vid(1), vid(2)]);
        assert_eq!(index.token_count(), 5 + 3 + 5);
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
