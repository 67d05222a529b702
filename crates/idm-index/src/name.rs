//! The Name Index & Replica: maps resource view names to vids and
//! answers the wildcard name patterns iQL paths use (`*Vision`,
//! `?onclusion*`, `VLDB200?`, `*.tex`, bare `*`).
//!
//! The sorted dictionary `by_name` maps each distinct name to an id;
//! the vids carrying a name sit in a table indexed by that id. Beside
//! them is a **k-gram dictionary** (k = 3; Manning, Raghavan & Schütze,
//! *Introduction to Information Retrieval*, §3.2.2) over the distinct
//! names: every byte trigram of a name's UTF-8 form maps to the sorted
//! ids of the names containing it, so a glob that verifies a name by id
//! reads its vids by the same id. The ids and grams are derived, never
//! written to disk (the persisted form is the name → vids export),
//! updated only when a name is first seen or loses its last vid, and
//! rebuilt by `import_names`. A freed id is reused by the next new
//! name, whose vid list starts empty.
//!
//! [`NameIndex::matching`] picks the narrowest access per pattern:
//!
//! 1. no wildcard — one dictionary lookup;
//! 2. a literal prefix (`VLDB200?`, `figure*`) — a range scan over the
//!    names sharing the prefix;
//! 3. a literal run of at least three bytes anywhere (`*Vision`,
//!    `?onclusion*`, `*.tex`) — the run's trigram postings intersected
//!    rarest-first, and only the surviving names glob-verified. Byte
//!    trigrams are sound for any UTF-8 name (a literal run's bytes occur
//!    in the bytes of every name it matches), and every candidate is
//!    verified, so this path only ever prunes;
//! 4. anything else (`*a?`, bare `*`) — a scan of the whole dictionary.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use idm_core::prelude::Vid;
use parking_lot::RwLock;

/// A compiled name pattern with `*` (any run) and `?` (any one char).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamePattern {
    raw: String,
}

impl NamePattern {
    /// Compiles a pattern.
    pub fn new(pattern: impl Into<String>) -> Self {
        NamePattern {
            raw: pattern.into(),
        }
    }

    /// Whether the pattern matches every name (a bare `*`).
    pub fn matches_all(&self) -> bool {
        self.raw == "*"
    }

    /// Whether this pattern contains no wildcards (exact lookup).
    pub fn is_exact(&self) -> bool {
        !self.raw.contains(WILDCARDS)
    }

    /// The raw pattern text.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// The literal text before the first wildcard.
    fn literal_prefix(&self) -> &str {
        &self.raw[..self.raw.find(WILDCARDS).unwrap_or(self.raw.len())]
    }

    /// The maximal wildcard-free runs of the pattern; each occurs as a
    /// substring in every name the pattern matches.
    fn literal_runs(&self) -> impl Iterator<Item = &str> {
        self.raw.split(WILDCARDS)
    }

    /// Glob matching (iterative two-pointer with backtracking on `*`),
    /// directly over the UTF-8 bytes. The wildcards are ASCII, so they
    /// never occur inside a multi-byte char; literal bytes consumed from
    /// a char boundary of `name` end on one, and `?` and the `*`
    /// backtrack step skip whole chars — so the text position only
    /// leaves a char boundary in the middle of a literal char.
    pub fn matches(&self, name: &str) -> bool {
        // `*literal` (`*.tex`, `*Vision`) is a suffix test: the literal's
        // first byte starts a char, so a byte match is a char match.
        if let Some(suffix) = self.raw.strip_prefix('*') {
            if !suffix.contains(WILDCARDS) {
                return name.ends_with(suffix);
            }
        }
        let (pattern, text) = (self.raw.as_bytes(), name.as_bytes());
        let (mut p, mut t) = (0usize, 0usize);
        let (mut star, mut star_t) = (None::<usize>, 0usize);
        while t < text.len() {
            match pattern.get(p) {
                Some(b'?') => {
                    p += 1;
                    t = next_char(text, t);
                }
                // Before the literal arm: a pattern `*` is the wildcard
                // even when the name has a `*` here, or there would be no
                // star to backtrack to.
                Some(b'*') => {
                    star = Some(p);
                    star_t = t;
                    p += 1;
                }
                Some(&literal) if literal == text[t] => {
                    p += 1;
                    t += 1;
                }
                _ => match star {
                    Some(sp) => {
                        p = sp + 1;
                        star_t = next_char(text, star_t);
                        t = star_t;
                    }
                    None => return false,
                },
            }
        }
        pattern[p..].iter().all(|b| *b == b'*')
    }
}

const WILDCARDS: [char; 2] = ['*', '?'];

/// The byte offset of the char after the one starting at `at`.
fn next_char(text: &[u8], at: usize) -> usize {
    let mut next = at + 1;
    while next < text.len() && text[next] & 0xC0 == 0x80 {
        next += 1;
    }
    next
}

/// The byte trigrams of a string, in order (none for fewer than three
/// bytes).
fn trigrams(text: &str) -> impl Iterator<Item = [u8; 3]> + '_ {
    text.as_bytes().windows(3).map(|w| [w[0], w[1], w[2]])
}

/// The k-gram dictionary over the distinct indexed names.
#[derive(Default)]
struct GramDictionary {
    /// Name id → name. An empty string marks a free slot (indexed names
    /// are never empty).
    names: Vec<String>,
    /// Free slots of `names`, reused before it grows.
    free: Vec<u32>,
    /// Trigram → sorted ids of the names containing it.
    postings: HashMap<[u8; 3], Vec<u32>>,
}

impl GramDictionary {
    /// Adds a name the dictionary does not hold yet; returns its id.
    fn insert(&mut self, name: &str) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            self.names.push(String::new());
            u32::try_from(self.names.len() - 1).expect("fewer than 2^32 distinct names")
        });
        self.names[id as usize] = name.to_owned();
        for gram in trigrams(name) {
            let ids = self.postings.entry(gram).or_default();
            if let Err(i) = ids.binary_search(&id) {
                ids.insert(i, id);
            }
        }
        id
    }

    /// Drops the name with this id and frees the id for reuse.
    fn remove(&mut self, id: u32) {
        let name = std::mem::take(&mut self.names[id as usize]);
        for gram in trigrams(&name) {
            let Some(ids) = self.postings.get_mut(&gram) else {
                continue;
            };
            if let Ok(i) = ids.binary_search(&id) {
                ids.remove(i);
            }
            if ids.is_empty() {
                self.postings.remove(&gram);
            }
        }
        self.free.push(id);
    }

    /// Ids of the names that contain every trigram of every literal run
    /// of `pattern` — a superset of the names it matches. `None` when no
    /// run is three bytes long, i.e. the trigrams say nothing.
    fn candidates(&self, pattern: &NamePattern) -> Option<Vec<u32>> {
        let mut lists: Vec<&[u32]> = Vec::new();
        for gram in pattern.literal_runs().flat_map(trigrams) {
            match self.postings.get(&gram) {
                Some(ids) => lists.push(ids),
                None => return Some(Vec::new()),
            }
        }
        // Rarest first: the shortest list drives, the others are probed
        // shortest first so a miss is found early.
        lists.sort_by_key(|ids| ids.len());
        let (rarest, rest) = lists.split_first()?;
        Some(
            rarest
                .iter()
                .copied()
                .filter(|id| rest.iter().all(|ids| ids.binary_search(id).is_ok()))
                .collect(),
        )
    }
}

#[derive(Default)]
struct Inner {
    /// Name → its id in the k-gram dictionary (the replica: names
    /// stored, sorted for exact and prefix look-ups).
    by_name: BTreeMap<String, u32>,
    /// Name id → the vids carrying that name, sorted and duplicate-free;
    /// as long as `grams.names`, empty at a free id.
    vids: Vec<Vec<Vid>>,
    entries: usize,
    /// Derived from the keys of `by_name`; not persisted.
    grams: GramDictionary,
}

impl Inner {
    /// The id of `name`, adding the name (with no vids) if it is new.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.grams.insert(name);
        if id as usize == self.vids.len() {
            self.vids.push(Vec::new());
        }
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// The vids carrying exactly `name`.
    fn vids_of(&self, name: &str) -> &[Vid] {
        self.by_name
            .get(name)
            .map_or(&[], |&id| &self.vids[id as usize])
    }
}

/// The name index.
#[derive(Default)]
pub struct NameIndex {
    inner: RwLock<Inner>,
}

impl NameIndex {
    /// An empty index.
    pub fn new() -> Self {
        NameIndex::default()
    }

    /// Indexes a view under its name. Unnamed views are not indexed
    /// (they are still reachable via `*` path steps through expansion).
    pub fn index(&self, vid: Vid, name: &str) {
        if name.is_empty() {
            return;
        }
        let mut inner = self.inner.write();
        let id = inner.intern(name);
        let vids = &mut inner.vids[id as usize];
        if let Err(i) = vids.binary_search(&vid) {
            vids.insert(i, vid);
            inner.entries += 1;
        }
    }

    /// Removes a view from the index.
    pub fn remove(&self, vid: Vid, name: &str) {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        let Some(&id) = inner.by_name.get(name) else {
            return;
        };
        let vids = &mut inner.vids[id as usize];
        if let Ok(i) = vids.binary_search(&vid) {
            vids.remove(i);
            inner.entries -= 1;
        }
        if vids.is_empty() {
            inner.grams.remove(id);
            inner.by_name.remove(name);
        }
    }

    /// Views with exactly this name.
    pub fn exact(&self, name: &str) -> Vec<Vid> {
        self.inner.read().vids_of(name).to_vec()
    }

    /// `exact(name).len()` without reading the posting list.
    pub fn exact_count(&self, name: &str) -> usize {
        self.inner.read().vids_of(name).len()
    }

    /// Views carrying any of `names` exactly, sorted by vid: one
    /// dictionary look-up per name under one read lock.
    pub fn exact_any<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Vec<Vid> {
        let inner = self.inner.read();
        let mut out = Vec::new();
        for name in names {
            out.extend_from_slice(inner.vids_of(name));
        }
        out.sort();
        out
    }

    /// Views whose name matches the pattern, sorted by vid (see the
    /// module doc for the access chosen per pattern shape).
    pub fn matching(&self, pattern: &NamePattern) -> Vec<Vid> {
        self.matching_counted(pattern).0
    }

    /// [`NameIndex::matching`], plus how many dictionary names it had to
    /// glob-verify to get there.
    fn matching_counted(&self, pattern: &NamePattern) -> (Vec<Vid>, usize) {
        if pattern.is_exact() {
            return (self.exact(pattern.as_str()), 0);
        }
        let inner = self.inner.read();
        let mut out = Vec::new();
        let mut verified = 0usize;
        let mut matches = |name: &str| {
            verified += 1;
            pattern.matches(name)
        };
        let prefix = pattern.literal_prefix();
        if !prefix.is_empty() {
            let from_prefix = (Bound::Included(prefix), Bound::Unbounded);
            for (name, &id) in inner
                .by_name
                .range::<str, _>(from_prefix)
                .take_while(|(name, _)| name.starts_with(prefix))
            {
                if matches(name) {
                    out.extend_from_slice(&inner.vids[id as usize]);
                }
            }
        } else if let Some(ids) = inner.grams.candidates(pattern) {
            for id in ids {
                if matches(&inner.grams.names[id as usize]) {
                    out.extend_from_slice(&inner.vids[id as usize]);
                }
            }
        } else {
            for (name, &id) in &inner.by_name {
                if matches(name) {
                    out.extend_from_slice(&inner.vids[id as usize]);
                }
            }
        }
        out.sort();
        (out, verified)
    }

    /// Exports the name dictionary for persistence.
    pub fn export_names(&self) -> Vec<(String, Vec<u64>)> {
        self.with_names(|_, names| {
            names
                .map(|(name, vids)| (name.to_owned(), vids.iter().map(|v| v.as_u64()).collect()))
                .collect()
        })
    }

    /// Calls `f` with the name count and every name with its vids, names
    /// in order, under the read lock: what [`persist`](crate::persist)
    /// encodes.
    pub(crate) fn with_names<R>(
        &self,
        f: impl FnOnce(usize, &mut dyn Iterator<Item = (&str, &[Vid])>) -> R,
    ) -> R {
        let inner = self.inner.read();
        let mut names = inner
            .by_name
            .iter()
            .map(|(name, &id)| (name.as_str(), inner.vids[id as usize].as_slice()));
        f(inner.by_name.len(), &mut names)
    }

    /// Rebuilds the index (and its k-gram dictionary) from an export.
    pub fn import_names(&self, names: Vec<(String, Vec<u64>)>) {
        let mut fresh = Inner::default();
        let mut by_name = Vec::with_capacity(names.len());
        for (name, vids) in names {
            // A fresh dictionary hands out ids 0, 1, 2, … in order.
            let id = fresh.grams.insert(&name);
            fresh.entries += vids.len();
            fresh
                .vids
                .push(vids.into_iter().map(Vid::from_raw).collect());
            by_name.push((name, id));
        }
        fresh.by_name = by_name.into_iter().collect();
        *self.inner.write() = fresh;
    }

    /// Number of distinct indexed names.
    pub fn name_count(&self) -> usize {
        self.inner.read().by_name.len()
    }

    /// Number of (name, vid) entries.
    pub fn entry_count(&self) -> usize {
        self.inner.read().entries
    }

    /// Serialized index size in bytes: the name replica (the strings
    /// themselves) plus delta-varint vid postings. The k-gram dictionary
    /// is not serialized and not counted.
    pub fn footprint_bytes(&self) -> usize {
        fn varint(v: u64) -> usize {
            (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
        }
        let inner = self.inner.read();
        inner
            .by_name
            .iter()
            .map(|(name, &id)| {
                let vids = &inner.vids[id as usize];
                let mut bytes = name.len() + varint(vids.len() as u64) + 4;
                let mut prev = 0u64;
                for vid in vids {
                    bytes += varint(vid.as_u64().wrapping_sub(prev));
                    prev = vid.as_u64();
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

    #[test]
    fn glob_matching_table() {
        let cases = [
            // (pattern, name, matches) — the paper's Table 4 shapes.
            ("*Vision", "A Dataspace Vision", true),
            ("*Vision", "Vision", true),
            ("*Vision", "Visionary", false),
            ("?onclusion*", "Conclusions", true),
            ("?onclusion*", "conclusion", true),
            ("?onclusion*", "onclusion", false),
            ("VLDB200?", "VLDB2005", true),
            ("VLDB200?", "VLDB2006", true),
            ("VLDB200?", "VLDB20056", false),
            ("*.tex", "vldb 2006.tex", true),
            ("*.tex", "tex", false),
            ("*.tex", ".tex", true),
            ("figure*", "figure12", true),
            ("figure*", "fig", false),
            ("*", "anything at all", true),
            ("*", "", true),
            ("a*b*c", "aXXbYYc", true),
            ("a*b*c", "abc", true),
            ("a*b*c", "acb", false),
            // `?` is one char, however many bytes.
            ("?", "é", true),
            ("??", "é", false),
            ("*??", "é→", true),
            ("caf?", "café", true),
            ("*é?", "café→", true),
            ("?onclusion*", "→onclusions", true),
            ("*→", "a→b", false),
            // A wildcard is a wildcard whatever the name holds there.
            ("*a", "*ba", true),
            ("*", "*", true),
            ("a*", "a*b", true),
            ("?", "*", true),
        ];
        for (pattern, name, expected) in cases {
            assert_eq!(
                NamePattern::new(pattern).matches(name),
                expected,
                "'{pattern}' vs '{name}'"
            );
        }
    }

    #[test]
    fn exact_and_wildcard_lookup() {
        let index = NameIndex::new();
        index.index(vid(1), "Introduction");
        index.index(vid(2), "Introduction");
        index.index(vid(3), "Conclusions");
        index.index(vid(4), "vldb 2006.tex");

        assert_eq!(index.exact("Introduction"), vec![vid(1), vid(2)]);
        assert!(index.exact("introduction").is_empty(), "case-sensitive");
        assert_eq!(
            index.matching(&NamePattern::new("?onclusion*")),
            vec![vid(3)]
        );
        assert_eq!(index.matching(&NamePattern::new("*.tex")), vec![vid(4)]);
        assert_eq!(index.matching(&NamePattern::new("*")).len(), 4);
    }

    #[test]
    fn prefix_scan_bounds_work() {
        let index = NameIndex::new();
        index.index(vid(1), "VLDB2005");
        index.index(vid(2), "VLDB2006");
        index.index(vid(3), "SIGMOD2006");
        assert_eq!(
            index.matching(&NamePattern::new("VLDB200?")),
            vec![vid(1), vid(2)]
        );
    }

    #[test]
    fn remove_and_dedup() {
        let index = NameIndex::new();
        index.index(vid(1), "a");
        index.index(vid(1), "a"); // duplicate ignored
        assert_eq!(index.entry_count(), 1);
        index.remove(vid(1), "a");
        assert!(index.exact("a").is_empty());
        assert_eq!(index.name_count(), 0);
        index.remove(vid(1), "a"); // no-op
    }

    #[test]
    fn unnamed_views_not_indexed() {
        let index = NameIndex::new();
        index.index(vid(1), "");
        assert_eq!(index.entry_count(), 0);
    }

    /// Every exported name the pattern matches, by brute force.
    fn brute_force(index: &NameIndex, pattern: &NamePattern) -> Vec<Vid> {
        let mut out: Vec<Vid> = index
            .export_names()
            .into_iter()
            .filter(|(name, _)| pattern.matches(name))
            .flat_map(|(_, vids)| vids.into_iter().map(Vid::from_raw))
            .collect();
        out.sort();
        out
    }

    /// `i` spelled in letters, so generated names carry no digits.
    fn letters(mut i: usize) -> String {
        let mut out = String::new();
        loop {
            out.push((b'a' + (i % 26) as u8) as char);
            i /= 26;
            if i == 0 {
                return out;
            }
        }
    }

    #[test]
    fn wildcards_verify_a_sliver_of_a_large_dictionary() {
        const STEMS: [&str; 6] = ["note ", "Section ", "report-", "img_", "Re: ", "draft "];
        const EXTS: [&str; 5] = [".txt", ".pdf", ".xml", ".jpg", ""];
        let index = NameIndex::new();
        let mut next = 0u64;
        let mut add = |name: String| {
            // Two views per name: grams are keyed by name, not by entry.
            for _ in 0..2 {
                index.index(vid(next), &name);
                next += 1;
            }
        };
        for i in 0..12_000 {
            add(format!("{}{}{}", STEMS[i % 6], letters(i), EXTS[i % 5]));
        }
        for i in 0..60 {
            add(format!("A {} Vision", letters(i)));
            add(format!("Conclusion {}", letters(i)));
            add(format!("{} 2006", letters(i)));
            add(format!("VLDB2005 {}", letters(i))); // shares "200", not "006"
            add(format!("{}.tex", letters(i)));
            add(format!("textbook {}.pdf", letters(i))); // shares "tex", not ".te"
        }
        let names = index.name_count();
        assert!(names >= 10_000, "{names}");

        for (pattern, hits) in [
            ("*Vision", 120),
            ("?onclusion*", 120),
            ("*.tex", 120),
            ("*2006*", 120),
        ] {
            let pattern = NamePattern::new(pattern);
            let (got, verified) = index.matching_counted(&pattern);
            assert_eq!(got.len(), hits, "{pattern:?}");
            assert_eq!(got, brute_force(&index, &pattern), "{pattern:?}");
            assert!(
                verified * 50 < names,
                "{pattern:?} verified {verified} of {names} names"
            );
        }

        // No literal run of three bytes: the scan fallback still answers.
        let pattern = NamePattern::new("*a?");
        let (got, verified) = index.matching_counted(&pattern);
        assert_eq!(verified, names);
        assert!(!got.is_empty());
        assert_eq!(got, brute_force(&index, &pattern));
    }

    #[test]
    fn grams_follow_the_last_vid_of_a_name() {
        let index = NameIndex::new();
        index.index(vid(1), "vldb 2006.tex");
        index.index(vid(2), "vldb 2006.tex");
        index.index(vid(3), "other.tex");
        let tex = NamePattern::new("*.tex");
        index.remove(vid(1), "vldb 2006.tex");
        assert_eq!(index.matching(&tex), vec![vid(2), vid(3)]);
        index.remove(vid(2), "vldb 2006.tex");
        assert_eq!(index.matching_counted(&tex), (vec![vid(3)], 1));
        // A re-added name reuses the freed slot and is found again.
        index.index(vid(4), "vldb 2006.tex");
        assert_eq!(index.matching(&tex), vec![vid(3), vid(4)]);
        assert_eq!(index.matching(&NamePattern::new("*2006*")), vec![vid(4)]);

        let restored = NameIndex::new();
        restored.import_names(index.export_names());
        assert_eq!(restored.matching_counted(&tex), (vec![vid(3), vid(4)], 2));
    }

    #[test]
    fn a_reused_name_id_never_answers_with_the_old_vids() {
        let index = NameIndex::new();
        index.index(vid(1), "keep.tex");
        index.index(vid(2), "old.tex");
        index.index(vid(3), "old.tex");
        index.remove(vid(2), "old.tex");
        index.remove(vid(3), "old.tex");
        // "old.tex" lost its last vid: its id is free, and the next new
        // name takes it.
        index.index(vid(4), "new.tex");
        assert_eq!(index.name_count(), 2);
        assert_eq!(index.exact("new.tex"), vec![vid(4)]);
        assert!(index.exact("old.tex").is_empty());
        assert_eq!(index.exact_count("old.tex"), 0);
        assert_eq!(index.matching(&NamePattern::new("new*")), vec![vid(4)]);
        assert!(index.matching(&NamePattern::new("old*")).is_empty());
        assert_eq!(
            index.matching(&NamePattern::new("*.tex")),
            vec![vid(1), vid(4)]
        );
        assert!(index.matching(&NamePattern::new("*old*")).is_empty());
        assert_eq!(index.exact_any(["old.tex", "new.tex"]), vec![vid(4)]);
        // Removing the old name again touches nothing.
        index.remove(vid(2), "old.tex");
        assert_eq!(index.exact("new.tex"), vec![vid(4)]);
        assert_eq!(index.entry_count(), 2);
    }

    #[test]
    fn exact_any_restricts_to_the_given_names() {
        let views = [(1, "a.tex"), (2, "b.tex"), (3, "b.tex"), (4, "c.txt")];
        let index = NameIndex::new();
        for (i, name) in views {
            index.index(vid(i), name);
        }
        assert_eq!(
            index.exact_any(["b.tex", "missing", "c.txt"]),
            vec![vid(2), vid(3), vid(4)]
        );
    }

    #[test]
    fn pathological_star_patterns_terminate() {
        let pattern = NamePattern::new("*a*a*a*a*a*a*a*a*b");
        let name = "a".repeat(60);
        assert!(!pattern.matches(&name));
        assert!(pattern.matches(&("a".repeat(20) + "b")));
    }
}
