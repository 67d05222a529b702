//! Property-based tests: every index structure is checked against a
//! naive reference implementation on random inputs.

use std::cmp::Ordering;

use idm_core::prelude::{Timestamp, TupleComponent, Value, Vid};
use idm_index::catalog::{CatalogEntry, ResourceViewCatalog};
use idm_index::fulltext::pretokenize;
use idm_index::name::{NameIndex, NamePattern};
use idm_index::tuple::{CompareOp, TupleIndex};
use idm_index::{tokenize, FullTextIndex, GroupReplica};
use proptest::prelude::*;

// ---- Full-text index vs naive scan ------------------------------------

/// Indexes `text` the way the segment merge does.
fn index_text(index: &FullTextIndex, vid: Vid, text: &str) {
    if let Some(doc) = pretokenize(text) {
        index.index_pretokenized(vid, doc);
    }
}

fn arb_doc() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-d]{1,3}", 0..12).prop_map(|words| words.join(" "))
}

proptest! {
    /// phrase_query agrees with a naive token-window scan.
    #[test]
    fn phrase_query_matches_naive(docs in proptest::collection::vec(arb_doc(), 1..12),
                                  phrase in proptest::collection::vec("[a-d]{1,3}", 1..4)) {
        let index = FullTextIndex::new();
        for (i, doc) in docs.iter().enumerate() {
            index_text(&index, Vid::from_raw(i as u64), doc);
        }
        let phrase_text = phrase.join(" ");
        let mut got = index.phrase_query(&phrase_text);
        got.sort();

        let mut want: Vec<Vid> = docs.iter().enumerate().filter_map(|(i, doc)| {
            let tokens: Vec<String> = tokenize(doc).into_iter().map(|t| t.term).collect();
            let found = tokens.windows(phrase.len()).any(|w| w == phrase.as_slice());
            found.then_some(Vid::from_raw(i as u64))
        }).collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Removal really removes: after removing a document it never
    /// appears in any term query for its own words.
    #[test]
    fn remove_is_complete(docs in proptest::collection::vec(arb_doc(), 1..8), victim in 0usize..8) {
        let index = FullTextIndex::new();
        for (i, doc) in docs.iter().enumerate() {
            index_text(&index, Vid::from_raw(i as u64), doc);
        }
        let victim = victim % docs.len();
        index.remove(Vid::from_raw(victim as u64));
        for token in tokenize(&docs[victim]) {
            prop_assert!(!index.term_query(&token.term).contains(&Vid::from_raw(victim as u64)));
        }
    }
}

// ---- One token definition -----------------------------------------------

/// The reference tokenizer: char by char, maximal runs of alphanumeric
/// chars, each lowercased by `char::to_lowercase` and not re-checked.
fn naive_tokenize(text: &str) -> Vec<(String, u32)> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut position = 0u32;
    for c in text.chars() {
        if c.is_alphanumeric() {
            for lower in c.to_lowercase() {
                current.push(lower);
            }
        } else if !current.is_empty() {
            tokens.push((std::mem::take(&mut current), position));
            position += 1;
        }
    }
    if !current.is_empty() {
        tokens.push((current, position));
    }
    tokens
}

/// ASCII letters, digits and punctuation, `'\0'`, chars whose lowercase
/// is longer or context-dependent (`'İ'`, `'ẞ'`, `'Σ'`), a non-ASCII
/// digit, a combining mark and the replacement char.
const TOKEN_CHARS: &[char] = &[
    'a', 'Z', 'q', '0', '7', ' ', '.', '-', '\'', '\0', 'İ', 'ẞ', 'Σ', '٣', '\u{301}', '\u{FFFD}',
];

/// Words that share a first eight bytes: one of exactly eight bytes,
/// two that differ in the ninth, and a 17-byte one.
const LONG_WORDS: &[&str] = &["aaaaaaaa", "aaaaaaaab", "aaaaaaaaZ", "aaaaaaaabaaaaaaaa"];

/// Up to 200 pieces, each a run of those chars or one of those words,
/// so that one eight-byte prefix covers several terms, each repeated.
fn arb_token_text() -> impl Strategy<Value = String> {
    let chars = |picks: Vec<usize>| picks.into_iter().map(|i| TOKEN_CHARS[i]).collect();
    let piece = prop_oneof![
        proptest::collection::vec(0..TOKEN_CHARS.len(), 1..6).prop_map(chars),
        (0..LONG_WORDS.len()).prop_map(|i| LONG_WORDS[i].to_owned()),
    ];
    proptest::collection::vec(piece, 0..200).prop_map(|pieces| pieces.join(" "))
}

proptest! {
    /// `pretokenize`, `tokenize` and `terms` all read one walk, and it
    /// tokenizes as the char-by-char reference does.
    #[test]
    fn every_tokenizer_equals_the_reference(text in arb_token_text()) {
        let want = naive_tokenize(&text);
        let got: Vec<(String, u32)> = tokenize(&text).into_iter().map(|t| (t.term, t.position)).collect();
        prop_assert_eq!(&got, &want);
        let want_terms: Vec<String> = want.iter().map(|(term, _)| term.clone()).collect();
        prop_assert_eq!(idm_index::tokenizer::terms(&text), want_terms);

        let mut per_term: std::collections::BTreeMap<String, Vec<u32>> = Default::default();
        for (term, position) in want {
            per_term.entry(term).or_default().push(position);
        }
        let got: Vec<(String, Vec<u32>)> = pretokenize(&text)
            .iter()
            .flat_map(|doc| doc.per_term())
            .map(|(term, positions)| (term.to_owned(), positions.to_vec()))
            .collect();
        prop_assert_eq!(got, per_term.into_iter().collect::<Vec<_>>());
    }
}

// ---- Content index scripts vs a rebuild of the survivors ------------------

/// Everything the content index answers about the vids `0..12` and the
/// words of `vocabulary`: its postings, counters, per-document term
/// frequencies and phrase results.
fn content_observable(
    index: &FullTextIndex,
    vocabulary: &[String],
    phrases: &[String],
) -> impl PartialEq + std::fmt::Debug {
    let frequencies: Vec<usize> = (0..12)
        .flat_map(|v| {
            vocabulary
                .iter()
                .map(move |w| index.term_frequency(Vid::from_raw(v), w))
        })
        .collect();
    let answers: Vec<Vec<Vid>> = phrases.iter().map(|p| index.phrase_query(p)).collect();
    (
        index.export_postings(),
        index.document_count(),
        index.token_count(),
        index.term_count(),
        frequencies,
        answers,
    )
}

/// Up to `max - 1` words: runs of `a`–`d`, and words of eight bytes
/// or more that share their first eight.
fn arb_words(max: usize) -> impl Strategy<Value = String> {
    let word = prop_oneof![
        "[a-d]{1,3}",
        (0..LONG_WORDS.len()).prop_map(|i| LONG_WORDS[i].to_owned()),
    ];
    proptest::collection::vec(word, 0..max).prop_map(|words| words.join(" "))
}

/// The vids of `model` whose texts hold `phrase`: some position p0 of
/// its first term with p0 + i among the positions of term i, for every
/// i, read off the reference tokenizer.
fn phrase_by_positions(
    model: &std::collections::BTreeMap<u64, Vec<String>>,
    phrase: &str,
) -> Vec<Vid> {
    let terms: Vec<String> = naive_tokenize(phrase)
        .into_iter()
        .map(|(term, _)| term)
        .collect();
    model
        .iter()
        .filter(|(_, texts)| {
            let tokens: Vec<(String, u32)> =
                texts.iter().flat_map(|text| naive_tokenize(text)).collect();
            let holds = |term: &String, at: u32| tokens.iter().any(|(t, p)| t == term && *p == at);
            let Some(first) = terms.first() else {
                return false;
            };
            tokens.iter().any(|(t, p0)| {
                t == first && terms.iter().zip(*p0..).all(|(term, at)| holds(term, at))
            })
        })
        .map(|(&vid, _)| Vid::from_raw(vid))
        .collect()
}

proptest! {
    /// After every op of a script — indexing a vid below ones already
    /// indexed, indexing a vid again without removing it (its positions
    /// are merged in order), removing sets of documents that share terms
    /// (with duplicates and unknown vids) and a save → load — the
    /// postings are the reference tokenizer's, phrases of one to four
    /// terms (a repeated term and terms past eight bytes among them)
    /// match as the positions say, and the content index answers as
    /// indexing the survivors afresh, in vid order, does.
    #[test]
    fn any_content_script_equals_a_rebuild_of_the_survivors(
        script in proptest::collection::vec(
            (0u8..5, 0u64..12, arb_words(8), proptest::collection::vec(0u64..14, 0..5)),
            1..25,
        ),
        phrases in proptest::collection::vec(arb_words(5), 1..4),
    ) {
        let phrases: Vec<String> = phrases
            .into_iter()
            .chain(["a a".to_owned(), "aaaaaaaab aaaaaaaa".to_owned()])
            .collect();
        let vocabulary: Vec<String> = ["a", "b", "c", "d", "ab", "ba", "cd", "dd"]
            .iter()
            .map(|w| w.to_string())
            .collect();
        let mut bundle = idm_index::IndexBundle::new();
        // Vid → the texts indexed under it since its last removal.
        let mut model: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
        for (op, pick, text, set) in script {
            match op {
                // Index: vids arrive in any order.
                0 | 1 => {
                    if let std::collections::btree_map::Entry::Vacant(entry) = model.entry(pick) {
                        index_text(&bundle.content, Vid::from_raw(pick), &text);
                        entry.insert(vec![text]);
                    }
                }
                // Index again without a removal.
                2 => {
                    if let Some(texts) = model.get_mut(&pick) {
                        index_text(&bundle.content, Vid::from_raw(pick), &text);
                        texts.push(text);
                    }
                }
                // Remove a set.
                3 => {
                    let victims: Vec<Vid> = set.iter().map(|&v| Vid::from_raw(v)).collect();
                    bundle.content.remove_all(&victims);
                    for v in &set {
                        model.remove(v);
                    }
                }
                _ => {
                    let bytes = idm_index::persist::to_bytes_with_epoch(&bundle, 0);
                    bundle = idm_index::persist::from_bytes_with_epoch(&bytes).unwrap().0;
                }
            }
            // The postings, read off the reference tokenizer: a text
            // indexed again merges its positions in, ascending.
            let mut want: std::collections::BTreeMap<String, Vec<(u64, Vec<u32>)>> = Default::default();
            for (&v, texts) in &model {
                let mut per_term: std::collections::BTreeMap<String, Vec<u32>> = Default::default();
                for (term, position) in texts.iter().flat_map(|text| naive_tokenize(text)) {
                    per_term.entry(term).or_default().push(position);
                }
                for (term, mut positions) in per_term {
                    positions.sort_unstable();
                    want.entry(term).or_default().push((v, positions));
                }
            }
            prop_assert_eq!(bundle.content.export_postings(), want.into_iter().collect::<Vec<_>>());
            for phrase in &phrases {
                prop_assert_eq!(bundle.content.phrase_query(phrase), phrase_by_positions(&model, phrase), "{:?}", phrase);
            }
            let rebuilt = FullTextIndex::new();
            for (&v, texts) in &model {
                for text in texts {
                    index_text(&rebuilt, Vid::from_raw(v), text);
                }
            }
            prop_assert_eq!(
                content_observable(&bundle.content, &vocabulary, &phrases),
                content_observable(&rebuilt, &vocabulary, &phrases)
            );
        }
    }
}

// ---- Name pattern matching vs naive glob -------------------------------

/// Naive recursive glob used as the reference semantics.
fn naive_glob(pattern: &[char], text: &[char]) -> bool {
    match (pattern.first(), text.first()) {
        (None, None) => true,
        (Some('*'), _) => {
            naive_glob(&pattern[1..], text) || (!text.is_empty() && naive_glob(pattern, &text[1..]))
        }
        (Some('?'), Some(_)) => naive_glob(&pattern[1..], &text[1..]),
        (Some(p), Some(t)) if p == t => naive_glob(&pattern[1..], &text[1..]),
        _ => false,
    }
}

proptest! {
    /// The iterative matcher agrees with the naive recursive definition.
    #[test]
    fn glob_matches_reference(pattern in "[ab*?]{0,8}", text in "[ab*?]{0,10}") {
        let fast = NamePattern::new(pattern.clone()).matches(&text);
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        prop_assert_eq!(fast, naive_glob(&p, &t), "pattern '{}' text '{}'", pattern, text);
    }

    /// matching() returns exactly the names the pattern matches.
    #[test]
    fn name_index_matching_is_exact(names in proptest::collection::vec("[ab*?]{1,6}", 1..15),
                                    pattern in "[ab*?]{1,6}") {
        let index = NameIndex::new();
        for (i, name) in names.iter().enumerate() {
            index.index(Vid::from_raw(i as u64), name);
        }
        let compiled = NamePattern::new(pattern);
        let got: std::collections::HashSet<Vid> =
            index.matching(&compiled).into_iter().collect();
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(
                got.contains(&Vid::from_raw(i as u64)),
                compiled.matches(name),
                "name '{}'", name
            );
        }
    }
}

/// Every exported name the pattern matches, by brute force.
fn matching_by_scan(index: &NameIndex, pattern: &NamePattern) -> Vec<Vid> {
    let mut out: Vec<Vid> = index
        .export_names()
        .into_iter()
        .filter(|(name, _)| pattern.matches(name))
        .flat_map(|(_, vids)| vids.into_iter().map(Vid::from_raw))
        .collect();
    out.sort();
    out
}

proptest! {
    /// Whatever path `matching` takes (lookup, prefix range, trigram
    /// postings, scan), after any interleaving of index / remove /
    /// export→import it returns what a scan of the exported dictionary
    /// returns. The alphabet makes names collide and re-appear, `é` and
    /// `→` put multi-byte chars under `?` and across trigram windows,
    /// `*` and `?` in names face the pattern's own wildcards, and the
    /// short patterns mix runs below and above three bytes.
    #[test]
    fn name_matching_equals_dictionary_scan(
        pool in proptest::collection::vec("[abé→.*?]{1,7}", 2..6),
        script in proptest::collection::vec((0usize..8, 0u64..10, 0usize..6), 1..40),
        patterns in proptest::collection::vec("[abé→.*?]{1,7}", 1..6),
    ) {
        let mut index = NameIndex::new();
        let mut named: std::collections::HashMap<u64, &str> = Default::default();
        for (op, vid, pick) in script {
            match op {
                // (Re)name a view, as `IndexBundle` does: old name out first.
                0..=4 => {
                    let name = pool[pick % pool.len()].as_str();
                    if let Some(old) = named.insert(vid, name) {
                        index.remove(Vid::from_raw(vid), old);
                    }
                    index.index(Vid::from_raw(vid), name);
                }
                5 | 6 => {
                    if let Some(old) = named.remove(&vid) {
                        index.remove(Vid::from_raw(vid), old);
                    }
                }
                _ => {
                    let restored = NameIndex::new();
                    restored.import_names(index.export_names());
                    index = restored;
                }
            }
            for pattern in &patterns {
                let pattern = NamePattern::new(pattern.as_str());
                prop_assert_eq!(
                    index.matching(&pattern),
                    matching_by_scan(&index, &pattern),
                    "pattern {:?} over {:?}", pattern, index.export_names()
                );
            }
            for name in &pool {
                prop_assert_eq!(index.exact_count(name), index.exact(name).len());
            }
            prop_assert_eq!(index.entry_count(), named.len());
        }
    }
}

// ---- Tuple index vs naive filter ----------------------------------------

const OPS: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];

proptest! {
    /// compare() agrees with a naive filter over the stored tuples.
    #[test]
    fn tuple_compare_matches_naive(values in proptest::collection::vec(-50i64..50, 1..25),
                                   constant in -50i64..50,
                                   op_choice in 0usize..6) {
        let op = OPS[op_choice];
        let index = TupleIndex::new();
        for (i, v) in values.iter().enumerate() {
            index.index(
                Vid::from_raw(i as u64),
                &TupleComponent::of(vec![("x", Value::Integer(*v))]),
            );
        }
        let mut got = index.compare("x", op, &Value::Integer(constant));
        got.sort();
        let mut want: Vec<Vid> = values.iter().enumerate().filter_map(|(i, v)| {
            op.accepts(v.cmp(&constant)).then_some(Vid::from_raw(i as u64))
        }).collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// CompareOp::accepts encodes the six comparison operators.
    #[test]
    fn compare_op_semantics(a in any::<i32>(), b in any::<i32>()) {
        let ord = a.cmp(&b);
        prop_assert_eq!(CompareOp::Eq.accepts(ord), a == b);
        prop_assert_eq!(CompareOp::Ne.accepts(ord), a != b);
        prop_assert_eq!(CompareOp::Lt.accepts(ord), a < b);
        prop_assert_eq!(CompareOp::Le.accepts(ord), a <= b);
        prop_assert_eq!(CompareOp::Gt.accepts(ord), a > b);
        prop_assert_eq!(CompareOp::Ge.accepts(ord), a >= b);
        let _ = Ordering::Equal; // keep the import honest
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    // 2^53 + 1 is the first integer `as f64` rounds (to 2^53).
    const ROUNDS: i64 = (1 << 53) + 1;
    prop_oneof![
        4 => (-3i64..4).prop_map(Value::Integer),
        1 => prop_oneof![Just(ROUNDS), Just(ROUNDS - 1), Just(i64::MIN), Just(i64::MAX)]
            .prop_map(Value::Integer),
        2 => prop_oneof![
            Just(f64::NAN), Just(-0.0), Just(0.0), Just(1.5), Just(2.0),
            Just((ROUNDS - 1) as f64), Just(f64::INFINITY), Just(f64::NEG_INFINITY),
        ].prop_map(Value::Float),
        2 => "[ab]{0,2}".prop_map(Value::Text),
        1 => any::<bool>().prop_map(Value::Boolean),
        2 => (-2i64..3).prop_map(|day| Value::Date(Timestamp(day * 86_400))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// compare() — binary-searched or filtered, whichever the column
    /// allows — equals the linear `Value::compare` filter over the
    /// tuples a model holds, on columns mixing every domain (floats
    /// incl. `NaN`, integers that round as `f64`, an attribute named
    /// twice in one tuple), after every op; and attribute_count() and
    /// has_attribute() equal the model's holders throughout. An op
    /// (re-)indexes or removes a run of up to 299 consecutive vids, so
    /// a column takes in more entries than its tail holds and every
    /// merge boundary is crossed, with removals and re-indexes hitting
    /// entries on both sides of it.
    #[test]
    fn tuple_compare_equals_linear_filter(
        script in proptest::collection::vec(
            (
                0usize..4,
                0u64..400,
                1u64..300,
                proptest::collection::vec(
                    proptest::collection::vec(("[xy]", arb_value()), 1..4),
                    1..4,
                ),
            ),
            1..12,
        ),
        constants in proptest::collection::vec(arb_value(), 1..4),
    ) {
        let index = TupleIndex::new();
        let mut model: std::collections::BTreeMap<u64, Vec<(String, Value)>> = Default::default();
        for (op, first, len, tuples) in script {
            for (k, vid) in (first..first + len).enumerate() {
                if op == 0 {
                    model.remove(&vid);
                    index.remove(Vid::from_raw(vid));
                } else {
                    let pairs = tuples[k % tuples.len()].clone();
                    index.index(Vid::from_raw(vid), &pool_tuple(&pairs));
                    model.insert(vid, pairs);
                }
            }
            for attr in ["x", "y", "ghost"] {
                let holders: Vec<Vid> = model.iter()
                    .filter(|(_, pairs)| pairs.iter().any(|(a, _)| a == attr))
                    .map(|(vid, _)| Vid::from_raw(*vid))
                    .collect();
                prop_assert_eq!(index.attribute_count(attr), holders.len());
                prop_assert_eq!(index.has_attribute(attr), holders);
                for constant in &constants {
                    for op in OPS {
                        let want: Vec<Vid> = model.iter()
                            .filter(|(_, pairs)| pairs.iter().any(|(a, v)| {
                                a == attr && v.compare(constant).is_some_and(|ord| op.accepts(ord))
                            }))
                            .map(|(vid, _)| Vid::from_raw(*vid))
                            .collect();
                        prop_assert_eq!(
                            index.compare(attr, op, constant), want,
                            "{} {:?} {:?}", attr, op, constant
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    /// class_count() equals by_class().len() after any register /
    /// re-register / unregister script.
    #[test]
    fn class_count_equals_by_class_len(
        script in proptest::collection::vec((0u64..8, 0usize..4), 1..40),
    ) {
        const CLASSES: [Option<&str>; 3] = [Some("file"), Some("folder"), None];
        let catalog = ResourceViewCatalog::new();
        for (vid, op) in script {
            match CLASSES.get(op) {
                Some(class) => catalog.register(CatalogEntry {
                    vid,
                    name: "n".to_owned(),
                    class: class.map(str::to_owned),
                    source: "prop".to_owned(),
                    content_size: None,
                    content_indexed: false,
                }),
                None => catalog.unregister(Vid::from_raw(vid)),
            }
            for class in ["file", "folder", "ghost"] {
                prop_assert_eq!(catalog.class_count(class), catalog.by_class(class).len());
            }
        }
    }
}

/// The catalog's Table 3 size, computed from a model's rows.
fn model_footprint(model: &std::collections::BTreeMap<u64, CatalogEntry>) -> usize {
    let rows: usize = model
        .values()
        .map(|row| {
            42 + row.name.len() + row.class.as_deref().map_or(0, str::len) + row.source.len()
        })
        .sum();
    let classes: std::collections::BTreeSet<&str> = model
        .values()
        .filter_map(|row| row.class.as_deref())
        .collect();
    let sources: std::collections::BTreeSet<&str> =
        model.values().map(|row| row.source.as_str()).collect();
    rows + 32 * (classes.len() + sources.len())
}

proptest! {
    /// The catalog equals a `BTreeMap<u64, CatalogEntry>` model after
    /// every step of a script that registers, re-registers a vid under
    /// another name, class or source, and unregisters sets with
    /// duplicates: `entry`, `export_rows`, `by_class`, `by_classes`,
    /// `classes_count`, `by_source`, `vids` (merged from the per-source
    /// lists), `len` and `footprint_bytes`. Four of the vids lie far past
    /// the others.
    #[test]
    fn vids_equal_the_sorted_row_keys(
        script in proptest::collection::vec(
            (
                0u64..26,
                0usize..4,
                0usize..5,
                0usize..4,
                0u64..12,
                proptest::collection::vec(0u64..26, 0..6),
            ),
            1..40,
        ),
    ) {
        const NAMES: [&str; 4] = ["", "a.tex", "live-00001.tex", "Inbox"];
        const CLASSES: [Option<&str>; 5] =
            [Some("file"), Some("folder"), Some("emailmessage"), Some(""), None];
        const SOURCES: [&str; 3] = ["filesystem", "imap", "rss"];
        let raw = |vid: u64| if vid >= 22 { (1 << 40) + vid } else { vid };
        let catalog = ResourceViewCatalog::new();
        let mut model = std::collections::BTreeMap::new();
        for (vid, name, class, source, content, gone) in script {
            let vid = raw(vid);
            if let Some(source) = SOURCES.get(source) {
                let row = CatalogEntry {
                    vid,
                    name: NAMES[name].to_owned(),
                    class: CLASSES[class].map(str::to_owned),
                    source: (*source).to_owned(),
                    content_size: (content >= 2).then_some(content * 100),
                    content_indexed: content % 2 == 1,
                };
                catalog.register(row.clone());
                model.insert(vid, row);
            } else {
                let mut gone: Vec<Vid> = gone.iter().map(|&vid| Vid::from_raw(raw(vid))).collect();
                gone.extend_from_slice(&gone.clone());
                catalog.unregister_all(&gone);
                for vid in &gone {
                    model.remove(&vid.as_u64());
                }
            }
            for vid in (0u64..26).map(raw) {
                prop_assert_eq!(catalog.entry(Vid::from_raw(vid)).as_ref(), model.get(&vid));
                prop_assert_eq!(catalog.contains(Vid::from_raw(vid)), model.contains_key(&vid));
            }
            let rows: Vec<CatalogEntry> = model.values().cloned().collect();
            prop_assert_eq!(catalog.export_rows(), rows);
            let modeled: Vec<Vid> = model.keys().copied().map(Vid::from_raw).collect();
            prop_assert_eq!(catalog.vids(), modeled);
            prop_assert_eq!(catalog.len(), model.len());
            prop_assert_eq!(catalog.footprint_bytes(), model_footprint(&model));
            let of_class = |class: &str| -> Vec<Vid> {
                model
                    .values()
                    .filter(|row| row.class.as_deref() == Some(class))
                    .map(|row| Vid::from_raw(row.vid))
                    .collect()
            };
            let classes: Vec<&str> = CLASSES.iter().flatten().copied().chain(["ghost"]).collect();
            for class in &classes {
                prop_assert_eq!(catalog.by_class(class), of_class(class));
            }
            for pick in [&classes[..], &classes[..2], &classes[1..3], &classes[4..]] {
                let mut want: Vec<Vid> = pick.iter().flat_map(|class| of_class(class)).collect();
                want.sort();
                prop_assert_eq!(catalog.classes_count(pick), want.len());
                prop_assert_eq!(catalog.by_classes(pick), want);
            }
            for source in SOURCES.iter().chain(&["ghost"]) {
                let want: Vec<Vid> = model
                    .values()
                    .filter(|row| row.source == *source)
                    .map(|row| Vid::from_raw(row.vid))
                    .collect();
                prop_assert_eq!(catalog.by_source(source), want);
            }
        }
    }
}

// ---- Group replica vs core traversal -------------------------------------

proptest! {
    /// descendants() over the replica equals a naive reachability
    /// computation on the same edge set.
    #[test]
    fn replica_descendants_match_naive(edges in proptest::collection::vec((0u64..10, 0u64..10), 0..30)) {
        let replica = GroupReplica::new();
        let mut adjacency: std::collections::HashMap<u64, Vec<Vid>> = Default::default();
        for (a, b) in &edges {
            adjacency.entry(*a).or_default().push(Vid::from_raw(*b));
        }
        for (parent, children) in &adjacency {
            replica.index(Vid::from_raw(*parent), children);
        }

        // Naive BFS.
        let root = 0u64;
        let mut reach: std::collections::HashSet<u64> = Default::default();
        let mut queue = vec![root];
        while let Some(n) = queue.pop() {
            for (a, b) in &edges {
                if *a == n && reach.insert(*b) {
                    queue.push(*b);
                }
            }
        }
        let mut want: Vec<Vid> = reach.into_iter().map(Vid::from_raw).collect();
        want.sort();
        let mut got = replica.descendants(Vid::from_raw(root));
        got.sort();
        prop_assert_eq!(got, want);
    }

    /// parents() is the exact inverse of children().
    #[test]
    fn replica_reverse_is_inverse(edges in proptest::collection::vec((0u64..8, 0u64..8), 0..25)) {
        let replica = GroupReplica::new();
        let mut adjacency: std::collections::HashMap<u64, Vec<Vid>> = Default::default();
        for (a, b) in &edges {
            adjacency.entry(*a).or_default().push(Vid::from_raw(*b));
        }
        for (parent, children) in &adjacency {
            replica.index(Vid::from_raw(*parent), children);
        }
        for node in 0u64..8 {
            let vid = Vid::from_raw(node);
            for child in replica.children(vid) {
                prop_assert!(replica.parents(child).contains(&vid));
            }
            for parent in replica.parents(vid) {
                prop_assert!(replica.children(parent).contains(&vid));
            }
        }
    }
}

/// The nodes `start` reaches over one or more exported edges, followed
/// forward or backward (`start` itself only through a cycle).
fn naive_reach(edges: &[(u64, Vec<u64>)], start: u64, forward: bool) -> Vec<Vid> {
    let mut reach = std::collections::BTreeSet::new();
    let mut queue = vec![start];
    while let Some(node) = queue.pop() {
        for (parent, children) in edges {
            for &child in children {
                let (from, to) = if forward {
                    (*parent, child)
                } else {
                    (child, *parent)
                };
                if from == node && reach.insert(to) {
                    queue.push(to);
                }
            }
        }
    }
    reach.into_iter().map(Vid::from_raw).collect()
}

proptest! {
    /// After any script of index / re-index / remove / export→import
    /// over a small vid range — cycles, self-loops and repeated members
    /// included — the slices `read()` lends equal the owned `children` /
    /// `parents`, the in-edges are the exported out-edges inverted, and
    /// `descendants`, `ancestors` and `reaches` equal a naive BFS over
    /// `export_edges()`.
    #[test]
    fn replica_reads_equal_naive_walks(
        script in proptest::collection::vec(
            (0u8..6, 0u64..8, proptest::collection::vec(0u64..8, 0..5)),
            1..30,
        ),
    ) {
        let mut replica = GroupReplica::new();
        for (op, parent, members) in script {
            let parent = Vid::from_raw(parent);
            match op {
                0..=3 => {
                    let members: Vec<Vid> = members.into_iter().map(Vid::from_raw).collect();
                    replica.index(parent, &members);
                }
                4 => replica.remove(parent),
                _ => {
                    let restored = GroupReplica::new();
                    restored.import_edges(replica.export_edges());
                    replica = restored;
                }
            }
            let edges = replica.export_edges();
            prop_assert_eq!(
                replica.edge_count(),
                edges.iter().map(|(_, children)| children.len()).sum::<usize>()
            );
            for node in 0u64..9 {
                let vid = Vid::from_raw(node);
                let (children, parents) = {
                    let read = replica.read();
                    (read.children(vid).to_vec(), read.parents(vid).to_vec())
                };
                prop_assert_eq!(&children, &replica.children(vid));
                prop_assert_eq!(&parents, &replica.parents(vid));
                let mut parents = parents;
                parents.sort();
                let mut inverted: Vec<Vid> = edges
                    .iter()
                    .flat_map(|(p, c)| c.iter().filter(|&&c| c == node).map(|_| Vid::from_raw(*p)))
                    .collect();
                inverted.sort();
                prop_assert_eq!(parents, inverted, "in-edges of {}", node);

                let forward = naive_reach(&edges, node, true);
                let mut descendants = replica.descendants(vid);
                descendants.sort();
                prop_assert_eq!(&descendants, &forward, "descendants of {}", node);
                let mut ancestors = replica.ancestors(vid);
                ancestors.sort();
                prop_assert_eq!(ancestors, naive_reach(&edges, node, false), "ancestors of {}", node);
                for target in 0u64..9 {
                    let target = Vid::from_raw(target);
                    prop_assert_eq!(
                        replica.reaches(vid, target),
                        forward.contains(&target),
                        "{} reaches {:?}", node, target
                    );
                }
            }
        }
    }
}

// ---- set-wise removal and re-indexing vs the single-view path ---------------

type ArbView = (String, String, i64, bool);

fn arb_views(max: usize) -> impl Strategy<Value = Vec<ArbView>> {
    proptest::collection::vec(
        ("[a-d ]{0,20}", "[a-c]{1,3}", -5i64..5, any::<bool>()),
        1..max,
    )
}

/// Inserts the views (each the child of its predecessor, classes and
/// sources alternating) and indexes them one by one.
fn indexed(
    views: &[ArbView],
) -> (
    idm_core::prelude::ViewStore,
    idm_index::IndexBundle,
    Vec<Vid>,
) {
    let store = idm_core::prelude::ViewStore::new();
    let bundle = idm_index::IndexBundle::new();
    let mut vids: Vec<Vid> = Vec::new();
    for (text, name, size, flag) in views {
        let mut builder = store
            .build(name.clone())
            .text(text.clone())
            .tuple(TupleComponent::of(vec![("size", Value::Integer(*size))]))
            .class_named(if *flag { "file" } else { "folder" });
        if let Some(prev) = vids.last() {
            builder = builder.children(vec![*prev]);
        }
        let vid = builder.insert();
        bundle
            .index_view(&store, vid, if *flag { "left" } else { "right" })
            .unwrap();
        vids.push(vid);
    }
    (store, bundle, vids)
}

/// Everything observable about a bundle: its serialized form (which
/// carries `document_count` and `token_count`) and the planner's
/// counters, which are not serialized.
fn observable(bundle: &idm_index::IndexBundle) -> (Vec<u8>, Vec<usize>) {
    let counters = vec![
        bundle.content.document_count(),
        bundle.content.term_count(),
        bundle.name.entry_count(),
        bundle.tuple.view_count(),
        bundle.tuple.attribute_count("size"),
        bundle.group.edge_count(),
        bundle.catalog.class_count("file"),
        bundle.catalog.class_count("folder"),
        bundle.catalog.by_source("left").len(),
        bundle.sizes().total(),
    ];
    (idm_index::persist::to_bytes_with_epoch(bundle, 0), counters)
}

proptest! {
    /// Removing a set of views in one call leaves exactly what removing
    /// them one by one leaves — small sets against long posting lists and
    /// large sets against short ones alike.
    #[test]
    fn set_removal_equals_single_removals(views in arb_views(30),
                                          picks in proptest::collection::vec(0usize..40, 0..30)) {
        let (_s1, set_wise, vids) = indexed(&views);
        let (_s2, one_by_one, _) = indexed(&views);
        // Duplicates and vids the bundle never saw are part of the input.
        let victims: Vec<Vid> = picks
            .iter()
            .map(|&p| vids.get(p).copied().unwrap_or(Vid::from_raw(1_000 + p as u64)))
            .collect();
        set_wise.remove_views(&victims);
        for &vid in &victims {
            one_by_one.remove_view(vid);
        }
        prop_assert_eq!(observable(&set_wise), observable(&one_by_one));
        let survivors = vids.iter().filter(|v| !victims.contains(v)).count();
        prop_assert_eq!(set_wise.catalog.len(), survivors);
    }

    /// `reindex_views` over the views a store changed behind the bundle's
    /// back yields the bundle a rebuild from that store yields.
    #[test]
    fn reindex_views_equals_rebuild(views in arb_views(20),
                                    edits in proptest::collection::vec((0usize..20, 0u8..4, "[a-d ]{0,12}"), 0..20)) {
        let (store, bundle, vids) = indexed(&views);
        let mut touched = Vec::new();
        for (pick, kind, text) in edits {
            let vid = vids[pick % vids.len()];
            touched.push(vid);
            if !store.contains(vid) {
                continue;
            }
            match kind {
                0 => store.set_name(vid, Some(text)).unwrap(),
                1 => store.set_content(vid, idm_core::prelude::Content::text(text)).unwrap(),
                2 => store.set_tuple(vid, None).unwrap(),
                _ => drop(store.remove(vid).unwrap()),
            }
        }
        // A view created and removed again is named but known to no one.
        let ghost = store.build("ghost").insert();
        store.remove(ghost).unwrap();
        touched.push(ghost);

        let rebuilt_count = bundle.reindex_views(&store, &touched).unwrap();
        let mut live: Vec<Vid> = touched.iter().copied().filter(|v| store.contains(*v)).collect();
        live.sort();
        live.dedup();
        prop_assert_eq!(rebuilt_count, live.len());

        let rebuilt = idm_index::IndexBundle::new();
        for vid in store.vids() {
            let source = bundle.catalog.entry(vid).map(|e| e.source).unwrap();
            rebuilt.index_view(&store, vid, &source).unwrap();
        }
        prop_assert_eq!(observable(&bundle), observable(&rebuilt));
        let report = idm_index::audit(&bundle, &store, idm_index::AuditScope::Full, None).unwrap();
        prop_assert!(report.is_clean(), "{:?}", report);
    }
}

// ---- any script of index / re-index / remove / reload vs a rebuild ---------

/// One pool view: name, text, tuple pairs, whether it is a `file` (and
/// from source `left`) or a `folder` (from `right`).
type PoolView = (String, String, Vec<(String, Value)>, bool);

fn arb_pool() -> impl Strategy<Value = Vec<PoolView>> {
    proptest::collection::vec(
        (
            "[a-c]{1,3}",
            "[a-d ]{0,20}",
            // A tuple may name `x` twice, even with one value, and
            // `arb_value` holds `NaN` and the integers `f64` rounds.
            proptest::collection::vec(("[xy]", arb_value()), 1..5),
            any::<bool>(),
        ),
        2..10,
    )
}

fn pool_tuple(pairs: &[(String, Value)]) -> TupleComponent {
    TupleComponent::of(pairs.iter().map(|(a, v)| (a.as_str(), v.clone())).collect())
}

/// Everything `observable` sees, plus the token count, the catalog
/// lists in the order they are handed out and the tuple columns' answers.
fn observable_in_full(bundle: &idm_index::IndexBundle) -> impl PartialEq + std::fmt::Debug {
    let lists: Vec<Vec<Vid>> = ["file", "folder"]
        .iter()
        .map(|c| bundle.catalog.by_class(c))
        .chain(
            ["left", "right"]
                .iter()
                .map(|s| bundle.catalog.by_source(s)),
        )
        .collect();
    let mut columns = Vec::new();
    for attr in ["x", "y"] {
        columns.push(bundle.tuple.has_attribute(attr));
        columns.push(vec![Vid::from_raw(
            bundle.tuple.attribute_count(attr) as u64
        )]);
        for constant in [Value::Integer(0), Value::Float(f64::NAN), Value::Float(1.5)] {
            for op in OPS {
                columns.push(bundle.tuple.compare(attr, op, &constant));
            }
        }
    }
    (
        observable(bundle),
        bundle.content.token_count(),
        lists,
        columns,
    )
}

proptest! {
    /// After any interleaving of indexing views out of vid order,
    /// re-indexing edited views, set-wise removal (duplicates and vids
    /// never seen included), tuple reads and a save → load, the bundle
    /// is the one indexing the survivors afresh builds: removal is
    /// checked against a rebuild, not against a second removal path.
    #[test]
    fn any_script_equals_a_rebuild_of_the_survivors(
        pool in arb_pool(),
        script in proptest::collection::vec(
            (0u8..7, 0usize..12, proptest::collection::vec(0usize..14, 0..6)),
            1..30,
        ),
        edits in proptest::collection::vec(arb_pool(), 1..2),
    ) {
        let store = idm_core::prelude::ViewStore::new();
        let mut vids: Vec<Vid> = Vec::new();
        for (name, text, pairs, file) in &pool {
            let mut builder = store
                .build(name.clone())
                .text(text.clone())
                .tuple(pool_tuple(pairs))
                .class_named(if *file { "file" } else { "folder" });
            if let Some(prev) = vids.last() {
                builder = builder.children(vec![*prev]);
            }
            vids.push(builder.insert());
        }
        let source = |at: usize| if pool[at].3 { "left" } else { "right" };
        let mut bundle = idm_index::IndexBundle::new();
        let mut indexed: std::collections::BTreeSet<usize> = Default::default();
        let edits = &edits[0];
        let check = |bundle: &idm_index::IndexBundle, indexed: &std::collections::BTreeSet<usize>| {
            let rebuilt = idm_index::IndexBundle::new();
            for &at in indexed {
                rebuilt.index_view(&store, vids[at], source(at)).unwrap();
            }
            (observable_in_full(bundle), observable_in_full(&rebuilt))
        };
        for (op, pick, set) in script {
            let at = pick % vids.len();
            match op {
                // Index a view not indexed yet: vids arrive out of order.
                0 | 1 => {
                    if indexed.insert(at) {
                        bundle.index_view(&store, vids[at], source(at)).unwrap();
                    }
                }
                // Edit a view and re-index it, through either caller's path.
                2 => {
                    let (name, text, pairs, _) = &edits[pick % edits.len()];
                    let vid = vids[at];
                    store.set_name(vid, Some(name.clone())).unwrap();
                    store.set_content(vid, idm_core::prelude::Content::text(text.clone())).unwrap();
                    store.set_tuple(vid, Some(pool_tuple(pairs))).unwrap();
                    if indexed.contains(&at) {
                        if set.len() % 2 == 0 {
                            bundle.reindex_views(&store, &[vid, vid]).unwrap();
                        } else {
                            bundle.remove_view(vid);
                            bundle.index_view(&store, vid, source(at)).unwrap();
                        }
                    }
                }
                // Remove a set: duplicates, unindexed and unknown vids.
                3 => {
                    let victims: Vec<Vid> = set
                        .iter()
                        .map(|&p| vids.get(p).copied().unwrap_or(Vid::from_raw(1_000 + p as u64)))
                        .collect();
                    bundle.remove_views(&victims);
                    for &p in &set {
                        indexed.remove(&p);
                    }
                }
                // A read between writes.
                4 => {
                    for attr in ["x", "y"] {
                        bundle.tuple.compare(attr, CompareOp::Ge, &Value::Integer(0));
                    }
                }
                5 => {
                    let bytes = idm_index::persist::to_bytes_with_epoch(&bundle, 0);
                    bundle = idm_index::persist::from_bytes_with_epoch(&bytes).unwrap().0;
                }
                _ => {
                    let (got, want) = check(&bundle, &indexed);
                    prop_assert_eq!(got, want);
                }
            }
        }
        let (got, want) = check(&bundle, &indexed);
        prop_assert_eq!(got, want);
    }
}

/// A checksum-valid index file whose one posting names a vid near
/// `u64::MAX` loads without an allocation sized by that vid, and the
/// document it names can be found and removed.
#[test]
fn a_posting_near_the_largest_vid_loads() {
    let bundle = idm_index::IndexBundle::new();
    let far = Vid::from_raw(u64::MAX - 1);
    index_text(&bundle.content, far, "distant words");
    let bytes = idm_index::persist::to_bytes_with_epoch(&bundle, 0);
    let (loaded, _) = idm_index::persist::from_bytes_with_epoch(&bytes).expect("loads");
    assert_eq!(loaded.content.term_query("distant"), vec![far]);
    loaded.content.remove(far);
    assert!(loaded.content.term_query("words").is_empty());
    assert_eq!(loaded.content.term_count(), 0);
    assert_eq!(loaded.content.document_count(), 0);
}

/// A sealed `IDMIDX02` file whose one term holds `postings`, each a
/// vid delta and its position deltas, as the format writes them.
fn sealed_postings(postings: &[(u64, &[u64])]) -> Vec<u8> {
    use idm_core::durability::artifact;

    artifact::seal(b"IDMIDX02", |sealed| {
        sealed.put_u64(0); // epoch
        sealed.put_u64(0); // catalog rows
        sealed.put_u64(0); // names
        sealed.put_u64(0); // tuples
        sealed.put_u64(postings.len() as u64); // documents
        sealed.put_u64(2); // tokens
        sealed.put_u64(1); // terms
        sealed.put_str("word");
        sealed.put_u64(postings.len() as u64);
        for &(delta, positions) in postings {
            sealed.put_u64(delta);
            sealed.put_u64(positions.len() as u64);
            for &position in positions {
                sealed.put_u64(position);
            }
        }
        sealed.put_u64(0); // group parents
        Ok(())
    })
}

/// A posting list that names a vid twice, or descends, is damage: the
/// sealed file is rejected, not loaded into a list binary search
/// cannot read.
#[test]
fn a_posting_list_out_of_vid_order_is_an_error() {
    for deltas in [[7u64, 0], [u64::MAX, 2]] {
        let sealed = sealed_postings(&[(deltas[0], &[0]), (deltas[1], &[0])]);
        assert!(
            idm_index::persist::from_bytes_with_epoch(&sealed).is_err(),
            "{deltas:?}"
        );
    }
}

/// Positions that go backwards are damage too: a delta of 2^32 or more,
/// or deltas whose sum passes `u32::MAX`, cannot be held as deltas, and
/// the file is rejected. The largest position that fits loads.
#[test]
fn positions_that_go_backwards_are_an_error() {
    let max = u64::from(u32::MAX);
    for deltas in [&[3, 1 << 32][..], &[max, 1], &[5, u64::MAX]] {
        let sealed = sealed_postings(&[(1, deltas)]);
        assert!(
            idm_index::persist::from_bytes_with_epoch(&sealed).is_err(),
            "{deltas:?}"
        );
    }
    let sealed = sealed_postings(&[(1, &[max - 1, 0, 1])]);
    let (bundle, _) = idm_index::persist::from_bytes_with_epoch(&sealed).expect("loads");
    let want = vec![u32::MAX - 1, u32::MAX - 1, u32::MAX];
    assert_eq!(
        bundle.content.export_postings(),
        [("word".to_owned(), vec![(1, want)])]
    );
    assert_eq!(bundle.content.phrase_query("word word"), [Vid::from_raw(1)]);
}

/// The saved bytes do not depend on the order the term dictionary
/// hashes into: the same documents, indexed forward into one bundle and
/// backward into another with one-off terms indexed and removed again
/// between them, save to identical files.
#[test]
fn saved_bytes_do_not_depend_on_hash_order() {
    let store = idm_core::prelude::ViewStore::new();
    let docs: Vec<Vid> = (0..64)
        .map(|i| {
            store
                .build(format!("doc{i}.txt"))
                .text(format!("doc{i} shared words w{} w{}", i % 7, i * 31 % 101))
                .insert()
        })
        .collect();
    let forward = idm_index::IndexBundle::new();
    for &vid in &docs {
        forward.index_view(&store, vid, "fs").unwrap();
    }
    let churned = idm_index::IndexBundle::new();
    for (k, &vid) in docs.iter().rev().enumerate() {
        churned.index_view(&store, vid, "fs").unwrap();
        let churn: Vec<Vid> = (0..8)
            .map(|i| {
                let vid = store
                    .build("churn")
                    .text(format!("once{k}x{i} only{k}y{i}"))
                    .insert();
                churned.index_view(&store, vid, "fs").unwrap();
                vid
            })
            .collect();
        churned.remove_views(&churn);
    }
    assert_eq!(churned.content.term_count(), forward.content.term_count());

    let dir = std::env::temp_dir().join(format!("idm-index-hash-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let saved = |bundle: &idm_index::IndexBundle, file: &str| {
        let path = dir.join(file);
        idm_index::persist::save_with_epoch(bundle, &path, 5).unwrap();
        std::fs::read(&path).unwrap()
    };
    assert_eq!(
        saved(&forward, "forward.idm"),
        saved(&churned, "churned.idm")
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---- persistence roundtrip on arbitrary bundles ---------------------------

proptest! {
    /// Arbitrary bundles roundtrip through the binary format.
    #[test]
    fn persist_roundtrip(docs in proptest::collection::vec(
        ("[a-z .]{0,30}", "[a-z0-9._]{1,10}", -1000i64..1000),
        0..15,
    )) {
        use idm_core::prelude::{TupleComponent, Value, ViewStore};
        let store = ViewStore::new();
        let bundle = idm_index::IndexBundle::new();
        let mut prev = None;
        for (text, name, size) in docs {
            let mut builder = store.build(name).text(text);
            builder = builder.tuple(TupleComponent::of(vec![("size", Value::Integer(size))]));
            if let Some(prev) = prev {
                builder = builder.children(vec![prev]);
            }
            let vid = builder.insert();
            bundle.index_view(&store, vid, "prop").unwrap();
            prev = Some(vid);
        }
        let bytes = idm_index::persist::to_bytes_with_epoch(&bundle, 0);
        let (loaded, _) = idm_index::persist::from_bytes_with_epoch(&bytes).expect("roundtrip");
        prop_assert_eq!(loaded.catalog.export_rows(), bundle.catalog.export_rows());
        prop_assert_eq!(loaded.name.export_names(), bundle.name.export_names());
        prop_assert_eq!(loaded.content.export_postings(), bundle.content.export_postings());
        prop_assert_eq!(loaded.group.export_edges(), bundle.group.export_edges());
        prop_assert_eq!(loaded.tuple.export_replica(), bundle.tuple.export_replica());
        // Determinism: re-encoding the loaded bundle gives the same bytes.
        prop_assert_eq!(idm_index::persist::to_bytes_with_epoch(&loaded, 0), bytes);
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn persist_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = idm_index::persist::from_bytes_with_epoch(&bytes);
    }

    /// Any byte-level truncation of a checksummed index file is an
    /// error — never a panic, never a silently short bundle.
    #[test]
    fn persist_truncation_always_errors(cut in 0usize..10_000, epoch in 0u64..1000) {
        let bundle = small_bundle();
        let bytes = idm_index::persist::to_bytes_with_epoch(&bundle, epoch);
        let cut = cut % bytes.len(); // strictly shorter than the file
        prop_assert!(idm_index::persist::from_bytes_with_epoch(&bytes[..cut]).is_err());
    }

    /// Any single-byte corruption of a checksummed index file is an
    /// error: the trailing FNV-1a checksum catches every flip.
    #[test]
    fn persist_single_byte_corruption_always_errors(
        pos in 0usize..10_000,
        flip in 1u8..=255,
        epoch in 0u64..1000,
    ) {
        let bundle = small_bundle();
        let mut bytes = idm_index::persist::to_bytes_with_epoch(&bundle, epoch);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(idm_index::persist::from_bytes_with_epoch(&bytes).is_err());
    }
}

fn small_bundle() -> idm_index::IndexBundle {
    use idm_core::prelude::{TupleComponent, Value, ViewStore};
    let store = ViewStore::new();
    let bundle = idm_index::IndexBundle::new();
    let child = store.build("leaf.txt").text("leaf words here").insert();
    bundle.index_view(&store, child, "prop").unwrap();
    let parent = store
        .build("root")
        .tuple(TupleComponent::of(vec![("size", Value::Integer(42))]))
        .text("root document about dataspaces")
        .children(vec![child])
        .insert();
    bundle.index_view(&store, parent, "prop").unwrap();
    bundle
}

/// A tuple arity of 2^62 must be an error, not a "capacity overflow"
/// panic — both in the pre-checksum `IDMIDX01` spelling (rejected at
/// the magic) and sealed as a checksum-valid `IDMIDX02` artifact (which
/// reaches the tuple decoder and its allocation cap).
#[test]
fn huge_tuple_arity_is_an_error_not_a_panic() {
    use idm_core::durability::artifact;
    use idm_core::durability::codec::Encoder;

    let mut sections = Encoder::new();
    sections.put_u64(0); // catalog rows
    sections.put_u64(0); // names
    sections.put_u64(1); // tuples
    sections.put_u64(0); // vid
    sections.put_u64(1 << 62); // arity
    let sections = sections.into_bytes();

    let legacy = [b"IDMIDX01".as_slice(), &sections].concat();
    assert!(idm_index::persist::from_bytes_with_epoch(&legacy).is_err());

    let sealed = artifact::seal(b"IDMIDX02", |sealed| {
        sealed.put_u64(0); // epoch
        sealed.put_raw(&sections);
        Ok(())
    });
    assert!(idm_index::persist::from_bytes_with_epoch(&sealed).is_err());
}

/// A file whose magic says `IDMIDX01` is damage to the loader and to
/// artifact verification alike, even with an otherwise intact body.
#[test]
fn legacy_magic_is_rejected_by_load_and_by_verification() {
    use idm_core::durability::scrub::verify_artifact;
    use idm_core::durability::Verdict;

    let dir = std::env::temp_dir().join(format!("idm-index-legacy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("indexes.idm");
    let mut bytes = idm_index::persist::to_bytes_with_epoch(&small_bundle(), 3);
    assert_eq!(&bytes[..8], b"IDMIDX02");
    bytes[7] = b'1';
    std::fs::write(&path, &bytes).unwrap();

    assert!(idm_index::persist::load_with_epoch(&path).is_err());
    let verdict = verify_artifact(&idm_index::persist::artifact_at(&path)).unwrap();
    assert!(matches!(verdict, Verdict::Damaged(_)), "{verdict:?}");
    std::fs::remove_dir_all(&dir).ok();
}
