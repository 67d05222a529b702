//! Index audit & repair: cross-checks the Replica&Indexes structures
//! against the live [`ViewStore`] and rebuilds any view whose postings
//! drifted.
//!
//! The indexes are *derived* state — every entry must be recomputable
//! from the store — so an audit needs no second source of truth: for a
//! view `v` it re-derives what each structure should hold and compares.
//! Per-slot **version counters** in the store make repeated audits
//! cheap: a [`AuditMemo`] remembers the version each view last verified
//! clean at, and an unchanged view is skipped entirely.
//!
//! Repair is [`IndexBundle::reindex_views`] over the audit's findings —
//! the same body a reopen uses to catch a loaded bundle up with the
//! WAL tail: the views are removed from every structure and the live
//! ones rebuilt through [`IndexSegment::build`](crate::IndexSegment::build)
//! and [`IndexBundle::merge_segment`], so a repaired index is
//! indistinguishable from a freshly built one.

use std::collections::HashMap;

use idm_core::prelude::*;

use crate::bundle::IndexBundle;
use crate::fulltext::pretokenize;

/// How much of the store one audit round cross-checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditScope {
    /// A deterministic pseudo-random sample of at most `sample` views
    /// (cheap steady-state rounds).
    Sampled {
        /// Maximum views checked this round.
        sample: usize,
        /// Seed for the deterministic pick; vary it per round to cover
        /// the whole store over time.
        seed: u64,
    },
    /// Every live view, plus stale-entry detection (catalog entries for
    /// views the store no longer holds).
    Full,
}

/// One index/store disagreement.
#[derive(Debug, Clone)]
pub struct AuditMismatch {
    /// The drifted view.
    pub vid: u64,
    /// Which structure disagreed and how.
    pub detail: String,
}

/// What one audit round found.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Views cross-checked this round.
    pub views_checked: usize,
    /// Views skipped because their version was unchanged since the last
    /// clean check.
    pub skipped_unchanged: usize,
    /// Views whose postings disagree with the store.
    pub mismatches: Vec<AuditMismatch>,
    /// Catalog entries for views the store no longer holds (found only
    /// by [`AuditScope::Full`]).
    pub stale_entries: Vec<u64>,
}

impl AuditReport {
    /// Whether every checked view verified clean.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.stale_entries.is_empty()
    }
}

/// Version memo carried across audit rounds: vid → store version at the
/// last clean check. Unchanged views are skipped.
#[derive(Debug, Default)]
pub struct AuditMemo {
    versions: HashMap<u64, u64>,
}

impl AuditMemo {
    /// An empty memo (first audit checks everything it samples).
    pub fn new() -> Self {
        AuditMemo::default()
    }

    /// Forgets everything (e.g. after an index reload).
    pub fn clear(&mut self) {
        self.versions.clear();
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sorted(mut vids: Vec<Vid>) -> Vec<u64> {
    vids.sort_unstable();
    let mut raw: Vec<u64> = vids.into_iter().map(|v| v.as_u64()).collect();
    raw.dedup();
    raw
}

/// Cross-checks one view against every structure. Returns `None` when
/// clean, `Some(detail)` on the first disagreement.
fn check_view(bundle: &IndexBundle, store: &ViewStore, vid: Vid) -> Result<Option<String>> {
    // Catalog row.
    let Some(entry) = bundle.catalog.entry(vid) else {
        return Ok(Some("missing catalog entry".into()));
    };
    let store_name = store.with_name(vid, |n| n.map(str::to_owned))?;
    if entry.name != store_name.clone().unwrap_or_default() {
        return Ok(Some(format!(
            "catalog name {:?} != store name {:?}",
            entry.name, store_name
        )));
    }
    let store_class = store.class(vid)?.map(|c| store.classes().name(c));
    if entry.class != store_class {
        return Ok(Some(format!(
            "catalog class {:?} != store class {:?}",
            entry.class, store_class
        )));
    }

    // Name index: the store's name must resolve back to this vid (the
    // empty name is, like no name, not indexed).
    if let Some(name) = store_name.as_deref().filter(|n| !n.is_empty()) {
        if !bundle.name.exact(name).contains(&vid) {
            return Ok(Some(format!("name index misses {name:?}")));
        }
    }

    // Tuple replica: byte-equal tuple component.
    let store_tuple = store.with_tuple(vid, |t| t.cloned())?;
    if bundle.tuple.tuple_of(vid) != store_tuple {
        return Ok(Some("tuple replica drifted".into()));
    }

    // Content index: spot-check term frequencies for the first distinct
    // terms of the re-derived token stream (the index is not a replica,
    // so full reconstruction is impossible by design). The terms are
    // normalized already, so they are looked up as they are.
    if entry.content_indexed {
        let content = store.content(vid)?;
        if content.is_finite() && !content.is_empty() {
            let bytes = content.bytes()?;
            let doc = pretokenize(&String::from_utf8_lossy(&bytes));
            for (term, positions) in doc.iter().flat_map(|doc| doc.per_term()).take(8) {
                let indexed = bundle.content.normalized_frequency(vid, term);
                let count = positions.len();
                if indexed != count {
                    return Ok(Some(format!(
                        "content index has {indexed} occurrence(s) of {term:?}, store text has {count}"
                    )));
                }
            }
        }
    }

    // Group replica: forward adjacency equals materialized members.
    let expected_children: Vec<u64> = match &store.group_handle(vid)? {
        Group::Materialized(data) => sorted(data.members().collect()),
        Group::Lazy(lazy) if lazy.is_materialized() => {
            sorted(lazy.force(store, vid)?.members().collect())
        }
        _ => Vec::new(),
    };
    let indexed_children = sorted(bundle.group.children(vid));
    if indexed_children != expected_children {
        return Ok(Some(format!(
            "group replica has {} child(ren), store has {}",
            indexed_children.len(),
            expected_children.len()
        )));
    }
    Ok(None)
}

/// Runs one audit round. With a [`AuditMemo`], views whose store version
/// is unchanged since their last clean check are skipped (per-slot
/// version counters make drift detection O(changed views), not
/// O(store)).
///
/// A view mutated concurrently mid-check is not reported: its version is
/// re-read after a mismatch and a changed version voids the finding
/// (maintenance will have updated the index through the normal path).
pub fn audit(
    bundle: &IndexBundle,
    store: &ViewStore,
    scope: AuditScope,
    mut memo: Option<&mut AuditMemo>,
) -> Result<AuditReport> {
    let mut report = AuditReport::default();
    let mut vids = store.vids();
    vids.sort_unstable();

    let picked: Vec<Vid> = match scope {
        AuditScope::Full => vids.clone(),
        AuditScope::Sampled { sample, seed } => {
            if vids.len() <= sample {
                vids.clone()
            } else {
                let mut state = seed;
                let mut picked = Vec::with_capacity(sample);
                let mut pool = vids.clone();
                for _ in 0..sample {
                    let at = (splitmix(&mut state) % pool.len() as u64) as usize;
                    picked.push(pool.swap_remove(at));
                }
                picked.sort_unstable();
                picked
            }
        }
    };

    for vid in picked {
        let version_before = match store.version(vid) {
            Ok(v) => v,
            Err(_) => continue, // removed mid-round
        };
        if let Some(memo) = memo.as_deref_mut() {
            if memo.versions.get(&vid.as_u64()) == Some(&version_before) {
                report.skipped_unchanged += 1;
                continue;
            }
        }
        report.views_checked += 1;
        match check_view(bundle, store, vid)? {
            None => {
                if let Some(memo) = memo.as_deref_mut() {
                    memo.versions.insert(vid.as_u64(), version_before);
                }
            }
            Some(detail) => {
                let racing = store
                    .version(vid)
                    .map(|v| v != version_before)
                    .unwrap_or(true);
                if !racing {
                    report.mismatches.push(AuditMismatch {
                        vid: vid.as_u64(),
                        detail,
                    });
                }
            }
        }
    }

    if scope == AuditScope::Full {
        for vid in bundle.catalog.vids() {
            if !store.contains(vid) {
                report.stale_entries.push(vid.as_u64());
            }
        }
        report.stale_entries.sort_unstable();
    }
    Ok(report)
}

/// Repairs every finding of `report` through
/// [`IndexBundle::reindex_views`]: stale catalog entries leave every
/// structure, drifted views are removed and rebuilt through the segment
/// path under their catalog source, so source accounting survives the
/// rebuild. Returns the number of views repaired.
pub fn repair(bundle: &IndexBundle, store: &ViewStore, report: &AuditReport) -> Result<usize> {
    let vids: Vec<Vid> = report
        .stale_entries
        .iter()
        .chain(report.mismatches.iter().map(|m| &m.vid))
        .map(|&vid| Vid::from_raw(vid))
        .collect();
    let rebuilt = bundle.reindex_views(store, &vids)?;
    Ok(report.stale_entries.len() + rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indexed_store() -> (ViewStore, IndexBundle, [Vid; 3]) {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        let a = store
            .build("alpha.txt")
            .text("alpha beta beta gamma")
            .insert();
        let b = store.build("beta.txt").text("delta epsilon").insert();
        let g = store.build("folder").children(vec![a, b]).insert();
        for vid in [a, b, g] {
            bundle.index_view(&store, vid, "test").unwrap();
        }
        (store, bundle, [a, b, g])
    }

    #[test]
    fn clean_bundle_audits_clean() {
        let (store, bundle, _) = indexed_store();
        let report = audit(&bundle, &store, AuditScope::Full, None).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.views_checked, 3);
    }

    #[test]
    fn memo_skips_unchanged_views() {
        let (store, bundle, [vid, _, _]) = indexed_store();
        let mut memo = AuditMemo::new();
        let first = audit(&bundle, &store, AuditScope::Full, Some(&mut memo)).unwrap();
        assert_eq!(first.views_checked, 3);
        let second = audit(&bundle, &store, AuditScope::Full, Some(&mut memo)).unwrap();
        assert_eq!(second.views_checked, 0);
        assert_eq!(second.skipped_unchanged, 3);

        // A mutation re-enters the audit set.
        store.set_name(vid, Some("renamed.txt".into())).unwrap();
        let third = audit(&bundle, &store, AuditScope::Full, Some(&mut memo)).unwrap();
        assert_eq!(third.views_checked, 1);
    }

    #[test]
    fn drifted_postings_are_found_and_repaired() {
        let (store, bundle, [vid, _, _]) = indexed_store();
        // Sabotage three structures behind the store's back.
        bundle.name.remove(vid, "alpha.txt");
        bundle.content.remove(vid);
        bundle.tuple.remove(vid);

        let report = audit(&bundle, &store, AuditScope::Full, None).unwrap();
        assert_eq!(report.mismatches.len(), 1, "{report:?}");
        assert_eq!(report.mismatches[0].vid, vid.as_u64());

        let repaired = repair(&bundle, &store, &report).unwrap();
        assert_eq!(repaired, 1);
        let after = audit(&bundle, &store, AuditScope::Full, None).unwrap();
        assert!(after.is_clean(), "{after:?}");
        assert_eq!(bundle.name.exact("alpha.txt"), vec![vid]);
        assert_eq!(bundle.content.term_frequency(vid, "beta"), 2);
        // Source label survived the rebuild.
        assert_eq!(bundle.catalog.entry(vid).unwrap().source, "test");
    }

    /// `'İ'` lowercases to `"i\u{307}"`, and U+0307 is not alphanumeric,
    /// so tokenizing the indexed term again would split it: the audit
    /// reads the indexed term as it is.
    #[test]
    fn a_term_that_tokenizes_differently_again_audits_clean() {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        let vid = store.build("trip.txt").text("İstanbul notes").insert();
        bundle.index_view(&store, vid, "test").unwrap();
        let report = audit(&bundle, &store, AuditScope::Full, None).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(bundle.content.term_frequency(vid, "İstanbul"), 1);
    }

    #[test]
    fn stale_catalog_entries_are_found_and_removed() {
        let (store, bundle, [_, vid, _]) = indexed_store();
        store.remove(vid).unwrap();
        // The bundle was never told: a stale entry plus a drifted group
        // replica (the folder still lists the removed child — allowed,
        // group edges may dangle, so only the catalog is stale).
        let report = audit(&bundle, &store, AuditScope::Full, None).unwrap();
        assert_eq!(report.stale_entries, vec![vid.as_u64()]);

        repair(&bundle, &store, &report).unwrap();
        assert!(!bundle.catalog.contains(vid));
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        for i in 0..50 {
            let vid = store.build(format!("v{i}")).text("x").insert();
            bundle.index_view(&store, vid, "test").unwrap();
        }
        let a = audit(
            &bundle,
            &store,
            AuditScope::Sampled {
                sample: 7,
                seed: 42,
            },
            None,
        )
        .unwrap();
        let b = audit(
            &bundle,
            &store,
            AuditScope::Sampled {
                sample: 7,
                seed: 42,
            },
            None,
        )
        .unwrap();
        assert_eq!(a.views_checked, 7);
        assert_eq!(b.views_checked, 7);
        assert!(a.is_clean() && b.is_clean());
    }
}
