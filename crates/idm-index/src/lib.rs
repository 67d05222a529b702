//! # idm-index — the Replica&Indexes module of iMeMex (Section 5.2)
//!
//! The paper's prototype used Apache Lucene for full-text indexes and
//! Apache Derby for the Resource View Catalog; this crate rebuilds both
//! from scratch, mirroring the four per-component structures used in the
//! evaluation (Section 7.2):
//!
//! 1. **Name Index & Replica** ([`name`]) — resolves exact and wildcard
//!    name patterns and stores the name values themselves,
//! 2. **Tuple Index & Replica** (mod `tuple`) — an in-memory, vertically
//!    partitioned sorted-column index over tuple component attributes
//!    (the paper cites the Decomposition Storage Model \[11\]),
//! 3. **Content Index** ([`fulltext`]) — a positional inverted keyword
//!    index supporting keyword, boolean and phrase queries; *not* a
//!    replica: the original content cannot be reconstructed from it,
//! 4. **Group Replica** ([`group`]) — forward and reverse adjacency over
//!    group components, so path expansion never touches the sources.
//!
//! Plus the **Resource View Catalog** ([`catalog`]) where every managed
//! view is registered. All structures report their approximate byte
//! footprint so Table 3 (index sizes) can be regenerated.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use idm_core::prelude::Vid;

pub mod audit;
pub mod bundle;
pub mod catalog;
pub mod fulltext;
pub mod group;
pub mod name;
pub mod persist;
pub mod segment;
pub mod tokenizer;
pub mod tuple;

pub use audit::{audit, repair, AuditMemo, AuditMismatch, AuditReport, AuditScope};
pub use bundle::{ContentIndexing, IndexBundle, IndexSizes};
pub use catalog::{CatalogEntry, ResourceViewCatalog};
pub use fulltext::FullTextIndex;
pub use group::{GroupRead, GroupReplica, Reach};
pub use name::NameIndex;
pub use segment::{IndexRun, IndexSegment, SEGMENT_VIEWS};
pub use tokenizer::tokenize;
pub use tuple::TupleIndex;

/// Hashes a [`Vid`] with one multiply: vids are dense counters, which
/// the product spreads over the high and the low bits alike. The keys
/// are vids this program allocated; an index file crafted to collide
/// them only slows its own load.
#[derive(Default)]
pub struct VidHasher(u64);

impl Hasher for VidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by vid, hashed with [`VidHasher`].
pub type VidMap<V> = HashMap<Vid, V, BuildHasherDefault<VidHasher>>;

/// A set of vids, hashed with [`VidHasher`].
pub type VidSet = HashSet<Vid, BuildHasherDefault<VidHasher>>;

/// How far past its length, or past twice its live entries, a column
/// indexed by vid may grow ([`dense_index`]).
const DENSE_SLACK: usize = 1 << 16;

/// The index of `vid` in a column of `len` slots indexed by vid that
/// holds `count` live entries, when `vid` may sit there: below
/// `max(len, 2 · count) + 2^16`. Every index write first lets the
/// columns reach the store's next vid ([`IndexBundle::reserve_vids`]),
/// so a vid the program makes always fits, however many views were
/// removed before it. A vid past the bound (one read from a damaged
/// index file) gets no slot, and each structure keeps it aside in O(1)
/// instead of growing a column to its magnitude.
fn dense_index(vid: Vid, len: usize, count: usize) -> Option<usize> {
    let index = usize::try_from(vid.as_u64()).ok()?;
    let bound = len.max(count.saturating_mul(2)).saturating_add(DENSE_SLACK);
    (index < bound).then_some(index)
}

/// Drops the elements at the ascending, distinct positions `at` from
/// `list`: a `remove` for one position, otherwise one compaction pass
/// over the elements from the first position on.
fn remove_positions<T>(list: &mut Vec<T>, at: &[usize]) {
    match *at {
        [] => {}
        [i] => drop(list.remove(i)),
        [first, ..] => {
            let mut gone = at.iter().peekable();
            let mut kept = first;
            for i in first..list.len() {
                if gone.next_if_eq(&&i).is_none() {
                    list.swap(kept, i);
                    kept += 1;
                }
            }
            list.truncate(kept);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{dense_index, remove_positions, DENSE_SLACK};
    use idm_core::prelude::Vid;

    #[test]
    fn dense_index_bounds_a_column_by_its_length_and_live_entries() {
        let at = |raw: u64, len, count| dense_index(Vid::from_raw(raw), len, count);
        assert_eq!(at(5, 0, 0), Some(5));
        assert_eq!(at(DENSE_SLACK as u64, 0, 0), None);
        assert_eq!(at(DENSE_SLACK as u64, 1, 0), Some(DENSE_SLACK));
        assert_eq!(at(DENSE_SLACK as u64 + 1, 0, 1), Some(DENSE_SLACK + 1));
        // The next vid of a counter always fits, however few entries live.
        assert_eq!(at(1 << 30, 1 << 30, 0), Some(1 << 30));
        assert_eq!(at(1 << 40, 1 << 20, 1 << 20), None);
        assert_eq!(at(u64::MAX - 1, 1 << 20, 1 << 20), None);
    }

    #[test]
    fn remove_positions_keeps_order_of_the_rest() {
        for at in [
            &[][..],
            &[0],
            &[5],
            &[1, 2],
            &[0, 3, 4],
            &[0, 1, 2, 3, 4, 5],
        ] {
            let mut list: Vec<usize> = (0..6).collect();
            remove_positions(&mut list, at);
            let want: Vec<usize> = (0..6).filter(|i| !at.contains(i)).collect();
            assert_eq!(list, want, "{at:?}");
        }
    }
}
