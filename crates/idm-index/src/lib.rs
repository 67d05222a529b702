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
    use super::remove_positions;

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
