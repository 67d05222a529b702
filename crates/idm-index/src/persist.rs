//! Durable storage for the Replica&Indexes module.
//!
//! The paper's prototype kept the Resource View Catalog in Apache Derby
//! and the full-text indexes in Lucene — both disk-backed, so a PDSMS
//! restart did not re-scan the user's dataspace. This module provides
//! the same property from scratch: a compact, versioned binary format
//! that serializes the whole [`IndexBundle`] and loads it back,
//! byte-for-byte deterministic.
//!
//! An index file is a sealed [`artifact`] with magic `IDMIDX02`, written
//! in the shared durability [`codec`](idm_core::durability::codec): its
//! payload is the store **epoch** (the WAL log sequence number the index
//! was built against — the durability layer's recovery handshake)
//! followed by five sections (catalog, name, tuple, content, group).
//! Framing, checksum and the atomic save all belong to
//! `idm-core::durability`; this module only knows the sections. Each
//! section is encoded straight from its index, under that index's read
//! guard, into the streamed sealed writer, so saving holds neither a
//! copy of an index nor the whole file in memory.

use std::io::{self, Write};
use std::path::Path;

use idm_core::durability::artifact::{self, SealedWriter};
use idm_core::durability::codec::{get_tuple, put_tuple, Decoder};
use idm_core::durability::Artifact;
use idm_core::prelude::Vid;

use crate::bundle::IndexBundle;
use crate::catalog::CatalogEntry;
use crate::fulltext::PostingList;

const MAGIC: &[u8; 8] = b"IDMIDX02";

/// The index file at `path` as a scrubbable [`Artifact`]: the scrub
/// round checks it with the sealed-artifact reader, under this format's
/// magic.
pub fn artifact_at(path: &Path) -> Artifact {
    Artifact::Index {
        path: path.to_path_buf(),
        magic: *MAGIC,
    }
}

// ---- bundle sections -------------------------------------------------------

/// Serializes the bundle in the `IDMIDX02` format: magic, epoch, the
/// five sections, then the trailing checksum.
pub fn to_bytes_with_epoch(bundle: &IndexBundle, epoch: u64) -> Vec<u8> {
    artifact::seal(MAGIC, |w| put_payload(w, bundle, epoch))
}

/// The one encoding of an `IDMIDX02` payload: the epoch, then each
/// section straight from its index under that index's read guard,
/// spilling after every entry.
fn put_payload<W: Write>(
    w: &mut SealedWriter<W>,
    bundle: &IndexBundle,
    epoch: u64,
) -> io::Result<()> {
    w.put_u64(epoch);

    // Section 1: catalog.
    bundle.catalog.with_rows(|count, rows| -> io::Result<()> {
        w.put_u64(count as u64);
        for row in rows {
            w.put_u64(row.vid);
            w.put_str(row.name);
            w.put_opt_str(row.class);
            w.put_str(row.source);
            match row.content_size {
                Some(size) => {
                    w.put_u8(1);
                    w.put_u64(size);
                }
                None => w.put_u8(0),
            }
            w.put_u8(u8::from(row.content_indexed));
            w.spill()?;
        }
        Ok(())
    })?;

    // Section 2: name index.
    bundle.name.with_names(|count, names| -> io::Result<()> {
        w.put_u64(count as u64);
        for (name, vids) in names {
            w.put_str(name);
            w.put_u64(vids.len() as u64);
            let mut prev = 0u64;
            for vid in vids {
                w.put_u64(vid.as_u64().wrapping_sub(prev));
                prev = vid.as_u64();
            }
            w.spill()?;
        }
        Ok(())
    })?;

    // Section 3: tuple replica.
    bundle
        .tuple
        .with_replica(|count, tuples| -> io::Result<()> {
            w.put_u64(count as u64);
            for (vid, tuple) in tuples {
                w.put_u64(vid);
                put_tuple(w, tuple);
                w.spill()?;
            }
            Ok(())
        })?;

    // Section 4: content index.
    w.put_u64(bundle.content.document_count() as u64);
    w.put_u64(bundle.content.token_count());
    bundle
        .content
        .with_sorted_lists(|lists| -> io::Result<()> {
            w.put_u64(lists.len() as u64);
            for (term, list) in lists {
                w.put_str(term);
                w.put_u64(list.len() as u64);
                let mut prev_vid = 0u64;
                for (vid, positions) in list.iter() {
                    w.put_u64(vid.as_u64().wrapping_sub(prev_vid));
                    prev_vid = vid.as_u64();
                    // The list holds each posting's positions in this very
                    // coding: LEB128 deltas, the first from 0.
                    w.put_u64(positions.len() as u64);
                    w.put_raw(positions.bytes());
                    w.spill()?;
                }
            }
            Ok(())
        })?;

    // Section 5: group replica (forward side only).
    bundle.group.with_edges(|count, edges| -> io::Result<()> {
        w.put_u64(count as u64);
        for (parent, children) in edges {
            w.put_u64(parent);
            w.put_u64(children.len() as u64);
            for child in children {
                w.put_u64(child.as_u64());
            }
            w.spill()?;
        }
        Ok(())
    })
}

fn get_sections(dec: &mut Decoder) -> io::Result<IndexBundle> {
    let bundle = IndexBundle::new();

    // Section 1: catalog.
    let row_count = dec.get_u64()? as usize;
    let mut rows = Vec::with_capacity(row_count.min(1 << 20));
    for _ in 0..row_count {
        let vid = dec.get_u64()?;
        let name = dec.get_str()?;
        let class = dec.get_opt_str()?;
        let source = dec.get_str()?;
        let content_size = if dec.get_u8()? == 1 {
            Some(dec.get_u64()?)
        } else {
            None
        };
        let content_indexed = dec.get_u8()? != 0;
        rows.push(CatalogEntry {
            vid,
            name,
            class,
            source,
            content_size,
            content_indexed,
        });
    }
    bundle.catalog.import_rows(rows);

    // Section 2: name index.
    let name_count = dec.get_u64()? as usize;
    let mut names = Vec::with_capacity(name_count.min(1 << 20));
    for _ in 0..name_count {
        let name = dec.get_str()?;
        let vid_count = dec.get_u64()? as usize;
        let mut vids = Vec::with_capacity(vid_count.min(1 << 20));
        let mut prev = 0u64;
        for _ in 0..vid_count {
            prev = prev.wrapping_add(dec.get_u64()?);
            vids.push(prev);
        }
        names.push((name, vids));
    }
    bundle.name.import_names(names);

    // Section 3: tuple replica.
    let tuple_count = dec.get_u64()? as usize;
    let mut tuples = Vec::with_capacity(tuple_count.min(1 << 20));
    for _ in 0..tuple_count {
        let vid = dec.get_u64()?;
        tuples.push((vid, get_tuple(dec)?));
    }
    bundle.tuple.import_replica(tuples);

    // Section 4: content index, decoded straight into its columns.
    let documents = dec.get_u64()? as usize;
    let tokens = dec.get_u64()?;
    let term_count = dec.get_u64()? as usize;
    let mut lists = Vec::with_capacity(term_count.min(1 << 20));
    let mut positions = Vec::new();
    for _ in 0..term_count {
        let term = dec.get_str()?;
        let doc_count = dec.get_u64()? as usize;
        let mut list = PostingList::default();
        let mut prev_vid = 0u64;
        for _ in 0..doc_count {
            prev_vid = prev_vid.wrapping_add(dec.get_u64()?);
            // Vid-ascending without repeats, as written: what bounds
            // each document's term list by the bytes read.
            if list
                .last_vid()
                .is_some_and(|last| last.as_u64() >= prev_vid)
            {
                return Err(Decoder::err("posting list not vid-ascending"));
            }
            let pos_count = dec.get_u64()? as usize;
            positions.clear();
            let mut prev_pos = 0u32;
            for _ in 0..pos_count {
                // A delta is never negative: one that wraps past 2^32
                // is a position going backwards, which the list cannot
                // hold.
                prev_pos = u32::try_from(dec.get_u64()?)
                    .ok()
                    .and_then(|delta| prev_pos.checked_add(delta))
                    .ok_or_else(|| Decoder::err("positions not ascending"))?;
                positions.push(prev_pos);
            }
            if !list.push(Vid::from_raw(prev_vid), &positions) {
                return Err(Decoder::err("posting list too long"));
            }
        }
        lists.push((term, list));
    }
    bundle.content.import_lists(lists, documents, tokens);

    // Section 5: group replica.
    let parent_count = dec.get_u64()? as usize;
    let mut edges = Vec::with_capacity(parent_count.min(1 << 20));
    for _ in 0..parent_count {
        let parent = dec.get_u64()?;
        let child_count = dec.get_u64()? as usize;
        let mut children = Vec::with_capacity(child_count.min(1 << 20));
        for _ in 0..child_count {
            children.push(dec.get_u64()?);
        }
        edges.push((parent, children));
    }
    bundle.group.import_edges(edges);

    if dec.remaining() != 0 {
        return Err(Decoder::err("trailing bytes"));
    }
    Ok(bundle)
}

/// Deserializes a verified bundle and the store epoch it was built
/// against. Anything that is not a sealed `IDMIDX02` artifact —
/// truncated, flipped, or opening with any other magic — is an error.
pub fn from_bytes_with_epoch(bytes: &[u8]) -> io::Result<(IndexBundle, u64)> {
    let mut dec = Decoder::new(artifact::unseal(bytes, MAGIC)?);
    let epoch = dec.get_u64()?;
    let bundle = get_sections(&mut dec)?;
    Ok((bundle, epoch))
}

/// Saves the bundle atomically ([`artifact::write_sealed`]), stamping
/// the store epoch it was built against (the recovery handshake: on
/// open, a mismatched epoch means the index is stale and must be
/// rebuilt). The sections stream into the file as they are encoded; no
/// fsync happens under an index's guard.
pub fn save_with_epoch(bundle: &IndexBundle, path: &Path, epoch: u64) -> io::Result<()> {
    artifact::write_sealed(path, MAGIC, |w| put_payload(w, bundle, epoch)).map(drop)
}

/// Loads a bundle and its stored epoch.
pub fn load_with_epoch(path: &Path) -> io::Result<(IndexBundle, u64)> {
    from_bytes_with_epoch(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idm_core::durability::codec::fnv1a64;
    use idm_core::prelude::*;

    fn populated_bundle() -> (ViewStore, IndexBundle) {
        let store = ViewStore::new();
        let bundle = IndexBundle::new();
        let child = store.build("child").text("nested content words").insert();
        for i in 0..20 {
            let vid = store
                .build(format!("doc{i}.txt"))
                .tuple(TupleComponent::of(vec![
                    ("size", Value::Integer(i * 100)),
                    ("ratio", Value::Float(i as f64 / 3.0)),
                    ("flag", Value::Boolean(i % 2 == 0)),
                    ("when", Value::Date(Timestamp(1_000_000 + i))),
                    ("label", Value::Text(format!("tag-{i}"))),
                ]))
                .text(format!("document {i} about dataspaces and database tuning"))
                .children(if i == 0 { vec![child] } else { vec![] })
                .class_named("file")
                .insert();
            bundle.index_view(&store, vid, "filesystem").unwrap();
        }
        bundle.index_view(&store, child, "filesystem").unwrap();
        (store, bundle)
    }

    fn assert_equivalent(a: &IndexBundle, b: &IndexBundle) {
        assert_eq!(a.catalog.export_rows(), b.catalog.export_rows());
        assert_eq!(a.name.export_names(), b.name.export_names());
        assert_eq!(a.content.export_postings(), b.content.export_postings());
        assert_eq!(a.content.document_count(), b.content.document_count());
        assert_eq!(a.group.export_edges(), b.group.export_edges());
        assert_eq!(a.tuple.export_replica(), b.tuple.export_replica());
    }

    /// The `IDMIDX02` bytes of [`populated_bundle`] are pinned: a change
    /// here is a format change, and existing index files stop loading.
    #[test]
    fn format_is_pinned() {
        let (_store, bundle) = populated_bundle();
        let bytes = to_bytes_with_epoch(&bundle, 7);
        assert_eq!(bytes.len(), 2662);
        assert_eq!(fnv1a64(&bytes), 0x5be0_7941_0298_978e);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (_store, bundle) = populated_bundle();
        let bytes = to_bytes_with_epoch(&bundle, 12345);
        assert_eq!(&bytes[..8], MAGIC);
        let (loaded, epoch) = from_bytes_with_epoch(&bytes).unwrap();
        assert_eq!(epoch, 12345);
        assert_equivalent(&bundle, &loaded);

        // And the loaded bundle answers queries identically.
        assert_eq!(
            loaded.content.phrase_query("database tuning").len(),
            bundle.content.phrase_query("database tuning").len()
        );
        assert_eq!(loaded.name.exact("doc3.txt"), bundle.name.exact("doc3.txt"));
        assert_eq!(
            loaded
                .tuple
                .compare("size", crate::tuple::CompareOp::Gt, &Value::Integer(1500)),
            bundle
                .tuple
                .compare("size", crate::tuple::CompareOp::Gt, &Value::Integer(1500))
        );
        assert_eq!(
            loaded.group.children(Vid::from_raw(1)),
            bundle.group.children(Vid::from_raw(1))
        );
    }

    #[test]
    fn serialization_is_deterministic() {
        let (_s1, b1) = populated_bundle();
        let (_s2, b2) = populated_bundle();
        assert_eq!(to_bytes_with_epoch(&b1, 0), to_bytes_with_epoch(&b2, 0));
    }

    #[test]
    fn corrupt_inputs_are_errors_not_panics() {
        let (_store, bundle) = populated_bundle();
        let bytes = to_bytes_with_epoch(&bundle, 0);
        assert!(from_bytes_with_epoch(b"").is_err());
        assert!(from_bytes_with_epoch(b"NOTMAGIC").is_err());
        assert!(from_bytes_with_epoch(&bytes[..bytes.len() / 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(from_bytes_with_epoch(&trailing).is_err());
        let mut wrong_magic = bytes;
        wrong_magic[0] ^= 0xFF;
        assert!(from_bytes_with_epoch(&wrong_magic).is_err());
    }

    #[test]
    fn checksum_catches_any_single_byte_flip() {
        let (_store, bundle) = populated_bundle();
        let bytes = to_bytes_with_epoch(&bundle, 7);
        for pos in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x20;
            assert!(
                from_bytes_with_epoch(&corrupt).is_err(),
                "flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn save_with_epoch_file_roundtrip() {
        let (_store, bundle) = populated_bundle();
        let dir = std::env::temp_dir().join(format!("idm-persist-epoch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("indexes.idm");
        save_with_epoch(&bundle, &path, 99).unwrap();
        let (loaded, epoch) = load_with_epoch(&path).unwrap();
        assert_eq!(epoch, 99);
        assert_equivalent(&bundle, &loaded);
        assert!(
            !path.with_extension("idm.tmp").exists(),
            "temp file cleaned up"
        );
        // The file size should be in the same ballpark as the
        // footprint estimate (the estimate models this very format).
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        let estimated = bundle.sizes().name + bundle.sizes().content;
        assert!(file_len > estimated / 2, "{file_len} vs {estimated}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
