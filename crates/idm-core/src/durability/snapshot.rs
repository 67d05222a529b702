//! Checkpoint snapshots: the full durable image of a dataspace at one
//! log sequence number.
//!
//! ## On-disk format
//!
//! A sealed [`artifact`] with magic `IDMSNAP2`. The payload is one
//! `Encoder` stream: base LSN, next vid, the class registry (definitions
//! in id order, so interned ids survive), and every live view as
//! `(vid, version, SerialView)` — the image ending in the view's owner.
//! An `IDMSNAP1` file (no owners, a lineage section after the views) is
//! refused, never misread.
//!
//! The payload has one encoding body. A checkpoint runs it straight from
//! the frozen [`StoreExport`] into the file ([`write()`]): each view's
//! `SerialView` is made, encoded and dropped before the next, so the
//! snapshot is never held whole in memory. [`to_bytes`] runs it over a
//! decoded [`SnapshotData`], the reader's output.

use std::borrow::Borrow;
use std::io::{self, Write};
use std::path::Path;

use crate::class::{
    ChildClasses, ClassDef, ClassId, ClassRegistry, Constraints, Emptiness, Finiteness,
    SchemaConstraint,
};
use crate::durability::artifact::{self, SealedWriter};
use crate::durability::codec::{get_schema, put_schema, Decoder, Encoder};
use crate::durability::record::SerialView;
use crate::durability::scrub::{Meter, Scan};
use crate::store::StoreExport;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"IDMSNAP2";

/// The decoded image of one checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// LSN as of this snapshot: WAL records at or after it postdate the
    /// image; everything before is folded in.
    pub base_lsn: u64,
    /// The store's vid allocator position.
    pub next_vid: u64,
    /// Class definitions in id order.
    pub classes: Vec<ClassDef>,
    /// Live views as `(raw vid, version, image)`, vid-ascending.
    pub views: Vec<(u64, u64, SerialView)>,
}

fn put_emptiness(enc: &mut Encoder, e: Emptiness) {
    enc.put_u8(match e {
        Emptiness::Any => 0,
        Emptiness::MustBeEmpty => 1,
        Emptiness::MustBeNonEmpty => 2,
    });
}

fn get_emptiness(dec: &mut Decoder) -> io::Result<Emptiness> {
    Ok(match dec.get_u8()? {
        0 => Emptiness::Any,
        1 => Emptiness::MustBeEmpty,
        2 => Emptiness::MustBeNonEmpty,
        other => return Err(Decoder::err(&format!("bad emptiness tag {other}"))),
    })
}

fn put_finiteness(enc: &mut Encoder, f: Finiteness) {
    enc.put_u8(match f {
        Finiteness::Any => 0,
        Finiteness::Finite => 1,
        Finiteness::Infinite => 2,
    });
}

fn get_finiteness(dec: &mut Decoder) -> io::Result<Finiteness> {
    Ok(match dec.get_u8()? {
        0 => Finiteness::Any,
        1 => Finiteness::Finite,
        2 => Finiteness::Infinite,
        other => return Err(Decoder::err(&format!("bad finiteness tag {other}"))),
    })
}

fn put_constraints(enc: &mut Encoder, c: &Constraints) {
    put_emptiness(enc, c.name);
    put_emptiness(enc, c.tuple);
    put_emptiness(enc, c.content);
    put_emptiness(enc, c.group);
    match &c.tuple_schema {
        SchemaConstraint::Any => enc.put_u8(0),
        SchemaConstraint::Exact(schema) => {
            enc.put_u8(1);
            put_schema(enc, schema);
        }
        SchemaConstraint::Covers(schema) => {
            enc.put_u8(2);
            put_schema(enc, schema);
        }
    }
    put_finiteness(enc, c.content_finiteness);
    put_finiteness(enc, c.group_finiteness);
    enc.put_u8(match c.ordered_members {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    match &c.child_classes {
        ChildClasses::Any => enc.put_u8(0),
        ChildClasses::OneOf(ids) => {
            enc.put_u8(1);
            enc.put_u64(ids.len() as u64);
            for id in ids {
                enc.put_u64(id.as_u32() as u64);
            }
        }
    }
}

fn get_constraints(dec: &mut Decoder) -> io::Result<Constraints> {
    let name = get_emptiness(dec)?;
    let tuple = get_emptiness(dec)?;
    let content = get_emptiness(dec)?;
    let group = get_emptiness(dec)?;
    let tuple_schema = match dec.get_u8()? {
        0 => SchemaConstraint::Any,
        1 => SchemaConstraint::Exact(get_schema(dec)?),
        2 => SchemaConstraint::Covers(get_schema(dec)?),
        other => return Err(Decoder::err(&format!("bad schema constraint tag {other}"))),
    };
    let content_finiteness = get_finiteness(dec)?;
    let group_finiteness = get_finiteness(dec)?;
    let ordered_members = match dec.get_u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        other => return Err(Decoder::err(&format!("bad ordering tag {other}"))),
    };
    let child_classes = match dec.get_u8()? {
        0 => ChildClasses::Any,
        1 => {
            let count = dec.get_u64()? as usize;
            let mut ids = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let raw = dec.get_u64()?;
                let raw = u32::try_from(raw)
                    .map_err(|_| Decoder::err(&format!("class id {raw} out of range")))?;
                ids.push(class_id(raw));
            }
            ChildClasses::OneOf(ids)
        }
        other => return Err(Decoder::err(&format!("bad child classes tag {other}"))),
    };
    Ok(Constraints {
        name,
        tuple,
        content,
        group,
        tuple_schema,
        content_finiteness,
        group_finiteness,
        ordered_members,
        child_classes,
    })
}

/// `ClassId` has a crate-private constructor; snapshots rebuild ids by
/// position, which `ClassRegistry::from_defs` preserves.
fn class_id(raw: u32) -> ClassId {
    ClassId(raw)
}

/// The one encoding of an `IDMSNAP2` payload, whether its views are
/// owned images (a [`SnapshotData`]) or made one at a time from a store
/// export. Spills after each view.
fn put_image<W: Write, V: Borrow<SerialView>>(
    w: &mut SealedWriter<W>,
    (base_lsn, next_vid): (u64, u64),
    classes: &[ClassDef],
    views: impl ExactSizeIterator<Item = (u64, u64, V)>,
) -> io::Result<()> {
    w.put_u64(base_lsn);
    w.put_u64(next_vid);

    w.put_u64(classes.len() as u64);
    for def in classes {
        w.put_str(&def.name);
        match def.parent {
            Some(parent) => {
                w.put_u8(1);
                w.put_u64(parent.as_u32() as u64);
            }
            None => w.put_u8(0),
        }
        put_constraints(w, &def.constraints);
    }

    w.put_u64(views.len() as u64);
    for (vid, version, view) in views {
        w.put_u64(vid);
        w.put_u64(version);
        view.borrow().encode_into(vid, w);
        w.spill()?;
    }
    Ok(())
}

/// Serializes a snapshot image (magic + payload + trailing checksum).
pub fn to_bytes(data: &SnapshotData) -> Vec<u8> {
    artifact::seal(SNAP_MAGIC, |w| {
        put_image(
            w,
            (data.base_lsn, data.next_vid),
            &data.classes,
            data.views
                .iter()
                .map(|(vid, version, view)| (*vid, *version, view)),
        )
    })
}

/// Deserializes and fully validates a snapshot image.
pub fn from_bytes(bytes: &[u8]) -> io::Result<SnapshotData> {
    let mut dec = Decoder::new(artifact::unseal(bytes, SNAP_MAGIC)?);
    let base_lsn = dec.get_u64()?;
    let next_vid = dec.get_u64()?;

    let class_count = dec.get_u64()? as usize;
    let mut classes = Vec::with_capacity(class_count.min(1 << 16));
    for _ in 0..class_count {
        let name = dec.get_str()?;
        let parent = match dec.get_u8()? {
            0 => None,
            1 => {
                let raw = dec.get_u64()?;
                let raw = u32::try_from(raw)
                    .map_err(|_| Decoder::err(&format!("parent id {raw} out of range")))?;
                Some(class_id(raw))
            }
            other => return Err(Decoder::err(&format!("bad parent flag {other}"))),
        };
        let constraints = get_constraints(&mut dec)?;
        classes.push(ClassDef {
            name,
            parent,
            constraints,
        });
    }

    let view_count = dec.get_u64()? as usize;
    let mut views = Vec::with_capacity(view_count.min(1 << 20));
    for _ in 0..view_count {
        let vid = dec.get_u64()?;
        let version = dec.get_u64()?;
        let view = SerialView::decode_from(vid, &mut dec)?;
        views.push((vid, version, view));
    }

    if dec.remaining() != 0 {
        return Err(Decoder::err("trailing bytes in snapshot"));
    }
    Ok(SnapshotData {
        base_lsn,
        next_vid,
        classes,
        views,
    })
}

/// Writes the snapshot of `export`, the store's image as of `base_lsn`,
/// to `path` atomically ([`artifact::write_sealed`]), view by view.
/// Returns the byte size.
pub fn write(
    path: &Path,
    base_lsn: u64,
    export: &StoreExport,
    classes: &ClassRegistry,
) -> io::Result<u64> {
    let defs = classes.export_defs();
    artifact::write_sealed(path, SNAP_MAGIC, |w| {
        put_image(
            w,
            (base_lsn, export.next_vid),
            &defs,
            export.views.iter().map(|(vid, version, record)| {
                (vid.as_u64(), *version, SerialView::of(record, classes))
            }),
        )
    })
}

/// Reads and validates a snapshot file.
pub fn read(path: &Path) -> io::Result<SnapshotData> {
    from_bytes(&std::fs::read(path)?)
}

/// The scrub's check of a snapshot file ([`artifact::scan_sealed`]).
pub(crate) fn scan(path: &Path, offset: u64, hash: u64, meter: &mut Meter) -> io::Result<Scan> {
    artifact::scan_sealed(path, SNAP_MAGIC, offset, hash, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassRegistry;
    use crate::durability::codec::fnv1a64;
    use crate::durability::record::{SerialContent, SerialGroup};
    use crate::value::{TupleComponent, Value};

    fn sample() -> SnapshotData {
        let registry = ClassRegistry::with_builtins();
        SnapshotData {
            base_lsn: 42,
            next_vid: 7,
            classes: registry.export_defs(),
            views: vec![
                (
                    1,
                    3,
                    SerialView {
                        name: Some("a.txt".into()),
                        tuple: Some(TupleComponent::of(vec![("size", Value::Integer(5))])),
                        content: SerialContent::Inline(bytes::Bytes::from_static(b"hello")),
                        group: SerialGroup::Empty,
                        class: Some("file".into()),
                        owner: None,
                    },
                ),
                (
                    2,
                    0,
                    SerialView {
                        name: Some("dir".into()),
                        tuple: None,
                        content: SerialContent::Empty,
                        group: SerialGroup::Finite {
                            set: vec![1],
                            seq: vec![],
                        },
                        class: Some("folder".into()),
                        owner: None,
                    },
                ),
                (
                    5,
                    1,
                    SerialView {
                        name: Some("Intro".into()),
                        tuple: None,
                        content: SerialContent::Empty,
                        group: SerialGroup::Empty,
                        class: Some("latex_section".into()),
                        owner: Some(1),
                    },
                ),
            ],
        }
    }

    /// The `IDMSNAP2` bytes of [`sample`] are pinned: a change here is
    /// a format change, and existing dataspace directories stop opening.
    #[test]
    fn format_is_pinned() {
        let bytes = to_bytes(&sample());
        assert_eq!(bytes.len(), 743);
        assert_eq!(fnv1a64(&bytes), 0x2493_de8c_64d1_58fb);
    }

    #[test]
    fn roundtrip() {
        let data = sample();
        let bytes = to_bytes(&data);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn class_registry_survives_with_identical_ids() {
        let data = sample();
        let back = from_bytes(&to_bytes(&data)).unwrap();
        let rebuilt = ClassRegistry::from_defs(back.classes).unwrap();
        let original = ClassRegistry::with_builtins();
        assert_eq!(rebuilt.len(), original.len());
        assert_eq!(
            rebuilt.lookup("xmlfile").map(|c| c.as_u32()),
            original.lookup("xmlfile").map(|c| c.as_u32())
        );
        let file = rebuilt.lookup("file").unwrap();
        let xmlfile = rebuilt.lookup("xmlfile").unwrap();
        assert!(rebuilt.is_subclass(xmlfile, file));
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_byte_corruption_errors() {
        let bytes = to_bytes(&sample());
        for i in 0..bytes.len() {
            let mut bent = bytes.clone();
            bent[i] ^= 0x01;
            assert!(from_bytes(&bent).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn trailing_bytes_error() {
        // Appending data breaks the checksum position.
        let mut bytes = to_bytes(&sample());
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    /// A store export written straight to disk is the same file as its
    /// [`SnapshotData`] encoded in memory, and reads back as it.
    #[test]
    fn atomic_write_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("idm-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.idmsnap");

        let store = crate::store::ViewStore::new();
        let leaf = store
            .build("a.txt")
            .text("hello")
            .class_named("file")
            .insert();
        store.build("dir").children(vec![leaf]).insert();
        store.build("Intro").owner(Some(leaf)).insert();
        let (export, ()) = store.frozen_export(|_| ());

        let size = write(&path, 42, &export, store.classes()).unwrap();
        let data = SnapshotData {
            base_lsn: 42,
            next_vid: export.next_vid,
            classes: store.classes().export_defs(),
            views: export
                .views
                .iter()
                .map(|(vid, version, record)| {
                    let view = SerialView::of(record, store.classes());
                    (vid.as_u64(), *version, view)
                })
                .collect(),
        };
        assert_eq!(data.views[2].2.owner, Some(leaf.as_u64()));
        assert_eq!(std::fs::read(&path).unwrap(), to_bytes(&data));
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read(&path).unwrap(), data);
        // No temp file left behind.
        assert!(!path.with_extension("idmsnap.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
