//! Checkpoint snapshots: the full durable image of a dataspace at one
//! log sequence number.
//!
//! ## On-disk format
//!
//! A sealed [`artifact`] with magic `IDMSNAP1`. The payload is one
//! `Encoder` stream: base LSN, next vid, the class registry (definitions
//! in id order, so interned ids survive), every live view as
//! `(vid, version, SerialView)`, and the lineage edges.

use std::io;
use std::path::Path;

use crate::class::{
    ChildClasses, ClassDef, ClassId, Constraints, Emptiness, Finiteness, SchemaConstraint,
};
use crate::durability::artifact;
use crate::durability::codec::{get_schema, put_schema, Decoder, Encoder};
use crate::durability::record::SerialView;
use crate::durability::scrub::{Meter, Scan};
use crate::lineage::Derivation;
use crate::store::Vid;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"IDMSNAP1";

/// The decoded (or to-be-encoded) image of one checkpoint.
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
    /// Lineage edges as `(derived, source, transform)`.
    pub lineage: Vec<(u64, u64, String)>,
}

impl SnapshotData {
    /// Converts exported lineage edges into the serial form.
    pub fn lineage_from(edges: Vec<Derivation>) -> Vec<(u64, u64, String)> {
        edges
            .into_iter()
            .map(|e| (e.derived.as_u64(), e.source.as_u64(), e.transform))
            .collect()
    }

    /// Converts the serial lineage back into edges.
    pub fn lineage_edges(&self) -> Vec<Derivation> {
        self.lineage
            .iter()
            .map(|(derived, source, transform)| Derivation {
                derived: Vid::from_raw(*derived),
                source: Vid::from_raw(*source),
                transform: transform.clone(),
            })
            .collect()
    }
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

/// Serializes a snapshot image (magic + payload + trailing checksum).
pub fn to_bytes(data: &SnapshotData) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_raw(SNAP_MAGIC);
    enc.put_u64(data.base_lsn);
    enc.put_u64(data.next_vid);

    enc.put_u64(data.classes.len() as u64);
    for def in &data.classes {
        enc.put_str(&def.name);
        match def.parent {
            Some(parent) => {
                enc.put_u8(1);
                enc.put_u64(parent.as_u32() as u64);
            }
            None => enc.put_u8(0),
        }
        put_constraints(&mut enc, &def.constraints);
    }

    enc.put_u64(data.views.len() as u64);
    for (vid, version, view) in &data.views {
        enc.put_u64(*vid);
        enc.put_u64(*version);
        view.encode_into(&mut enc);
    }

    enc.put_u64(data.lineage.len() as u64);
    for (derived, source, transform) in &data.lineage {
        enc.put_u64(*derived);
        enc.put_u64(*source);
        enc.put_str(transform);
    }

    artifact::seal(enc)
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
        let view = SerialView::decode_from(&mut dec)?;
        views.push((vid, version, view));
    }

    let edge_count = dec.get_u64()? as usize;
    let mut lineage = Vec::with_capacity(edge_count.min(1 << 20));
    for _ in 0..edge_count {
        let derived = dec.get_u64()?;
        let source = dec.get_u64()?;
        let transform = dec.get_str()?;
        lineage.push((derived, source, transform));
    }

    if dec.remaining() != 0 {
        return Err(Decoder::err("trailing bytes in snapshot"));
    }
    Ok(SnapshotData {
        base_lsn,
        next_vid,
        classes,
        views,
        lineage,
    })
}

/// Writes a snapshot atomically ([`artifact::write_atomic`]). Returns
/// the byte size.
pub fn write(path: &Path, data: &SnapshotData) -> io::Result<u64> {
    let bytes = to_bytes(data);
    artifact::write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
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
                    },
                ),
            ],
            lineage: vec![(2, 1, "copy".into())],
        }
    }

    /// The `IDMSNAP1` bytes of [`sample`] are pinned: a change here is
    /// a format change, and existing dataspace directories stop opening.
    #[test]
    fn format_is_pinned() {
        let bytes = to_bytes(&sample());
        assert_eq!(bytes.len(), 721);
        assert_eq!(fnv1a64(&bytes), 0x6e3a_8221_4a50_06f4);
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

    #[test]
    fn atomic_write_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("idm-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.idmsnap");
        let data = sample();
        let size = write(&path, &data).unwrap();
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read(&path).unwrap(), data);
        // No temp file left behind.
        assert!(!path.with_extension("idmsnap.tmp").exists());
    }
}
