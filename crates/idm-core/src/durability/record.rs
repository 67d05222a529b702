//! Logical change records — the unit of the write-ahead log.
//!
//! Every [`crate::store::ViewStore`] mutator appends exactly one record
//! describing the change it committed, under the same store lock that
//! serialized the change itself. Records are *logical* (redo-only,
//! ARIES-style): replaying them through the ordinary mutators against
//! the last snapshot reproduces the store byte for byte, including the
//! per-slot version counters.
//!
//! Intensional and infinite components are not durable by themselves:
//! a lazy component is serialized with its *materialized* value when one
//! is cached ([`SerialContent::Inline`] / [`SerialGroup::Finite`]) and
//! as an `Unforced` marker otherwise, which recovers as the empty
//! component. The store closes the important half of that gap for
//! groups by logging a [`ChangeRecord::GroupForced`] record the moment
//! a lazy group is first forced, so child edges created by converters
//! survive a crash.

use std::io;
use std::sync::Arc;

use bytes::Bytes;

use crate::class::ClassRegistry;
use crate::content::Content;
use crate::durability::codec::{get_tuple, put_tuple, Decoder, Encoder};
use crate::error::Result;
use crate::group::{Group, GroupData};
use crate::store::{Vid, ViewRecord};
use crate::value::TupleComponent;

/// A durable image of a content component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialContent {
    /// The empty content.
    Empty,
    /// Extensional bytes (including materialized intensional content).
    Inline(Bytes),
    /// Intensional content never forced — recovers as empty.
    Unforced,
    /// Infinite content — sources are process-local, recovers as empty.
    Infinite,
}

impl SerialContent {
    /// Captures a content handle without forcing it.
    pub fn of(content: &Content) -> Self {
        match content {
            Content::Empty => SerialContent::Empty,
            Content::Inline(bytes) => SerialContent::Inline(bytes.clone()),
            Content::Lazy(lazy) => match lazy.peek() {
                Some(bytes) => SerialContent::Inline(bytes),
                None => SerialContent::Unforced,
            },
            Content::Infinite(_) => SerialContent::Infinite,
        }
    }

    /// The recovered content handle.
    pub fn into_content(self) -> Content {
        match self {
            SerialContent::Inline(bytes) => Content::inline(bytes),
            SerialContent::Empty | SerialContent::Unforced | SerialContent::Infinite => {
                Content::Empty
            }
        }
    }

    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            SerialContent::Empty => enc.put_u8(0),
            SerialContent::Inline(bytes) => {
                enc.put_u8(1);
                enc.put_bytes(bytes);
            }
            SerialContent::Unforced => enc.put_u8(2),
            SerialContent::Infinite => enc.put_u8(3),
        }
    }

    fn decode_from(dec: &mut Decoder) -> io::Result<Self> {
        Ok(match dec.get_u8()? {
            0 => SerialContent::Empty,
            1 => SerialContent::Inline(Bytes::from(dec.get_raw()?.to_vec())),
            2 => SerialContent::Unforced,
            3 => SerialContent::Infinite,
            other => return Err(Decoder::err(&format!("unknown content tag {other}"))),
        })
    }
}

/// A durable image of a group component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialGroup {
    /// The empty group.
    Empty,
    /// Finite members (including materialized intensional groups).
    Finite {
        /// The unordered set `S`, as raw vids.
        set: Vec<u64>,
        /// The ordered sequence `Q`, as raw vids.
        seq: Vec<u64>,
    },
    /// Intensional group never forced — recovers as empty.
    Unforced,
    /// Infinite sequence — sources are process-local, recovers as empty.
    Infinite,
}

impl SerialGroup {
    /// Captures a group handle without forcing it.
    pub fn of(group: &Group) -> Self {
        match group {
            Group::Empty => SerialGroup::Empty,
            Group::Materialized(data) => SerialGroup::of_data(data),
            Group::Lazy(lazy) => match lazy.peek() {
                Some(data) => SerialGroup::of_data(&data),
                None => SerialGroup::Unforced,
            },
            Group::InfiniteSeq(_) => SerialGroup::Infinite,
        }
    }

    fn of_data(data: &GroupData) -> Self {
        SerialGroup::Finite {
            set: data.set().iter().map(|v| v.as_u64()).collect(),
            seq: data.seq().iter().map(|v| v.as_u64()).collect(),
        }
    }

    /// The recovered group handle. Errors if the serialized members
    /// violate `S ∩ Q = ∅` (only possible on a corrupt record).
    pub fn into_group(self) -> Result<Group> {
        Ok(match self {
            SerialGroup::Finite { set, seq } => {
                Group::Materialized(Arc::new(group_data(set, seq)?))
            }
            SerialGroup::Empty | SerialGroup::Unforced | SerialGroup::Infinite => Group::Empty,
        })
    }

    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            SerialGroup::Empty => enc.put_u8(0),
            SerialGroup::Finite { set, seq } => {
                enc.put_u8(1);
                put_vids(enc, set);
                put_vids(enc, seq);
            }
            SerialGroup::Unforced => enc.put_u8(2),
            SerialGroup::Infinite => enc.put_u8(3),
        }
    }

    fn decode_from(dec: &mut Decoder) -> io::Result<Self> {
        Ok(match dec.get_u8()? {
            0 => SerialGroup::Empty,
            1 => SerialGroup::Finite {
                set: get_vids(dec)?,
                seq: get_vids(dec)?,
            },
            2 => SerialGroup::Unforced,
            3 => SerialGroup::Infinite,
            other => return Err(Decoder::err(&format!("unknown group tag {other}"))),
        })
    }
}

/// Builds validated group data from raw vid lists.
pub fn group_data(set: Vec<u64>, seq: Vec<u64>) -> Result<GroupData> {
    GroupData::new(
        set.into_iter().map(crate::store::Vid::from_raw).collect(),
        seq.into_iter().map(crate::store::Vid::from_raw).collect(),
    )
}

fn put_vids(enc: &mut Encoder, vids: &[u64]) {
    enc.put_u64(vids.len() as u64);
    let mut prev = 0u64;
    for &vid in vids {
        enc.put_u64(vid.wrapping_sub(prev));
        prev = vid;
    }
}

fn get_vids(dec: &mut Decoder) -> io::Result<Vec<u64>> {
    let count = dec.get_u64()? as usize;
    let mut vids = Vec::with_capacity(count.min(1 << 20));
    let mut prev = 0u64;
    for _ in 0..count {
        prev = prev.wrapping_add(dec.get_u64()?);
        vids.push(prev);
    }
    Ok(vids)
}

/// A durable image of a whole [`ViewRecord`]. Classes are carried by
/// *name* so records stay valid across registries with different
/// interned [`crate::class::ClassId`]s. The owner is written relative to
/// the view's own vid, which every encoding writes beside the image: a
/// varint `vid − owner`, `0` for none (a view never owns itself).
#[derive(Debug, Clone, PartialEq)]
pub struct SerialView {
    /// The name component.
    pub name: Option<String>,
    /// The tuple component.
    pub tuple: Option<TupleComponent>,
    /// The content component.
    pub content: SerialContent,
    /// The group component.
    pub group: SerialGroup,
    /// The claimed class, by name.
    pub class: Option<String>,
    /// The owner's raw vid ([`ViewRecord::owner`]).
    pub owner: Option<u64>,
}

impl SerialView {
    /// Captures a record without forcing any lazy component.
    pub fn of(record: &ViewRecord, classes: &ClassRegistry) -> Self {
        SerialView {
            name: record.name.clone(),
            tuple: record.tuple.clone(),
            content: SerialContent::of(&record.content),
            group: SerialGroup::of(&record.group),
            class: record.class.map(|c| classes.name(c)),
            owner: record.owner().map(Vid::as_u64),
        }
    }

    /// Rebuilds the in-memory record. Unknown class names are registered
    /// with default (unconstrained) definitions — schema-later modeling.
    pub fn into_record(self, classes: &ClassRegistry) -> Result<ViewRecord> {
        Ok(ViewRecord {
            name: self.name,
            tuple: self.tuple,
            content: self.content.into_content(),
            group: self.group.into_group()?,
            class: self.class.map(|n| classes.lookup_or_register(&n)),
            owner: self.owner.map_or(Vid::INVALID, Vid::from_raw),
        })
    }

    /// Serializes the image of view `vid` into an encoder.
    pub fn encode_into(&self, vid: u64, enc: &mut Encoder) {
        enc.put_opt_str(self.name.as_deref());
        match &self.tuple {
            Some(tuple) => {
                enc.put_u8(1);
                put_tuple(enc, tuple);
            }
            None => enc.put_u8(0),
        }
        self.content.encode_into(enc);
        self.group.encode_into(enc);
        enc.put_opt_str(self.class.as_deref());
        enc.put_u64(self.owner.map_or(0, |owner| vid.wrapping_sub(owner)));
    }

    /// Deserializes the image of view `vid` from a decoder.
    pub fn decode_from(vid: u64, dec: &mut Decoder) -> io::Result<Self> {
        let name = dec.get_opt_str()?;
        let tuple = match dec.get_u8()? {
            0 => None,
            1 => Some(get_tuple(dec)?),
            other => return Err(Decoder::err(&format!("bad tuple flag {other}"))),
        };
        let content = SerialContent::decode_from(dec)?;
        let group = SerialGroup::decode_from(dec)?;
        let class = dec.get_opt_str()?;
        let owner = match dec.get_u64()? {
            0 => None,
            delta => Some(vid.wrapping_sub(delta)),
        };
        Ok(SerialView {
            name,
            tuple,
            content,
            group,
            class,
            owner,
        })
    }
}

/// The canonical serialized form of the live record of `vid` — the byte
/// string the crash-recovery suite compares across stores (the model
/// types carry shared lazy state and so do not implement `PartialEq`
/// themselves).
pub fn view_bytes(vid: Vid, record: &ViewRecord, classes: &ClassRegistry) -> Vec<u8> {
    let mut enc = Encoder::new();
    SerialView::of(record, classes).encode_into(vid.as_u64(), &mut enc);
    enc.into_bytes()
}

/// One logical change, as appended to the WAL by the store mutators.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeRecord {
    /// A view was inserted with this id and initial record.
    Insert {
        /// The allocated vid.
        vid: u64,
        /// The inserted record.
        view: SerialView,
    },
    /// A view was removed.
    Remove {
        /// The removed vid.
        vid: u64,
    },
    /// The name component was replaced.
    SetName {
        /// The mutated vid.
        vid: u64,
        /// The new name.
        name: Option<String>,
    },
    /// The tuple component was replaced.
    SetTuple {
        /// The mutated vid.
        vid: u64,
        /// The new tuple.
        tuple: Option<TupleComponent>,
    },
    /// The content component was replaced.
    SetContent {
        /// The mutated vid.
        vid: u64,
        /// The new content.
        content: SerialContent,
    },
    /// The group component was replaced.
    SetGroup {
        /// The mutated vid.
        vid: u64,
        /// The new group.
        group: SerialGroup,
    },
    /// The class was replaced (by name).
    SetClass {
        /// The mutated vid.
        vid: u64,
        /// The new class name.
        class: Option<String>,
    },
    /// A member was added to a finite group.
    AddGroupMember {
        /// The parent vid.
        vid: u64,
        /// The added member.
        member: u64,
        /// Sequence (`true`) or set (`false`).
        ordered: bool,
    },
    /// A lazy group was forced for the first time; the stored handle was
    /// upgraded to these materialized members (no version bump).
    GroupForced {
        /// The owner vid.
        vid: u64,
        /// The materialized set `S`.
        set: Vec<u64>,
        /// The materialized sequence `Q`.
        seq: Vec<u64>,
    },
}

impl ChangeRecord {
    /// The vid this record mutates.
    pub fn vid(&self) -> u64 {
        match self {
            ChangeRecord::Insert { vid, .. }
            | ChangeRecord::Remove { vid }
            | ChangeRecord::SetName { vid, .. }
            | ChangeRecord::SetTuple { vid, .. }
            | ChangeRecord::SetContent { vid, .. }
            | ChangeRecord::SetGroup { vid, .. }
            | ChangeRecord::SetClass { vid, .. }
            | ChangeRecord::AddGroupMember { vid, .. }
            | ChangeRecord::GroupForced { vid, .. } => *vid,
        }
    }

    /// Serializes the record payload (unframed; the WAL adds the length
    /// prefix and checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            ChangeRecord::Insert { vid, view } => {
                enc.put_u8(0);
                enc.put_u64(*vid);
                view.encode_into(*vid, &mut enc);
            }
            ChangeRecord::Remove { vid } => {
                enc.put_u8(1);
                enc.put_u64(*vid);
            }
            ChangeRecord::SetName { vid, name } => {
                enc.put_u8(2);
                enc.put_u64(*vid);
                enc.put_opt_str(name.as_deref());
            }
            ChangeRecord::SetTuple { vid, tuple } => {
                enc.put_u8(3);
                enc.put_u64(*vid);
                match tuple {
                    Some(tuple) => {
                        enc.put_u8(1);
                        put_tuple(&mut enc, tuple);
                    }
                    None => enc.put_u8(0),
                }
            }
            ChangeRecord::SetContent { vid, content } => {
                enc.put_u8(4);
                enc.put_u64(*vid);
                content.encode_into(&mut enc);
            }
            ChangeRecord::SetGroup { vid, group } => {
                enc.put_u8(5);
                enc.put_u64(*vid);
                group.encode_into(&mut enc);
            }
            ChangeRecord::SetClass { vid, class } => {
                enc.put_u8(6);
                enc.put_u64(*vid);
                enc.put_opt_str(class.as_deref());
            }
            ChangeRecord::AddGroupMember {
                vid,
                member,
                ordered,
            } => {
                enc.put_u8(7);
                enc.put_u64(*vid);
                enc.put_u64(*member);
                enc.put_u8(u8::from(*ordered));
            }
            ChangeRecord::GroupForced { vid, set, seq } => {
                enc.put_u8(8);
                enc.put_u64(*vid);
                put_vids(&mut enc, set);
                put_vids(&mut enc, seq);
            }
        }
        enc.into_bytes()
    }

    /// Deserializes a record payload, requiring full consumption.
    pub fn decode(bytes: &[u8]) -> io::Result<ChangeRecord> {
        let mut dec = Decoder::new(bytes);
        let record = match dec.get_u8()? {
            0 => {
                let vid = dec.get_u64()?;
                let view = SerialView::decode_from(vid, &mut dec)?;
                ChangeRecord::Insert { vid, view }
            }
            1 => ChangeRecord::Remove {
                vid: dec.get_u64()?,
            },
            2 => ChangeRecord::SetName {
                vid: dec.get_u64()?,
                name: dec.get_opt_str()?,
            },
            3 => {
                let vid = dec.get_u64()?;
                let tuple = match dec.get_u8()? {
                    0 => None,
                    1 => Some(get_tuple(&mut dec)?),
                    other => return Err(Decoder::err(&format!("bad tuple flag {other}"))),
                };
                ChangeRecord::SetTuple { vid, tuple }
            }
            4 => ChangeRecord::SetContent {
                vid: dec.get_u64()?,
                content: SerialContent::decode_from(&mut dec)?,
            },
            5 => ChangeRecord::SetGroup {
                vid: dec.get_u64()?,
                group: SerialGroup::decode_from(&mut dec)?,
            },
            6 => ChangeRecord::SetClass {
                vid: dec.get_u64()?,
                class: dec.get_opt_str()?,
            },
            7 => ChangeRecord::AddGroupMember {
                vid: dec.get_u64()?,
                member: dec.get_u64()?,
                ordered: dec.get_u8()? != 0,
            },
            8 => ChangeRecord::GroupForced {
                vid: dec.get_u64()?,
                set: get_vids(&mut dec)?,
                seq: get_vids(&mut dec)?,
            },
            other => return Err(Decoder::err(&format!("unknown record tag {other}"))),
        };
        if dec.remaining() != 0 {
            return Err(Decoder::err("trailing bytes in change record"));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_records() -> Vec<ChangeRecord> {
        vec![
            ChangeRecord::Insert {
                vid: 7,
                view: SerialView {
                    name: Some("doc.txt".into()),
                    tuple: Some(TupleComponent::of(vec![("size", Value::Integer(9))])),
                    content: SerialContent::Inline(Bytes::from_static(b"hello")),
                    group: SerialGroup::Finite {
                        set: vec![1, 2],
                        seq: vec![3],
                    },
                    class: Some("file".into()),
                    owner: Some(2),
                },
            },
            ChangeRecord::Insert {
                vid: 8,
                view: SerialView {
                    name: None,
                    tuple: None,
                    content: SerialContent::Empty,
                    group: SerialGroup::Empty,
                    class: None,
                    owner: None,
                },
            },
            ChangeRecord::Remove { vid: 3 },
            ChangeRecord::SetName { vid: 1, name: None },
            ChangeRecord::SetName {
                vid: 1,
                name: Some("renamed".into()),
            },
            ChangeRecord::SetTuple {
                vid: 2,
                tuple: None,
            },
            ChangeRecord::SetContent {
                vid: 4,
                content: SerialContent::Unforced,
            },
            ChangeRecord::SetGroup {
                vid: 5,
                group: SerialGroup::Infinite,
            },
            ChangeRecord::SetClass {
                vid: 6,
                class: Some("folder".into()),
            },
            ChangeRecord::AddGroupMember {
                vid: 8,
                member: 9,
                ordered: true,
            },
            ChangeRecord::GroupForced {
                vid: 10,
                set: vec![11],
                seq: vec![12, 13],
            },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for record in sample_records() {
            let bytes = record.encode();
            let back = ChangeRecord::decode(&bytes).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn truncated_records_error() {
        for record in sample_records() {
            let bytes = record.encode();
            for cut in 0..bytes.len() {
                assert!(
                    ChangeRecord::decode(&bytes[..cut]).is_err(),
                    "{record:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = ChangeRecord::Remove { vid: 1 }.encode();
        bytes.push(0);
        assert!(ChangeRecord::decode(&bytes).is_err());
    }

    #[test]
    fn unforced_components_recover_as_empty() {
        assert!(SerialContent::Unforced.into_content().is_empty());
        assert!(SerialGroup::Unforced.into_group().unwrap().is_empty());
        assert!(SerialContent::Infinite.into_content().is_empty());
    }
}
