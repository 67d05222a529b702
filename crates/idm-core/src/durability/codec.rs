//! The binary codec shared by every durable file format in the system:
//! the write-ahead log and checkpoint snapshots here, and the `IDMIDX02`
//! index bundle format in `idm-index`.
//!
//! Primitives are LEB128 varints (zigzag for signed), length-prefixed
//! strings/bytes and little-endian IEEE-754 doubles. On top of those sit
//! the value/tuple/schema codecs for the iDM model types, and the
//! FNV-1a 64 checksum used to detect torn or corrupt records.

use std::io;

use crate::value::{Attribute, Domain, Schema, Timestamp, TupleComponent, Value};

/// FNV-1a 64-bit offset basis: the hash of the empty input, and the
/// state a resumable hash ([`fnv1a64_update`]) starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 state — the resumable form,
/// for callers that see their input in slices (the budgeted scrubber,
/// the streamed sealed writer).
pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit hash — the content checksum of every durable record
/// and file in the system, and the stable fingerprint of query plans.
/// Not cryptographic; it detects torn writes and bit rot, which is all
/// recovery needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// A growable binary writer with varint primitives.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded since the last [`Encoder::clear`].
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets the encoded bytes, keeping the buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }

    /// Raw bytes, no length prefix (headers, magics).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// LEB128 unsigned varint.
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes with length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// IEEE-754 double, little endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Optional string: presence flag, then the string.
    pub fn put_opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.put_u8(1);
                self.put_str(s);
            }
            None => self.put_u8(0),
        }
    }
}

/// A binary reader matching [`Encoder`].
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// An `InvalidData` error with a codec-level message. Public so the
    /// file formats built on this codec produce uniform errors.
    pub fn err(message: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("idm codec: {message}"))
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// LEB128 unsigned varint.
    pub fn get_u64(&mut self) -> io::Result<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| Self::err("truncated varint"))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(Self::err("varint overflow"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn get_i64(&mut self) -> io::Result<i64> {
        let v = self.get_u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> io::Result<String> {
        let bytes = self.get_raw()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Self::err("invalid utf-8"))
    }

    /// Length-prefixed raw bytes.
    pub fn get_raw(&mut self) -> io::Result<&'a [u8]> {
        let len = self.get_u64()? as usize;
        if self.remaining() < len {
            return Err(Self::err("truncated bytes"));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// One byte.
    pub fn get_u8(&mut self) -> io::Result<u8> {
        let byte = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| Self::err("truncated byte"))?;
        self.pos += 1;
        Ok(byte)
    }

    /// IEEE-754 double, little endian.
    pub fn get_f64(&mut self) -> io::Result<f64> {
        if self.remaining() < 8 {
            return Err(Self::err("truncated f64"));
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Optional string: presence flag, then the string.
    pub fn get_opt_str(&mut self) -> io::Result<Option<String>> {
        Ok(match self.get_u8()? {
            0 => None,
            1 => Some(self.get_str()?),
            other => return Err(Self::err(&format!("bad option flag {other}"))),
        })
    }
}

// ---- value / tuple / schema codec ---------------------------------------

/// Serializes a [`Value`] with a one-byte type tag.
pub fn put_value(enc: &mut Encoder, value: &Value) {
    match value {
        Value::Text(s) => {
            enc.put_u8(0);
            enc.put_str(s);
        }
        Value::Integer(i) => {
            enc.put_u8(1);
            enc.put_i64(*i);
        }
        Value::Float(f) => {
            enc.put_u8(2);
            enc.put_f64(*f);
        }
        Value::Boolean(b) => {
            enc.put_u8(3);
            enc.put_u8(u8::from(*b));
        }
        Value::Date(t) => {
            enc.put_u8(4);
            enc.put_i64(t.0);
        }
    }
}

/// Deserializes a [`Value`].
pub fn get_value(dec: &mut Decoder) -> io::Result<Value> {
    Ok(match dec.get_u8()? {
        0 => Value::Text(dec.get_str()?),
        1 => Value::Integer(dec.get_i64()?),
        2 => Value::Float(dec.get_f64()?),
        3 => Value::Boolean(dec.get_u8()? != 0),
        4 => Value::Date(Timestamp(dec.get_i64()?)),
        other => return Err(Decoder::err(&format!("unknown value tag {other}"))),
    })
}

/// The one-byte tag of a [`Domain`].
pub fn domain_tag(domain: Domain) -> u8 {
    match domain {
        Domain::Text => 0,
        Domain::Integer => 1,
        Domain::Float => 2,
        Domain::Boolean => 3,
        Domain::Date => 4,
    }
}

/// The [`Domain`] of a one-byte tag.
pub fn tag_domain(tag: u8) -> io::Result<Domain> {
    Ok(match tag {
        0 => Domain::Text,
        1 => Domain::Integer,
        2 => Domain::Float,
        3 => Domain::Boolean,
        4 => Domain::Date,
        other => return Err(Decoder::err(&format!("unknown domain tag {other}"))),
    })
}

/// Serializes a [`Schema`] as arity + (name, domain) pairs.
pub fn put_schema(enc: &mut Encoder, schema: &Schema) {
    enc.put_u64(schema.arity() as u64);
    for attr in schema.attributes() {
        enc.put_str(&attr.name);
        enc.put_u8(domain_tag(attr.domain));
    }
}

/// Deserializes a [`Schema`].
pub fn get_schema(dec: &mut Decoder) -> io::Result<Schema> {
    let arity = dec.get_u64()? as usize;
    let mut attrs = Vec::with_capacity(arity.min(1 << 16));
    for _ in 0..arity {
        let name = dec.get_str()?;
        let domain = tag_domain(dec.get_u8()?)?;
        attrs.push(Attribute::new(name, domain));
    }
    Ok(Schema::new(attrs))
}

/// Serializes a [`TupleComponent`] as interleaved attribute/value rows.
pub fn put_tuple(enc: &mut Encoder, tuple: &TupleComponent) {
    enc.put_u64(tuple.schema().arity() as u64);
    for (attr, value) in tuple.iter() {
        enc.put_str(&attr.name);
        enc.put_u8(domain_tag(attr.domain));
        put_value(enc, value);
    }
}

/// Deserializes a [`TupleComponent`], validating values against domains.
pub fn get_tuple(dec: &mut Decoder) -> io::Result<TupleComponent> {
    let arity = dec.get_u64()? as usize;
    let mut attrs = Vec::with_capacity(arity.min(1 << 16));
    let mut values = Vec::with_capacity(arity.min(1 << 16));
    for _ in 0..arity {
        let name = dec.get_str()?;
        let domain = tag_domain(dec.get_u8()?)?;
        let value = get_value(dec)?;
        attrs.push(Attribute::new(name, domain));
        values.push(value);
    }
    TupleComponent::new(Schema::new(attrs), values)
        .map_err(|e| Decoder::err(&format!("tuple does not validate: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut enc = Encoder::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            enc.put_u64(v);
        }
        let signed = [0i64, -1, 1, i64::MIN, i64::MAX, -123456789];
        for &v in &signed {
            enc.put_i64(v);
        }
        enc.put_str("héllo wörld");
        enc.put_f64(std::f64::consts::PI);
        enc.put_opt_str(None);
        enc.put_opt_str(Some("x"));
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        for &v in &values {
            assert_eq!(dec.get_u64().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(dec.get_i64().unwrap(), v);
        }
        assert_eq!(dec.get_str().unwrap(), "héllo wörld");
        assert_eq!(dec.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(dec.get_opt_str().unwrap(), None);
        assert_eq!(dec.get_opt_str().unwrap().as_deref(), Some("x"));
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn tuple_and_schema_roundtrip() {
        let tuple = TupleComponent::of(vec![
            ("size", Value::Integer(42)),
            ("name", Value::Text("x".into())),
            ("ratio", Value::Float(0.5)),
            ("flag", Value::Boolean(true)),
            ("when", Value::Date(Timestamp(1234))),
        ]);
        let mut enc = Encoder::new();
        put_tuple(&mut enc, &tuple);
        put_schema(&mut enc, tuple.schema());
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = get_tuple(&mut dec).unwrap();
        assert_eq!(back, tuple);
        let schema = get_schema(&mut dec).unwrap();
        assert_eq!(&schema, tuple.schema());
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        let data = b"the quick brown fox jumps over the lazy dog";
        let resumed = data.chunks(5).fold(FNV_OFFSET, fnv1a64_update);
        assert_eq!(resumed, fnv1a64(data), "resumable form agrees");
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        let payload = b"the quick brown fox";
        let mut tampered = payload.to_vec();
        tampered[3] ^= 1;
        assert_ne!(fnv1a64(payload), fnv1a64(&tampered));
    }

    #[test]
    fn truncated_inputs_error() {
        let mut enc = Encoder::new();
        enc.put_str("hello");
        enc.put_f64(1.0);
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            let r = dec.get_str().and_then(|_| dec.get_f64());
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }
}
