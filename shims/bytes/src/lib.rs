//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply clonable, immutable, sliceable byte buffer:
//! shared ownership via `Arc<[u8]>` (or a borrowed `'static` slice for
//! `from_static`) plus a window. Clones and `slice()` are O(1) and never
//! copy the payload, which is the property the content-component code
//! relies on.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

/// A cheaply clonable immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer.
    pub const fn new() -> Self {
        Bytes {
            repr: Repr::Static(&[]),
            start: 0,
            end: 0,
        }
    }

    /// Wraps a `'static` slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// An O(1) sub-view sharing the same backing storage.
    ///
    /// Panics if the range is out of bounds, matching `bytes`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "range {begin}..{end} out of bounds of {len}"
        );
        Bytes {
            repr: self.repr.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Copies the view into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        let full = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => &a[..],
        };
        &full[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            repr: Repr::Shared(Arc::from(v)),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    /// Renders like `b"ab\xff"`, close to `bytes`' Debug output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                b'\n' => write!(f, "\\n")?,
                b'\r' => write!(f, "\\r")?,
                b'\t' => write!(f, "\\t")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_window() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[1, 2, 3]);
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[2, 3]);
    }

    #[test]
    fn equality_and_from_static() {
        assert_eq!(Bytes::from_static(b"abc"), Bytes::from(b"abc".to_vec()));
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from("hi".to_owned()).len(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        let _ = Bytes::from_static(b"ab").slice(0..3);
    }
}
