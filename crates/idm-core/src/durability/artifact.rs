//! The framing of every whole-file durable artifact — checkpoint
//! snapshots (`IDMSNAP1`) and index bundles (`IDMIDX02`):
//!
//! ```text
//! [magic: 8 bytes] [payload] [checksum: u64 LE]
//! ```
//!
//! The checksum is FNV-1a-64 over *everything* before it (magic
//! included), so any truncation or bit flip fails loudly. Artifacts are
//! written to a temp file, fsynced and atomically renamed into place — a
//! crash leaves either the old artifact or the new one, never a hybrid.
//! The layout has two readers here, sharing one set of checks: [`unseal`]
//! for a file loaded whole, and `scan_sealed`, the online scrub's
//! budgeted, resumable check of a file on disk.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use super::codec::{fnv1a64, fnv1a64_update, Decoder, Encoder, FNV_OFFSET};
use super::scrub::{Meter, Scan};

/// Bytes [`scan_sealed`] reads at a time (less when the round's budget
/// has less left).
const SLICE: u64 = 256 * 1024;

/// Finishes an artifact whose encoder holds `magic + payload`: appends
/// the trailing checksum over every byte written so far.
pub fn seal(enc: Encoder) -> Vec<u8> {
    let mut bytes = enc.into_bytes();
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Verifies the framing of a sealed artifact — length, magic, trailing
/// checksum — and returns its payload (the bytes between the two).
pub fn unseal<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> io::Result<&'a [u8]> {
    let checked = check_len(bytes.len() as u64).and_then(|()| {
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        check_magic(&body[..8], 0, magic)?;
        check_trailer(fnv1a64(body), trailer)?;
        Ok(&body[8..])
    });
    checked.map_err(|detail| Decoder::err(&detail))
}

/// Checks the sealed artifact at `path` in budgeted slices, resuming at
/// `offset` with the running checksum `hash` of the bytes before it
/// (both 0 to start). No slice reads more than the meter has left; the
/// 8-byte trailer is read once the meter has anything left.
pub(crate) fn scan_sealed(
    path: &Path,
    magic: &[u8; 8],
    offset: u64,
    hash: u64,
    meter: &mut Meter,
) -> io::Result<Scan> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if let Err(detail) = check_len(len) {
        return Ok(Scan::Damaged(detail));
    }
    let hashed_end = len - 8;
    let (mut offset, mut hash) = if offset == 0 {
        (0, FNV_OFFSET)
    } else {
        (offset, hash)
    };
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; SLICE.min(hashed_end - offset).min(meter.allowance()) as usize];
    while offset < hashed_end && !meter.exhausted() {
        let want = SLICE.min(hashed_end - offset).min(meter.allowance()) as usize;
        let chunk = &mut buf[..want];
        file.read_exact(chunk)?;
        if offset < 8 {
            let head = want.min(8 - offset as usize);
            if let Err(detail) = check_magic(&chunk[..head], offset as usize, magic) {
                return Ok(Scan::Damaged(detail));
            }
        }
        hash = fnv1a64_update(hash, chunk);
        offset += want as u64;
        meter.charge(want as u64);
    }
    if meter.exhausted() {
        return Ok(Scan::Paused { offset, hash });
    }
    let mut trailer = [0u8; 8];
    file.read_exact(&mut trailer)?;
    meter.charge(8);
    Ok(match check_trailer(hash, &trailer) {
        Ok(()) => Scan::Clean,
        Err(detail) => Scan::Damaged(detail),
    })
}

/// The sealed layout's three checks, shared by both readers. First: a
/// file must hold at least the magic and the checksum.
fn check_len(len: u64) -> Result<(), String> {
    if len < 16 {
        return Err(format!("shorter than magic + checksum ({len} byte(s))"));
    }
    Ok(())
}

/// Second: `head` must equal the magic's bytes from `at` on.
fn check_magic(head: &[u8], at: usize, magic: &[u8; 8]) -> Result<(), String> {
    if magic.get(at..at + head.len()) != Some(head) {
        return Err(format!(
            "bad magic (not an {} file)",
            String::from_utf8_lossy(magic)
        ));
    }
    Ok(())
}

/// Third: the trailer must equal the checksum of every byte before it.
fn check_trailer(hash: u64, trailer: &[u8]) -> Result<(), String> {
    if hash.to_le_bytes() != trailer {
        return Err("checksum mismatch".into());
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the final name, then an fsync of the directory
/// so the rename itself is durable (see [`sync_parent_dir`] for which
/// failures are tolerated).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    {
        let mut file = File::create(tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(tmp, path)?;
    sync_parent_dir(path)
}

/// Fsyncs the directory containing `path`, making a just-completed
/// rename or file creation in it durable.
///
/// Real I/O errors propagate — a failed directory sync means the
/// metadata may not survive a crash and callers must not acknowledge
/// the operation. Only two cases stay silent, and only because they
/// signal *inability*, not failure: the platform cannot open
/// directories for syncing at all (`File::open` fails), or the
/// filesystem rejects the fsync as unsupported
/// (`ErrorKind::Unsupported`, the `ENOTSUP`/`EINVAL` family).
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let Some(parent) = path.parent() else {
        return Ok(());
    };
    let Ok(dir) = File::open(parent) else {
        return Ok(());
    };
    match dir.sync_all() {
        Ok(()) => Ok(()),
        Err(e)
            if e.kind() == io::ErrorKind::Unsupported
                || e.raw_os_error() == Some(libc_einval()) =>
        {
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// `EINVAL` — what Linux returns for fsync on filesystems that do not
/// support directory syncing (kept literal to avoid a libc dependency).
const fn libc_einval() -> i32 {
    22
}
