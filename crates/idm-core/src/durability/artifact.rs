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
//! The budgeted, resumable verifier of the same framing is
//! [`super::scrub`].

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use super::codec::{fnv1a64, Decoder, Encoder};

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
    let (body, stored) = match bytes.split_last_chunk::<8>() {
        Some((body, stored)) if body.len() >= 8 => (body, stored),
        _ => return Err(Decoder::err("shorter than magic + checksum")),
    };
    if &body[..8] != magic {
        return Err(Decoder::err(&format!(
            "bad magic (not an {} file)",
            String::from_utf8_lossy(magic)
        )));
    }
    if fnv1a64(body) != u64::from_le_bytes(*stored) {
        return Err(Decoder::err("checksum mismatch"));
    }
    Ok(&body[8..])
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
