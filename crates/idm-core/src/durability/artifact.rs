//! The framing of every whole-file durable artifact — checkpoint
//! snapshots (`IDMSNAP1`) and index bundles (`IDMIDX02`):
//!
//! ```text
//! [magic: 8 bytes] [payload] [checksum: u64 LE]
//! ```
//!
//! The checksum is FNV-1a-64 over *everything* before it (magic
//! included), so any truncation or bit flip fails loudly. The layout has
//! one writer, [`SealedWriter`]: a format encodes its payload through it
//! item by item, and the writer hands every 64 KiB to its sink,
//! folding each chunk into the running checksum, so no artifact is ever
//! held whole in memory. [`write_sealed`] runs it over a temp file, then
//! fsyncs it and atomically renames it into place — a crash leaves
//! either the old artifact or the new one, never a hybrid, and a failed
//! write leaves no temp file behind. [`seal`] runs the same writer over
//! a `Vec`. The layout has two readers here, sharing one set of checks:
//! [`unseal`] for a file loaded whole, and `scan_sealed`, the online
//! scrub's budgeted, resumable check of a file on disk.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::{Deref, DerefMut};
use std::path::Path;

use super::codec::{fnv1a64, fnv1a64_update, Decoder, Encoder, FNV_OFFSET};
use super::scrub::{Meter, Scan};

/// Bytes [`scan_sealed`] reads at a time (less when the round's budget
/// has less left).
const SLICE: u64 = 256 * 1024;

/// Bytes a [`SealedWriter`] buffers before it hands them to its sink.
const SPILL: usize = 64 * 1024;

/// The one writer of the sealed layout, run by [`write_sealed`] and
/// [`seal`]. A format encodes its payload through the writer's
/// [`Encoder`] (the writer derefs to it) and calls
/// [`SealedWriter::spill`] between items; when the payload ends, the
/// writer appends the checksum. What the writer holds is the bytes
/// since the last spill: under 64 KiB plus the last item.
pub struct SealedWriter<W: Write> {
    enc: Encoder,
    sink: W,
    /// FNV-1a of every byte handed to the sink.
    hash: u64,
    /// Bytes handed to the sink.
    len: u64,
}

impl<W: Write> SealedWriter<W> {
    /// A writer into `sink` of an artifact that opens with `magic`.
    fn new(sink: W, magic: &[u8; 8]) -> Self {
        let mut enc = Encoder::new();
        enc.put_raw(magic);
        SealedWriter {
            enc,
            sink,
            hash: FNV_OFFSET,
            len: 0,
        }
    }

    /// Hands the buffered bytes to the sink once they reach 64 KiB.
    pub fn spill(&mut self) -> io::Result<()> {
        if self.enc.as_bytes().len() >= SPILL {
            self.drain()?;
        }
        Ok(())
    }

    fn drain(&mut self) -> io::Result<()> {
        let bytes = self.enc.as_bytes();
        self.sink.write_all(bytes)?;
        self.hash = fnv1a64_update(self.hash, bytes);
        self.len += bytes.len() as u64;
        self.enc.clear();
        Ok(())
    }

    /// Writes out what is buffered and the trailing checksum. Returns
    /// the sink and the artifact's length in bytes.
    fn finish(mut self) -> io::Result<(W, u64)> {
        self.drain()?;
        self.sink.write_all(&self.hash.to_le_bytes())?;
        Ok((self.sink, self.len + 8))
    }
}

impl<W: Write> Deref for SealedWriter<W> {
    type Target = Encoder;

    fn deref(&self) -> &Encoder {
        &self.enc
    }
}

impl<W: Write> DerefMut for SealedWriter<W> {
    fn deref_mut(&mut self) -> &mut Encoder {
        &mut self.enc
    }
}

/// The sealed artifact that `body` encodes after `magic`, in memory:
/// the [`SealedWriter`] over a `Vec` sink.
///
/// # Panics
///
/// If `body` fails. A `Vec` sink never does, so only an error of the
/// body's own can.
pub fn seal(
    magic: &[u8; 8],
    body: impl FnOnce(&mut SealedWriter<Vec<u8>>) -> io::Result<()>,
) -> Vec<u8> {
    let mut writer = SealedWriter::new(Vec::new(), magic);
    let sealed = body(&mut writer).and_then(|()| writer.finish());
    sealed
        .expect("a sealed body over a Vec sink fails only on its own error")
        .0
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

/// Writes the sealed artifact that `body` encodes after `magic` to
/// `path`, atomically: streamed through a [`SealedWriter`] into a temp
/// file in the same directory, `fsync`, rename over the final name,
/// then an fsync of the directory so the rename itself is durable (see
/// [`sync_parent_dir`] for which failures are tolerated). Any error
/// before the rename removes the temp file. Returns the artifact's
/// length in bytes.
pub fn write_sealed(
    path: &Path,
    magic: &[u8; 8],
    body: impl FnOnce(&mut SealedWriter<File>) -> io::Result<()>,
) -> io::Result<u64> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let renamed = File::create(tmp).and_then(|file| {
        let mut writer = SealedWriter::new(file, magic);
        body(&mut writer)?;
        let (file, len) = writer.finish()?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(tmp, path)?;
        Ok(len)
    });
    match renamed {
        Ok(len) => sync_parent_dir(path).map(|()| len),
        Err(e) => {
            let _ = std::fs::remove_file(tmp);
            Err(e)
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"IDMTEST1";

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("idm-artifact-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Four [`SPILL`]s of payload in 1 KiB items, spilled between them.
    fn long_body<W: Write>(writer: &mut SealedWriter<W>) -> io::Result<()> {
        for i in 0..4 * SPILL / 1024 {
            writer.put_raw(&[i as u8; 1024]);
            writer.spill()?;
        }
        Ok(())
    }

    /// The file and the `Vec` sink write the same bytes across spills,
    /// and the trailer is the checksum of everything before it.
    #[test]
    fn file_and_vec_sinks_write_the_same_sealed_bytes() {
        let dir = tmp("sinks");
        let path = dir.join("a.idm");
        let len = write_sealed(&path, MAGIC, long_body).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(len, on_disk.len() as u64);
        assert_eq!(on_disk, seal(MAGIC, long_body));
        assert_eq!(unseal(&on_disk, MAGIC).unwrap().len(), 4 * SPILL);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A body that fails after its writer spilled leaves no temp file,
    /// and the artifact it was to replace stays byte for byte.
    #[test]
    fn a_failed_write_removes_its_temp_file_and_keeps_the_old_artifact() {
        let dir = tmp("failed");
        let path = dir.join("a.idm");
        let tmp = dir.join("a.idm.tmp");
        write_sealed(&path, MAGIC, |w| {
            w.put_str("the previous artifact");
            Ok(())
        })
        .unwrap();
        let before = std::fs::read(&path).unwrap();

        let err = write_sealed(&path, MAGIC, |w| {
            long_body(w)?;
            let spilled = std::fs::metadata(&tmp)?.len();
            assert!(spilled > SPILL as u64, "{spilled} byte(s) spilled");
            Err(io::Error::other("body failed"))
        })
        .unwrap_err();

        assert_eq!(err.to_string(), "body failed");
        assert!(!tmp.exists(), "the temp file is removed");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
