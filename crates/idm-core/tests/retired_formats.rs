//! A dataspace written in the previous on-disk format (`IDMSNAP1`
//! snapshots and `IDMWAL01` segments, which carry no view owners) is
//! refused, never misread: no view comes out of it, and opening it
//! leaves every file as it was.

use std::path::PathBuf;

use idm_core::durability::codec::fnv1a64;
use idm_core::durability::{snapshot, wal};
use idm_core::prelude::*;

/// The bytes the previous format's `format_is_pinned` sample encoded
/// to (721 bytes, FNV-1a `0x6e3a_8221_4a50_06f4`).
const IDMSNAP1_SAMPLE: &[&str] = &[
    "49444d534e4150312a071a0466696c65000202000002030473697a65010d6372656174696f6e2074696d6504",
    "126c617374206d6f6469666965642074696d65040101000006666f6c646572000202010002030473697a6501",
    "0d6372656174696f6e2074696d6504126c617374206d6f6469666965642074696d6504000101010200010a66",
    "6f6c6465726c696e6b0101000000000000000000057475706c65000102010100000000000872656c6174696f",
    "6e0002010100000001010101030572656c646200020101000000000101010407786d6c746578740001010201",
    "000100000007786d6c656c656d0002000100000001020102060706786d6c646f630001010102000000020101",
    "0707786d6c66696c6501000202000202030473697a65010d6372656174696f6e2074696d6504126c61737420",
    "6d6f6469666965642074696d65040000020101080964617473747265616d0000010102000002020009747570",
    "73747265616d010a00010102000002020101030772737361746f6d010a000101020000020201010802736300",
    "000002000000000000087363726573756c74000000000000000000000461786d6c0107020000000000000201",
    "020d0e047465787400000002000001000000096c6174657866696c6501000000000000000000000e6c617465",
    "785f646f63756d656e74000000000000000000000d6c617465785f73656374696f6e00020000000000000000",
    "0b656e7669726f6e6d656e740002000000000000000006666967757265000200000000000000000674657872",
    "6566000200000000000000000c656d61696c6d657373616765000002000000000000000a6d61696c666f6c64",
    "6572000200000000000001000a6174746163686d656e7401000000000000000000000201030105612e747874",
    "01010473697a6501010a010568656c6c6f00010466696c65020001036469720000010101000106666f6c6465",
    "7201020104636f707999c6c9a4d9423d4b",
];

/// A previous-format segment: that sample's two views inserted, then
/// view 1 renamed.
const IDMWAL01_SEGMENT: &[&str] = &[
    "49444d57414c3031210000008dd4868d8f4ac9f000010105612e74787401010473697a6501010a010568656c",
    "6c6f00010466696c6515000000baf74e5ec3427274000201036469720000010101000106666f6c6465720900",
    "0000ca03c920c74642de02010105622e747874",
];

fn unhex(lines: &[&str]) -> Vec<u8> {
    let hex: String = lines.concat();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idm-retired-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn the_fixtures_are_the_previous_pinned_bytes() {
    let snap = unhex(IDMSNAP1_SAMPLE);
    assert_eq!((snap.len(), fnv1a64(&snap)), (721, 0x6e3a_8221_4a50_06f4));
    assert_eq!(&snap[..8], b"IDMSNAP1");
    assert_eq!(&unhex(IDMWAL01_SEGMENT)[..8], b"IDMWAL01");
}

#[test]
fn previous_format_files_decode_to_nothing() {
    assert!(snapshot::from_bytes(&unhex(IDMSNAP1_SAMPLE)).is_err());
    let path = tmp("segment").join("wal-1.idmlog");
    std::fs::write(&path, unhex(IDMWAL01_SEGMENT)).unwrap();
    let segment = wal::read_segment(&path).unwrap();
    assert!(segment.records.is_empty());
    assert_eq!(segment.valid_len, 0);
}

#[test]
fn a_previous_format_dataspace_is_refused_and_left_as_it_was() {
    let files = [
        ("snap-1.idmsnap", unhex(IDMSNAP1_SAMPLE)),
        ("wal-1.idmlog", unhex(IDMWAL01_SEGMENT)),
    ];
    // Both files, and each on its own.
    for present in [&files[..], &files[..1], &files[1..]] {
        let dir = tmp("dataspace");
        for (name, bytes) in present {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let err = DurabilityManager::open(&dir, SyncPolicy::WriteBack).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("retired"), "{err}");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let expected: Vec<&str> = present.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected, "nothing quarantined or created");
        for (name, bytes) in present {
            assert_eq!(
                &std::fs::read(dir.join(name)).unwrap(),
                bytes,
                "{name} rewritten"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
