//! Versioned binary persistence for change cubes.
//!
//! Version 3 is the only format read or written. It frames every section
//! with a length and a CRC-32 so corruption is detected before any data
//! is trusted:
//!
//! ```text
//! magic     8 bytes  "WCUBE\0\0\0"
//! version   u32      3
//! section ×7         entities, properties, templates, pages, values,
//!                    entity_meta, changes — in this order, each:
//!   len     u64      payload byte length
//!   payload          section-specific encoding (below)
//!   crc     u32      CRC-32 of the payload
//! file_crc  u32      CRC-32 of every preceding byte (magic included)
//! ```
//!
//! Interner payloads are `u32 count`, then `u32 byte length + UTF-8
//! bytes` per string; `entity_meta` is `u32 count`, then
//! `{ template u32, page u32 }` per entity. The `changes` payload
//! mirrors the in-memory columnar layout ([`crate::ChangeColumns`]):
//! `u64 count`, then six contiguous column arrays — `day i32 × count`,
//! `entity u32 × count`, `property u32 × count`, `value u32 × count`,
//! `kind u8 × count`, `flags u8 × count`. All integers are
//! little-endian.
//!
//! Older versions (1: unframed, no checksums; 2: row-wise changes) are
//! rejected as [`CubeError::UnsupportedVersion`].
//!
//! Reading validates magic, version, checksums, string UTF-8 and change
//! kinds, and decodes the six change arrays straight into the cube's
//! columns, each allocated once at its exact length. The cube
//! constructor then checks id referential integrity and restores
//! canonical ordering; the columns of a file [`encode`] wrote are
//! already canonical and are moved in without a copy. A cube read back
//! is byte-for-byte re-serializable. Length prefixes are never trusted
//! for allocation: capacity is clamped to what the remaining bytes could
//! actually hold, so a corrupt count cannot trigger a multi-gigabyte
//! allocation.
//! Truncation surfaces as [`CubeError::Truncated`] naming the section;
//! checksum failures as [`CubeError::ChecksumMismatch`].
//!
//! [`write_to_path`] is atomic and durable: the encoding is written to a
//! sibling temporary file, fsync'd, renamed over the destination, and
//! the parent directory is fsync'd — a crash mid-write leaves either the
//! old file or the new one, never a half-written hybrid.

use crate::change::{ChangeFlags, ChangeKind};
use crate::crc32::{crc32, Crc32};
use crate::cube::{ChangeColumns, ChangeCube, Dimensions, EntityMeta};
use crate::date::Date;
use crate::error::CubeError;
use crate::ids::{EntityId, PageId, PropertyId, TemplateId, ValueId};
use crate::intern::Interner;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"WCUBE\0\0\0";
const VERSION: u32 = 3;

/// Section names in file order; used for framing and error reporting.
const SECTIONS: [&str; 7] = [
    "entities",
    "properties",
    "templates",
    "pages",
    "values",
    "entity_meta",
    "changes",
];

/// Serialize `cube` into a byte buffer (format version 3).
pub fn encode(cube: &ChangeCube) -> Vec<u8> {
    encode_framed(&section_payloads(cube))
}

/// Frame the seven section payloads: magic, version, then `len +
/// payload + crc` per section, then the whole-file checksum.
fn encode_framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    debug_assert_eq!(payloads.len(), SECTIONS.len());
    let len: usize = payloads.iter().map(|p| p.len() + 12).sum();
    let mut buf = Vec::with_capacity(16 + len);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    for payload in payloads {
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    let mut file_crc = Crc32::new();
    file_crc.update(&buf);
    buf.extend_from_slice(&file_crc.finalize().to_le_bytes());
    buf
}

/// The seven section payloads in file order.
fn section_payloads(cube: &ChangeCube) -> Vec<Vec<u8>> {
    let mut payloads = Vec::with_capacity(SECTIONS.len());
    for interner in [
        cube.entities(),
        cube.properties(),
        cube.templates(),
        cube.pages(),
        cube.values(),
    ] {
        let mut p = Vec::new();
        put_interner(&mut p, interner);
        payloads.push(p);
    }
    let mut meta = Vec::with_capacity(4 + cube.entity_meta().len() * 8);
    meta.extend_from_slice(&(cube.entity_meta().len() as u32).to_le_bytes());
    for m in cube.entity_meta() {
        meta.extend_from_slice(&m.template.0.to_le_bytes());
        meta.extend_from_slice(&m.page.0.to_le_bytes());
    }
    payloads.push(meta);
    payloads.push(changes_payload(cube.columns()));
    payloads
}

/// The `changes` payload: the row count, then the six column arrays
/// straight from the struct-of-arrays change table.
fn changes_payload(cols: &ChangeColumns) -> Vec<u8> {
    let mut changes = Vec::with_capacity(8 + cols.len() * 18);
    changes.extend_from_slice(&(cols.len() as u64).to_le_bytes());
    for &d in cols.days() {
        changes.extend_from_slice(&d.day_number().to_le_bytes());
    }
    for &e in cols.entities() {
        changes.extend_from_slice(&e.0.to_le_bytes());
    }
    for &p in cols.properties() {
        changes.extend_from_slice(&p.0.to_le_bytes());
    }
    for &v in cols.values() {
        changes.extend_from_slice(&v.0.to_le_bytes());
    }
    for &k in cols.kinds() {
        changes.push(k as u8);
    }
    for &f in cols.flags() {
        changes.push(f.bits());
    }
    changes
}

/// Deserialize a cube from bytes produced by [`encode`].
pub fn decode(mut data: &[u8]) -> Result<ChangeCube, CubeError> {
    let buf = &mut data;
    let magic = take_bytes_in(buf, 8, "magic")?;
    if magic != MAGIC {
        return Err(CubeError::BadMagic);
    }
    match take_u32_in(buf, "magic")? {
        VERSION => decode_framed(data),
        other => Err(CubeError::UnsupportedVersion(other)),
    }
}

/// Decode a checksummed body (`data` starts after magic + version, but
/// the file checksum covers them, so they are re-derived here).
fn decode_framed(body: &[u8]) -> Result<ChangeCube, CubeError> {
    // Pass 1 — frame walk. Establishes where every section lies and
    // reports truncation precisely (which section, how many bytes were
    // needed vs. present) before any checksum or content is examined.
    let mut frames: Vec<(&[u8], u32)> = Vec::with_capacity(SECTIONS.len());
    let mut rest = body;
    for name in SECTIONS {
        let (payload, stored_crc) = take_frame(&mut rest, name)?;
        frames.push((payload, stored_crc));
    }
    if rest.len() < 4 {
        return Err(CubeError::Truncated {
            section: "file",
            need: 4,
            got: rest.len(),
        });
    }
    if rest.len() > 4 {
        return Err(CubeError::Corrupt(format!(
            "{} trailing bytes after the file checksum",
            rest.len() - 4
        )));
    }

    // Pass 2 — whole-file checksum (covers magic, version, and all
    // section frames), then the per-section checksums that pinpoint
    // which section went bad.
    let stored = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    let mut hasher = Crc32::new();
    hasher.update(MAGIC);
    hasher.update(&VERSION.to_le_bytes());
    hasher.update(&body[..body.len() - 4]);
    let computed = hasher.finalize();
    if stored != computed {
        return Err(CubeError::ChecksumMismatch {
            section: "file",
            stored,
            computed,
        });
    }
    for (name, &(payload, stored)) in SECTIONS.iter().zip(&frames) {
        let computed = crc32(payload);
        if stored != computed {
            return Err(CubeError::ChecksumMismatch {
                section: name,
                stored,
                computed,
            });
        }
    }

    // Pass 3 — parse the now-verified payloads.
    let entities = parse_interner_section(frames[0].0, "entities")?;
    let properties = parse_interner_section(frames[1].0, "properties")?;
    let templates = parse_interner_section(frames[2].0, "templates")?;
    let pages = parse_interner_section(frames[3].0, "pages")?;
    let values = parse_interner_section(frames[4].0, "values")?;
    let entity_meta = parse_entity_meta_section(frames[5].0)?;
    let changes = parse_changes_section(frames[6].0)?;
    let dims = Dimensions::new(entities, properties, templates, pages, values, entity_meta)?;
    ChangeCube::from_parts(Arc::new(dims), changes)
}

/// Read one framed section without verifying its checksum: length
/// prefix, payload slice, stored payload checksum.
fn take_frame<'a>(buf: &mut &'a [u8], name: &'static str) -> Result<(&'a [u8], u32), CubeError> {
    if buf.len() < 8 {
        return Err(CubeError::Truncated {
            section: name,
            need: 8,
            got: buf.len(),
        });
    }
    let (len_bytes, rest) = buf.split_at(8);
    let len = u64::from_le_bytes([
        len_bytes[0],
        len_bytes[1],
        len_bytes[2],
        len_bytes[3],
        len_bytes[4],
        len_bytes[5],
        len_bytes[6],
        len_bytes[7],
    ]);
    // A corrupt length can be astronomically large; compare in u128 so
    // `len + 4` cannot overflow, and never allocate based on it.
    if (len as u128) + 4 > rest.len() as u128 {
        return Err(CubeError::Truncated {
            section: name,
            need: (len as u128 + 4).min(usize::MAX as u128) as usize,
            got: rest.len(),
        });
    }
    let len = len as usize;
    let payload = &rest[..len];
    let crc_bytes = &rest[len..len + 4];
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    *buf = &rest[len + 4..];
    Ok((payload, stored))
}

fn parse_interner_section(mut payload: &[u8], name: &'static str) -> Result<Interner, CubeError> {
    let interner = take_interner(&mut payload, name)?;
    expect_consumed(payload, name)?;
    Ok(interner)
}

fn parse_entity_meta_section(mut payload: &[u8]) -> Result<Vec<EntityMeta>, CubeError> {
    let meta = take_entity_meta(&mut payload)?;
    expect_consumed(payload, "entity_meta")?;
    Ok(meta)
}

/// Parse the columnar changes payload: `u64 count`, then six column
/// arrays (day i32, entity u32, property u32, value u32, kind u8,
/// flags u8), each `count` elements long. Each array is decoded straight
/// into its [`ChangeColumns`] column, allocated once at its exact
/// length; no row table is built.
fn parse_changes_section(mut payload: &[u8]) -> Result<ChangeColumns, CubeError> {
    const SECTION: &str = "changes";
    let buf = &mut payload;
    let n_changes = take_u64_in(buf, SECTION)?;
    // Compare in u128: a corrupt u64 count can exceed usize on 32-bit.
    if (n_changes as u128) * 18 > buf.len() as u128 {
        return Err(CubeError::Truncated {
            section: SECTION,
            need: ((n_changes as u128) * 18).min(usize::MAX as u128) as usize,
            got: buf.len(),
        });
    }
    let n = n_changes as usize;
    let days = take_bytes_in(buf, n * 4, SECTION)?;
    let entities = take_bytes_in(buf, n * 4, SECTION)?;
    let properties = take_bytes_in(buf, n * 4, SECTION)?;
    let values = take_bytes_in(buf, n * 4, SECTION)?;
    let kinds = take_bytes_in(buf, n, SECTION)?;
    let flags = take_bytes_in(buf, n, SECTION)?;
    expect_consumed(buf, SECTION)?;
    let mut kind_column = Vec::with_capacity(n);
    for &k in kinds {
        kind_column.push(
            ChangeKind::from_u8(k)
                .ok_or_else(|| CubeError::Corrupt(format!("unknown change kind {k}")))?,
        );
    }
    Ok(ChangeColumns {
        days: le_u32s(days)
            .map(|d| Date::from_day_number(d as i32))
            .collect(),
        entities: le_u32s(entities).map(EntityId).collect(),
        properties: le_u32s(properties).map(PropertyId).collect(),
        values: le_u32s(values).map(ValueId).collect(),
        kinds: kind_column,
        flags: flags.iter().map(|&f| ChangeFlags::from_bits(f)).collect(),
    })
}

/// The little-endian `u32`s of a column array.
fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn expect_consumed(payload: &[u8], name: &'static str) -> Result<(), CubeError> {
    if payload.is_empty() {
        Ok(())
    } else {
        Err(CubeError::Corrupt(format!(
            "{} trailing bytes in section {name}",
            payload.len()
        )))
    }
}

/// Write `cube` to `path` atomically and durably (temp file + fsync +
/// rename + directory fsync).
pub fn write_to_path(cube: &ChangeCube, path: &Path) -> Result<(), CubeError> {
    write_bytes_atomic(path, &encode(cube))?;
    Ok(())
}

/// Atomically replace `path` with `bytes`.
///
/// The bytes are written to a sibling temporary file (same directory, so
/// the rename cannot cross filesystems), flushed to stable storage with
/// `fsync`, renamed over `path`, and the parent directory is fsync'd so
/// the rename itself survives a crash. On any failure the temporary file
/// is removed and `path` is left untouched.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Make the rename durable. Directory fsync is best-effort: it can
    // fail on exotic filesystems, and by this point the data file itself
    // is already safe.
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read a cube previously written with [`write_to_path`].
pub fn read_from_path(path: &Path) -> Result<ChangeCube, CubeError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    decode(&data)
}

fn put_interner(buf: &mut Vec<u8>, interner: &Interner) {
    buf.extend_from_slice(&(interner.len() as u32).to_le_bytes());
    for (_, s) in interner.iter() {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
}

/// Capacity to pre-reserve for `count` elements of at least
/// `min_elem_bytes` each, clamped to what `remaining` bytes can hold —
/// an untrusted count must never size an allocation.
fn clamped_capacity(count: usize, remaining: usize, min_elem_bytes: usize) -> usize {
    count.min(remaining / min_elem_bytes.max(1))
}

fn take_interner(buf: &mut &[u8], section: &'static str) -> Result<Interner, CubeError> {
    let count = take_u32_in(buf, section)? as usize;
    // Each string costs at least its 4-byte length prefix.
    let mut strings = Vec::with_capacity(clamped_capacity(count, buf.len(), 4));
    for _ in 0..count {
        let len = take_u32_in(buf, section)? as usize;
        let bytes = take_bytes_in(buf, len, section)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|e| CubeError::Corrupt(format!("invalid UTF-8 in interner: {e}")))?;
        strings.push(s.to_owned());
    }
    Interner::from_ordered(strings).map_err(CubeError::Corrupt)
}

fn take_entity_meta(buf: &mut &[u8]) -> Result<Vec<EntityMeta>, CubeError> {
    const SECTION: &str = "entity_meta";
    let n_entities = take_u32_in(buf, SECTION)? as usize;
    let mut entity_meta = Vec::with_capacity(clamped_capacity(n_entities, buf.len(), 8));
    for _ in 0..n_entities {
        entity_meta.push(EntityMeta {
            template: TemplateId(take_u32_in(buf, SECTION)?),
            page: PageId(take_u32_in(buf, SECTION)?),
        });
    }
    Ok(entity_meta)
}

fn take_bytes_in<'a>(
    buf: &mut &'a [u8],
    n: usize,
    section: &'static str,
) -> Result<&'a [u8], CubeError> {
    if buf.len() < n {
        return Err(CubeError::Truncated {
            section,
            need: n,
            got: buf.len(),
        });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_u32_in(buf: &mut &[u8], section: &'static str) -> Result<u32, CubeError> {
    let b = take_bytes_in(buf, 4, section)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn take_u64_in(buf: &mut &[u8], section: &'static str) -> Result<u64, CubeError> {
    let b = take_bytes_in(buf, 8, section)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::Change;
    use crate::cube::ChangeCubeBuilder;
    use proptest::prelude::*;

    fn sample_cube() -> ChangeCube {
        let mut b = ChangeCubeBuilder::new();
        let ali = b.entity("Ali", "infobox boxer", "Muhammad Ali");
        let wins = b.property("wins");
        let ko = b.property("ko");
        b.change(Date::EPOCH + 10, ali, wins, "56", ChangeKind::Update);
        b.change_full(
            Date::EPOCH + 11,
            ali,
            ko,
            "37",
            ChangeKind::Create,
            ChangeFlags::BOT_REVERTED,
        );
        b.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let cube = sample_cube();
        let bytes = encode(&cube);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.changes_vec(), cube.changes_vec());
        assert_eq!(back.num_entities(), cube.num_entities());
        assert_eq!(back.entity_name(EntityId(0)), "Ali");
        assert_eq!(back.template_name(TemplateId(0)), "infobox boxer");
        assert_eq!(back.value_text(ValueId(0)), "56");
        assert!(back.change_at(1).flags.is_bot_reverted());
        // Deterministic: re-encoding is byte-identical.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn empty_cube_round_trips() {
        let cube = ChangeCubeBuilder::new().finish();
        let back = decode(&encode(&cube)).unwrap();
        assert_eq!(back.num_changes(), 0);
        assert_eq!(back.num_entities(), 0);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(decode(b"NOTACUBE"), Err(CubeError::BadMagic)));
        assert!(matches!(decode(b""), Err(CubeError::Truncated { .. })));
    }

    #[test]
    fn rejects_unknown_version() {
        // 1 and 2 are the retired unframed and row-wise layouts.
        for version in [1u32, 2, 99] {
            let mut bytes = encode(&sample_cube()).to_vec();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode(&bytes),
                Err(CubeError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = encode(&sample_cube());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The trailing file checksum covers every byte, so any one-bit
        // corruption must surface as a typed error.
        let bytes = encode(&sample_cube());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    decode(&flipped).is_err(),
                    "bit flip at {byte}:{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_error_names_section_and_counts() {
        let bytes = encode(&sample_cube());
        // Cut inside the trailing file checksum.
        match decode(&bytes[..bytes.len() - 2]) {
            Err(CubeError::Truncated { section, need, got }) => {
                assert_eq!(section, "file");
                assert!(need > got, "need {need} got {got}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn huge_counts_do_not_allocate() {
        // Correctly checksummed files whose entities section claims
        // u32::MAX strings, or whose changes section claims u64::MAX
        // records: the decoder must fail on missing bytes without
        // reserving gigabytes.
        let empty = ChangeCubeBuilder::new().finish();
        let mut payloads = section_payloads(&empty);
        payloads[0] = u32::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            decode(&encode_framed(&payloads)),
            Err(CubeError::Truncated {
                section: "entities",
                ..
            })
        ));
        let mut payloads = section_payloads(&empty);
        payloads[6] = u64::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            decode(&encode_framed(&payloads)),
            Err(CubeError::Truncated {
                section: "changes",
                ..
            })
        ));
    }

    /// A framed file with `sample_cube`'s dimension tables and `rows`,
    /// in the given order, as its changes section.
    fn file_with_changes(rows: &[Change]) -> Vec<u8> {
        let mut cols = ChangeColumns::default();
        for &c in rows {
            cols.push(c);
        }
        let mut payloads = section_payloads(&sample_cube());
        payloads[6] = changes_payload(&cols);
        encode_framed(&payloads)
    }

    #[test]
    fn decode_canonicalizes_unsorted_changes_with_duplicate_keys() {
        let cube = sample_cube();
        let rows = cube.changes_vec();
        // Out of order, with an earlier write to the first row's slot
        // that the later one must replace.
        let mut earlier = rows[0];
        earlier.value = rows[1].value;
        earlier.kind = ChangeKind::Create;
        let back = decode(&file_with_changes(&[rows[1], earlier, rows[0]])).unwrap();
        assert_eq!(back.changes_vec(), rows);
        assert_eq!(back.change_table_bytes(), rows.len() * 18);
        assert_eq!(encode(&back), encode(&cube));
    }

    #[test]
    fn decode_rejects_bad_kinds_and_dangling_ids() {
        let rows = sample_cube().changes_vec();
        let mut payloads = section_payloads(&sample_cube());
        // The first kind byte follows the count and four 4-byte columns.
        payloads[6][8 + 16 * rows.len()] = 3;
        assert!(matches!(
            decode(&encode_framed(&payloads)),
            Err(CubeError::Corrupt(msg)) if msg == "unknown change kind 3"
        ));
        let dangling = [
            Change {
                entity: EntityId(1),
                ..rows[1]
            },
            Change {
                property: PropertyId(2),
                ..rows[1]
            },
            Change {
                value: ValueId(2),
                ..rows[1]
            },
        ];
        for (bad, want) in dangling
            .into_iter()
            .zip(["entity e1", "property p2", "value v2"])
        {
            match decode(&file_with_changes(&[rows[0], bad])) {
                Err(CubeError::DanglingId(msg)) => assert_eq!(msg, format!("change {want}")),
                other => panic!("expected DanglingId, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample_cube()).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let cube = sample_cube();
        let dir = std::env::temp_dir().join("wikicube-binio-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cube.wcube");
        write_to_path(&cube, &path).unwrap();
        let back = read_from_path(&path).unwrap();
        assert_eq!(back.changes_vec(), cube.changes_vec());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("wikicube-binio-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cube.wcube");
        write_to_path(&sample_cube(), &path).unwrap();
        let first = std::fs::read(&path).unwrap();
        // Overwrite with a different cube: reader sees old or new, and
        // no temporary files survive.
        let other = ChangeCubeBuilder::new().finish();
        write_to_path(&other, &path).unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_ne!(first, second);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_failure_keeps_old_file() {
        let dir = std::env::temp_dir().join("wikicube-binio-atomic-fail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cube.wcube");
        write_to_path(&sample_cube(), &path).unwrap();
        // Writing into a directory that does not exist fails cleanly.
        let bad = dir.join("missing-subdir").join("cube.wcube");
        assert!(write_to_path(&sample_cube(), &bad).is_err());
        // The original is untouched and still valid.
        assert!(read_from_path(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_round_trip(
            days in proptest::collection::vec(0i32..2000, 1..60),
            n_entities in 1usize..6,
            n_props in 1usize..6,
        ) {
            let mut b = ChangeCubeBuilder::new();
            let entities: Vec<_> = (0..n_entities)
                .map(|i| b.entity(&format!("e{i}"), &format!("t{}", i % 2), &format!("pg{i}")))
                .collect();
            let props: Vec<_> = (0..n_props).map(|i| b.property(&format!("p{i}"))).collect();
            for (i, &d) in days.iter().enumerate() {
                let kind = match i % 3 {
                    0 => ChangeKind::Create,
                    1 => ChangeKind::Update,
                    _ => ChangeKind::Delete,
                };
                b.change(
                    Date::EPOCH + d,
                    entities[i % n_entities],
                    props[i % n_props],
                    &format!("v{i}"),
                    kind,
                );
            }
            let cube = b.finish();
            let back = decode(&encode(&cube)).unwrap();
            prop_assert_eq!(back.changes_vec(), cube.changes_vec());
            prop_assert_eq!(encode(&back), encode(&cube));
        }

        // The corrupt-bytes mirror of `xml::prop_never_panics`: random
        // byte mutations of a valid framed encoding must return `Err`
        // (guaranteed by the file checksum), never panic.
        #[test]
        fn prop_corrupt_framed_bytes_always_err(
            seed_days in proptest::collection::vec(0i32..365, 1..10),
            offset_frac in 0.0f64..1.0,
            new_byte in 0u8..=255,
            cut_frac in 0.0f64..1.0,
        ) {
            let mut b = ChangeCubeBuilder::new();
            let e = b.entity("e", "t", "p");
            let prop = b.property("x");
            for &d in &seed_days {
                b.change(Date::EPOCH + d, e, prop, &format!("v{d}"), ChangeKind::Update);
            }
            let bytes = encode(&b.finish());

            // Mutation: overwrite one byte with a different value.
            let pos = ((bytes.len() - 1) as f64 * offset_frac) as usize;
            if bytes[pos] != new_byte {
                let mut mutated = bytes.clone();
                mutated[pos] = new_byte;
                prop_assert!(decode(&mutated).is_err(), "mutation at {pos} decoded");
            }

            // Truncation: any proper prefix fails.
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut} decoded");
        }
    }
}
