//! Immutable sorted table files.
//!
//! When the memtable grows past its threshold it is frozen and written
//! out as one sorted, checksummed, immutable file — the LSM's on-disk
//! level. Layout:
//!
//! ```text
//! [0xA5][TAG_TABLE][version]            envelope (see codec)
//! [entry_count u32]
//! entries: entry_count ×
//!   [flags u8][key bytes][value bytes]  (flags bit 0 = tombstone;
//!                                        tombstones carry no value)
//! sparse index: [index_count u32] ×
//!   [key bytes][offset u64]             every Nth entry's key + offset
//! footer: [index_offset u64][crc32 u32 over everything before footer]
//! ```
//!
//! The whole file is written to a `.tmp` sibling and atomically renamed
//! into place, so a table either exists completely or not at all — no
//! half-written tables can be observed after a crash.
//!
//! Readers memory-load the file once (tables here are MBs, not GBs),
//! verify the footer checksum, keep that one buffer for lookups, and
//! binary-search the sparse index to bound a short linear scan.
//! Tombstones are first-class entries so a delete in a newer table
//! shadows a put in an older one.

use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::codec::{Reader, Writer};
use crate::error::StoreError;
use crate::wal::crc32;

/// Envelope tag for sorted table files.
pub const TAG_TABLE: u8 = 0x54; // 'T'
/// Current table format version.
pub const TABLE_VERSION: u8 = 1;

/// One entry handed to the table writer: a value or a tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// The key.
    pub key: Vec<u8>,
    /// `Some(value)` for a put, `None` for a tombstone.
    pub value: Option<Vec<u8>>,
}

const FLAG_TOMBSTONE: u8 = 0b0000_0001;

/// Writes `entries` (which must be sorted by key, strictly ascending)
/// as an immutable table at `path`, indexing every `sparse_interval`-th
/// entry. The file appears atomically via `.tmp` + rename.
pub fn write_table(
    path: &Path,
    entries: &[TableEntry],
    sparse_interval: usize,
) -> Result<(), StoreError> {
    debug_assert!(sparse_interval > 0);
    debug_assert!(
        entries.windows(2).all(|w| w[0].key < w[1].key),
        "table entries must be strictly sorted"
    );

    let mut w = Writer::versioned(TAG_TABLE, TABLE_VERSION);
    w.u32(entries.len() as u32);
    let mut index: Vec<(Vec<u8>, u64)> = Vec::new();
    let mut body = Writer::new();
    // Entry offsets are relative to the start of the entries section so
    // the index stays valid regardless of envelope size.
    for (i, entry) in entries.iter().enumerate() {
        if i % sparse_interval == 0 {
            index.push((entry.key.clone(), body.finish_len() as u64));
        }
        match &entry.value {
            Some(v) => {
                body.u8(0);
                body.bytes(&entry.key);
                body.bytes(v);
            }
            None => {
                body.u8(FLAG_TOMBSTONE);
                body.bytes(&entry.key);
            }
        }
    }
    let body = body.finish();
    let index_offset = body.len() as u64;
    w.raw(&body);
    w.u32(index.len() as u32);
    for (key, offset) in &index {
        w.bytes(key);
        w.u64(*offset);
    }
    let mut buf = w.finish();
    let crc = crc32(&buf);
    buf.extend_from_slice(&index_offset.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());

    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp).map_err(|e| StoreError::io(&tmp, "creating table", e))?;
        f.write_all(&buf)
            .map_err(|e| StoreError::io(&tmp, "writing table", e))?;
        f.sync_data()
            .map_err(|e| StoreError::io(&tmp, "fsyncing table", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| StoreError::io(path, "publishing table", e))?;
    // Make the rename itself durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The `.tmp` sibling a table is staged at before rename.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// An immutable sorted table loaded into memory.
#[derive(Debug)]
pub struct Table {
    path: PathBuf,
    /// The whole file as `open` read and checksummed it.
    raw: Vec<u8>,
    /// Where the entries section (between envelope and index) sits in
    /// `raw`.
    entries: Range<usize>,
    entry_count: u32,
    /// Sparse index: (key, offset into the entries section). Keys
    /// strictly ascend and offsets never decrease, checked at open.
    index: Vec<(Vec<u8>, usize)>,
}

impl Table {
    /// Opens and fully validates the table at `path`: footer checksum,
    /// envelope, and index structure. A table failing its checksum is a
    /// hard [`StoreError::Corrupt`] — immutable files have no torn
    /// tails to tolerate.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let raw = std::fs::read(path).map_err(|e| StoreError::io(path, "reading table", e))?;
        if raw.len() < 12 {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: 0,
                detail: format!(
                    "table file of {} bytes is too short for a footer",
                    raw.len()
                ),
            });
        }
        let footer_at = raw.len() - 12;
        let index_offset = u64::from_le_bytes(raw[footer_at..footer_at + 8].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(raw[footer_at + 8..].try_into().unwrap());
        let computed = crc32(&raw[..footer_at]);
        if computed != stored_crc {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: footer_at as u64,
                detail: format!(
                    "table checksum mismatch (stored 0x{stored_crc:08x}, computed \
                     0x{computed:08x})"
                ),
            });
        }
        let (mut r, _version) =
            Reader::versioned("sorted table", &raw[..footer_at], TAG_TABLE, TABLE_VERSION)?;
        let entry_count = r.u32()?;
        // The entries section starts right after the header and spans
        // the next `index_offset` bytes. The footer sits outside the
        // checksum, so its offset is bounded before any arithmetic.
        let header_len = footer_at - r.remaining();
        let entries_end = usize::try_from(index_offset)
            .ok()
            .and_then(|len| header_len.checked_add(len))
            .filter(|&end| end <= footer_at)
            .ok_or_else(|| StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: footer_at as u64,
                detail: format!("index offset {index_offset} places the index past the footer"),
            })?;
        let entries_len = entries_end - header_len;
        let mut ir = Reader::new("table sparse index", &raw[entries_end..footer_at]);
        let index_count = ir.u32()?;
        // Every index entry takes at least a key length and an offset.
        let capacity = (index_count as usize).min(ir.remaining() / 12);
        let mut index: Vec<(Vec<u8>, usize)> = Vec::with_capacity(capacity);
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: entries_end as u64,
            detail,
        };
        for _ in 0..index_count {
            let key = ir.bytes()?;
            let offset = ir.u64()?;
            let offset = usize::try_from(offset)
                .ok()
                .filter(|&o| o <= entries_len)
                .ok_or_else(|| {
                    corrupt(format!(
                        "sparse index offset {offset} exceeds entry section of \
                         {entries_len} bytes"
                    ))
                })?;
            // `get` binary-searches the keys and slices between
            // neighbouring offsets.
            if let Some((prev_key, prev_offset)) = index.last() {
                if key <= prev_key.as_slice() {
                    return Err(corrupt(format!(
                        "sparse index key {} does not sort after its predecessor",
                        index.len()
                    )));
                }
                if offset < *prev_offset {
                    return Err(corrupt(format!(
                        "sparse index offset {offset} precedes its predecessor's \
                         {prev_offset}"
                    )));
                }
            }
            index.push((key.to_vec(), offset));
        }
        ir.expect_end()?;
        Ok(Self {
            path: path.to_path_buf(),
            raw,
            entries: header_len..entries_end,
            entry_count,
            index,
        })
    }

    /// The entries section.
    fn entries(&self) -> &[u8] {
        &self.raw[self.entries.clone()]
    }

    /// Looks up `key`. Returns `None` when the table has no entry,
    /// `Some(None)` for a tombstone, `Some(Some(value))` for a put.
    pub fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>, StoreError> {
        // Find the sparse-index interval that could hold the key.
        let slot = match self.index.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => i,
            Err(0) => return Ok(None), // key sorts before the first entry
            Err(i) => i - 1,
        };
        let entries = self.entries();
        let start = self.index[slot].1;
        let end = self.index.get(slot + 1).map_or(entries.len(), |(_, o)| *o);
        let mut r = Reader::new("table entries", &entries[start..end]);
        while r.remaining() > 0 {
            let flags = r.u8()?;
            let k = r.bytes()?;
            let value = if flags & FLAG_TOMBSTONE == 0 {
                Some(r.bytes()?)
            } else {
                None
            };
            match k.cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => return Ok(Some(value.map(<[u8]>::to_vec))),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Iterates every entry in key order (tombstones included) — used
    /// by compaction.
    pub fn iter_entries(&self) -> Result<Vec<TableEntry>, StoreError> {
        let mut r = Reader::new("table entries", self.entries());
        let mut out = Vec::with_capacity(self.entry_count as usize);
        while r.remaining() > 0 {
            let flags = r.u8()?;
            let key = r.bytes()?.to_vec();
            let value = if flags & FLAG_TOMBSTONE == 0 {
                Some(r.bytes()?.to_vec())
            } else {
                None
            };
            out.push(TableEntry { key, value });
        }
        Ok(out)
    }

    /// Number of entries (puts + tombstones) in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entry_count as usize
    }

    /// True when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// The file backing this table.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minaret-table-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_entries(n: usize) -> Vec<TableEntry> {
        (0..n)
            .map(|i| TableEntry {
                key: format!("key-{i:05}").into_bytes(),
                value: if i % 7 == 3 {
                    None // sprinkle tombstones
                } else {
                    Some(format!("value-{i}").repeat(1 + i % 4).into_bytes())
                },
            })
            .collect()
    }

    #[test]
    fn write_then_lookup_every_key() {
        let dir = tmp_dir("lookup");
        let path = dir.join("table-1.sst");
        let entries = sample_entries(100);
        write_table(&path, &entries, 8).unwrap();
        let t = Table::open(&path).unwrap();
        assert_eq!(t.len(), 100);
        for e in &entries {
            assert_eq!(t.get(&e.key).unwrap(), Some(e.value.clone()), "{:?}", e.key);
        }
        // Absent keys: before the first, between entries, after the last.
        assert_eq!(t.get(b"key-").unwrap(), None);
        assert_eq!(t.get(b"key-00042x").unwrap(), None);
        assert_eq!(t.get(b"zzz").unwrap(), None);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn iter_round_trips_in_order() {
        let dir = tmp_dir("iter");
        let path = dir.join("table-1.sst");
        let entries = sample_entries(33);
        write_table(&path, &entries, 4).unwrap();
        let t = Table::open(&path).unwrap();
        assert_eq!(t.iter_entries().unwrap(), entries);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bitflip_anywhere_is_detected() {
        let dir = tmp_dir("bitflip");
        let path = dir.join("table-1.sst");
        write_table(&path, &sample_entries(20), 4).unwrap();
        let raw = std::fs::read(&path).unwrap();
        // Flip one bit at a spread of positions across the file — the
        // footer checksum must catch all of them.
        for pos in (0..raw.len()).step_by(13) {
            let mut damaged = raw.clone();
            damaged[pos] ^= 0x10;
            std::fs::write(&path, &damaged).unwrap();
            let err = Table::open(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Corrupt { .. }
                        | StoreError::Codec { .. }
                        | StoreError::VersionMismatch { .. }
                ),
                "flip at {pos} not caught: {err}"
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Recomputes the footer checksum after a test patched the bytes
    /// it covers, so only the structural checks stand between the
    /// damage and a lookup.
    fn reseal(raw: &mut [u8]) {
        let footer_at = raw.len() - 12;
        let crc = crc32(&raw[..footer_at]);
        raw[footer_at + 8..].copy_from_slice(&crc.to_le_bytes());
    }

    fn expect_corrupt(path: &Path, raw: &[u8], what: &str) {
        std::fs::write(path, raw).unwrap();
        let err = Table::open(path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{what}: {err}");
    }

    #[test]
    fn footer_offset_past_the_file_refuses_to_open() {
        let dir = tmp_dir("footer");
        let path = dir.join("table-1.sst");
        write_table(&path, &sample_entries(20), 4).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // The footer is outside the checksum: no reseal needed.
        let footer_at = raw.len() - 12;
        for offset in [u64::MAX, u64::MAX - 6, raw.len() as u64] {
            raw[footer_at..footer_at + 8].copy_from_slice(&offset.to_le_bytes());
            expect_corrupt(&path, &raw, &format!("index offset {offset}"));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unordered_sparse_index_refuses_to_open() {
        let dir = tmp_dir("index-order");
        let path = dir.join("table-1.sst");
        write_table(&path, &sample_entries(20), 4).unwrap();
        let raw = std::fs::read(&path).unwrap();
        // Envelope (3) + entry count (4) + entries, then the index: a
        // count and 21-byte records of [key len 4][key 9][offset 8].
        let footer_at = raw.len() - 12;
        let index_offset = u64::from_le_bytes(raw[footer_at..footer_at + 8].try_into().unwrap());
        let record = |i: usize| 7 + index_offset as usize + 4 + 21 * i;
        let (first, second) = (record(1), record(2));
        // Swaps `len` bytes at `a` and `b` in a resealed copy.
        let swapped = |a: usize, b: usize, len: usize| {
            let mut out = raw.clone();
            out[a..a + len].copy_from_slice(&raw[b..b + len]);
            out[b..b + len].copy_from_slice(&raw[a..a + len]);
            reseal(&mut out);
            out
        };
        let offsets = swapped(first + 13, second + 13, 8);
        expect_corrupt(&path, &offsets, "decreasing offsets");
        let keys = swapped(first + 4, second + 4, 9);
        expect_corrupt(&path, &keys, "unsorted keys");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_table_round_trips() {
        let dir = tmp_dir("empty");
        let path = dir.join("table-1.sst");
        write_table(&path, &[], 8).unwrap();
        let t = Table::open(&path).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.get(b"anything").unwrap(), None);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
