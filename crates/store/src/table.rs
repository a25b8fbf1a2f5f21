//! The immutable sorted table a snapshot is stored in.
//!
//! Layout:
//!
//! ```text
//! [0xA5][TAG_TABLE][version]            envelope (see codec)
//! entries, in strictly ascending key order:
//!   [key bytes][value bytes]
//! sparse index: [index_count u32] ×
//!   [key bytes][offset u64]             every SPARSE_INTERVAL-th entry's
//!                                       key + offset
//! footer: [index_offset u64][crc32 u32 over everything before footer]
//! ```
//!
//! [`TableWriter`] streams a table out one entry at a time, computing
//! the checksum as the bytes go out, so writing costs the file's own
//! size and holds only the sparse index. Publishing the file (fsync,
//! rename, directory fsync) is [`crate::Store::publish`]'s job.
//!
//! Readers memory-load the file once (tables here are MBs, not GBs),
//! verify the footer checksum, keep that one buffer for lookups, and
//! binary-search the sparse index to bound a short linear scan.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::codec::{Reader, Writer};
use crate::crc::Crc32;
use crate::error::StoreError;

/// Envelope tag for sorted table files.
pub const TAG_TABLE: u8 = 0x54; // 'T'
/// Current table format version.
pub const TABLE_VERSION: u8 = 2;
/// Every this-many-th entry gets a sparse-index record.
pub const SPARSE_INTERVAL: usize = 16;

/// Index offset + checksum.
const FOOTER_LEN: usize = 12;

/// Streams a table to a file, entry by entry, in key order.
#[derive(Debug)]
pub struct TableWriter {
    path: PathBuf,
    out: BufWriter<File>,
    crc: Crc32,
    /// Bytes of entries written so far: the next entry's offset.
    entries_len: u64,
    entry_count: usize,
    /// The last key added, to hold keys to strictly ascending order.
    last_key: Vec<u8>,
    index: Vec<(Vec<u8>, u64)>,
}

impl TableWriter {
    /// Creates (or truncates) the file at `path` and writes the
    /// envelope.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let file = File::create(path).map_err(|e| StoreError::io(path, "creating table", e))?;
        let mut writer = Self {
            path: path.to_path_buf(),
            out: BufWriter::new(file),
            crc: Crc32::new(),
            entries_len: 0,
            entry_count: 0,
            last_key: Vec::new(),
            index: Vec::new(),
        };
        writer.write(&Writer::versioned(TAG_TABLE, TABLE_VERSION).finish())?;
        Ok(writer)
    }

    /// Appends one entry. `key` must sort strictly after the previous
    /// entry's: `get` stops scanning at the first greater key, so a
    /// misordered entry would be written and then never found.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if self.entry_count > 0 && key <= self.last_key.as_slice() {
            return Err(StoreError::Codec {
                what: "sorted table",
                detail: format!(
                    "entry {} key {:?} does not sort after the previous key {:?}",
                    self.entry_count,
                    String::from_utf8_lossy(key),
                    String::from_utf8_lossy(&self.last_key)
                ),
            });
        }
        if self.entry_count.is_multiple_of(SPARSE_INTERVAL) {
            self.index.push((key.to_vec(), self.entries_len));
        }
        self.entries_len += self.write_bytes(key)? + self.write_bytes(value)?;
        self.entry_count += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        Ok(())
    }

    /// Writes the sparse index and the footer, then flushes and fsyncs
    /// the file. Returns its path.
    pub fn finish(mut self) -> Result<PathBuf, StoreError> {
        let index = std::mem::take(&mut self.index);
        self.write(&len_prefix(index.len())?)?;
        for (key, offset) in &index {
            self.write_bytes(key)?;
            self.write(&offset.to_le_bytes())?;
        }
        // The footer sits outside the checksum it carries.
        let crc = self.crc.finish();
        let mut footer = [0u8; FOOTER_LEN];
        footer[..8].copy_from_slice(&self.entries_len.to_le_bytes());
        footer[8..].copy_from_slice(&crc.to_le_bytes());
        self.out
            .write_all(&footer)
            .and_then(|()| self.out.flush())
            .map_err(|e| StoreError::io(&self.path, "writing table", e))?;
        self.out
            .get_ref()
            .sync_all()
            .map_err(|e| StoreError::io(&self.path, "fsyncing table", e))?;
        Ok(self.path)
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.crc.update(bytes);
        self.out
            .write_all(bytes)
            .map_err(|e| StoreError::io(&self.path, "writing table", e))
    }

    /// Writes a length-prefixed byte string; returns the bytes written.
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<u64, StoreError> {
        self.write(&len_prefix(bytes.len())?)?;
        self.write(bytes)?;
        Ok(4 + bytes.len() as u64)
    }
}

fn len_prefix(len: usize) -> Result<[u8; 4], StoreError> {
    u32::try_from(len)
        .map(u32::to_le_bytes)
        .map_err(|_| StoreError::Codec {
            what: "sorted table",
            detail: format!("a length of {len} does not fit the u32 length field"),
        })
}

fn too_short(path: &Path, len: u64) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        offset: 0,
        detail: format!("table file of {len} bytes is too short for a footer"),
    }
}

/// Fails unless the checksum computed over the bytes before the footer
/// equals the one the footer stores.
fn check_crc(path: &Path, footer_at: u64, footer: &[u8], computed: u32) -> Result<(), StoreError> {
    let stored = u32::from_le_bytes(footer[8..].try_into().expect("footer is 12 bytes"));
    if computed != stored {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: footer_at,
            detail: format!(
                "table checksum mismatch (stored 0x{stored:08x}, computed 0x{computed:08x})"
            ),
        });
    }
    Ok(())
}

/// Streams the table at `path` back through the checksum with a
/// fixed-size buffer and checks it against the footer, without holding
/// the file in memory.
pub fn verify(path: &Path) -> Result<(), StoreError> {
    let io = |e| StoreError::io(path, "re-reading table", e);
    let mut file = File::open(path).map_err(io)?;
    let len = file.metadata().map_err(io)?.len();
    let footer_at = len
        .checked_sub(FOOTER_LEN as u64)
        .ok_or_else(|| too_short(path, len))?;
    let mut crc = Crc32::new();
    let mut buf = vec![0u8; 64 << 10];
    let mut left = footer_at;
    while left > 0 {
        let n = buf.len().min(usize::try_from(left).unwrap_or(usize::MAX));
        file.read_exact(&mut buf[..n]).map_err(io)?;
        crc.update(&buf[..n]);
        left -= n as u64;
    }
    let mut footer = [0u8; FOOTER_LEN];
    file.read_exact(&mut footer).map_err(io)?;
    check_crc(path, footer_at, &footer, crc.finish())
}

/// An immutable sorted table loaded into memory.
#[derive(Debug)]
pub struct Table {
    /// The whole file as `open` read and checksummed it.
    raw: Vec<u8>,
    /// Where the entries section (between envelope and index) sits in
    /// `raw`.
    entries: Range<usize>,
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
        let footer_at = raw
            .len()
            .checked_sub(FOOTER_LEN)
            .ok_or_else(|| too_short(path, raw.len() as u64))?;
        let footer = &raw[footer_at..];
        let index_offset = u64::from_le_bytes(footer[..8].try_into().expect("footer is 12 bytes"));
        check_crc(
            path,
            footer_at as u64,
            footer,
            crate::crc::crc32(&raw[..footer_at]),
        )?;
        let (r, _version) =
            Reader::versioned("sorted table", &raw[..footer_at], TAG_TABLE, TABLE_VERSION)?;
        // The entries section starts right after the envelope and spans
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
            raw,
            entries: header_len..entries_end,
            index,
        })
    }

    /// Looks up the value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<&[u8]>, StoreError> {
        // Find the sparse-index interval that could hold the key.
        let slot = match self.index.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => i,
            Err(0) => return Ok(None), // key sorts before the first entry
            Err(i) => i - 1,
        };
        let entries = &self.raw[self.entries.clone()];
        let start = self.index[slot].1;
        let end = self.index.get(slot + 1).map_or(entries.len(), |(_, o)| *o);
        let mut r = Reader::new("table entries", &entries[start..end]);
        while r.remaining() > 0 {
            let k = r.bytes()?;
            let value = r.bytes()?;
            match k.cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => return Ok(Some(value)),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minaret-table-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("key-{i:05}").into_bytes(),
                    format!("value-{i}").repeat(1 + i % 4).into_bytes(),
                )
            })
            .collect()
    }

    fn write_table(path: &Path, entries: &[(Vec<u8>, Vec<u8>)]) {
        let mut w = TableWriter::create(path).unwrap();
        for (key, value) in entries {
            w.add(key, value).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn write_then_lookup_every_key() {
        let dir = tmp_dir("lookup");
        let path = dir.join("table.sst");
        let entries = sample_entries(100);
        write_table(&path, &entries);
        verify(&path).unwrap();
        let t = Table::open(&path).unwrap();
        for (key, value) in &entries {
            assert_eq!(t.get(key).unwrap(), Some(value.as_slice()), "{key:?}");
        }
        // Absent keys: before the first, between entries, after the last.
        assert_eq!(t.get(b"key-").unwrap(), None);
        assert_eq!(t.get(b"key-00042x").unwrap(), None);
        assert_eq!(t.get(b"zzz").unwrap(), None);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn writer_rejects_a_key_that_does_not_sort_after_the_previous() {
        let dir = tmp_dir("order");
        let mut w = TableWriter::create(&dir.join("table.sst")).unwrap();
        w.add(b"b", b"1").unwrap();
        for key in [b"a", b"b"] {
            let err = w.add(key, b"2").unwrap_err();
            assert!(matches!(err, StoreError::Codec { .. }), "{err}");
            assert!(err.to_string().contains("does not sort after"), "{err}");
        }
        w.add(b"c", b"3").unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bitflip_anywhere_is_detected() {
        let dir = tmp_dir("bitflip");
        let path = dir.join("table.sst");
        write_table(&path, &sample_entries(20));
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
            // The streamed check covers the same bytes, except the
            // index offset, which `open` bounds instead.
            if !(raw.len() - FOOTER_LEN..raw.len() - 4).contains(&pos) {
                assert!(verify(&path).is_err(), "flip at {pos} passed verify");
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Recomputes the footer checksum after a test patched the bytes
    /// it covers, so only the structural checks stand between the
    /// damage and a lookup.
    fn reseal(raw: &mut [u8]) {
        let footer_at = raw.len() - FOOTER_LEN;
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
        let path = dir.join("table.sst");
        write_table(&path, &sample_entries(20));
        let mut raw = std::fs::read(&path).unwrap();
        // The footer is outside the checksum: no reseal needed.
        let footer_at = raw.len() - FOOTER_LEN;
        for offset in [u64::MAX, u64::MAX - 6, raw.len() as u64] {
            raw[footer_at..footer_at + 8].copy_from_slice(&offset.to_le_bytes());
            expect_corrupt(&path, &raw, &format!("index offset {offset}"));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unordered_sparse_index_refuses_to_open() {
        let dir = tmp_dir("index-order");
        let path = dir.join("table.sst");
        // Three index records: entries 0, 16 and 32.
        write_table(&path, &sample_entries(40));
        let raw = std::fs::read(&path).unwrap();
        // Envelope (3) + entries, then the index: a count and 21-byte
        // records of [key len 4][key 9][offset 8].
        let footer_at = raw.len() - FOOTER_LEN;
        let index_offset = u64::from_le_bytes(raw[footer_at..footer_at + 8].try_into().unwrap());
        let record = |i: usize| 3 + index_offset as usize + 4 + 21 * i;
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
        let path = dir.join("table.sst");
        write_table(&path, &[]);
        verify(&path).unwrap();
        let t = Table::open(&path).unwrap();
        assert_eq!(t.get(b"anything").unwrap(), None);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
