//! The store: one immutable sorted table, published whole.
//!
//! A data dir holds at most one snapshot, [`SNAPSHOT_FILE`] (layout in
//! [`crate::table`]). A writer streams a new one in key order to
//! `snapshot.sst.tmp` ([`Store::writer`]); [`Store::publish`] fsyncs
//! it, renames it over the previous snapshot and fsyncs the directory.
//! The rename is the load gate: a reader sees the whole old file or the
//! whole new one, never a mix, and a crash before it leaves only a
//! `.tmp` file, which the next open removes.
//!
//! Opening ([`Store::open`]) is the whole of recovery: remove leftover
//! `.tmp` files, then load and fully validate the snapshot if there is
//! one. It writes nothing else.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use minaret_telemetry::Telemetry;

use crate::error::StoreError;
use crate::table::{self, Table, TableWriter};

/// The file a data dir's snapshot is published as.
pub const SNAPSHOT_FILE: &str = "snapshot.sst";

/// Where a snapshot is staged until [`Store::publish`] renames it.
const STAGING_FILE: &str = "snapshot.sst.tmp";

/// Settings for [`Store::open`]. There are none: a data dir holds one
/// snapshot, written once, and the sparse-index interval is
/// [`table::SPARSE_INTERVAL`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreConfig {}

/// A data dir's one snapshot table.
///
/// All operations take `&self`; the store is internally synchronized
/// and safe to share behind an `Arc` across threads.
pub struct Store {
    dir: PathBuf,
    /// The published snapshot, loaded and validated. `None` when the
    /// dir has none, and after a publish until a `get` opens the new
    /// file.
    table: Mutex<Option<Table>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

/// The table at `dir`'s snapshot path, opened and fully validated, if
/// the file exists.
fn open_snapshot(dir: &Path) -> Result<Option<Table>, StoreError> {
    let path = dir.join(SNAPSHOT_FILE);
    let exists = path
        .try_exists()
        .map_err(|e| StoreError::io(&path, "looking for the snapshot", e))?;
    exists.then(|| Table::open(&path)).transpose()
}

/// The file names a data dir held before snapshots were one table:
/// `wal-<seq>.log` and `table-<seq>.sst`.
fn is_old_format(name: &str) -> bool {
    let numbered = |prefix: &str, suffix: &str| {
        name.strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
            .is_some_and(|seq| !seq.is_empty() && seq.bytes().all(|b| b.is_ascii_digit()))
    };
    numbered("wal-", ".log") || numbered("table-", ".sst")
}

/// Removes every file in `dir` whose name `remove` selects.
fn remove_files(
    dir: &Path,
    remove: impl Fn(&str) -> bool,
    context: &'static str,
) -> Result<(), StoreError> {
    let listing =
        std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, "listing data directory", e))?;
    for entry in listing {
        let entry = entry.map_err(|e| StoreError::io(dir, "listing data directory", e))?;
        if entry.file_name().to_str().is_some_and(&remove) {
            std::fs::remove_file(entry.path())
                .map_err(|e| StoreError::io(entry.path(), context, e))?;
        }
    }
    Ok(())
}

impl Store {
    /// Opens (or creates) a store in `dir`: removes leftover staging
    /// files and validates the snapshot, if there is one.
    pub fn open(dir: &Path, _config: StoreConfig) -> Result<Self, StoreError> {
        Self::open_inner(dir, None)
    }

    /// Like [`Store::open`], exporting the time it spent validating
    /// through `telemetry` as `store_recovery_millis`.
    pub fn open_with_telemetry(
        dir: &Path,
        _config: StoreConfig,
        telemetry: Telemetry,
    ) -> Result<Self, StoreError> {
        Self::open_inner(dir, Some(telemetry))
    }

    fn open_inner(dir: &Path, telemetry: Option<Telemetry>) -> Result<Self, StoreError> {
        let started = Instant::now();
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::io(dir, "creating data directory", e))?;
        // A staged file is by construction incomplete.
        remove_files(
            dir,
            |name| name.ends_with(".tmp"),
            "removing stale staging file",
        )?;
        let table = open_snapshot(dir)?;
        if let Some(t) = &telemetry {
            t.gauge("store_recovery_millis", &[])
                .set(started.elapsed().as_millis() as i64);
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            table: Mutex::new(table),
        })
    }

    /// Fetches the value stored under `key` in the published snapshot.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let mut table = self.table.lock().expect("store lock poisoned");
        if table.is_none() {
            *table = open_snapshot(&self.dir)?;
        }
        match table.as_ref() {
            Some(t) => Ok(t.get(key)?.map(<[u8]>::to_vec)),
            None => Ok(None),
        }
    }

    /// Starts staging a new snapshot. Nothing changes for readers until
    /// [`Store::publish`].
    pub fn writer(&self) -> Result<TableWriter, StoreError> {
        TableWriter::create(&self.dir.join(STAGING_FILE))
    }

    /// Publishes a snapshot staged by [`Store::writer`] in place of the
    /// previous one: finishes and fsyncs the file, renames it into
    /// place, fsyncs the directory, and checks the published bytes
    /// against their checksum. Then removes the files of the format
    /// that preceded this one, `wal-<seq>.log` and `table-<seq>.sst`;
    /// no other file in the directory is touched.
    pub fn publish(&self, writer: TableWriter) -> Result<(), StoreError> {
        let staged = writer.finish()?;
        let path = self.dir.join(SNAPSHOT_FILE);
        std::fs::rename(&staged, &path)
            .map_err(|e| StoreError::io(&path, "publishing snapshot", e))?;
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| StoreError::io(&self.dir, "fsyncing data directory", e))?;
        *self.table.lock().expect("store lock poisoned") = None;
        table::verify(&path)?;
        remove_files(&self.dir, is_old_format, "removing old-format file")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minaret-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn publish(store: &Store, entries: &[(&[u8], &[u8])]) {
        let mut w = store.writer().unwrap();
        for (key, value) in entries {
            w.add(key, value).unwrap();
        }
        store.publish(w).unwrap();
    }

    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn publish_replaces_the_snapshot_and_removes_only_old_format_files() {
        let dir = tmp_dir("publish");
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.get(b"a").unwrap(), None);
        for name in [
            "wal-0000000001.log",
            "table-0000000002.sst",
            "wal-notes.log",
            "table-.sst",
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"kept unless old-format").unwrap();
        }
        publish(&store, &[(b"a", b"1"), (b"b", b"2")]);
        assert_eq!(store.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(
            listing(&dir),
            ["notes.txt", "snapshot.sst", "table-.sst", "wal-notes.log"]
        );
        // A second publish replaces the first whole.
        publish(&store, &[(b"b", b"3"), (b"c", b"4")]);
        assert_eq!(store.get(b"a").unwrap(), None);
        assert_eq!(store.get(b"b").unwrap(), Some(b"3".to_vec()));
        drop(store);
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.get(b"a").unwrap(), None);
        assert_eq!(store.get(b"c").unwrap(), Some(b"4".to_vec()));
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_cleared_on_open() {
        let dir = tmp_dir("tmpclean");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("table-0000000005.sst.tmp"), b"half written").unwrap();
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(!dir.join("table-0000000005.sst.tmp").exists());
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
