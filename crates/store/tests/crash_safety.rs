//! Crash-safety suite for the storage engine.
//!
//! A published snapshot is immutable, so it has no torn tail to
//! tolerate: damage at rest — a flipped bit anywhere, or a file cut
//! short at any offset — must make the store refuse to open, never
//! serve altered bytes. Damage offsets are enumerated, so every run
//! checks the same cases.

use std::path::{Path, PathBuf};

use minaret_store::{Store, StoreConfig, StoreError, SNAPSHOT_FILE};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "minaret-crash-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Publishes a snapshot of a few entries, with values of several sizes,
/// and returns its path.
fn publish(dir: &Path) -> PathBuf {
    let store = Store::open(dir, StoreConfig::default()).unwrap();
    let mut w = store.writer().unwrap();
    for (key, value) in [
        (&b"alpha"[..], &b"2-overwrite"[..]),
        (b"beta", &[0xAB; 120]),
        (b"delta", &[0x00; 64]),
        (b"gamma", b"3"),
    ] {
        w.add(key, value).unwrap();
    }
    store.publish(w).unwrap();
    dir.join(SNAPSHOT_FILE)
}

fn assert_refuses(dir: &Path, what: &str) {
    let err = Store::open(dir, StoreConfig::default()).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::Corrupt { .. }
                | StoreError::Codec { .. }
                | StoreError::VersionMismatch { .. }
        ),
        "{what} not rejected: {err}"
    );
}

/// A damaged sorted table must be rejected at open — immutable files
/// admit no torn-tail excuse.
#[test]
fn published_snapshot_bitflip_refuses_to_open() {
    let dir = tmp_dir("table-flip");
    let path = publish(&dir);
    let clean = std::fs::read(&path).unwrap();
    for pos in (0..clean.len()).step_by(7) {
        let mut damaged = clean.clone();
        damaged[pos] ^= 0x20;
        std::fs::write(&path, &damaged).unwrap();
        assert_refuses(&dir, &format!("table flip at {pos}"));
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// A snapshot cut short at any offset, down to an empty file, refuses
/// to open.
#[test]
fn truncated_snapshot_refuses_to_open_at_every_offset() {
    let dir = tmp_dir("table-trunc");
    let path = publish(&dir);
    let clean = std::fs::read(&path).unwrap();
    for cut in 0..clean.len() {
        std::fs::write(&path, &clean[..cut]).unwrap();
        assert_refuses(&dir, &format!("cut at {cut}"));
    }
    std::fs::remove_dir_all(dir).unwrap();
}
