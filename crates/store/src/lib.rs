//! `minaret-store`: the embedded store holding MINARET's persisted
//! synthetic world.
//!
//! A data dir holds one immutable snapshot, written once by one writer
//! and read by every later open:
//!
//! * **Sorted table** ([`table`]) — one checksummed file of entries in
//!   strictly ascending key order, with a sparse index. A
//!   [`table::TableWriter`] streams it out entry by entry, so writing
//!   costs the file's own size in bounded memory.
//! * **Publish** ([`Store::publish`]) — the table is staged as a
//!   `.tmp` file, fsynced, renamed over the previous snapshot, and the
//!   directory fsynced. The rename is the load gate: a reader sees the
//!   whole old snapshot or the whole new one.
//! * **Open** ([`Store::open`]) — the whole of recovery: remove staged
//!   leftovers, then load the snapshot and check its checksum, footer
//!   and index. A damaged snapshot refuses to open.
//! * **Versioned codec** ([`codec`]) — every persisted payload carries
//!   a magic byte, a type tag, and a format version, so a future build
//!   reports a descriptive [`StoreError::VersionMismatch`] instead of
//!   misparsing old bytes.
//!
//! The store knows nothing about worlds: it moves opaque keys and
//! values, durably.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod crc;
pub mod error;
pub mod store;
pub mod table;

pub use codec::{Reader, Writer, ENVELOPE_MAGIC};
pub use error::StoreError;
pub use store::{Store, StoreConfig, SNAPSHOT_FILE};
