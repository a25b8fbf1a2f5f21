//! Versioned binary encoding primitives.
//!
//! Every payload the storage layer persists — world snapshot sections
//! and the table file itself — goes through this module so the on-disk
//! bytes always start with an explicit envelope:
//!
//! ```text
//! [0xM5][tag u8][version u8][payload …]
//! ```
//!
//! * `0xM5` — the one-byte codec magic (`0xA5`), so a file of zeros or a
//!   JSON document is rejected immediately instead of misparsed.
//! * `tag` — what the payload *is* (a profile, a world section, …), so a
//!   value read under the wrong key fails loudly.
//! * `version` — the format revision. Decoding a payload written by a
//!   newer build yields [`StoreError::VersionMismatch`] with both
//!   versions in the message, never an opaque parse failure.
//!
//! The primitives are deliberately boring: little-endian fixed-width
//! integers and length-prefixed byte strings. Boring is what you want in
//! a format that must be re-readable years later.

use crate::error::StoreError;

/// The envelope magic byte preceding every versioned payload.
pub const ENVELOPE_MAGIC: u8 = 0xA5;

/// An append-only binary writer.
///
/// Wraps a `Vec<u8>`; all integers are little-endian, all byte strings
/// are `u32`-length-prefixed.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with a versioned envelope already emitted.
    #[must_use]
    pub fn versioned(tag: u8, version: u8) -> Self {
        let mut w = Self::new();
        w.buf.push(ENVELOPE_MAGIC);
        w.buf.push(tag);
        w.buf.push(version);
        w
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64` (bit pattern, so round trips are
    /// bitwise-exact).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix (for pre-encoded
    /// sections).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends an `Option<u32>` as a presence byte plus the value.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
            None => self.u8(0),
        }
    }

    /// Appends an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Appends an `Option<&str>` as a presence byte plus the string.
    pub fn opt_str(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked binary reader over an encoded payload.
///
/// Every accessor returns a descriptive [`StoreError::Codec`] on
/// truncation instead of panicking, so corrupt values surface as errors
/// the caller can report.
#[derive(Debug)]
pub struct Reader<'a> {
    what: &'static str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over raw (non-enveloped) bytes; `what` names the payload
    /// kind in error messages.
    #[must_use]
    pub fn new(what: &'static str, buf: &'a [u8]) -> Self {
        Self { what, buf, pos: 0 }
    }

    /// Opens a versioned envelope: checks the magic and `tag`, and that
    /// the version byte is at most `supported`. Returns the version
    /// actually found, positioned at the start of the payload.
    pub fn versioned(
        what: &'static str,
        buf: &'a [u8],
        tag: u8,
        supported: u8,
    ) -> Result<(Self, u8), StoreError> {
        let mut r = Self::new(what, buf);
        let magic = r.u8()?;
        if magic != ENVELOPE_MAGIC {
            return Err(StoreError::Codec {
                what,
                detail: format!(
                    "bad envelope magic 0x{magic:02x} (expected 0x{ENVELOPE_MAGIC:02x}) — \
                     not a minaret-store payload"
                ),
            });
        }
        let found_tag = r.u8()?;
        if found_tag != tag {
            return Err(StoreError::Codec {
                what,
                detail: format!("payload tag 0x{found_tag:02x} is not the expected 0x{tag:02x}"),
            });
        }
        let version = r.u8()?;
        if version > supported || version == 0 {
            return Err(StoreError::VersionMismatch {
                what,
                found: version,
                supported,
            });
        }
        Ok((r, version))
    }

    fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], StoreError> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::Codec {
                what: self.what,
                detail: format!(
                    "truncated while reading {field}: needed {n} bytes at offset {}, {} left",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u32()? as usize;
        self.take(len, "byte string body")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, StoreError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|e| StoreError::Codec {
            what: self.what,
            detail: format!("string field is not UTF-8: {e}"),
        })
    }

    /// Reads an `Option<u32>` written by [`Writer::opt_u32`].
    pub fn opt_u32(&mut self) -> Result<Option<u32>, StoreError> {
        self.presence()?.map(|()| self.u32()).transpose()
    }

    /// Reads an `Option<u64>` written by [`Writer::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, StoreError> {
        self.presence()?.map(|()| self.u64()).transpose()
    }

    /// Reads an `Option<String>` written by [`Writer::opt_str`].
    pub fn opt_string(&mut self) -> Result<Option<String>, StoreError> {
        self.presence()?
            .map(|()| self.str().map(str::to_string))
            .transpose()
    }

    fn presence(&mut self) -> Result<Option<()>, StoreError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(())),
            other => Err(StoreError::Codec {
                what: self.what,
                detail: format!("presence byte must be 0 or 1, got {other}"),
            }),
        }
    }

    /// How many bytes remain unread.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly — trailing garbage
    /// means the encoder and decoder disagree about the format.
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Codec {
                what: self.what,
                detail: format!("{} trailing bytes after the last field", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64(std::f64::consts::PI);
        w.str("héllo");
        w.opt_u32(None);
        w.opt_u32(Some(9));
        w.opt_str(Some("x"));
        w.opt_str(None);
        let bytes = w.finish();
        let mut r = Reader::new("test payload", &bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_u32().unwrap(), None);
        assert_eq!(r.opt_u32().unwrap(), Some(9));
        assert_eq!(r.opt_string().unwrap().as_deref(), Some("x"));
        assert_eq!(r.opt_string().unwrap(), None);
        r.expect_end().unwrap();
    }

    #[test]
    fn envelope_round_trips_and_rejects_future_versions() {
        let mut w = Writer::versioned(0x11, 2);
        w.u32(5);
        let bytes = w.finish();

        let (mut r, version) = Reader::versioned("thing", &bytes, 0x11, 3).unwrap();
        assert_eq!(version, 2);
        assert_eq!(r.u32().unwrap(), 5);

        // A build that only speaks version 1 must refuse, descriptively.
        let err = Reader::versioned("thing", &bytes, 0x11, 1).unwrap_err();
        match &err {
            StoreError::VersionMismatch {
                found, supported, ..
            } => {
                assert_eq!((*found, *supported), (2, 1));
            }
            other => panic!("expected VersionMismatch, got {other}"),
        }
        assert!(err.to_string().contains("version 2"), "{err}");
    }

    #[test]
    fn envelope_rejects_wrong_magic_and_tag() {
        let bytes = Writer::versioned(0x11, 1).finish();
        assert!(matches!(
            Reader::versioned("thing", &[0u8, 0, 0], 0x11, 1),
            Err(StoreError::Codec { .. })
        ));
        assert!(matches!(
            Reader::versioned("thing", &bytes, 0x22, 1),
            Err(StoreError::Codec { .. })
        ));
        // Version zero is never valid.
        assert!(matches!(
            Reader::versioned("thing", &[ENVELOPE_MAGIC, 0x11, 0], 0x11, 1),
            Err(StoreError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn truncation_errors_are_descriptive() {
        let mut w = Writer::new();
        w.str("hello");
        let mut bytes = w.finish();
        bytes.truncate(6);
        let mut r = Reader::new("test payload", &bytes);
        let err = r.str().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("test payload"), "{msg}");
        assert!(msg.contains("truncated"), "{msg}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        let mut bytes = w.finish();
        bytes.push(0xff);
        let mut r = Reader::new("test payload", &bytes);
        r.u8().unwrap();
        assert!(r.expect_end().is_err());
    }
}
