//! Error types for the storage engine.

use std::fmt;
use std::path::PathBuf;

/// Why a store operation failed.
///
/// Corruption variants carry enough context (file, offset, expectation)
/// to diagnose a damaged data directory from the message alone — the
/// engine never silently serves bytes that failed a checksum.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file the operation touched, when known.
        path: PathBuf,
        /// What the engine was doing.
        context: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// A snapshot failed its checksum or a structural check: a
    /// damaged or truncated file. The store refuses to open rather
    /// than serve bytes that did not validate.
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// Byte offset of the part that failed to validate.
        offset: u64,
        /// What failed to validate.
        detail: String,
    },
    /// A persisted file announced a format version this build does not
    /// speak (see [`crate::codec`]).
    VersionMismatch {
        /// What kind of payload was being decoded.
        what: &'static str,
        /// The version byte found on disk.
        found: u8,
        /// The newest version this build understands.
        supported: u8,
    },
    /// A persisted payload was structurally invalid for its announced
    /// version — truncated field, impossible length, bad magic.
    Codec {
        /// What kind of payload was being decoded.
        what: &'static str,
        /// Human-readable description of the malformation.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                path,
                context,
                source,
            } => {
                write!(f, "{context} ({}): {source}", path.display())
            }
            StoreError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "corrupt data in {} at byte {offset}: {detail}",
                path.display()
            ),
            StoreError::VersionMismatch {
                what,
                found,
                supported,
            } => write!(
                f,
                "{what} was written with format version {found}, but this build supports \
                 versions up to {supported}; migrate or regenerate the data directory"
            ),
            StoreError::Codec { what, detail } => {
                write!(f, "malformed {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// Wraps an I/O error with the file and operation that hit it.
    pub fn io(path: impl Into<PathBuf>, context: &'static str, source: std::io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            context,
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = StoreError::io(
            "/tmp/x/snapshot.sst",
            "writing table",
            std::io::Error::other("disk full"),
        );
        let msg = e.to_string();
        assert!(msg.contains("writing table"), "{msg}");
        assert!(msg.contains("snapshot.sst"), "{msg}");

        let v = StoreError::VersionMismatch {
            what: "scholar profile",
            found: 9,
            supported: 1,
        };
        let msg = v.to_string();
        assert!(msg.contains("version 9"), "{msg}");
        assert!(msg.contains("up to 1"), "{msg}");
    }
}
