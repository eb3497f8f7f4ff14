//! Structured errors for the container format.
//!
//! Every way a store file can be wrong — truncated, bit-flipped,
//! misaligned, semantically inconsistent — maps to a variant here. The
//! corruption-corpus tests pin the contract: opening arbitrary bytes
//! returns one of these, never a panic and never undefined behavior.

use std::fmt;

/// Errors produced while writing or opening a store file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure (open, read, write, map).
    Io(std::io::Error),
    /// The file does not begin with the container magic.
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// The header's format version is not the one this build reads
    /// (older or newer).
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u32,
        /// The only version this build reads.
        supported: u32,
    },
    /// The endianness marker does not decode — the file was written on
    /// an incompatible byte order (or the header is corrupt).
    Endianness {
        /// The marker bytes as read.
        found: u64,
    },
    /// The artifact kind tag is not one this reader knows.
    UnknownKind {
        /// The kind tag as read.
        found: u32,
    },
    /// The file holds a different artifact than the caller asked for.
    WrongKind {
        /// What the caller wanted, e.g. `"graph"`.
        expected: &'static str,
        /// What the file header says it holds.
        found: &'static str,
    },
    /// The file is shorter than a structure it claims to contain.
    Truncated {
        /// What was being read when the file ran out.
        what: String,
        /// Bytes that structure needs.
        needed: u64,
        /// Bytes actually available.
        actual: u64,
    },
    /// The header checksum does not match its contents.
    HeaderChecksum {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// The section table checksum does not match its contents.
    TocChecksum {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// A payload section's checksum does not match its bytes.
    SectionChecksum {
        /// Section name.
        section: String,
        /// Checksum stored in the section table.
        stored: u64,
        /// Checksum recomputed from the payload.
        computed: u64,
    },
    /// A section's offset violates the 64-byte alignment invariant (or
    /// its length is not a multiple of its element size).
    Misaligned {
        /// Section name.
        section: String,
        /// Offending offset or length.
        offset: u64,
        /// What the value had to be a multiple of.
        multiple_of: u64,
    },
    /// A section's `[offset, offset + len)` range escapes the file.
    OutOfBounds {
        /// Section name.
        section: String,
        /// Section byte offset.
        offset: u64,
        /// Section byte length.
        len: u64,
        /// Total file length.
        file_len: u64,
    },
    /// A section the artifact requires is not in the table.
    MissingSection {
        /// Section name.
        section: String,
    },
    /// The same section name appears twice in the table.
    DuplicateSection {
        /// Section name.
        section: String,
    },
    /// The bytes decode but the values are semantically inconsistent
    /// (CSR invariants, table shapes, metadata cross-checks).
    Invalid {
        /// What was being validated.
        what: String,
        /// Which invariant failed.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a store file: magic bytes {found:02x?}")
            }
            StoreError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "store format version {found} is not supported (this build reads version {supported})"
                )
            }
            StoreError::Endianness { found } => {
                write!(f, "endianness marker {found:#018x} does not decode on this machine")
            }
            StoreError::UnknownKind { found } => write!(f, "unknown artifact kind tag {found}"),
            StoreError::WrongKind { expected, found } => {
                write!(f, "expected a {expected} store, found a {found} store")
            }
            StoreError::Truncated { what, needed, actual } => {
                write!(f, "file truncated reading {what}: need {needed} bytes, have {actual}")
            }
            StoreError::HeaderChecksum { stored, computed } => {
                write!(f, "header checksum mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            StoreError::TocChecksum { stored, computed } => write!(
                f,
                "section table checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            StoreError::SectionChecksum { section, stored, computed } => write!(
                f,
                "section {section:?} checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            StoreError::Misaligned { section, offset, multiple_of } => {
                write!(f, "section {section:?} value {offset} is not a multiple of {multiple_of}")
            }
            StoreError::OutOfBounds { section, offset, len, file_len } => write!(
                f,
                "section {section:?} at [{offset}, {}) escapes the {file_len}-byte file",
                offset + len
            ),
            StoreError::MissingSection { section } => {
                write!(f, "required section {section:?} is missing")
            }
            StoreError::DuplicateSection { section } => {
                write!(f, "section {section:?} appears twice")
            }
            StoreError::Invalid { what, message } => write!(f, "invalid {what}: {message}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_positions() {
        let e =
            StoreError::OutOfBounds { section: "gdst".into(), offset: 128, len: 64, file_len: 100 };
        let s = e.to_string();
        assert!(s.contains("gdst") && s.contains("128") && s.contains("100"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
