//! Typed failure modes of the store layer.

use crate::codec::FormatId;
use cuszp_core::{DType, FormatError};

/// Errors writing, opening or reading a shard.
///
/// Marked `#[non_exhaustive]`: the shard format is versioned and future
/// revisions may add failure modes, so downstream matches must keep a
/// wildcard arm. Every variant a read of untrusted bytes can return is
/// reachable from bytes — the store corruption tests construct each one
/// from a concrete malformed shard.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Shard shorter than its own accounting claims.
    Truncated,
    /// Wrong index or footer magic.
    BadMagic,
    /// Index fields are internally inconsistent.
    Corrupt(&'static str),
    /// A chunk entry's byte range points past the payload region.
    IndexOutOfBounds {
        /// The offending chunk's linear id.
        chunk: usize,
    },
    /// A chunk entry's byte range overlaps the previous entry's.
    IndexOverlap {
        /// The offending chunk's linear id.
        chunk: usize,
    },
    /// No codec registered under this format id.
    UnknownCodec(FormatId),
    /// A chunk frame failed its codec's own validation.
    Frame(FormatError),
    /// A shape, origin, or extent argument is inconsistent.
    Shape(&'static str),
    /// The shard (or a frame inside it) stores a different element type
    /// than the one requested.
    DtypeMismatch {
        /// Element type recorded in the shard index or frame header.
        stored: DType,
        /// Element type the caller asked to read or write.
        requested: DType,
    },
    /// The codec cannot encode or decode the requested element type.
    UnsupportedDtype {
        /// Name of the codec that was asked.
        codec: &'static str,
        /// The element type it does not support.
        dtype: DType,
    },
    /// The absolute error bound given to a write is not finite and
    /// positive.
    BadBound,
    /// An I/O error opening or mapping a shard file (the kind is kept;
    /// the `std::io::Error` payload is not, so the variant stays
    /// comparable).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Truncated => write!(f, "shard truncated"),
            StoreError::BadMagic => write!(f, "not a cuSZp shard (bad magic)"),
            StoreError::Corrupt(why) => write!(f, "corrupt shard index: {why}"),
            StoreError::IndexOutOfBounds { chunk } => {
                write!(
                    f,
                    "chunk {chunk}: byte range points past the payload region"
                )
            }
            StoreError::IndexOverlap { chunk } => {
                write!(f, "chunk {chunk}: byte range overlaps the previous entry")
            }
            StoreError::UnknownCodec(id) => {
                write!(f, "no codec registered for format id {id:?}")
            }
            StoreError::Frame(e) => write!(f, "corrupt chunk frame: {e}"),
            StoreError::Shape(why) => write!(f, "bad shape: {why}"),
            StoreError::DtypeMismatch { stored, requested } => {
                write!(f, "shard stores {stored:?} but {requested:?} was requested")
            }
            StoreError::UnsupportedDtype { codec, dtype } => {
                write!(f, "codec {codec:?} does not support {dtype:?} elements")
            }
            StoreError::BadBound => {
                write!(f, "absolute error bound must be finite and positive")
            }
            StoreError::Io(kind) => write!(f, "shard i/o failed: {kind}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::Frame(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.kind())
    }
}
