//! Storage-engine error type.

use std::fmt;
use std::io;

/// Errors surfaced by the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file IO failed.
    Io(io::Error),
    /// On-disk bytes do not decode to the expected structure.
    Corrupt(String),
    /// A page id points past the end of the file.
    PageOutOfRange(u64),
    /// A row id does not identify a live record.
    RowNotFound,
    /// A named layer does not exist in the catalog.
    LayerNotFound(String),
    /// A layer with this name already exists.
    LayerExists(String),
    /// A record exceeds what a single page can hold.
    RecordTooLarge(usize),
    /// A row an edit would write contradicts the rows already stored.
    InvalidRow(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt database: {msg}"),
            StorageError::PageOutOfRange(p) => write!(f, "page {p} out of range"),
            StorageError::RowNotFound => write!(f, "row not found"),
            StorageError::LayerNotFound(name) => write!(f, "layer not found: {name}"),
            StorageError::LayerExists(name) => write!(f, "layer already exists: {name}"),
            StorageError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds page capacity")
            }
            StorageError::InvalidRow(msg) => write!(f, "invalid row: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StorageError::LayerNotFound("layer3".into());
        assert!(e.to_string().contains("layer3"));
        let e = StorageError::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn io_source_preserved() {
        use std::error::Error;
        let e = StorageError::from(io::Error::other("x"));
        assert!(e.source().is_some());
        assert!(StorageError::RowNotFound.source().is_none());
    }
}
