//! Tree-layer error type.

use cij_storage::StorageError;

use crate::entry::ObjectId;

/// Errors surfaced by TPR-tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TprError {
    /// The storage layer failed (page not found, codec overflow, …).
    Storage(StorageError),
    /// A delete targeted an object the tree does not contain (or whose
    /// registered rectangle no longer matches any leaf region searched).
    ObjectNotFound(ObjectId),
    /// An insert named an object that is already registered: ids are
    /// unique across both object sets.
    DuplicateObject(ObjectId),
    /// A page decoded into something that is not a valid node.
    CorruptNode {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The operation is not supported by this engine/index combination
    /// (e.g. routed single-object inserts on an engine without a result
    /// buffer — see `ContinuousJoinEngine::restore_object`).
    Unsupported {
        /// What was attempted and by whom.
        what: String,
    },
}

impl std::fmt::Display for TprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Storage(e) => write!(f, "storage error: {e}"),
            Self::ObjectNotFound(oid) => write!(f, "object {oid:?} not found in tree"),
            Self::DuplicateObject(oid) => write!(f, "object {oid:?} is already registered"),
            Self::CorruptNode { detail } => write!(f, "corrupt node: {detail}"),
            Self::Unsupported { what } => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for TprError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for TprError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

/// Result alias for tree operations.
pub type TprResult<T> = Result<T, TprError>;
