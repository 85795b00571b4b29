//! Typed errors of the streaming service.
//!
//! Everything reachable on the WAL-recovery and batch-apply paths
//! surfaces here as a variant instead of a panic: a corrupt journal, a
//! missing `wal_path`, an invalid configuration are all *reported*
//! conditions an operator can act on, not programming errors.

use cij_storage::StorageError;
use cij_tpr::TprError;

/// `Result` specialized to [`StreamError`].
pub type StreamResult<T> = Result<T, StreamError>;

/// Why a streaming-service operation failed.
#[derive(Debug)]
pub enum StreamError {
    /// [`StreamService::recover`](crate::StreamService::recover) was
    /// called on a configuration without a
    /// [`wal_path`](crate::StreamConfig::wal_path) — there is no journal
    /// to recover from.
    MissingWalPath,
    /// The configuration violates its invariants (see
    /// [`StreamConfig::is_valid`](crate::StreamConfig::is_valid)), or the
    /// genesis sets repeat an `ObjectId`; the message names the offending
    /// constraint or id.
    InvalidConfig(String),
    /// [`StreamService::subscribe`](crate::StreamService::subscribe) was
    /// given a filter it cannot register — a window with a NaN, infinite
    /// or inverted bound; the message names it.
    InvalidFilter(String),
    /// The write-ahead log's durable prefix is not a valid journal: no
    /// genesis record, a non-genesis first record, a duplicate genesis,
    /// or a record that fails to decode. (A torn *tail* is not this —
    /// torn tails are truncated and reported via
    /// [`RecoveryReport::tail_truncated`](crate::RecoveryReport::tail_truncated).)
    CorruptJournal(String),
    /// The storage layer failed (WAL I/O, page store).
    Storage(StorageError),
    /// The wrapped join engine failed.
    Engine(TprError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingWalPath => {
                write!(f, "recovery requires a wal_path in the stream config")
            }
            Self::InvalidConfig(msg) => write!(f, "invalid stream config: {msg}"),
            Self::InvalidFilter(msg) => write!(f, "invalid subscription filter: {msg}"),
            Self::CorruptJournal(msg) => write!(f, "corrupt WAL journal: {msg}"),
            Self::Storage(e) => write!(f, "storage error: {e}"),
            Self::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Storage(e) => Some(e),
            Self::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for StreamError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

impl From<TprError> for StreamError {
    fn from(e: TprError) -> Self {
        Self::Engine(e)
    }
}
