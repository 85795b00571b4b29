//! Error taxonomy of the distributed deployment.

use cij_storage::frame::{FrameError, MAX_FRAME_LEN};
use cij_stream::WireError;
use cij_tpr::TprError;

/// Convenience alias.
pub type DistResult<T> = Result<T, DistError>;

/// Why a coordinator↔worker interaction failed.
#[derive(Debug)]
pub enum DistError {
    /// The deployment was mis-specified (e.g. the connector count does
    /// not match the policy's joinable shard pairs).
    Config(String),
    /// The peer's bytes were rejected before interpretation (bad magic,
    /// version mismatch, corrupt frame or payload).
    Protocol(WireError),
    /// The transport failed mid-call (socket error, torn frame).
    Io(std::io::Error),
    /// A message was not sent because its encoding exceeds the frame
    /// limit the receiver enforces. Deterministic — the same message
    /// fails the same way — so it is not retried.
    FrameTooLarge {
        /// The encoded message's length (the limit is
        /// [`MAX_FRAME_LEN`]).
        len: usize,
    },
    /// The worker could not be reached within the configured reconnect
    /// budget.
    WorkerUnavailable {
        /// Slot index of the unreachable worker.
        slot: usize,
        /// Connection attempts spent before giving up.
        attempts: u32,
    },
    /// The worker reached its engine but the engine refused the
    /// operation (the worker ships the rendered [`TprError`] back).
    Worker(String),
    /// The peer answered with a response of the wrong kind — a protocol
    /// state machine violation, not a transport fault.
    UnexpectedResponse {
        /// What the caller was waiting for.
        expected: &'static str,
        /// What arrived instead.
        got: &'static str,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "deployment configuration error: {msg}"),
            Self::Protocol(e) => write!(f, "protocol error: {e}"),
            Self::Io(e) => write!(f, "transport I/O error: {e}"),
            Self::FrameTooLarge { len } => write!(
                f,
                "message of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit and was not sent"
            ),
            Self::WorkerUnavailable { slot, attempts } => {
                write!(f, "worker {slot} unavailable after {attempts} attempts")
            }
            Self::Worker(msg) => write!(f, "worker-side engine error: {msg}"),
            Self::UnexpectedResponse { expected, got } => {
                write!(f, "expected {expected} response, got {got}")
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Protocol(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        Self::Protocol(e)
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for DistError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => Self::Io(e),
            FrameError::TooLarge { len } => Self::FrameTooLarge { len },
            FrameError::Corrupt(msg) => Self::Protocol(WireError::Corrupt(msg)),
        }
    }
}

impl From<cij_storage::StorageError> for DistError {
    fn from(e: cij_storage::StorageError) -> Self {
        Self::Protocol(WireError::from(e))
    }
}

/// The coordinator implements [`cij_core::ContinuousJoinEngine`], whose
/// contract speaks [`TprError`]; distribution faults fold into the
/// engine error channel with their rendered cause preserved.
impl From<DistError> for TprError {
    fn from(e: DistError) -> Self {
        TprError::Storage(cij_storage::StorageError::Corrupt(format!("dist: {e}")))
    }
}
