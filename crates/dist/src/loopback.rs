//! The in-process loopback transport: a [`ShardWorker`] behind a mutex,
//! with crash/restart control for deterministic fault-injection tests.
//!
//! A [`LoopbackHost`] plays the role of one worker *machine*: it owns
//! the worker state and exposes [`kill`](LoopbackHost::kill) — drop the
//! index, the outbox and the sequence state, like a process crash. Its
//! connector acts as the supervisor: dialing a killed host restarts a
//! blank worker, which reports zero progress, so the coordinator re-seeds
//! it from its engine's registration table.
//!
//! Messages still pass through the full protocol codec — every request
//! and response is encoded and decoded exactly as on the wire — so the
//! loopback `conform` cases exercise the same byte paths as TCP,
//! minus the socket.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use cij_storage::sync;

use crate::error::{DistError, DistResult};
use crate::protocol::{Request, Response};
use crate::transport::{Connector, Transport};
use crate::worker::ShardWorker;

struct HostInner {
    worker: Option<ShardWorker>,
    kills: u64,
    restarts: u64,
}

/// One simulated worker machine (see the module docs).
pub struct LoopbackHost {
    inner: Mutex<HostInner>,
}

impl LoopbackHost {
    /// A host running a blank worker.
    #[must_use]
    pub fn ephemeral() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(HostInner {
                worker: Some(ShardWorker::ephemeral()),
                kills: 0,
                restarts: 0,
            }),
        })
    }

    /// An [`ephemeral`](Self::ephemeral) host. A stopgap for callers
    /// written against journaling workers (the ledger's
    /// `benchmark/src/stacks.rs`): workers keep no journal, so
    /// `_wal_path` is never created.
    ///
    /// # Errors
    /// None: the `Result` is the old signature's.
    pub fn durable(_wal_path: PathBuf) -> DistResult<Arc<Self>> {
        Ok(Self::ephemeral())
    }

    /// Crashes the worker process: index, outbox and sequence state are
    /// gone.
    pub fn kill(&self) {
        let mut inner = sync::lock(&self.inner);
        inner.worker = None;
        inner.kills += 1;
    }

    /// Kills performed so far.
    #[must_use]
    pub fn kills(&self) -> u64 {
        sync::lock(&self.inner).kills
    }

    /// Supervisor restarts performed so far.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        sync::lock(&self.inner).restarts
    }

    /// A connector dialing this host.
    #[must_use]
    pub fn connector(self: &Arc<Self>) -> LoopbackConnector {
        LoopbackConnector {
            host: Arc::clone(self),
        }
    }
}

/// Dials a [`LoopbackHost`], restarting its worker if it was killed.
pub struct LoopbackConnector {
    host: Arc<LoopbackHost>,
}

impl Connector for LoopbackConnector {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        let mut inner = sync::lock(&self.host.inner);
        if inner.worker.is_none() {
            // The supervisor restarts the process, blank.
            inner.worker = Some(ShardWorker::ephemeral());
            inner.restarts += 1;
        }
        drop(inner);
        Ok(Box::new(LoopbackTransport {
            host: Arc::clone(&self.host),
        }))
    }

    fn describe(&self) -> String {
        "loopback".into()
    }
}

/// A live channel to a loopback worker. Calls fail — like a socket —
/// while the host's worker is down; the coordinator discards the
/// channel on the first failure and redials through the connector.
pub struct LoopbackTransport {
    host: Arc<LoopbackHost>,
}

impl Transport for LoopbackTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        // Full codec round-trip: the loopback carries the same bytes a
        // socket would.
        let encoded = req.encode();
        let decoded = Request::decode(&encoded)?;
        let mut inner = sync::lock(&self.host.inner);
        let Some(worker) = inner.worker.as_mut() else {
            return Err(DistError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "loopback worker killed",
            )));
        };
        let resp = worker.handle(&decoded);
        drop(inner);
        Response::decode(&resp.encode()).map_err(DistError::from)
    }
}
