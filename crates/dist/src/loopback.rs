//! The in-process loopback transport: a [`ShardWorker`] behind a mutex,
//! with crash/restart control for deterministic fault-injection tests.
//!
//! A [`LoopbackHost`] plays the role of one worker *machine*: it owns
//! the worker state and its (optional) WAL path, and exposes
//! [`kill`](LoopbackHost::kill) — drop the in-memory state, keep the
//! WAL, like a process crash — and
//! [`kill_and_lose_wal`](LoopbackHost::kill_and_lose_wal) — drop both,
//! like losing the machine. Its connector acts as the supervisor:
//! dialing a killed host restarts the worker, recovering from the WAL
//! when one survives and reporting zero progress otherwise (which makes
//! the coordinator replay history from scratch).
//!
//! Messages still pass through the full protocol codec — every request
//! and response is encoded and decoded exactly as on the wire — so the
//! loopback differential suite exercises the same byte paths as TCP,
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
    wal_path: Option<PathBuf>,
    kills: u64,
    restarts: u64,
}

/// One simulated worker machine (see the module docs).
pub struct LoopbackHost {
    inner: Mutex<HostInner>,
}

impl LoopbackHost {
    /// A host whose worker keeps no WAL: any kill loses everything.
    #[must_use]
    pub fn ephemeral() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(HostInner {
                worker: Some(ShardWorker::ephemeral()),
                wal_path: None,
                kills: 0,
                restarts: 0,
            }),
        })
    }

    /// A host whose worker journals to `wal_path` and recovers from it
    /// on restart.
    ///
    /// # Errors
    /// [`DistError`] when the WAL cannot be opened.
    pub fn durable(wal_path: PathBuf) -> DistResult<Arc<Self>> {
        let worker = ShardWorker::open(&wal_path)?;
        Ok(Arc::new(Self {
            inner: Mutex::new(HostInner {
                worker: Some(worker),
                wal_path: Some(wal_path),
                kills: 0,
                restarts: 0,
            }),
        }))
    }

    /// Crashes the worker process: in-memory index, outbox and
    /// sequence state are gone; the WAL (if any) survives.
    pub fn kill(&self) {
        let mut inner = sync::lock(&self.inner);
        inner.worker = None;
        inner.kills += 1;
    }

    /// Loses the whole machine: the worker *and* its WAL.
    pub fn kill_and_lose_wal(&self) {
        let mut inner = sync::lock(&self.inner);
        inner.worker = None;
        inner.kills += 1;
        if let Some(path) = &inner.wal_path {
            let _ = std::fs::remove_file(path);
        }
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
            // The supervisor restarts the process: durable workers
            // replay their WAL, ephemeral ones come back blank.
            inner.worker = Some(match &inner.wal_path {
                Some(path) => ShardWorker::open(path)?,
                None => ShardWorker::ephemeral(),
            });
            inner.restarts += 1;
        }
        drop(inner);
        Ok(Box::new(LoopbackTransport {
            host: Arc::clone(&self.host),
        }))
    }

    fn describe(&self) -> String {
        match &sync::lock(&self.host.inner).wal_path {
            Some(path) => format!("loopback({})", path.display()),
            None => "loopback(ephemeral)".into(),
        }
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
