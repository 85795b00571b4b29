//! The TCP transport: protocol payloads in [`cij_storage::frame`]s —
//! the length + CRC32 framing (and size limit) the WAL uses, through the
//! same two functions.
//!
//! The payload is a [`Request`]/[`Response`] encoding, which itself
//! opens with the protocol magic and version — so a peer from a foreign
//! build fails with a typed error before any field is interpreted.
//!
//! The server side ([`serve`]) accepts one connection at a time: the
//! coordinator is a worker's only client, and a reconnect simply shows
//! up as the next accepted connection.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use cij_storage::frame::{read_frame, write_frame, FrameError};
use parking_lot::Mutex;

use crate::error::{DistError, DistResult};
use crate::protocol::{Request, Response};
use crate::transport::{Connector, Transport};
use crate::worker::ShardWorker;

/// Dials a worker's TCP endpoint. The address lives behind a shared
/// handle so a supervisor (or test) can [`retarget`](Self::retarget)
/// the connector after respawning the worker on a new port.
#[derive(Clone)]
pub struct TcpConnector {
    addr: Arc<Mutex<String>>,
    timeout: Duration,
}

impl TcpConnector {
    /// A connector for `addr` (`host:port`), applying `timeout` to
    /// reads and writes on established channels — a worker that stops
    /// answering (vs. one that refuses connections) is detected by the
    /// heartbeat timing out rather than hanging forever.
    #[must_use]
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Self {
        Self {
            addr: Arc::new(Mutex::new(addr.into())),
            timeout,
        }
    }

    /// Points the connector at a new endpoint (the next dial uses it;
    /// established transports are unaffected).
    pub fn retarget(&self, addr: impl Into<String>) {
        *self.addr.lock() = addr.into();
    }
}

impl Connector for TcpConnector {
    fn connect(&self) -> DistResult<Box<dyn Transport>> {
        let addr = self.addr.lock().clone();
        let stream = TcpStream::connect(&addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(Box::new(TcpTransport { stream }))
    }

    fn describe(&self) -> String {
        format!("tcp({})", self.addr.lock())
    }
}

/// One established coordinator→worker socket.
pub struct TcpTransport {
    stream: TcpStream,
}

impl Transport for TcpTransport {
    fn call(&mut self, req: &Request) -> DistResult<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?;
        Ok(Response::decode(&payload)?)
    }
}

/// Serves `worker` on `listener` until a [`Request::Shutdown`] arrives
/// (acknowledged before returning). Connections are handled one at a
/// time; a dropped connection sends the loop back to `accept`, which is
/// how coordinator reconnects land. Malformed frames are answered with
/// [`Response::Fail`] and the connection is dropped.
///
/// # Errors
/// [`DistError::Io`] when `accept` itself fails.
pub fn serve(listener: &TcpListener, worker: &mut ShardWorker) -> DistResult<()> {
    loop {
        let (mut stream, _peer) = listener.accept().map_err(DistError::from)?;
        stream.set_nodelay(true).map_err(DistError::from)?;
        loop {
            let decoded = match read_frame(&mut stream) {
                Ok(payload) => Request::decode(&payload).map_err(|e| format!("bad request: {e}")),
                // Peer gone (EOF, reset): await the next connection.
                Err(FrameError::Io(_)) => break,
                Err(e) => Err(format!("bad frame: {e}")),
            };
            let req = match decoded {
                Ok(req) => req,
                Err(message) => {
                    let _ = write_frame(&mut stream, &Response::Fail { message }.encode());
                    break;
                }
            };
            let sent = match write_frame(&mut stream, &worker.handle(&req).encode()) {
                // An answer over the frame limit can never be sent: say
                // so, or the coordinator would redial and ask again.
                Err(e @ FrameError::TooLarge { .. }) => {
                    let message = format!("response not sent: {e}");
                    write_frame(&mut stream, &Response::Fail { message }.encode())
                }
                sent => sent,
            };
            if sent.is_err() {
                break;
            }
            if matches!(req, Request::Shutdown) {
                return Ok(());
            }
        }
    }
}
