//! One-shot coordinator→worker connections.
//!
//! The coordinator opens a fresh TCP connection per forwarded operation.
//! That costs a handshake per request — negligible next to engine runs that
//! take seconds to minutes — and buys statelessness: a worker restart, a
//! half-dead socket, or a mid-`wait` crash can only ever poison the one
//! request riding the connection, and every failure is observed *at* the
//! request it affects, which is exactly when the retry logic wants to know.
//!
//! Failures split into two kinds the coordinator treats very differently:
//! [`ConnFailure::Lost`] (connect/transport/framing died — the worker is
//! presumed dead, the job is a candidate for deterministic retry on its
//! ring successor) and [`ConnFailure::Refused`] (the worker answered with a
//! typed error — the worker is fine, the error is forwarded or acted on).

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tvs_serve::json::{self, Value};
use tvs_serve::proto::{read_frame, stamp_version, write_frame, ProtoError};
use tvs_serve::{ServeError, POLL};

/// Why a forwarded request produced no usable response.
#[derive(Debug)]
pub enum ConnFailure {
    /// The transport failed (connect refused, reset, EOF mid-exchange,
    /// stall, malformed frame) or the caller's interrupt fired: the worker
    /// is presumed dead and in-flight work should be retried elsewhere.
    Lost(String),
    /// The worker is healthy and answered with a typed error response.
    Refused(ServeError),
}

/// A single-request connection to one worker daemon.
pub struct WorkerConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl WorkerConn {
    /// Connects to `addr` within `timeout`.
    ///
    /// # Errors
    ///
    /// [`ConnFailure::Lost`] on resolution or connection failure.
    pub fn connect(addr: &str, timeout: Duration) -> Result<WorkerConn, ConnFailure> {
        let sock = addr
            .to_socket_addrs()
            .map_err(|e| ConnFailure::Lost(format!("resolve {addr}: {e}")))?
            .next()
            .ok_or_else(|| ConnFailure::Lost(format!("resolve {addr}: no address")))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)
            .map_err(|e| ConnFailure::Lost(format!("connect {addr}: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ConnFailure::Lost(format!("clone {addr}: {e}")))?,
        );
        Ok(WorkerConn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one version-stamped request and blocks for the response.
    /// `read_timeout` bounds the wait for quick operations (`submit`,
    /// `status`, `stats`); `None` means block indefinitely.
    ///
    /// # Errors
    ///
    /// [`ConnFailure::Lost`] on any transport failure, [`ConnFailure::Refused`]
    /// when the worker answers `{"ok":false,...}`.
    pub fn request(
        &mut self,
        request: &Value,
        read_timeout: Option<Duration>,
    ) -> Result<Value, ConnFailure> {
        self.set_read_timeout(read_timeout)?;
        self.send(request)?;
        match read_frame(&mut self.reader) {
            Ok(Some(frame)) => decode(&frame),
            Ok(None) => Err(ConnFailure::Lost("worker hung up".to_owned())),
            Err(e) => Err(ConnFailure::Lost(e.to_string())),
        }
    }

    /// Sends one version-stamped request and blocks until the response
    /// arrives or `interrupted` returns true (checked at frame boundaries
    /// every 50 ms). Made for forwarding `wait`/`fetch`: the health monitor
    /// can mark the worker dead underneath a blocked wait and this read
    /// notices, letting the caller retry the job on a ring successor.
    ///
    /// # Errors
    ///
    /// As [`WorkerConn::request`]; an interrupt surfaces as
    /// [`ConnFailure::Lost`].
    pub fn request_until(
        &mut self,
        request: &Value,
        interrupted: &dyn Fn() -> bool,
    ) -> Result<Value, ConnFailure> {
        self.set_read_timeout(Some(POLL))?;
        self.send(request)?;
        loop {
            match read_frame(&mut self.reader) {
                Ok(Some(frame)) => return decode(&frame),
                Ok(None) => return Err(ConnFailure::Lost("worker hung up".to_owned())),
                Err(ProtoError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if interrupted() {
                        return Err(ConnFailure::Lost("worker marked dead".to_owned()));
                    }
                }
                Err(e) => return Err(ConnFailure::Lost(e.to_string())),
            }
        }
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ConnFailure> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| ConnFailure::Lost(format!("set timeout: {e}")))
    }

    fn send(&mut self, request: &Value) -> Result<(), ConnFailure> {
        write_frame(&mut self.writer, &stamp_version(request).to_text()).map_err(|e| match e {
            ProtoError::Io(io) => ConnFailure::Lost(format!("send: {io}")),
            other => ConnFailure::Lost(other.to_string()),
        })
    }
}

/// Parses a worker response frame into ok-document vs typed refusal.
fn decode(frame: &str) -> Result<Value, ConnFailure> {
    let response =
        json::parse(frame).map_err(|e| ConnFailure::Lost(format!("malformed response: {e}")))?;
    match response.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(response),
        _ => Err(ConnFailure::Refused(ServeError::from_wire(&response))),
    }
}
