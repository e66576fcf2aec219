//! Message transports connecting slaves to the master.
//!
//! Two interchangeable implementations of the same request/reply
//! protocol:
//!
//! - [`channels`] — std mpsc channels within one process (fast,
//!   deterministic; the default for tests and benches);
//! - TCP sockets with length-prefixed frames ([`frame`]), standing in
//!   for the paper's MPI-over-Ethernet: workers dial with
//!   [`tcp::TcpWorker`], and the master's side of every connection
//!   ([`evented`]) is one epoll set, polled by the master loop's own
//!   thread through `lss-reactor`'s framed-connection server.
//!
//! Both support the fault-tolerant protocol extensions: timed receives
//! (so the master can poll chunk leases), piggy-backed heartbeats, and
//! worker-initiated reconnection after a disconnect.

pub mod channels;
pub mod evented;
pub mod frame;
pub mod tcp;

use std::time::Duration;

use crate::protocol::{Reply, Request};

/// Typed transport failure. Library paths return these instead of
/// panicking, so a dead peer is an event the caller handles, not a
/// crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone: socket EOF/reset, or all channel ends dropped.
    Disconnected(String),
    /// An OS-level I/O failure (bind, connect, read, write).
    Io(String),
    /// A frame or payload that does not decode, or exceeds size caps.
    Malformed(String),
    /// A message addressed to (or claiming) a worker id the transport
    /// does not know.
    UnknownWorker(usize),
    /// The operation is not supported by this transport (e.g.
    /// reconnection on a scripted test transport).
    Unsupported(&'static str),
    /// A request carried a deadline and the deadline elapsed before the
    /// peer answered. The link may still be usable; the caller decides
    /// whether to retry, re-dial, or give up.
    TimedOut {
        /// The deadline the request carried.
        deadline: Duration,
    },
    /// A bounded retry budget (see [`crate::backoff::BackoffPolicy`])
    /// was exhausted without success. Carries the attempt count and the
    /// last underlying failure, so "the peer is really gone" is a typed
    /// condition instead of whatever error the final attempt happened
    /// to produce.
    RetriesExhausted {
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The last underlying error, rendered.
        last: String,
    },
}

impl TransportError {
    /// Whether the error means the peer is gone (as opposed to a local
    /// or protocol problem).
    pub fn is_disconnect(&self) -> bool {
        matches!(self, TransportError::Disconnected(_))
    }

    /// Whether the error is a deadline expiry (the peer may still be
    /// alive; only this request ran out of time).
    pub fn is_timeout(&self) -> bool {
        matches!(self, TransportError::TimedOut { .. })
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected(d) => write!(f, "peer disconnected: {d}"),
            TransportError::Io(d) => write!(f, "transport I/O error: {d}"),
            TransportError::Malformed(d) => write!(f, "malformed message: {d}"),
            TransportError::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            TransportError::Unsupported(op) => write!(f, "unsupported transport operation: {op}"),
            TransportError::TimedOut { deadline } => {
                write!(f, "request deadline ({deadline:?}) elapsed without a reply")
            }
            TransportError::RetriesExhausted { attempts, last } => {
                write!(f, "retry budget exhausted after {attempts} attempt(s); last error: {last}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// What the master's receive path can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inbound {
    /// A worker's request.
    Request(Request),
    /// A lightweight liveness signal from a worker computing a long
    /// chunk (no reply is expected or sent).
    Heartbeat {
        /// The worker reporting in.
        worker: usize,
    },
    /// A worker's connection dropped (thread exit, socket EOF, crash).
    /// The master should requeue any chunk that worker still held.
    Disconnected(usize),
    /// A previously connected worker re-established its link; its next
    /// message will be a fresh request.
    Reconnected(usize),
}

/// The master's view: receive any worker's event, reply to a worker.
pub trait MasterTransport: Send {
    /// Blocks for the next inbound event from any worker.
    fn recv(&mut self) -> Result<Inbound, TransportError>;

    /// Waits up to `timeout` for an inbound event; `Ok(None)` when the
    /// timeout elapses with nothing to deliver. This is what lets the
    /// fault-tolerant master loop wake up to poll chunk leases.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Inbound>, TransportError>;

    /// Sends a reply to a specific worker. An error for one worker
    /// (e.g. it died between request and reply) must not poison the
    /// transport for the others.
    fn send(&mut self, worker: usize, reply: Reply) -> Result<(), TransportError>;
}

/// A worker's view: send requests, await replies.
pub trait WorkerTransport: Send {
    /// Sends a request to the master.
    fn send_request(&mut self, req: Request) -> Result<(), TransportError>;

    /// Blocks for the master's reply.
    fn recv_reply(&mut self) -> Result<Reply, TransportError>;

    /// Waits up to `timeout` for a reply; `Ok(None)` on timeout. The
    /// default simply blocks (adequate for transports that cannot lose
    /// messages); lossy transports should honour the timeout so the
    /// worker can retransmit its request.
    fn recv_reply_timeout(&mut self, timeout: Duration) -> Result<Option<Reply>, TransportError> {
        let _ = timeout;
        self.recv_reply().map(Some)
    }

    /// Sends a liveness heartbeat (fire-and-forget; no reply). The
    /// default is a no-op for transports without a heartbeat path.
    fn send_heartbeat(&mut self, worker: usize) -> Result<(), TransportError> {
        let _ = worker;
        Ok(())
    }

    /// Deliberately severs the link (chaos injection / planned outage).
    /// The master observes a disconnect. The default is a no-op.
    fn drop_link(&mut self) {}

    /// Re-establishes a severed link and delivers `hello` as the first
    /// request of the new connection. Transports that cannot reconnect
    /// return [`TransportError::Unsupported`].
    fn reconnect(&mut self, hello: &Request) -> Result<(), TransportError> {
        let _ = hello;
        Err(TransportError::Unsupported("reconnect"))
    }
}
