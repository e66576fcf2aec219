//! Worker side of the localhost TCP transport, plus the bind helper.
//!
//! Frames are `u32` big-endian length + payload, carrying the
//! [`crate::protocol`] encodings wrapped in a [`WireMsg`] envelope
//! (requests and heartbeats share the stream). Each worker opens one
//! connection with [`TcpWorker`]; the master's side of every
//! connection lives on one epoll reactor thread
//! ([`super::evented::EventedTcpMaster`]) — the moral equivalent of
//! the paper's single MPI receive loop.
//!
//! Deadline discipline: **every read carries a finite timeout**.
//! Blocking semantics come from looping over timed slices, never from
//! an unbounded `read`, so a dead master surfaces as EOF or reset on
//! the next slice instead of parking the worker forever.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use super::frame::{fill_from, write_frame, FrameBuf};
use super::{TransportError, WorkerTransport};
use crate::protocol::{Reply, Request, WireMsg};

/// Timeout slice for the worker's blocking receive: every `read`
/// syscall is bounded by this, and blocking behaviour is a loop over
/// slices.
const READ_SLICE: Duration = Duration::from_millis(250);

/// Worker endpoint over TCP.
pub struct TcpWorker {
    stream: TcpStream,
    rbuf: FrameBuf,
    addr: SocketAddr,
}

/// A bound listener and its address. The runtime's reactor master
/// takes it over with `accept_workers` ([`super::evented`]); the
/// serving layer runs its own reactor on [`Self::into_listener`].
pub struct TcpListenerHandle {
    listener: TcpListener,
    /// The address workers should dial.
    pub addr: SocketAddr,
}

/// Starts listening on an explicit host/port (0 = ephemeral).
pub fn tcp_listen_on(host: &str, port: u16) -> Result<TcpListenerHandle, TransportError> {
    let listener = TcpListener::bind((host, port))
        .map_err(|e| TransportError::Io(format!("bind {host}:{port} failed: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| TransportError::Io(format!("no local addr: {e}")))?;
    Ok(TcpListenerHandle { listener, addr })
}

impl TcpListenerHandle {
    /// Surrenders the raw listener.
    pub fn into_listener(self) -> TcpListener {
        self.listener
    }
}

impl TcpWorker {
    /// Connects to the master and sends the identifying first request.
    pub fn connect(addr: SocketAddr, first: Request) -> Result<Self, TransportError> {
        let stream = Self::dial(addr, &first)?;
        Ok(TcpWorker { stream, rbuf: FrameBuf::default(), addr })
    }

    fn dial(addr: SocketAddr, hello: &Request) -> Result<TcpStream, TransportError> {
        let mut stream = TcpStream::connect(addr)
            .map_err(|e| TransportError::Io(format!("connect failed: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| TransportError::Io(format!("nodelay failed: {e}")))?;
        write_frame(&mut stream, &WireMsg::Request(hello.clone()).encode())?;
        Ok(stream)
    }

    /// Reads more bytes into the frame buffer under a finite deadline
    /// (always re-armed — a stale timeout from a previous call can
    /// never leak into this read). Returns `Ok(false)` when the read
    /// timed out with the partial-frame state preserved.
    fn fill(&mut self, timeout: Duration) -> Result<bool, TransportError> {
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        fill_from(&mut self.stream, &mut self.rbuf)
    }
}

impl WorkerTransport for TcpWorker {
    fn send_request(&mut self, req: Request) -> Result<(), TransportError> {
        write_frame(&mut self.stream, &WireMsg::Request(req).encode())
    }

    fn recv_reply(&mut self) -> Result<Reply, TransportError> {
        // Blocking semantics via an unbounded loop of *bounded* reads:
        // every syscall carries a deadline, and a dead master surfaces
        // as EOF/reset on the next slice rather than never.
        loop {
            if let Some(payload) = self.rbuf.try_extract()? {
                return Reply::decode(&payload)
                    .ok_or_else(|| TransportError::Malformed("malformed reply".into()));
            }
            self.fill(READ_SLICE)?;
        }
    }

    fn recv_reply_timeout(&mut self, timeout: Duration) -> Result<Option<Reply>, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(payload) = self.rbuf.try_extract()? {
                return Reply::decode(&payload)
                    .map(Some)
                    .ok_or_else(|| TransportError::Malformed("malformed reply".into()));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            if !self.fill(left)? {
                return Ok(None); // timed out mid-frame; state preserved
            }
        }
    }

    fn send_heartbeat(&mut self, worker: usize) -> Result<(), TransportError> {
        write_frame(&mut self.stream, &WireMsg::Heartbeat { worker }.encode())
    }

    fn drop_link(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn reconnect(&mut self, hello: &Request) -> Result<(), TransportError> {
        self.drop_link();
        self.stream = Self::dial(self.addr, hello)?;
        self.rbuf = FrameBuf::default();
        Ok(())
    }
}

