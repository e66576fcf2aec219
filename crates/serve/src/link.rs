//! Connection abstraction between the service and its peers.
//!
//! The serve protocol is strict request/reply (heartbeats excepted),
//! so a connection reduces to two operations: [`ServeLink::call`]
//! (send a frame, block for the reply) and [`ServeLink::post`] (send
//! with no reply expected). Two implementations:
//!
//! - [`LocalLink`] — an in-process channel straight into the service
//!   event loop, plus a nudge of its poller (tests, benches, and the
//!   in-process worker threads of `lss serve`);
//! - [`TcpLink`] — a framed socket, sharing the length-prefixed
//!   framing of the one-shot transport.
//!
//! Every request carries a **deadline** ([`ServeLink::set_deadline`],
//! default [`DEFAULT_DEADLINE`]). A dead or half-open peer — a socket
//! the kernel still thinks is connected but whose process is gone —
//! costs one deadline and surfaces as a typed
//! [`TransportError::TimedOut`], never an indefinite hang. Partial
//! frames survive a timed-out read (the [`FrameBuf`] accumulator keeps
//! the bytes), so a *slow* peer is not confused with a dead one:
//! retrying the wait resumes mid-frame.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use lss_core::fault::ChaosRng;
use lss_reactor::Waker;
use lss_runtime::backoff::BackoffPolicy;
use lss_runtime::protocol::serve::ServeFrame;
use lss_runtime::transport::frame::{fill_from, write_frame, FrameBuf};
use lss_runtime::transport::TransportError;

use crate::service::Event;

/// Deadline applied to every request unless overridden with
/// [`ServeLink::set_deadline`]. Generous — it guards against *dead*
/// peers, not slow ones.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// A request/reply connection to the service.
pub trait ServeLink: Send {
    /// Sends `frame` and blocks for the service's reply, at most until
    /// the link's deadline elapses ([`TransportError::TimedOut`]).
    fn call(&mut self, frame: ServeFrame) -> Result<ServeFrame, TransportError>;

    /// Sends `frame` without expecting a reply (heartbeats).
    fn post(&mut self, frame: ServeFrame) -> Result<(), TransportError>;

    /// Bounds how long a [`call`](ServeLink::call) may wait for its
    /// reply. `None` waits forever (tests that want to block on a
    /// stopped clock). New links start at [`DEFAULT_DEADLINE`].
    fn set_deadline(&mut self, deadline: Option<Duration>);

    /// Severs and re-establishes the link (chaos injection). Links
    /// that cannot reconnect return [`TransportError::Unsupported`].
    fn reconnect(&mut self) -> Result<(), TransportError> {
        Err(TransportError::Unsupported("reconnect"))
    }
}

/// An in-process link: frames travel over the service's event channel,
/// and each send wakes the service loop to drain it.
///
/// Dropping a worker's `LocalLink` mid-run is the in-process analogue
/// of a TCP connection dying: the service receives a disconnect notice
/// and requeues whatever the worker held.
pub struct LocalLink {
    tx: Sender<Event>,
    waker: Waker,
    deadline: Option<Duration>,
    /// `Some(id)` for worker links — a disconnect notice is emitted on
    /// drop so the scheduler can requeue leased chunks.
    worker: Option<usize>,
}

impl LocalLink {
    pub(crate) fn new(tx: Sender<Event>, waker: Waker, worker: Option<usize>) -> Self {
        LocalLink { tx, waker, deadline: Some(DEFAULT_DEADLINE), worker }
    }

    fn send(&self, event: Event) -> Result<(), TransportError> {
        self.tx
            .send(event)
            .map_err(|_| TransportError::Disconnected("service stopped".into()))?;
        self.waker.wake();
        Ok(())
    }
}

impl ServeLink for LocalLink {
    fn call(&mut self, frame: ServeFrame) -> Result<ServeFrame, TransportError> {
        let (reply, rrx) = channel();
        self.send(Event::Frame { frame, reply })?;
        match self.deadline {
            None => {
                rrx.recv().map_err(|_| TransportError::Disconnected("service stopped".into()))
            }
            Some(deadline) => rrx.recv_timeout(deadline).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::TimedOut { deadline },
                RecvTimeoutError::Disconnected => {
                    TransportError::Disconnected("service stopped".into())
                }
            }),
        }
    }

    fn post(&mut self, frame: ServeFrame) -> Result<(), TransportError> {
        self.send(Event::Post(frame))
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }
}

impl Drop for LocalLink {
    fn drop(&mut self) {
        if let Some(worker) = self.worker {
            let _ = self.tx.send(Event::WorkerGone(worker));
        }
        // Any link: once the handle is joined, the last link dropped
        // closes the channel, which ends an in-process service.
        self.waker.wake();
    }
}

/// A framed TCP link speaking the serve protocol.
pub struct TcpLink {
    stream: TcpStream,
    addr: SocketAddr,
    deadline: Option<Duration>,
    /// Partial-frame accumulator: bytes read before a timeout are kept
    /// so a deadline never corrupts the stream's framing.
    rbuf: FrameBuf,
}

impl TcpLink {
    /// Dials the service.
    pub fn connect(addr: SocketAddr) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| TransportError::Io(format!("connect {addr} failed: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| TransportError::Io(format!("nodelay failed: {e}")))?;
        Ok(TcpLink { stream, addr, deadline: Some(DEFAULT_DEADLINE), rbuf: FrameBuf::default() })
    }

    /// Dials the service with a bounded retry budget: each failed
    /// attempt sleeps an equal-jitter backoff delay, and exhausting
    /// `policy.max_attempts` yields a typed
    /// [`TransportError::RetriesExhausted`] carrying the attempt count
    /// and the last failure.
    pub fn connect_with_backoff(
        addr: SocketAddr,
        policy: &BackoffPolicy,
        rng: &mut ChaosRng,
    ) -> Result<Self, TransportError> {
        let mut attempt = 0u32;
        loop {
            match Self::connect(addr) {
                Ok(link) => return Ok(link),
                Err(e) => {
                    attempt += 1;
                    if !policy.allows(attempt) {
                        return Err(TransportError::RetriesExhausted {
                            attempts: attempt,
                            last: e.to_string(),
                        });
                    }
                    std::thread::sleep(policy.delay(attempt - 1, rng));
                }
            }
        }
    }

    /// Waits for one complete reply frame, at most until the deadline.
    fn read_reply(&mut self) -> Result<Vec<u8>, TransportError> {
        let Some(deadline) = self.deadline else {
            // Deadline-less links still never issue an unbounded read:
            // waiting forever is a loop of finite slices, so every
            // syscall keeps a deadline and EOF/reset is noticed on the
            // next slice.
            loop {
                if let Some(payload) = self.rbuf.try_extract()? {
                    return Ok(payload);
                }
                self.stream
                    .set_read_timeout(Some(Duration::from_millis(250)))
                    .map_err(|e| TransportError::Io(format!("set read timeout: {e}")))?;
                let _ = fill_from(&mut self.stream, &mut self.rbuf)?;
            }
        };
        let start = Instant::now();
        loop {
            if let Some(payload) = self.rbuf.try_extract()? {
                return Ok(payload);
            }
            let remaining = deadline
                .checked_sub(start.elapsed())
                .ok_or(TransportError::TimedOut { deadline })?;
            self.stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .map_err(|e| TransportError::Io(format!("set read timeout: {e}")))?;
            // Ok(false) = this slice of the deadline elapsed with no
            // bytes; loop around — `remaining` shrinks to the TimedOut
            // branch above.
            let _ = fill_from(&mut self.stream, &mut self.rbuf)?;
        }
    }
}

impl ServeLink for TcpLink {
    fn call(&mut self, frame: ServeFrame) -> Result<ServeFrame, TransportError> {
        write_frame(&mut self.stream, &frame.encode())?;
        let payload = self.read_reply().map_err(|e| match e {
            TransportError::Disconnected(_) => {
                TransportError::Disconnected("service closed the connection".into())
            }
            other => other,
        })?;
        ServeFrame::decode(&payload).map_err(|e| TransportError::Malformed(e.to_string()))
    }

    fn post(&mut self, frame: ServeFrame) -> Result<(), TransportError> {
        write_frame(&mut self.stream, &frame.encode())
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    fn reconnect(&mut self) -> Result<(), TransportError> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let deadline = self.deadline;
        *self = Self::connect(self.addr)?;
        self.deadline = deadline;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A half-open peer — accepts the connection, reads the request,
    /// never replies — costs exactly one deadline, surfaced as a typed
    /// `TimedOut`, not a hang.
    #[test]
    fn half_open_peer_times_out_within_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            // Swallow the request, then sit silent until the client
            // hangs up.
            let mut sink = [0u8; 4096];
            while matches!(sock.read(&mut sink), Ok(n) if n > 0) {}
        });

        let deadline = Duration::from_millis(200);
        let mut link = TcpLink::connect(addr).unwrap();
        link.set_deadline(Some(deadline));
        let start = Instant::now();
        let err = link.call(ServeFrame::Drain).unwrap_err();
        let waited = start.elapsed();
        assert!(
            matches!(err, TransportError::TimedOut { deadline: d } if d == deadline),
            "want typed TimedOut, got {err:?}"
        );
        assert!(waited >= deadline, "returned before the deadline: {waited:?}");
        assert!(
            waited < deadline + Duration::from_millis(500),
            "deadline overshot: waited {waited:?} for a {deadline:?} deadline"
        );
        drop(link);
        server.join().unwrap();
    }

    /// Connecting to a dead address exhausts the retry budget and
    /// yields the typed error with an attempt count, not the last
    /// attempt's raw failure.
    #[test]
    fn connect_retries_are_bounded_and_typed() {
        // A listener bound then dropped: the port exists but nothing
        // accepts, so connect fails fast with ECONNREFUSED.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = BackoffPolicy {
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
            max_attempts: 3,
        };
        let mut rng = ChaosRng::new(7);
        let err = match TcpLink::connect_with_backoff(addr, &policy, &mut rng) {
            Ok(_) => panic!("connect to a refusing port should fail"),
            Err(e) => e,
        };
        match err {
            TransportError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(last.contains("connect"), "last error should name the op: {last}");
            }
            other => panic!("want RetriesExhausted, got {other:?}"),
        }
    }

    /// A reply that arrives in pieces — header now, payload later —
    /// survives intermediate read timeouts via the FrameBuf.
    #[test]
    fn slow_reply_in_pieces_is_reassembled() {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut req = [0u8; 4096];
            let _ = sock.read(&mut req).unwrap();
            let payload = ServeFrame::Drain.encode();
            let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(&payload);
            // Dribble the frame one byte at a time, slower than the
            // link's per-slice read timeout granularity.
            for b in framed {
                sock.write_all(&[b]).unwrap();
                sock.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            // Hold the socket open until the client hangs up: closing
            // with unread request bytes pending would RST and discard
            // the dribbled reply.
            while matches!(sock.read(&mut req), Ok(n) if n > 0) {}
        });

        let mut link = TcpLink::connect(addr).unwrap();
        link.set_deadline(Some(Duration::from_secs(5)));
        let reply = link.call(ServeFrame::Drain).unwrap();
        assert!(matches!(reply, ServeFrame::Drain));
        drop(link);
        server.join().unwrap();
    }
}
