//! A non-blocking TCP connection speaking length-prefixed frames.
//!
//! The framing is the transport layer's: a `u32` big-endian payload
//! length followed by the payload, capped at [`MAX_FRAME_BYTES`] so a
//! corrupt prefix is rejected instead of triggering a giant
//! allocation. One [`FramedConn`] owns the socket plus both directions
//! of buffering: a read accumulator that survives partial frames and a
//! pending-write queue the reactor flushes when the socket turns
//! writable — no thread ever parks in `read` or `write`.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on a frame payload — matches the blocking transport's
/// cap, so the two backends accept exactly the same streams.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Grace window for [`parting_flush`]: replies queued before a front
/// end stops must reach the wire before their sockets drop, or an
/// orderly goodbye would look like a crash to the peer.
pub const PARTING_FLUSH_BUDGET: Duration = Duration::from_millis(500);

/// Why a connection stopped being usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    /// Orderly EOF or a connection reset — the peer is gone.
    Closed,
    /// A frame header announced a payload beyond [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// Any other OS-level failure, rendered.
    Io(String),
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Closed => write!(f, "peer closed the connection"),
            ConnError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            ConnError::Io(e) => write!(f, "connection I/O error: {e}"),
        }
    }
}

impl std::error::Error for ConnError {}

/// One non-blocking framed connection.
pub struct FramedConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written; compacted lazily.
    wpos: usize,
    /// Last instant any byte arrived — the half-open detector.
    last_data: Instant,
}

impl FramedConn {
    /// Adopts a freshly accepted (or connected) stream: switches it to
    /// non-blocking and disables Nagle.
    pub fn new(stream: TcpStream) -> std::io::Result<FramedConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(FramedConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            last_data: Instant::now(),
        })
    }

    /// The underlying socket (for epoll registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// How long the connection has been silent (no inbound bytes).
    pub fn idle_for(&self, now: Instant) -> std::time::Duration {
        now.saturating_duration_since(self.last_data)
    }

    /// Reads until the socket would block, appending every complete
    /// frame payload to `frames`. Partial frames stay buffered for the
    /// next readiness event. On EOF/reset the frames that arrived ahead
    /// of the close are still extracted before `Closed` is returned, so
    /// a peer's parting message is never lost.
    pub fn on_readable(&mut self, frames: &mut Vec<Vec<u8>>) -> Result<(), ConnError> {
        let mut chunk = [0u8; 16 * 1024];
        let mut terminal: Option<ConnError> = None;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    terminal = Some(ConnError::Closed);
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_data = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == ErrorKind::ConnectionReset
                        || e.kind() == ErrorKind::ConnectionAborted =>
                {
                    terminal = Some(ConnError::Closed);
                    break;
                }
                Err(e) => {
                    terminal = Some(ConnError::Io(e.to_string()));
                    break;
                }
            }
        }
        self.extract_frames(frames)?;
        match terminal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Pulls every complete frame out of the read accumulator.
    fn extract_frames(&mut self, frames: &mut Vec<Vec<u8>>) -> Result<(), ConnError> {
        let mut consumed = 0;
        loop {
            let rest = &self.rbuf[consumed..];
            if rest.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(ConnError::Oversized(len));
            }
            if rest.len() < 4 + len {
                break;
            }
            frames.push(rest[4..4 + len].to_vec());
            consumed += 4 + len;
        }
        if consumed > 0 {
            self.rbuf.drain(..consumed);
        }
        Ok(())
    }

    /// Queues one frame (header + payload) for writing. Call
    /// [`FramedConn::flush`] afterwards; the reactor arms `EPOLLOUT`
    /// only when flush reports leftover bytes.
    pub fn queue_frame(&mut self, payload: &[u8]) -> Result<(), ConnError> {
        let len = u32::try_from(payload.len()).map_err(|_| ConnError::Oversized(payload.len()))?;
        if payload.len() > MAX_FRAME_BYTES {
            return Err(ConnError::Oversized(payload.len()));
        }
        self.wbuf.extend_from_slice(&len.to_be_bytes());
        self.wbuf.extend_from_slice(payload);
        Ok(())
    }

    /// Writes as much of the pending queue as the socket accepts.
    /// `Ok(true)` means bytes remain and the connection wants an
    /// `EPOLLOUT` wakeup; `Ok(false)` means the queue drained.
    pub fn flush(&mut self) -> Result<bool, ConnError> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ConnError::Closed),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == ErrorKind::BrokenPipe
                        || e.kind() == ErrorKind::ConnectionReset
                        || e.kind() == ErrorKind::ConnectionAborted =>
                {
                    return Err(ConnError::Closed)
                }
                Err(e) => return Err(ConnError::Io(e.to_string())),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(false)
    }

    /// Whether unflushed outbound bytes are pending.
    pub fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Drops already-written bytes once they dominate the buffer, so a
    /// long-lived slow reader cannot grow the queue unboundedly behind
    /// its own progress.
    fn compact(&mut self) {
        if self.wpos > 4096 && self.wpos * 2 >= self.wbuf.len() {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

/// Teardown flush shared by every reactor front end: writes each
/// connection's queued bytes, retrying full sockets, until every queue
/// drains or [`PARTING_FLUSH_BUDGET`] runs out. A connection whose
/// flush fails has lost its peer, and its bytes with it; it is skipped.
/// The caller drops the sockets afterwards.
pub fn parting_flush<'a>(conns: impl IntoIterator<Item = &'a mut FramedConn>) {
    let deadline = Instant::now() + PARTING_FLUSH_BUDGET;
    let mut pending: Vec<&mut FramedConn> = conns.into_iter().collect();
    loop {
        pending.retain_mut(|fc| matches!(fc.flush(), Ok(true)));
        if pending.is_empty() || Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn loopback_pair() -> (FramedConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (FramedConn::new(server).expect("framed"), client)
    }

    #[test]
    fn reassembles_frames_across_partial_reads() {
        let (mut conn, mut peer) = loopback_pair();
        let payload = b"hello reactor".to_vec();
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&payload);
        // First half now...
        peer.write_all(&wire[..5]).expect("write head");
        peer.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut frames = Vec::new();
        conn.on_readable(&mut frames).expect("readable");
        assert!(frames.is_empty(), "half a frame is no frame");
        // ...the rest later.
        peer.write_all(&wire[5..]).expect("write tail");
        peer.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(10));
        conn.on_readable(&mut frames).expect("readable");
        assert_eq!(frames, vec![payload]);
    }

    #[test]
    fn oversized_header_is_a_typed_error() {
        let (mut conn, mut peer) = loopback_pair();
        peer.write_all(&u32::MAX.to_be_bytes()).expect("write");
        peer.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut frames = Vec::new();
        assert!(matches!(
            conn.on_readable(&mut frames),
            Err(ConnError::Oversized(_))
        ));
    }

    #[test]
    fn peer_close_is_distinguished_from_would_block() {
        let (mut conn, peer) = loopback_pair();
        let mut frames = Vec::new();
        conn.on_readable(&mut frames).expect("nothing yet, not an error");
        drop(peer);
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(conn.on_readable(&mut frames), Err(ConnError::Closed));
    }

    #[test]
    fn frames_ahead_of_close_are_delivered() {
        let (mut conn, mut peer) = loopback_pair();
        let mut wire = (3u32).to_be_bytes().to_vec();
        wire.extend_from_slice(b"bye");
        peer.write_all(&wire).expect("write");
        drop(peer);
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut frames = Vec::new();
        assert_eq!(conn.on_readable(&mut frames), Err(ConnError::Closed));
        assert_eq!(frames, vec![b"bye".to_vec()], "parting frame survives the EOF");
    }

    #[test]
    fn queued_frames_flush_through() {
        let (mut conn, mut peer) = loopback_pair();
        conn.queue_frame(b"abc").expect("queue");
        conn.queue_frame(b"defg").expect("queue");
        while conn.flush().expect("flush") {}
        let mut buf = [0u8; 64];
        std::thread::sleep(std::time::Duration::from_millis(10));
        let n = peer.read(&mut buf).expect("read");
        let mut want = Vec::new();
        for p in [&b"abc"[..], &b"defg"[..]] {
            want.extend_from_slice(&(p.len() as u32).to_be_bytes());
            want.extend_from_slice(p);
        }
        assert_eq!(&buf[..n], &want[..]);
    }
}
