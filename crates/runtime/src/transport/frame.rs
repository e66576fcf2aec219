//! Length-prefixed framing over TCP streams, shared by the one-shot
//! transport ([`super::tcp`]) and the multi-job serving layer.
//!
//! A frame is a `u32` big-endian payload length followed by the
//! payload. The length is capped ([`MAX_FRAME_BYTES`]) so a corrupt or
//! hostile prefix is rejected instead of triggering a giant
//! allocation.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

use super::TransportError;

/// Upper bound on a frame payload (a full 4000-column Mandelbrot
/// result is ~32 MB of checksums; anything bigger is a corrupt or
/// hostile length prefix, not a message — reject it instead of
/// attempting the allocation).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> Result<(), TransportError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| TransportError::Malformed(format!("frame of {} bytes", payload.len())))?;
    let io = |e: std::io::Error| match e.kind() {
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
        | ErrorKind::NotConnected => TransportError::Disconnected(e.to_string()),
        _ => TransportError::Io(e.to_string()),
    };
    stream.write_all(&len.to_be_bytes()).map_err(io)?;
    stream.write_all(payload).map_err(io)?;
    stream.flush().map_err(io)
}

/// Blocking whole-frame read, for a peer that owns its stream and may
/// park in `read` (tests that speak the wire protocol by hand).
pub fn read_frame_blocking(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// Byte accumulator for timeout-safe framing: partial reads survive
/// across timed-out attempts, so a slow frame is never corrupted.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// Appends freshly read bytes to the accumulator.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts one complete frame if the buffer holds one.
    pub fn try_extract(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[..4]
            .try_into()
            .map_err(|_| TransportError::Malformed("frame header unreadable".into()))?;
        let len = u32::from_be_bytes(header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(TransportError::Malformed(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

/// Reads more bytes from `stream` into `rbuf`. With a timeout set on
/// the stream, returns `Ok(false)` when the read timed out (partial
/// frame state preserved); otherwise reads at least one byte or
/// errors. EOF maps to [`TransportError::Disconnected`].
pub fn fill_from(stream: &mut TcpStream, rbuf: &mut FrameBuf) -> Result<bool, TransportError> {
    let mut chunk = [0u8; 16 * 1024];
    match stream.read(&mut chunk) {
        Ok(0) => Err(TransportError::Disconnected("peer closed the connection".into())),
        Ok(n) => {
            rbuf.extend(&chunk[..n]);
            Ok(true)
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => Ok(false),
        Err(e)
            if e.kind() == ErrorKind::ConnectionReset
                || e.kind() == ErrorKind::ConnectionAborted =>
        {
            Err(TransportError::Disconnected(e.to_string()))
        }
        Err(e) => Err(TransportError::Io(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut fb = FrameBuf::default();
        let payload = b"hello frames".to_vec();
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&payload);
        // Feed one byte at a time: no frame until the last byte.
        for (i, b) in wire.iter().enumerate() {
            assert_eq!(fb.try_extract().unwrap(), None, "byte {i}");
            fb.extend(&[*b]);
        }
        assert_eq!(fb.try_extract().unwrap(), Some(payload));
        assert_eq!(fb.try_extract().unwrap(), None);
    }

    #[test]
    fn frame_buf_rejects_oversized_length() {
        let mut fb = FrameBuf::default();
        fb.extend(&(u32::MAX).to_be_bytes());
        assert!(matches!(fb.try_extract(), Err(TransportError::Malformed(_))));
    }

    #[test]
    fn frame_buf_handles_back_to_back_frames() {
        let mut fb = FrameBuf::default();
        for p in [&b"one"[..], &b"two"[..]] {
            fb.extend(&(p.len() as u32).to_be_bytes());
            fb.extend(p);
        }
        assert_eq!(fb.try_extract().unwrap(), Some(b"one".to_vec()));
        assert_eq!(fb.try_extract().unwrap(), Some(b"two".to_vec()));
        assert_eq!(fb.try_extract().unwrap(), None);
    }
}
