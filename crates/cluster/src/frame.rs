//! Length-prefixed framing over a byte stream.
//!
//! Every protocol message travels as one frame:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ magic u32  │ length u32 │ payload (length) │
//! │ "NSCL" LE  │            │ proto::Message   │
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! The magic word catches a stray client speaking the wrong protocol
//! before a bogus length makes the reader allocate garbage, and the
//! frame cap bounds what a single message may ask the receiver to
//! buffer. `check_header` is the one place both rules live: the
//! blocking codec ([`read_frame`]/[`write_frame`], used by workers and
//! clients) and the incremental `FrameBuf` (used by the nonblocking
//! [`crate::server`] loop) both go through it. Framing is
//! transport-agnostic (`Read`/`Write`), which keeps it unit-testable
//! without sockets.

use std::io::{self, Read, Write};

use crate::wire::WireError;

/// Frame magic: `"NSCL"` as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"NSCL");

/// Upper bound on a frame payload (64 MiB) — far above any real shard
/// submission, low enough that a corrupt length cannot OOM the peer.
pub const MAX_FRAME: u32 = 64 << 20;

/// Frame header size: `u32` magic plus `u32` payload length.
pub const HEADER: usize = 8;

/// Checks a frame header's magic and payload length, returning the
/// length. Bad magic or a length past [`MAX_FRAME`] is a protocol
/// error: the stream has lost byte alignment with its peer.
fn check_header(magic: u32, len: usize) -> Result<usize, WireError> {
    if magic != MAGIC {
        return Err(format!("bad frame magic {magic:#010x}"));
    }
    if len > MAX_FRAME as usize {
        return Err(format!("frame length {len} exceeds the cap {MAX_FRAME}"));
    }
    Ok(len)
}

/// The header that frames a `len`-byte payload.
pub(crate) fn header(len: usize) -> Result<[u8; HEADER], WireError> {
    let len = check_header(MAGIC, len)? as u32;
    let [a, b, c, d] = MAGIC.to_le_bytes();
    let [e, f, g, h] = len.to_le_bytes();
    Ok([a, b, c, d, e, f, g, h])
}

/// Parses and checks a received header, returning the payload length.
fn parse_header([a, b, c, d, e, f, g, h]: [u8; HEADER]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes([e, f, g, h]) as usize;
    check_header(u32::from_le_bytes([a, b, c, d]), len)
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let header =
        header(payload.len()).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, returning its payload. Bad magic or an oversized
/// length yield `InvalidData`; a clean EOF before the first header byte
/// yields `UnexpectedEof` (the peer hung up).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER];
    r.read_exact(&mut header)?;
    let len = parse_header(header).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Accumulates bytes as a nonblocking socket yields them and pops
/// complete frame payloads as they materialize.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// Appends freshly received bytes.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, if one has fully arrived.
    ///
    /// Returns `Ok(None)` while the frame is still partial, and an
    /// error on a corrupt header — the connection should be closed,
    /// since byte alignment with the peer is lost.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Some(header) = self.buf.get(..HEADER) else {
            return Ok(None);
        };
        let header = <[u8; HEADER]>::try_from(header).map_err(|e| e.to_string())?;
        let len = parse_header(header)?;
        let total = HEADER
            .checked_add(len)
            .ok_or_else(|| format!("frame length {len} overflows the buffer index"))?;
        let Some(payload) = self.buf.get(HEADER..total).map(<[u8]>::to_vec) else {
            return Ok(None);
        };
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xab; 1000]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"first");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xab; 1000]);
        assert!(r.is_empty());
    }

    #[test]
    fn bad_magic_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[0] ^= 0xff;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_is_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncated").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
