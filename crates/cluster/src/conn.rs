//! One nonblocking connection of the [`crate::server`] loop: bytes in
//! through a [`FrameBuf`], framed replies out through an unsent buffer
//! capped at [`MAX_UNSENT`], so a peer that stops reading is cut off
//! instead of growing the server without limit. No panic: one peer's
//! bytes must not take down the loop that serves every other.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};

use crate::frame::{header, FrameBuf, HEADER, MAX_FRAME};
use crate::wire::WireError;

/// Most unsent bytes one connection may hold: one maximal frame. Any
/// legal frame fits when the peer has read everything before it; a
/// peer that lags by more is closed.
pub const MAX_UNSENT: usize = HEADER + MAX_FRAME as usize;

/// Bytes read per `read(2)` before frames are parsed out.
const READ_CHUNK: usize = 8192;

/// One accepted connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    outbuf: Vec<u8>,
    /// The poller registration includes write interest.
    pub want_write: bool,
    /// The machine asked to close: flush `outbuf`, then drop, and read
    /// nothing more.
    pub closing: bool,
    /// At least one whole frame arrived.
    pub greeted: bool,
}

impl Conn {
    /// Wraps an accepted stream, switched to nonblocking and no-delay
    /// (small request/response frames; Nagle plus delayed ACK would add
    /// ~40 ms to every round trip).
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            inbuf: FrameBuf::default(),
            outbuf: Vec::new(),
            want_write: false,
            closing: false,
            greeted: false,
        })
    }

    /// The socket descriptor, for poller registration.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reads one chunk into the frame buffer: `Ok(0)` is EOF, and
    /// `WouldBlock` means the socket is drained. A closing connection
    /// discards what it reads.
    pub fn read_some(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; READ_CHUNK];
        let n = self.stream.read(&mut chunk)?;
        if !self.closing {
            self.inbuf.extend(chunk.get(..n).unwrap_or_default());
        }
        Ok(n)
    }

    /// Pops the next whole frame received so far (see
    /// [`FrameBuf::next_frame`]).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let frame = self.inbuf.next_frame()?;
        self.greeted |= frame.is_some();
        Ok(frame)
    }

    /// Frames `payload` onto the unsent buffer. Fails when the frame is
    /// illegal or would take the unsent bytes past [`MAX_UNSENT`].
    pub fn queue(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let header = header(payload.len())?;
        if self.outbuf.len() + HEADER + payload.len() > MAX_UNSENT {
            return Err(format!(
                "peer has {} bytes unsent; the cap is {MAX_UNSENT}",
                self.outbuf.len()
            ));
        }
        self.outbuf.extend_from_slice(&header);
        self.outbuf.extend_from_slice(payload);
        Ok(())
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn unsent(&self) -> usize {
        self.outbuf.len()
    }

    /// Writes as much of the unsent buffer as the socket accepts.
    pub fn flush(&mut self) -> io::Result<()> {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{write_frame, MAGIC};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// A connection and the peer writing into it.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Conn::new(stream).unwrap(), peer)
    }

    /// Waits until the connection has read `want` more bytes.
    fn read_exactly(conn: &mut Conn, mut want: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while want > 0 {
            match conn.read_some() {
                Ok(n) => want -= n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "peer bytes never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    /// Whether `conn` parses `bytes` — sent by the peer as one write —
    /// into a protocol error.
    fn rejects(bytes: &[u8]) -> bool {
        let (mut conn, mut peer) = pair();
        peer.write_all(bytes).unwrap();
        read_exactly(&mut conn, bytes.len());
        conn.next_frame().is_err()
    }

    #[test]
    fn frames_reassemble_from_single_byte_arrivals() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[7u8; 300]).unwrap();
        let (mut conn, mut peer) = pair();
        let mut got = Vec::new();
        for byte in stream {
            peer.write_all(&[byte]).unwrap();
            read_exactly(&mut conn, 1);
            while let Some(p) = conn.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, [b"hello".to_vec(), Vec::new(), vec![7u8; 300]]);
        assert!(conn.greeted);
    }

    #[test]
    fn bad_magic_is_a_protocol_error() {
        assert!(rejects(&[0xff; 8]));
    }

    #[test]
    fn oversized_length_is_a_protocol_error() {
        let mut bytes = MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(rejects(&bytes));
    }

    #[test]
    fn partial_header_waits() {
        let (mut conn, mut peer) = pair();
        peer.write_all(&MAGIC.to_le_bytes()[..2]).unwrap();
        read_exactly(&mut conn, 2);
        assert_eq!(conn.next_frame().unwrap(), None);
        assert!(!conn.greeted);
    }

    #[test]
    fn blocking_codec_interoperates() {
        // A frame the blocking writer puts on the wire parses here, and
        // a frame queued here parses with the blocking reader.
        let (mut conn, mut peer) = pair();
        write_frame(&mut peer, b"interop").unwrap();
        read_exactly(&mut conn, HEADER + 7);
        assert_eq!(conn.next_frame().unwrap().as_deref(), Some(&b"interop"[..]));
        conn.queue(b"reply").unwrap();
        conn.flush().unwrap();
        assert_eq!(conn.unsent(), 0);
        assert_eq!(crate::frame::read_frame(&mut peer).unwrap(), b"reply");
    }
}
