//! Shared wire plumbing: length-prefixed framing, strict little-endian
//! payload decoding, and blocking-socket helpers.
//!
//! Both TCP surfaces of the workspace speak the same outer framing —
//! the query server (`assoc-serve`) and the distributed mining runtime
//! (`eclat-net`):
//!
//! ```text
//! frame := len:u32le  payload[len]
//! ```
//!
//! This crate owns that framing once ([`write_frame`] / [`read_frame`] /
//! [`Frame`], byte-for-byte the format `assoc-serve` pinned with its
//! loopback tests), plus the pieces every blocking protocol needs on top:
//!
//! * [`Cursor`] — a strict little-endian reader over a payload slice
//!   (truncation and trailing bytes are errors, never guesses);
//! * [`is_timeout`] — the portable read-timeout check (`WouldBlock` on
//!   Unix, `TimedOut` elsewhere);
//! * [`connect_retry`] / [`set_timeouts`] — connect with exponential
//!   backoff and per-socket read/write deadlines.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Write one frame (header + payload) and flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum Frame {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer closed the connection cleanly before a header started.
    Eof,
    /// The announced length exceeded `max`; nothing further was read.
    TooLarge(usize),
}

/// Read one frame with the given payload-size limit.
///
/// Returns [`Frame::Eof`] only on a clean close at a frame boundary; a
/// connection dropped mid-frame surfaces as an
/// [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> io::Result<Frame> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(Frame::Eof);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max {
        return Ok(Frame::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame::Payload(payload))
}

/// A strict-decoding failure inside a frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Payload ended before the announced structure was complete.
    Truncated,
    /// Bytes remained after a complete message was decoded.
    TrailingBytes(usize),
    /// First byte was not a known opcode.
    BadOpcode(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A flag byte had bits on that the format does not define (the
    /// unknown bits).
    UnknownFlags(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated payload"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::UnknownFlags(bits) => write!(f, "unknown flag bits 0x{bits:02x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Strict little-endian reader over a payload slice. Every read checks
/// bounds; [`Cursor::finish`] rejects trailing bytes, so a decoder built
/// on it accepts exactly one well-formed encoding.
pub struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    /// Take the next `n` raw bytes.
    ///
    /// # Errors
    /// [`DecodeError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.at + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Next `u16` (little-endian).
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Next `u32` (little-endian).
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Next `u64` (little-endian).
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Next `f64` (little-endian bit pattern).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next length-prefixed UTF-8 string (`len:u16le utf8[len]`).
    pub fn str16(&mut self) -> Result<String, DecodeError> {
        let n = self.u16()? as usize;
        let s = std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::BadUtf8)?;
        Ok(s.to_string())
    }

    /// Assert the payload was fully consumed.
    ///
    /// # Errors
    /// [`DecodeError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.at != self.buf.len() {
            return Err(DecodeError::TrailingBytes(self.buf.len() - self.at));
        }
        Ok(())
    }
}

/// Append a `u16` (little-endian).
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` (little-endian).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` (little-endian bit pattern).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a length-prefixed UTF-8 string (`len:u16le utf8[len]`),
/// truncating at `u16::MAX` bytes.
pub fn put_str16(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(u16::MAX as usize);
    put_u16(buf, n as u16);
    buf.extend_from_slice(&bytes[..n]);
}

/// Whether an I/O error is a read/write timeout. Blocking sockets report
/// expired deadlines as `WouldBlock` on Unix and `TimedOut` on Windows;
/// servers treat both as "peer idled too long".
pub fn is_timeout(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
}

/// Apply read/write deadlines to a socket (`None` = block forever).
pub fn set_timeouts(
    stream: &TcpStream,
    read: Option<Duration>,
    write: Option<Duration>,
) -> io::Result<()> {
    stream.set_read_timeout(read)?;
    stream.set_write_timeout(write)?;
    Ok(())
}

/// Connect with retries and exponential backoff: attempt `1 + retries`
/// connects, sleeping `backoff`, `2·backoff`, `4·backoff`, … between
/// failures. Returns the last error if every attempt fails.
pub fn connect_retry<A: ToSocketAddrs + Copy>(
    addr: A,
    retries: u32,
    backoff: Duration,
) -> io::Result<TcpStream> {
    let mut wait = backoff;
    let mut last_err = None;
    for attempt in 0..=retries {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
        if attempt < retries {
            std::thread::sleep(wait);
            wait = wait.saturating_mul(2);
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no connect attempts")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_io_roundtrip_and_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap();
        assert_eq!(buf, vec![3, 0, 0, 0, 1, 2, 3]);
        let mut r = &buf[..];
        match read_frame(&mut r, 16).unwrap() {
            Frame::Payload(p) => assert_eq!(p, vec![1, 2, 3]),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, 16).unwrap() {
            Frame::Eof => {}
            other => panic!("{other:?}"),
        }

        let mut r = &buf[..];
        match read_frame(&mut r, 2).unwrap() {
            Frame::TooLarge(3) => {}
            other => panic!("{other:?}"),
        }

        // Mid-header close is an error, not Eof.
        let mut r = &buf[..2];
        assert_eq!(
            read_frame(&mut r, 16).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Mid-payload close too.
        let mut r = &buf[..5];
        assert_eq!(
            read_frame(&mut r, 16).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn cursor_reads_are_strict() {
        let mut buf = Vec::new();
        buf.push(0xAB);
        put_u16(&mut buf, 1234);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -2.5);
        put_str16(&mut buf, "héllo");

        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().unwrap(), 0xAB);
        assert_eq!(c.u16().unwrap(), 1234);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.f64().unwrap(), -2.5);
        assert_eq!(c.str16().unwrap(), "héllo");
        c.finish().unwrap();

        // Truncation and trailing bytes are both rejected.
        let mut c = Cursor::new(&buf[..3]);
        assert_eq!(c.u8().unwrap(), 0xAB);
        assert_eq!(c.u32(), Err(DecodeError::Truncated));
        let mut c = Cursor::new(&buf);
        c.u8().unwrap();
        assert_eq!(c.finish(), Err(DecodeError::TrailingBytes(buf.len() - 1)));

        // Invalid UTF-8 in a string field.
        let mut bad = Vec::new();
        put_u16(&mut bad, 1);
        bad.push(0xFF);
        assert_eq!(Cursor::new(&bad).str16(), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn timeout_classification() {
        assert!(is_timeout(&io::Error::new(io::ErrorKind::WouldBlock, "x")));
        assert!(is_timeout(&io::Error::new(io::ErrorKind::TimedOut, "x")));
        assert!(!is_timeout(&io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "x"
        )));
    }

    #[test]
    fn connect_retry_reports_last_error() {
        // Port 1 on loopback is essentially never listening.
        let err = connect_retry("127.0.0.1:1", 1, Duration::from_millis(1)).unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn connect_retry_succeeds_against_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_retry(addr, 2, Duration::from_millis(1)).unwrap();
        set_timeouts(&stream, Some(Duration::from_millis(50)), None).unwrap();
    }
}
