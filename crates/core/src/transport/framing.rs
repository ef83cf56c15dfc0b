//! The transport frame format, and nothing else: every message on the
//! wire is a `u32` little-endian length followed by that many payload
//! bytes. This module owns the format in both directions — the bound on
//! an announced length ([`checked_len`], the only place it is compared),
//! the blocking reader/writer the client uses, and the incremental
//! [`RecvBuf`] the reactor carves frames out of.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Upper bound on a single frame's payload, so a hostile peer cannot make
/// the read side allocate unboundedly.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Upper bound on the **hello** frame a server reads from a peer it has
/// not authenticated yet. A real hello is ~100 bytes plus the credential
/// token; anything larger is refused before the receive buffer grows for
/// it (and before the JSON parser sees it).
pub const MAX_HELLO_LEN: u32 = 64 * 1024;

/// Bytes of length prefix in front of every payload.
const HEADER_LEN: usize = 4;

/// Capacity a drained per-connection buffer (receive or write side) keeps:
/// bursts briefly grow a buffer, steady state holds a bounded allocation
/// per connection.
pub(super) const DRAIN_RETAIN_BYTES: usize = 64 * 1024;

/// Initial per-connection receive buffer (grown up to the largest
/// in-flight frame, trimmed back to [`DRAIN_RETAIN_BYTES`] when empty).
const RECV_INITIAL: usize = 4 * 1024;

/// The format's one bound check: a payload length, outbound or announced
/// by a peer, must fit the prefix and stay within `max`.
fn checked_len(len: usize, max: u32) -> io::Result<u32> {
    u32::try_from(len)
        .ok()
        .filter(|&l| l <= max)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {max}-byte limit"),
            )
        })
}

/// The payload length a received length prefix announces, refused when it
/// is over `max` — before anything is allocated for it.
fn announced_len(header: [u8; HEADER_LEN], max: u32) -> io::Result<usize> {
    checked_len(u32::from_le_bytes(header) as usize, max).map(|len| len as usize)
}

/// Appends `payload` as one length-prefixed frame to `out` — the queued
/// form of a frame, resumable mid-write.
pub(super) fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let start = begin_frame(out);
    out.extend_from_slice(payload);
    end_frame(out, start)
}

/// Opens a frame whose payload the caller encodes straight onto `out`:
/// reserves the length prefix and returns where the frame starts, for
/// [`end_frame`].
pub(super) fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    start
}

/// Closes the frame opened at `start`: everything appended since is its
/// payload, and the reserved prefix now says so. A payload over
/// [`MAX_FRAME_LEN`] is an error, and the frame is taken back off `out`.
pub(super) fn end_frame(out: &mut Vec<u8>, start: usize) -> io::Result<()> {
    match checked_len(out.len() - start - HEADER_LEN, MAX_FRAME_LEN) {
        Ok(len) => {
            out[start..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Writes one length-prefixed frame to a blocking stream.
pub(super) fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = checked_len(payload.len(), MAX_FRAME_LEN)?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Reads one length-prefixed frame from a blocking stream into `buf`,
/// growing (never shrinking) it as needed — the payload occupies
/// `buf[..len]`, so one buffer is reused across a connection's frames.
/// `Ok(None)` means the peer closed the connection cleanly at a frame
/// boundary.
pub(super) fn read_frame_into(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
) -> io::Result<Option<usize>> {
    let mut header = [0u8; HEADER_LEN];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = announced_len(header, MAX_FRAME_LEN)?;
    if buf.len() < len {
        buf.resize(len, 0);
    }
    stream.read_exact(&mut buf[..len])?;
    Ok(Some(len))
}

/// [`read_frame_into`] with a fresh allocation per frame — the
/// convenience form for one-shot reads (handshakes, tests).
pub(super) fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut buf = Vec::new();
    Ok(read_frame_into(stream, &mut buf)?.map(|len| {
        buf.truncate(len);
        buf
    }))
}

/// Per-connection receive accumulator of the non-blocking server: raw
/// socket bytes land in `buf[start..end]`, and complete length-prefixed
/// frames are carved off the front. A partial frame simply stays
/// buffered until the next readable event resumes it.
pub(super) struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Server-wide receive-capacity counter this buffer charges its
    /// `buf.len()` against (`ServerHandle::recv_buffer_bytes`). Every
    /// capacity change goes through [`set_capacity`](Self::set_capacity)
    /// and `Drop` refunds the rest, so the counter is exact at every
    /// instant the reactor is quiescent.
    charged: Arc<AtomicUsize>,
}

impl Drop for RecvBuf {
    fn drop(&mut self) {
        self.charged.fetch_sub(self.buf.len(), Ordering::SeqCst);
    }
}

impl RecvBuf {
    pub(super) fn new(charged: Arc<AtomicUsize>) -> RecvBuf {
        charged.fetch_add(RECV_INITIAL, Ordering::SeqCst);
        RecvBuf {
            buf: vec![0; RECV_INITIAL],
            start: 0,
            end: 0,
            charged,
        }
    }

    /// Grows or trims the buffer to `new_len`, keeping the shared
    /// capacity counter in sync.
    fn set_capacity(&mut self, new_len: usize) {
        let old = self.buf.len();
        if new_len > old {
            self.buf.resize(new_len, 0);
            self.charged.fetch_add(new_len - old, Ordering::SeqCst);
        } else if new_len < old {
            self.buf.truncate(new_len);
            self.buf.shrink_to(new_len);
            self.charged.fetch_sub(old - new_len, Ordering::SeqCst);
        }
    }

    /// One `read(2)` into the spare tail (compacting the consumed
    /// prefix first). `Ok(0)` is EOF; `WouldBlock` bubbles up so the
    /// caller knows the socket is drained.
    pub(super) fn fill(&mut self, mut stream: &TcpStream) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.set_capacity(self.buf.len() * 2);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Carves the next complete frame off the front, if one has fully
    /// arrived. `max` is the largest payload the connection may announce
    /// right now ([`MAX_HELLO_LEN`] before the hello, [`MAX_FRAME_LEN`]
    /// after); a larger announcement is an error *before* the buffer
    /// grows for it, so a peer only ever costs what it has earned.
    pub(super) fn next_frame(&mut self, max: u32) -> io::Result<Option<Vec<u8>>> {
        let avail = self.end - self.start;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&self.buf[self.start..self.start + HEADER_LEN]);
        let frame_end = self.start + HEADER_LEN + announced_len(header, max)?;
        if self.end < frame_end {
            // Reserve room for the rest of the announced frame so the
            // next fill can complete it without another resize.
            if self.buf.len() < frame_end {
                self.set_capacity(frame_end);
            }
            return Ok(None);
        }
        let frame = self.buf[self.start + HEADER_LEN..frame_end].to_vec();
        self.start = frame_end;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > DRAIN_RETAIN_BYTES {
                self.set_capacity(DRAIN_RETAIN_BYTES);
            }
        }
        Ok(Some(frame))
    }

    /// `true` while a partial frame (or stray bytes) is buffered — at
    /// EOF this distinguishes a mid-frame drop from a clean close.
    pub(super) fn has_partial(&self) -> bool {
        self.end > self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        let mut queued = Vec::new();
        append_frame(&mut queued, b"hello").expect("append");
        assert_eq!(buf, queued, "queued and written forms are the same bytes");
        // Encoded in place behind another frame: the same bytes again.
        let start = begin_frame(&mut queued);
        queued.extend_from_slice(b"hello");
        end_frame(&mut queued, start).expect("end");
        assert_eq!(queued, [&buf[..], &buf[..]].concat());
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).expect("read").as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_frame(&mut cursor).expect("eof"), None);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut header = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        header.extend_from_slice(&[0; 8]);
        let mut cursor = io::Cursor::new(header);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn a_frame_encoded_in_place_past_the_limit_is_taken_back() {
        let mut out = b"kept".to_vec();
        let start = begin_frame(&mut out);
        out.resize(out.len() + MAX_FRAME_LEN as usize + 1, 0);
        assert!(end_frame(&mut out, start).is_err());
        assert_eq!(out, b"kept");
    }

    #[test]
    fn truncated_frames_are_io_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        buf.truncate(6);
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
