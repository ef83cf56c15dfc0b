//! The transport frame format, and nothing else: every message on the
//! wire is a `u32` little-endian length followed by that many payload
//! bytes. This module owns the format in both directions — the bound on
//! an announced length ([`checked_len`], the only place it is compared),
//! the blocking reader/writer the client uses, and the incremental
//! [`RecvBuf`] a serving thread carves frames out of.

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

/// Initial per-connection receive buffer. A read that fills it doubles it
/// for the next one, up to [`DRAIN_RETAIN_BYTES`]; past that it grows only
/// to the largest in-flight frame, and is trimmed back to
/// [`DRAIN_RETAIN_BYTES`] when empty.
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
/// frames are carved off the front, each served where it lies. A partial
/// frame simply stays buffered until the next readable event resumes it.
pub(super) struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Server-wide receive-capacity counter this buffer charges its
    /// `buf.len()` against (`ServerHandle::recv_buffer_bytes`). Every
    /// capacity change goes through [`set_capacity`](Self::set_capacity)
    /// and `Drop` refunds the rest, so the counter is exact at every
    /// instant the serving threads are quiescent.
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
    /// prefix first), counted in `reads`. `Ok(0)` is EOF; `WouldBlock`
    /// bubbles up so the caller knows the socket is drained.
    pub(super) fn fill(
        &mut self,
        mut stream: &TcpStream,
        reads: &crate::obs::Counter,
    ) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.set_capacity(self.buf.len() * 2);
        }
        reads.inc();
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        // A read that took all the room there was is a peer sending more
        // than the buffer holds: the next one gets twice the room, so a
        // burst of frames near the buffer's size is not a read per frame.
        if self.end == self.buf.len() && self.buf.len() < DRAIN_RETAIN_BYTES {
            self.set_capacity((self.buf.len() * 2).min(DRAIN_RETAIN_BYTES));
        }
        Ok(n)
    }

    /// Carves the next complete frame off the front, if one has fully
    /// arrived: its payload, where it lies in the buffer — valid until
    /// the next [`fill`](Self::fill). `max` is the largest payload the
    /// connection may announce right now ([`MAX_HELLO_LEN`] before the
    /// hello, [`MAX_FRAME_LEN`] after); a larger announcement is an error
    /// *before* the buffer grows for it, so a peer only ever costs what
    /// it has earned. Call until `Ok(None)`: the call that finds nothing
    /// left resets the buffer and trims what a large frame grew.
    pub(super) fn next_frame(&mut self, max: u32) -> io::Result<Option<&[u8]>> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > DRAIN_RETAIN_BYTES {
                self.set_capacity(DRAIN_RETAIN_BYTES);
            }
            return Ok(None);
        }
        let avail = self.end - self.start;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&self.buf[self.start..self.start + HEADER_LEN]);
        let payload = self.start + HEADER_LEN;
        let frame_end = payload + announced_len(header, max)?;
        if self.end < frame_end {
            // Reserve room for the whole announced frame — measured from
            // the front, where the next fill moves it — so that fill can
            // complete it without another resize.
            let frame_len = frame_end - self.start;
            if self.buf.len() < frame_len {
                self.set_capacity(frame_len);
            }
            return Ok(None);
        }
        self.start = frame_end;
        Ok(Some(&self.buf[payload..frame_end]))
    }

    /// `true` while a partial frame (or stray bytes) is buffered — at
    /// EOF this distinguishes a mid-frame drop from a clean close.
    pub(super) fn has_partial(&self) -> bool {
        self.end > self.start
    }
}

/// A loopback connection for the transport's unit tests: the peer's end
/// (blocking, its reads and writes bounded so that a failed assertion on
/// the other side cannot leave a thread waiting for ever) and the served
/// end (non-blocking, as a serving thread holds it).
#[cfg(test)]
pub(super) fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let bound = Some(std::time::Duration::from_secs(30));
    peer.set_read_timeout(bound).expect("read timeout");
    peer.set_write_timeout(bound).expect("write timeout");
    let (served, _) = listener.accept().expect("accept");
    served.set_nonblocking(true).expect("nonblocking");
    (peer, served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Counter;
    use std::cell::Cell;

    /// Waits until `want` bytes are in the served socket, so the next
    /// `fill` finds them whatever the kernel's pace. Only for bytes the
    /// peer has already written and that fit an empty loopback socket
    /// (under ~48 KiB): waiting for more than is in flight, while a
    /// sender holds back for a window a whole 64 KiB segment wide, never
    /// ends.
    fn await_bytes(served: &TcpStream, want: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut seen = vec![0; want];
        while served.peek(&mut seen).unwrap_or(0) < want {
            assert!(
                std::time::Instant::now() < deadline,
                "{want} bytes never arrived"
            );
            std::thread::yield_now();
        }
    }

    /// Reads until the socket is dry.
    fn fill_dry(rbuf: &mut RecvBuf, served: &TcpStream, reads: &Counter) {
        loop {
            match rbuf.fill(served, reads) {
                Ok(n) => assert!(n > 0, "the peer has not closed"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => panic!("fill: {e}"),
            }
        }
    }

    /// `next_frame` hands out the payload where it lies: frames that came
    /// in one read are carved in order without a copy, each valid until
    /// the next `fill`, and a frame split across reads is whole when its
    /// last byte is in.
    #[test]
    fn frames_are_carved_in_place_and_in_order() {
        let (mut peer, served) = socket_pair();
        let charged = Arc::new(AtomicUsize::new(0));
        let reads = Counter::new();
        let mut rbuf = RecvBuf::new(Arc::clone(&charged));

        let mut wire = Vec::new();
        for payload in [&b"first"[..], b"", b"third and last"] {
            append_frame(&mut wire, payload).expect("append");
        }
        // The third frame's last byte comes later.
        let (now, later) = wire.split_at(wire.len() - 1);
        peer.write_all(now).expect("write");
        await_bytes(&served, now.len());
        fill_dry(&mut rbuf, &served, &reads);
        assert_eq!(
            reads.value(),
            2,
            "the read that found it all, and the dry one"
        );
        let first = rbuf.next_frame(MAX_FRAME_LEN).expect("ok").expect("frame");
        assert_eq!(first, b"first");
        let base = first.as_ptr() as usize;
        let second = rbuf.next_frame(MAX_FRAME_LEN).expect("ok").expect("frame");
        assert!(second.is_empty());
        assert_eq!(
            second.as_ptr() as usize - base,
            b"first".len() + HEADER_LEN,
            "the second payload lies behind the first in the same buffer"
        );
        assert_eq!(rbuf.next_frame(MAX_FRAME_LEN).expect("ok"), None);
        assert!(rbuf.has_partial(), "all but a byte of the third");

        peer.write_all(later).expect("write");
        await_bytes(&served, later.len());
        fill_dry(&mut rbuf, &served, &reads);
        assert_eq!(
            rbuf.next_frame(MAX_FRAME_LEN).expect("ok"),
            Some(&b"third and last"[..])
        );
        assert_eq!(rbuf.next_frame(MAX_FRAME_LEN).expect("ok"), None);
        assert!(!rbuf.has_partial());
        assert_eq!(charged.load(Ordering::SeqCst), RECV_INITIAL);
        drop(rbuf);
        assert_eq!(charged.load(Ordering::SeqCst), 0);
    }

    /// A frame larger than a drained buffer keeps: the buffer is reserved
    /// for exactly it when its prefix arrives, charged to the counter, and
    /// trimmed back by the `next_frame` call that finds the buffer drained
    /// — not while the payload it handed out is still in use.
    #[test]
    fn a_drained_buffer_is_trimmed_by_the_call_that_finds_it_empty() {
        let (mut peer, served) = socket_pair();
        let charged = Arc::new(AtomicUsize::new(0));
        let reads = Counter::new();
        let mut rbuf = RecvBuf::new(Arc::clone(&charged));

        let big = vec![7u8; 3 * DRAIN_RETAIN_BYTES];
        let mut wire = Vec::new();
        append_frame(&mut wire, &big).expect("append");
        std::thread::scope(|scope| {
            scope.spawn(|| peer.write_all(&wire).expect("write"));
            await_bytes(&served, HEADER_LEN);
            let mut peak = 0;
            let payload = loop {
                match rbuf.fill(&served, &reads) {
                    Ok(n) => assert!(n > 0, "the peer has not closed"),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                    Err(e) => panic!("fill: {e}"),
                }
                peak = peak.max(charged.load(Ordering::SeqCst));
                if rbuf.has_partial() {
                    if let Some(payload) = rbuf.next_frame(MAX_FRAME_LEN).expect("ok") {
                        break payload.to_vec();
                    }
                }
            };
            assert_eq!(payload, big);
            assert_eq!(peak, big.len() + HEADER_LEN, "reserved for exactly it");
        });
        // Carved and handed out, not yet trimmed: the payload was a slice
        // of this allocation.
        assert_eq!(charged.load(Ordering::SeqCst), big.len() + HEADER_LEN);
        assert_eq!(rbuf.next_frame(MAX_FRAME_LEN).expect("ok"), None);
        assert_eq!(charged.load(Ordering::SeqCst), DRAIN_RETAIN_BYTES);
        drop(rbuf);
        assert_eq!(charged.load(Ordering::SeqCst), 0);
    }

    /// Read growth: a read that fills the buffer doubles it for the next
    /// one — a peer sending more than the buffer holds is read in fewer,
    /// larger reads — but never past what a drained buffer keeps, and the
    /// counter is charged exactly the capacity at every step. The peer
    /// and the reads move in lock-step (each step's bytes are written,
    /// seen to have arrived, and read by one `fill`), so which reads fill
    /// the buffer is the test's doing, not the kernel's.
    #[test]
    fn a_read_that_fills_the_buffer_doubles_it_up_to_the_retained_bound() {
        const SMALL: usize = 100;
        const BIG: usize = 40_000;
        let (mut peer, served) = socket_pair();
        let charged = Arc::new(AtomicUsize::new(0));
        let reads = Counter::new();
        let mut rbuf = RecvBuf::new(Arc::clone(&charged));
        assert_eq!(charged.load(Ordering::SeqCst), RECV_INITIAL);

        // Small frames for the doubling, then one frame most of a buffer
        // long (what is left of the buffer beside it is little enough to
        // be sent at once), then small frames again.
        let mut wire = Vec::new();
        while wire.len() < DRAIN_RETAIN_BYTES + 8 * 1024 {
            append_frame(&mut wire, &[1u8; SMALL]).expect("append");
        }
        let big_at = wire.len();
        append_frame(&mut wire, &[2u8; BIG]).expect("append");
        for _ in 0..400 {
            append_frame(&mut wire, &[1u8; SMALL]).expect("append");
        }

        // One step: the next `n` bytes of the wire are written, awaited,
        // read by a single `fill`, and everything complete is carved.
        // Returns whether the read filled the buffer.
        // `sent`: bytes of the wire written so far; `buffered`: bytes read
        // and not yet carved.
        let (sent, buffered) = (Cell::new(0), Cell::new(0));
        let mut step = |rbuf: &mut RecvBuf, n: usize| {
            let capacity = charged.load(Ordering::SeqCst);
            peer.write_all(&wire[sent.get()..sent.get() + n])
                .expect("write");
            sent.set(sent.get() + n);
            await_bytes(&served, n);
            assert_eq!(rbuf.fill(&served, &reads).expect("fill"), n);
            buffered.set(buffered.get() + n);
            let filled = buffered.get() == capacity;
            let grown = charged.load(Ordering::SeqCst);
            while let Some(payload) = rbuf.next_frame(MAX_FRAME_LEN).expect("ok") {
                match payload.len() {
                    SMALL => assert_eq!(payload, [1u8; SMALL]),
                    _ => assert_eq!(payload, [2u8; BIG]),
                }
                buffered.set(buffered.get() - payload.len() - HEADER_LEN);
            }
            assert_eq!(
                charged.load(Ordering::SeqCst),
                grown,
                "carving frames the buffer holds neither grows nor trims"
            );
            (filled, capacity, grown)
        };

        // Filled reads: 4 → 8 → 16 → 32 → 64 KiB.
        for kib in [4, 8, 16, 32] {
            let spare = kib * 1024 - buffered.get();
            assert_eq!(
                step(&mut rbuf, spare),
                (true, kib * 1024, 2 * kib * 1024),
                "a filled read doubles"
            );
        }
        // A read with room to spare grows nothing.
        assert_eq!(
            step(&mut rbuf, 10_000),
            (false, DRAIN_RETAIN_BYTES, DRAIN_RETAIN_BYTES)
        );
        // Up to all but 4,000 bytes of the large frame: most of the
        // buffer is a partial frame, which fits (nothing is reserved).
        let upto = big_at + HEADER_LEN + BIG - 4_000;
        assert_eq!(
            step(&mut rbuf, upto - sent.get()),
            (false, DRAIN_RETAIN_BYTES, DRAIN_RETAIN_BYTES)
        );
        assert!(buffered.get() > DRAIN_RETAIN_BYTES / 2);
        // And a read that fills the buffer at the bound: no further.
        let spare = DRAIN_RETAIN_BYTES - buffered.get();
        assert_eq!(
            step(&mut rbuf, spare),
            (true, DRAIN_RETAIN_BYTES, DRAIN_RETAIN_BYTES),
            "never past what a drained buffer keeps"
        );
        step(&mut rbuf, wire.len() - sent.get());
        assert_eq!(buffered.get(), 0, "every frame carved");
        assert_eq!(reads.value(), 8, "one read a step");
        assert_eq!(charged.load(Ordering::SeqCst), DRAIN_RETAIN_BYTES);
        drop(rbuf);
        assert_eq!(charged.load(Ordering::SeqCst), 0);
    }

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
