//! Stream-level zero-copy codec for the southbound TCP wire path.
//!
//! [`wire`] handles single self-contained frames; a TCP connection delivers
//! an arbitrary byte stream — frames split mid-header, coalesced, or torn at
//! the end of a read. This module layers the stream machinery on top:
//!
//! * [`StreamDecoder`] — a reusable read buffer with head/tail cursors that
//!   yields borrowed [`FrameView`]s. Steady-state decoding performs **zero
//!   per-message heap allocations**: bytes land in the buffer once (from the
//!   socket read), views borrow from it, and compaction reuses the same
//!   storage. Unknown message types are skipped via the length header and
//!   counted instead of desyncing the connection.
//! * [`PacketInView`] / [`FrameView::echo_payload`] — allocation-free body
//!   parsers for the two hot-path inbound message types.
//! * [`WriteRing`] — a bounded byte ring for queued replies, flushed with
//!   vectored writes (at most two `IoSlice`s covering the wrap). When a frame
//!   does not fit, it is shed and counted rather than blocking the reactor.
//!
//! The encode path ([`WriteRing::push_body`]) reuses one scratch `Vec`
//! across frames, so it too is allocation-free once warm.

use std::io::{self, IoSlice, Read, Write};

use bytes::Bytes;

use crate::messages::{OfBody, OfMessage, PacketIn, PacketInReason};
use crate::types::{BufferId, PortNo, Xid};
use crate::wire::{self, msg_type, WireError, HEADER_LEN, WIRE_VERSION};

/// Default size of the socket read chunk the decoder reserves space for.
pub const READ_CHUNK: usize = 16 * 1024;

/// A decoded frame borrowing its body from the decoder's buffer.
///
/// The header fields are parsed eagerly (they are fixed-offset integer
/// reads); the body stays raw until the caller asks for a typed view. Hot
/// paths match on [`FrameView::ty`] and use the allocation-free view
/// parsers; cold paths (handshake, diagnostics) call [`FrameView::message`]
/// for a fully decoded owned message.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// Message-type code from the frame header (see [`wire::msg_type`]).
    pub ty: u8,
    /// Transaction id from the frame header.
    pub xid: Xid,
    /// Raw body bytes: everything after the 8-byte header.
    pub body: &'a [u8],
}

impl FrameView<'_> {
    /// Fully decodes the frame into an owned [`OfMessage`]. Allocates; meant
    /// for the handshake and other cold paths.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the body is malformed or has trailing
    /// bytes.
    pub fn message(&self) -> Result<OfMessage, WireError> {
        let mut b = Bytes::copy_from_slice(self.body);
        let body = wire::decode_body(self.ty, &mut b)?;
        if !b.is_empty() {
            return Err(WireError::new("trailing bytes in body"));
        }
        Ok(OfMessage {
            xid: self.xid,
            body,
        })
    }

    /// The opaque echo payload, valid for ECHO_REQUEST/ECHO_REPLY frames
    /// (their body is exactly the payload, echoed back verbatim).
    pub fn echo_payload(&self) -> &[u8] {
        self.body
    }

    /// Parses a PACKET_IN body without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when `ty` is not PACKET_IN or the body is
    /// malformed.
    pub fn packet_in(&self) -> Result<PacketInView<'_>, WireError> {
        if self.ty != msg_type::PACKET_IN {
            return Err(WireError::new("not a packet-in frame"));
        }
        PacketInView::parse(self.body)
    }
}

/// Borrowed view of a PACKET_IN body: header fields by value, payload as a
/// slice into the decoder buffer. Mirrors [`PacketIn`] without owning the
/// payload.
#[derive(Debug, Clone, Copy)]
pub struct PacketInView<'a> {
    /// Buffer id on the switch, if buffered.
    pub buffer_id: BufferId,
    /// Port the packet arrived on.
    pub in_port: PortNo,
    /// Why the packet was punted.
    pub reason: PacketInReason,
    /// The packet bytes, borrowed from the stream buffer.
    pub payload: &'a [u8],
}

impl<'a> PacketInView<'a> {
    fn parse(b: &'a [u8]) -> Result<Self, WireError> {
        if b.len() < 11 {
            return Err(WireError::new("truncated body"));
        }
        let buffer_id = BufferId(u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
        let in_port = PortNo(u16::from_be_bytes([b[4], b[5]]));
        let reason = match b[6] {
            0 => PacketInReason::NoMatch,
            1 => PacketInReason::Action,
            _ => return Err(WireError::new("bad packet-in reason")),
        };
        let n = u32::from_be_bytes([b[7], b[8], b[9], b[10]]) as usize;
        if b.len() - 11 != n {
            return Err(WireError::new("packet-in payload length mismatch"));
        }
        Ok(PacketInView {
            buffer_id,
            in_port,
            reason,
            payload: &b[11..],
        })
    }

    /// Copies the view into an owned [`PacketIn`] (one payload allocation) —
    /// the handoff point from the wire to the mediation pipeline, which
    /// needs `'static` data.
    pub fn to_packet_in(&self) -> PacketIn {
        PacketIn {
            buffer_id: self.buffer_id,
            in_port: self.in_port,
            reason: self.reason,
            payload: Bytes::copy_from_slice(self.payload),
        }
    }
}

/// Incremental frame decoder over a byte stream.
///
/// Bytes are appended via [`StreamDecoder::read_from`] (socket) or
/// [`StreamDecoder::extend`] (tests); complete frames are drained with
/// [`StreamDecoder::next_frame`]. The buffer compacts in place and only
/// grows when a single frame exceeds the current capacity, so a warm
/// decoder allocates nothing.
#[derive(Debug)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    frames_decoded: u64,
    unknown_skipped: u64,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// A decoder with the default read-chunk capacity.
    pub fn new() -> Self {
        Self::with_capacity(READ_CHUNK)
    }

    /// A decoder whose buffer starts at `capacity` bytes (it still grows if
    /// a single frame needs more).
    pub fn with_capacity(capacity: usize) -> Self {
        StreamDecoder {
            buf: vec![0; capacity.max(HEADER_LEN)],
            head: 0,
            tail: 0,
            frames_decoded: 0,
            unknown_skipped: 0,
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.tail - self.head
    }

    /// Total complete frames yielded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded
    }

    /// Frames with an unknown type code that were skipped via their length
    /// header instead of killing the connection.
    pub fn unknown_skipped(&self) -> u64 {
        self.unknown_skipped
    }

    /// Makes room for at least `min` writable bytes at the tail: first by
    /// compacting pending data to the front (reusing the same storage),
    /// growing only when the pending data plus `min` exceed capacity.
    fn make_room(&mut self, min: usize) {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        if self.buf.len() - self.tail >= min {
            return;
        }
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() - self.tail < min {
            self.buf.resize((self.tail + min).next_power_of_two(), 0);
        }
    }

    /// Appends raw bytes (test/replay entry point).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.tail..self.tail + bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// Reads once from `r` into the buffer. Returns the byte count (0 means
    /// EOF). `WouldBlock` and friends surface as errors for the caller's
    /// readiness loop to interpret.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `read` error.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.make_room(READ_CHUNK);
        let n = r.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// Yields the next complete frame, or `Ok(None)` if the buffered bytes
    /// end mid-frame (read more and retry). Frames with an unknown type code
    /// are skipped and counted, transparently to the caller.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on an unrecoverable stream corruption: wrong
    /// version byte or a length field smaller than the header (the stream
    /// cannot be resynchronized; the connection should be dropped).
    pub fn next_frame(&mut self) -> Result<Option<FrameView<'_>>, WireError> {
        loop {
            if self.tail - self.head < HEADER_LEN {
                return Ok(None);
            }
            let h = self.head;
            let b = &self.buf[h..self.tail];
            if b[0] != WIRE_VERSION {
                return Err(WireError::new("unsupported version"));
            }
            let ty = b[1];
            let len = u16::from_be_bytes([b[2], b[3]]) as usize;
            if len < HEADER_LEN {
                return Err(WireError::new("length field too small"));
            }
            if b.len() < len {
                return Ok(None);
            }
            self.head += len;
            if self.head == self.tail {
                self.head = 0;
                self.tail = 0;
            }
            if !wire::is_known_type(ty) {
                self.unknown_skipped += 1;
                continue;
            }
            self.frames_decoded += 1;
            let xid = Xid(u32::from_be_bytes([b[4], b[5], b[6], b[7]]));
            // `h` indexes the frame even after the head/tail reset above:
            // the reset never moves bytes, only marks them consumed.
            return Ok(Some(FrameView {
                ty,
                xid,
                body: &self.buf[h + HEADER_LEN..h + len],
            }));
        }
    }
}

/// Bounded egress byte ring with vectored flush and counted shed.
///
/// Frames are encoded into a reusable scratch `Vec` and copied into the
/// ring; a frame that does not fit in the remaining space is dropped whole
/// and counted ([`WriteRing::shed`]) — backpressure never blocks the
/// reactor, and partial frames never reach the wire. [`WriteRing::flush`]
/// writes the pending bytes with at most two `IoSlice`s (the wrap split).
#[derive(Debug)]
pub struct WriteRing {
    buf: Box<[u8]>,
    head: usize,
    len: usize,
    scratch: Vec<u8>,
    shed: u64,
    enqueued: u64,
    flushed_bytes: u64,
}

impl WriteRing {
    /// A ring holding at most `capacity` queued bytes.
    pub fn new(capacity: usize) -> Self {
        WriteRing {
            buf: vec![0; capacity.max(HEADER_LEN)].into_boxed_slice(),
            head: 0,
            len: 0,
            scratch: Vec::with_capacity(256),
            shed: 0,
            enqueued: 0,
            flushed_bytes: 0,
        }
    }

    /// Bytes queued and not yet written.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// True when nothing is queued (the readiness loop deregisters write
    /// interest on this).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Frames dropped because the ring was full.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Frames successfully queued.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Total bytes handed to the socket across all flushes.
    pub fn flushed_bytes(&self) -> u64 {
        self.flushed_bytes
    }

    /// Queues a full message. Returns `false` (and counts a shed) when the
    /// ring lacks space for the whole frame.
    pub fn push(&mut self, msg: &OfMessage) -> bool {
        self.scratch.clear();
        wire::encode_into(msg, &mut self.scratch);
        self.commit_scratch()
    }

    /// Queues a message given its parts, avoiding an `OfMessage` move for
    /// callers holding a body by reference.
    pub fn push_body(&mut self, xid: Xid, body: &OfBody) -> bool {
        self.scratch.clear();
        self.begin_frame(0, xid);
        let ty = wire::encode_body(body, &mut self.scratch);
        self.finish_frame(ty);
        self.commit_scratch()
    }

    /// Queues an ECHO_REPLY mirroring the sender's `xid` and payload
    /// verbatim — the hot liveness path, no `Bytes` construction.
    pub fn push_echo_reply(&mut self, xid: Xid, payload: &[u8]) -> bool {
        self.scratch.clear();
        self.begin_frame(msg_type::ECHO_REPLY, xid);
        self.scratch.extend_from_slice(payload);
        self.finish_frame(msg_type::ECHO_REPLY);
        self.commit_scratch()
    }

    /// Queues a pre-encoded frame verbatim (e.g. a template from a load
    /// generator).
    pub fn push_raw(&mut self, frame: &[u8]) -> bool {
        self.scratch.clear();
        self.scratch.extend_from_slice(frame);
        self.commit_scratch()
    }

    fn begin_frame(&mut self, ty: u8, xid: Xid) {
        self.scratch.extend_from_slice(&[WIRE_VERSION, ty, 0, 0]);
        self.scratch.extend_from_slice(&xid.0.to_be_bytes());
    }

    fn finish_frame(&mut self, ty: u8) {
        let frame_len = self.scratch.len();
        assert!(frame_len <= u16::MAX as usize, "frame exceeds length field");
        self.scratch[1] = ty;
        self.scratch[2..4].copy_from_slice(&(frame_len as u16).to_be_bytes());
    }

    fn commit_scratch(&mut self) -> bool {
        let n = self.scratch.len();
        let cap = self.buf.len();
        if n > cap - self.len {
            self.shed += 1;
            return false;
        }
        let pos = (self.head + self.len) % cap;
        let first = (cap - pos).min(n);
        self.buf[pos..pos + first].copy_from_slice(&self.scratch[..first]);
        if first < n {
            self.buf[..n - first].copy_from_slice(&self.scratch[first..]);
        }
        self.len += n;
        self.enqueued += 1;
        true
    }

    /// Writes pending bytes to `w` with one vectored call (at most two
    /// slices). Returns bytes written; the caller's readiness loop handles
    /// `WouldBlock`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn flush(&mut self, w: &mut impl Write) -> io::Result<usize> {
        if self.len == 0 {
            return Ok(0);
        }
        let cap = self.buf.len();
        let first = (cap - self.head).min(self.len);
        let n = if first < self.len {
            let (lo, hi) = self.buf.split_at(self.head);
            w.write_vectored(&[
                IoSlice::new(&hi[..first]),
                IoSlice::new(&lo[..self.len - first]),
            ])?
        } else {
            w.write(&self.buf[self.head..self.head + first])?
        };
        self.head = (self.head + n) % cap;
        self.len -= n;
        if self.len == 0 {
            self.head = 0;
        }
        self.flushed_bytes += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::PacketOut;
    use crate::ActionList;

    fn frame(msg: &OfMessage) -> Vec<u8> {
        let mut v = Vec::new();
        wire::encode_into(msg, &mut v);
        v
    }

    fn packet_in_msg(xid: u32, payload: &'static [u8]) -> OfMessage {
        OfMessage::new(
            Xid(xid),
            OfBody::PacketIn(PacketIn {
                buffer_id: BufferId(xid),
                in_port: PortNo(3),
                reason: PacketInReason::NoMatch,
                payload: Bytes::from_static(payload),
            }),
        )
    }

    #[test]
    fn decodes_across_arbitrary_chunks() {
        let msgs = vec![
            OfMessage::new(Xid(1), OfBody::Hello),
            packet_in_msg(2, b"\xaa\xbb\xcc"),
            OfMessage::new(Xid(3), OfBody::EchoRequest(Bytes::from_static(b"ping"))),
        ];
        let stream: Vec<u8> = msgs.iter().flat_map(frame).collect();
        // Feed one byte at a time — worst-case splits at every boundary.
        let mut dec = StreamDecoder::with_capacity(16);
        let mut out = Vec::new();
        for byte in stream {
            dec.extend(&[byte]);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f.message().unwrap());
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(dec.frames_decoded(), 3);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn coalesced_frames_decode_in_one_pass() {
        let msgs: Vec<_> = (0..10).map(|i| packet_in_msg(i, b"xyz")).collect();
        let stream: Vec<u8> = msgs.iter().flat_map(frame).collect();
        let mut dec = StreamDecoder::new();
        dec.extend(&stream);
        let mut n = 0;
        while let Some(f) = dec.next_frame().unwrap() {
            let pi = f.packet_in().unwrap();
            assert_eq!(pi.payload, b"xyz");
            assert_eq!(pi.buffer_id, BufferId(n));
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn torn_final_frame_stays_pending() {
        let good = frame(&packet_in_msg(1, b"ok"));
        let torn = frame(&packet_in_msg(2, b"torn"));
        let mut dec = StreamDecoder::new();
        dec.extend(&good);
        dec.extend(&torn[..torn.len() - 3]);
        assert!(dec.next_frame().unwrap().is_some());
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.pending(), torn.len() - 3);
        // The remainder arrives; the frame completes.
        dec.extend(&torn[torn.len() - 3..]);
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!(f.packet_in().unwrap().payload, b"torn");
    }

    #[test]
    fn unknown_type_skipped_and_counted() {
        let mut stream = frame(&OfMessage::new(Xid(1), OfBody::Hello));
        // A frame from a "newer" peer: type 0x63, 4-byte body.
        stream.extend_from_slice(&[WIRE_VERSION, 0x63, 0, 12, 0, 0, 0, 9, 1, 2, 3, 4]);
        stream.extend(frame(&OfMessage::new(Xid(2), OfBody::BarrierRequest)));
        let mut dec = StreamDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap().unwrap().ty, msg_type::HELLO);
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!((f.ty, f.xid), (msg_type::BARRIER_REQUEST, Xid(2)));
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.unknown_skipped(), 1);
        assert_eq!(dec.frames_decoded(), 2);
    }

    #[test]
    fn corrupt_stream_is_fatal() {
        let mut dec = StreamDecoder::new();
        dec.extend(&[0x7f, 0, 0, 8, 0, 0, 0, 0]);
        assert!(dec.next_frame().is_err());

        let mut dec = StreamDecoder::new();
        // Length field smaller than the header — cannot make progress.
        dec.extend(&[WIRE_VERSION, 0, 0, 4, 0, 0, 0, 0]);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn echo_payload_views_are_verbatim() {
        let msg = OfMessage::new(
            Xid(0xfeed),
            OfBody::EchoRequest(Bytes::from_static(b"\x00\x01liveness")),
        );
        let mut dec = StreamDecoder::new();
        dec.extend(&frame(&msg));
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!(f.ty, msg_type::ECHO_REQUEST);
        assert_eq!(f.xid, Xid(0xfeed));
        assert_eq!(f.echo_payload(), b"\x00\x01liveness");
    }

    #[test]
    fn write_ring_roundtrips_through_flush() {
        let mut ring = WriteRing::new(4096);
        let msgs = [
            OfMessage::new(Xid(7), OfBody::Hello),
            OfMessage::new(
                Xid(8),
                OfBody::PacketOut(PacketOut {
                    buffer_id: BufferId::NO_BUFFER,
                    in_port: PortNo(1),
                    actions: ActionList::output(PortNo(2)),
                    payload: Bytes::from_static(b"pkt"),
                }),
            ),
        ];
        assert!(ring.push(&msgs[0]));
        assert!(ring.push_body(msgs[1].xid, &msgs[1].body));
        assert!(ring.push_echo_reply(Xid(9), b"pong"));

        let mut sink = Vec::new();
        while !ring.is_empty() {
            ring.flush(&mut sink).unwrap();
        }
        let mut dec = StreamDecoder::new();
        dec.extend(&sink);
        assert_eq!(
            dec.next_frame().unwrap().unwrap().message().unwrap(),
            msgs[0]
        );
        assert_eq!(
            dec.next_frame().unwrap().unwrap().message().unwrap(),
            msgs[1]
        );
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!(f.ty, msg_type::ECHO_REPLY);
        assert_eq!((f.xid, f.echo_payload()), (Xid(9), &b"pong"[..]));
        assert_eq!(ring.enqueued(), 3);
        assert_eq!(ring.shed(), 0);
    }

    #[test]
    fn write_ring_wraps_and_sheds() {
        // Capacity fits exactly two HELLO frames (8 bytes each).
        let hello = OfMessage::new(Xid(1), OfBody::Hello);
        let mut ring = WriteRing::new(16);
        assert!(ring.push(&hello));
        assert!(ring.push(&hello));
        assert!(!ring.push(&hello), "third frame must shed");
        assert_eq!(ring.shed(), 1);

        // Drain one frame, push another so the ring wraps mid-frame.
        struct Limited(Vec<u8>, usize);
        impl Write for Limited {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                let n = b.len().min(self.1);
                self.0.extend_from_slice(&b[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Limited(Vec::new(), 12);
        ring.flush(&mut sink).unwrap();
        assert_eq!(ring.pending(), 4);
        assert!(ring.push(&hello), "freed space accepts a wrapped frame");
        sink.1 = usize::MAX;
        while !ring.is_empty() {
            ring.flush(&mut sink).unwrap();
        }
        // All bytes out, in order, decodable.
        let mut dec = StreamDecoder::new();
        dec.extend(&sink.0);
        let mut n = 0;
        while let Some(f) = dec.next_frame().unwrap() {
            assert_eq!(f.ty, msg_type::HELLO);
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn decoder_grows_for_oversized_frame_then_reuses() {
        let payload: &'static [u8] = Box::leak(vec![0xabu8; 600].into_boxed_slice());
        let msg = packet_in_msg(5, payload);
        let mut dec = StreamDecoder::with_capacity(64);
        dec.extend(&frame(&msg));
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!(f.packet_in().unwrap().payload.len(), 600);
    }
}
