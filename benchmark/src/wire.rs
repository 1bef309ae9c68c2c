//! The two wire workloads: emulated switches on TCP loopback connections
//! against the in-process southbound server.
//!
//! * `wire_lat`: one connection, blocking reads, one packet-in outstanding.
//!   Its baseline is an ECHO_REQUEST round trip on the same connection.
//! * `wire_tput`: two connections, nonblocking, a window of 32 per
//!   connection, one generator thread.
//!
//! Traffic crosses the host's loopback interface, never a real link.

use std::io::{self, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdnshield_controller::isolation::ShieldedController;
use sdnshield_controller::journal::Journal;
use sdnshield_controller::southbound::{spawn_southbound, SouthboundConfig, SouthboundHandle};
use sdnshield_openflow::messages::{OfBody, OfMessage, PacketIn};
use sdnshield_openflow::southbound::StreamDecoder;
use sdnshield_openflow::types::{DatapathId, PortNo, Xid};
use sdnshield_openflow::wire::{self, msg_type};

use crate::common::{
    now_ns, shielded_l2, LatencySamples, LatencySummary, RunOutput, Segment, Side,
};
use crate::l2::{self, hello_all, MonoSide, Response};
use crate::l2mix::{self, Answered, Generator, PacketSpec, Tracker};
use crate::replay::ReplayJob;
use crate::runner::Workload;
use crate::stats::median;
use crate::trace::Tracer;

/// Packet-ins kept outstanding per connection in `wire_tput`.
pub const TPUT_WINDOW: usize = 32;
/// A `wire_lat` packet-in unanswered for this long has failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(1);
/// How long a segment's in-flight packet-ins may take to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
/// Mixed packet-ins sent after the hellos during set-up: (`wire_lat`,
/// `wire_tput`). Sized so that a set-up takes a few tenths of a second.
const WARMUP_MIX: (u64, u64) = (512, 32_768);
/// Packet-ins of the journaled tail that `replay_per_s` replays. Sent one
/// at a time on the first connection in both workloads, so that the number
/// of journal records they leave does not depend on how the controller
/// happened to batch them.
const TAIL_PACKET_INS: u64 = 1024;

/// One emulated switch: a TCP connection past the HELLO/FEATURES handshake.
pub struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    /// The datapath this connection claimed.
    pub dpid: DatapathId,
    out: Vec<u8>,
    out_off: usize,
    scratch: Vec<u8>,
    next_xid: u32,
    /// Blocking socket (`wire_lat`): a poll is one read, not read-until-dry.
    blocking: bool,
    /// Packet-ins sent on this connection and not yet answered.
    pub inflight: usize,
    /// Bytes written to the socket.
    pub bytes_tx: u64,
    /// Bytes read from the socket.
    pub bytes_rx: u64,
    /// Xid and sequence number of the last ECHO_REPLY decoded.
    echo_reply: Option<(Xid, u64)>,
}

impl Conn {
    /// Connects and completes the switch side of the handshake against a
    /// server running on its own thread.
    ///
    /// # Errors
    ///
    /// As [`Conn::connect_driving`].
    pub fn connect(addr: SocketAddr, dpid: DatapathId) -> io::Result<Conn> {
        Self::connect_driving(addr, dpid, &mut || {})
    }

    /// Like [`Conn::connect`], calling `drive` before every read — for a
    /// reactor the caller polls by hand on this same thread.
    ///
    /// # Errors
    ///
    /// Socket errors, a malformed stream, or no FEATURES_REQUEST within 5 s.
    pub fn connect_driving(
        addr: SocketAddr,
        dpid: DatapathId,
        drive: &mut dyn FnMut(),
    ) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(10)))?;
        let mut conn = Conn {
            stream,
            decoder: StreamDecoder::new(),
            dpid,
            out: Vec::with_capacity(16 * 1024),
            out_off: 0,
            scratch: Vec::with_capacity(256),
            next_xid: 1,
            blocking: true,
            inflight: 0,
            bytes_tx: 0,
            bytes_rx: 0,
            echo_reply: None,
        };
        conn.send_now(&OfBody::Hello, None)?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let mut request = None;
            drive();
            conn.read_some()?;
            conn.drain_frames(&mut |_| {}, &mut request)?;
            if let Some(xid) = request {
                let reply = OfBody::FeaturesReply {
                    datapath_id: dpid,
                    ports: vec![PortNo(1), PortNo(2), PortNo(3)],
                    table_capacity: l2mix::TABLE_CAPACITY as u32,
                };
                conn.send_now(&reply, Some(xid))?;
                return Ok(conn);
            }
        }
        Err(io::Error::new(ErrorKind::TimedOut, "handshake timed out"))
    }

    /// Switches the socket to nonblocking reads and writes.
    pub fn set_nonblocking(&mut self) {
        self.stream
            .set_nonblocking(true)
            .expect("nonblocking socket");
        self.blocking = false;
    }

    fn take_xid(&mut self) -> Xid {
        let x = Xid(self.next_xid);
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }

    fn send_now(&mut self, body: &OfBody, xid: Option<Xid>) -> io::Result<Xid> {
        let xid = xid.unwrap_or_else(|| self.take_xid());
        self.scratch.clear();
        wire::encode_into(&OfMessage::new(xid, body.clone()), &mut self.scratch);
        self.stream.write_all(&self.scratch)?;
        self.bytes_tx += self.scratch.len() as u64;
        Ok(xid)
    }

    /// One unmediated round trip: an ECHO_REQUEST carrying `seq`, which the
    /// reactor answers by itself without entering the controller. `Ok(true)`
    /// when the reply came back within `timeout` with the same xid and
    /// payload and nothing else arrived meanwhile.
    ///
    /// # Errors
    ///
    /// Socket failures, peer close, or a corrupt stream.
    pub fn echo_round_trip(&mut self, seq: u64, timeout: Duration) -> io::Result<bool> {
        self.echo_reply = None;
        let payload = bytes::Bytes::copy_from_slice(&seq.to_be_bytes());
        let xid = self.send_now(&OfBody::EchoRequest(payload), None)?;
        let deadline = Instant::now() + timeout;
        let mut stray = 0usize;
        while self.echo_reply.is_none() && Instant::now() < deadline {
            self.poll(&mut |_| stray += 1)?;
        }
        Ok(self.echo_reply == Some((xid, seq)) && stray == 0)
    }

    /// Appends one PACKET_IN frame to the output buffer.
    pub fn queue(&mut self, packet_in: &PacketIn) {
        let msg = OfMessage::new(self.take_xid(), OfBody::PacketIn(packet_in.clone()));
        wire::encode_into(&msg, &mut self.out);
    }

    /// Writes as much of the output buffer as the socket takes. Returns
    /// whether the buffer is now empty.
    ///
    /// # Errors
    ///
    /// Socket write failures other than `WouldBlock`.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.out_off < self.out.len() {
            match self.stream.write(&self.out[self.out_off..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_off += n;
                    self.bytes_tx += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_off = 0;
        Ok(true)
    }

    /// One `read` into the decoder. `Ok(false)` when nothing was available
    /// (nonblocking) or the read timed out (blocking).
    fn read_some(&mut self) -> io::Result<bool> {
        match self.decoder.read_from(&mut self.stream) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.bytes_rx += n as u64;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Decodes every buffered frame: responses go to `sink`, ECHO_REQUESTs
    /// are answered verbatim, a FEATURES_REQUEST's xid lands in `features`.
    fn drain_frames(
        &mut self,
        sink: &mut dyn FnMut(Response),
        features: &mut Option<Xid>,
    ) -> io::Result<usize> {
        let mut n = 0;
        loop {
            let frame = match self.decoder.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => return Ok(n),
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e)),
            };
            n += 1;
            match frame.ty {
                msg_type::PACKET_OUT | msg_type::FLOW_MOD => {
                    let msg = frame
                        .message()
                        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
                    match msg.body {
                        OfBody::PacketOut(po) => sink(Response::PacketOut(po)),
                        OfBody::FlowMod(fm) => sink(Response::FlowMod(fm)),
                        _ => unreachable!("type code and body agree"),
                    }
                }
                msg_type::ECHO_REQUEST => {
                    let reply = OfMessage::new(
                        frame.xid,
                        OfBody::EchoReply(bytes::Bytes::copy_from_slice(frame.echo_payload())),
                    );
                    wire::encode_into(&reply, &mut self.out);
                }
                msg_type::ECHO_REPLY => {
                    // A payload of any other length reads as no sequence.
                    let seq = frame.echo_payload().try_into().map_or(u64::MAX, u64::from_be_bytes);
                    self.echo_reply = Some((frame.xid, seq));
                }
                msg_type::FEATURES_REQUEST => *features = Some(frame.xid),
                _ => {}
            }
        }
    }

    /// Reads what the socket has and hands every response to `sink`.
    /// Returns the number of frames decoded.
    ///
    /// # Errors
    ///
    /// Socket failures, peer close, or a corrupt stream.
    pub fn poll(&mut self, sink: &mut dyn FnMut(Response)) -> io::Result<usize> {
        let mut frames = self.drain_frames(sink, &mut None)?;
        if self.blocking {
            // Sleep in the kernel until bytes arrive (or the short read
            // timeout lets the caller re-check its deadlines).
            if frames == 0 && self.read_some()? {
                frames += self.drain_frames(sink, &mut None)?;
            }
        } else {
            while self.read_some()? {
                frames += self.drain_frames(sink, &mut None)?;
            }
        }
        Ok(frames)
    }
}

/// The steady-state packet-in source: the next packet of the mix.
fn mix(gen: &mut Generator, dpid: DatapathId) -> Option<PacketSpec> {
    Some(gen.next_on(dpid))
}

/// The in-process server every wire run talks to: the shielded controller
/// with the L2 app, no journal (as `sdnshield southbound serve` ships it),
/// behind the southbound reactor on an ephemeral loopback port.
pub struct Server {
    /// The controller, for counters and teardown.
    pub controller: Arc<ShieldedController>,
    /// The reactor thread's handle.
    pub handle: SouthboundHandle,
}

impl Server {
    /// Starts the server.
    pub fn start() -> Server {
        let controller = shielded_l2();
        let handle = spawn_southbound(
            Arc::clone(&controller),
            "127.0.0.1:0",
            SouthboundConfig::default(),
        )
        .expect("bind loopback listener");
        Server { controller, handle }
    }
}

/// The unmediated side of a wire workload.
enum Baseline {
    /// `wire_lat`: ECHO_REQUEST round trips on the same connection. The
    /// reactor answers them by itself, so a round trip crosses the same
    /// sockets, reactor sweep and client read as a flow set-up and nothing
    /// of the controller, and both sides of the ratio wait on the same
    /// sleeps and wake-ups. (An in-process baseline sets a timer-bound
    /// latency against a CPU-bound rate: that ratio follows the host's
    /// speed, not the program's.)
    ///
    /// Each echo is sent the moment a flow set-up was answered, where the
    /// next packet-in would go, so it finds the server as a packet-in does.
    /// Echoes sent back to back do not: whether the next one arrives before
    /// the reactor's empty sweep puts it to sleep is a race of a few
    /// microseconds, and the round trip reads 50 us or 300 us by its
    /// outcome. Only the echoes are timed.
    ///
    /// The two sides are compared by their median latency. Even so placed,
    /// a request finds the reactor still awake and skips a sleep in a share
    /// of the cases that the host's wake-up latency sets: about 30 % on a
    /// rested host, none for some seconds after a processor-bound run. The
    /// means follow that share (echo 190 us or 320 us); the medians stay
    /// with the requests that slept.
    Echo {
        /// ECHO_REQUESTs sent.
        sent: u64,
        /// Replies that came back verbatim and in time.
        answered: u64,
    },
    /// `wire_tput`: the same app on `MonolithicController`, fed the same
    /// stream in process (there is no unmediated wire server).
    Mono(MonoSide),
}

/// State of a wire workload between segments.
pub struct WireWorkload<const TPUT: bool> {
    server: Server,
    conns: Vec<Conn>,
    gen: Generator,
    tracker: Tracker,
    baseline: Baseline,
    latencies: LatencySamples,
    /// `wire_lat`: the latencies of the mediated segment in progress, ns.
    segment_lat: Vec<f64>,
    /// Audit watermark when set-up finished.
    audit_base: u64,
    /// Packet-ins sent since set-up finished.
    attempted: u64,
    /// Client-side socket or stream errors.
    io_errors: u64,
}

impl<const TPUT: bool> WireWorkload<TPUT> {
    /// Packet-ins kept outstanding per connection.
    const WINDOW: usize = if TPUT { TPUT_WINDOW } else { 1 };

    /// Sends `spec` on connection `ci` (queued; the caller flushes).
    fn send(&mut self, ci: usize, spec: &PacketSpec) {
        self.tracker.on_send(spec, now_ns());
        self.conns[ci].queue(&spec.packet_in);
        self.conns[ci].inflight += 1;
    }

    /// Polls connection `ci`, crediting responses; returns frames seen.
    fn poll_conn(
        &mut self,
        ci: usize,
        tracer: &mut Tracer,
        on_done: &mut dyn FnMut(Answered, u64),
    ) -> usize {
        let WireWorkload {
            conns,
            tracker,
            io_errors,
            ..
        } = self;
        let conn = &mut conns[ci];
        let dpid = conn.dpid;
        let mut done_here = 0usize;
        let frames = conn.poll(&mut |resp| {
            let done = match &resp {
                Response::FlowMod(fm) => tracker.on_flow_mod(dpid, fm),
                Response::PacketOut(po) => tracker.on_packet_out(dpid, po),
            };
            if let Some(done) = done {
                let at = now_ns();
                tracer.interval("wire.flowsetup", u64::from(done.seq), done.sent_ns, at);
                on_done(done, at);
                done_here += 1;
            }
        });
        conn.inflight -= done_here;
        match frames {
            Ok(n) => n,
            Err(_) => {
                *io_errors += 1;
                0
            }
        }
    }

    /// Keeps the loop going until nothing is in flight or `timeout` passes;
    /// what is left then counts as unanswered.
    fn drain(
        &mut self,
        timeout: Duration,
        tracer: &mut Tracer,
        on_done: &mut dyn FnMut(Answered, u64),
    ) {
        let deadline = Instant::now() + timeout;
        while self.tracker.outstanding() > 0 && Instant::now() < deadline {
            let mut frames = 0;
            for ci in 0..self.conns.len() {
                let _ = self.conns[ci].flush();
                frames += self.poll_conn(ci, tracer, on_done);
            }
            if frames == 0 {
                std::thread::yield_now();
            }
        }
        if self.tracker.outstanding() > 0 {
            self.tracker.expire(u64::MAX);
            for c in &mut self.conns {
                c.inflight = 0;
            }
        }
    }

    /// Closed loop with `window` outstanding per connection, packet-ins
    /// drawn from `next`, until `stop` says so (checked once per iteration
    /// with the packet-ins sent so far); then drains. Returns packet-ins
    /// answered.
    fn pump(
        &mut self,
        tracer: &mut Tracer,
        record_latency: bool,
        window: usize,
        mut next: impl FnMut(&mut Generator, DatapathId) -> Option<PacketSpec>,
        mut stop: impl FnMut(u64) -> bool,
    ) -> u64 {
        let mut sent = 0u64;
        let mut answered = 0u64;
        // Taken out of `self` for the loop: the closure and `self` are both
        // borrowed mutably inside it.
        let mut lat = std::mem::take(&mut self.latencies);
        let mut segment_lat = std::mem::take(&mut self.segment_lat);
        let mut on_done = |done: Answered, at: u64| {
            answered += 1;
            if record_latency {
                let ns = at.saturating_sub(done.sent_ns);
                lat.push_ns(ns);
                if !TPUT {
                    segment_lat.push(ns as f64);
                }
            }
        };
        while !stop(sent) {
            let mut progress = 0usize;
            for ci in 0..self.conns.len() {
                let dpid = self.conns[ci].dpid;
                tracer.begin("gen.encode_window", 0);
                while self.conns[ci].inflight < window {
                    let Some(spec) = next(&mut self.gen, dpid) else {
                        break;
                    };
                    self.send(ci, &spec);
                    sent += 1;
                    progress += 1;
                }
                tracer.end();
                tracer.begin("client.flush", 0);
                let _ = self.conns[ci].flush();
                tracer.end();
                tracer.begin("client.read_decode_verify", 0);
                progress += self.poll_conn(ci, tracer, &mut on_done);
                tracer.end();
            }
            if progress == 0 {
                std::thread::yield_now();
            }
            if !TPUT {
                // One outstanding: a packet-in older than the timeout fails.
                let cutoff = now_ns().saturating_sub(ANSWER_TIMEOUT.as_nanos() as u64);
                if self.tracker.expire(cutoff) > 0 {
                    self.conns[0].inflight = 0;
                }
            }
        }
        self.drain(DRAIN_TIMEOUT, tracer, &mut on_done);
        self.attempted += sent;
        self.latencies = lat;
        self.segment_lat = segment_lat;
        answered
    }

    fn audit_seq(&self) -> u64 {
        self.server.controller.snapshot().audit_seq
    }

    /// Runs the baseline for `dur`.
    fn baseline_segment(&mut self, dur: Duration, tracer: &mut Tracer) -> Segment {
        if let Baseline::Mono(mono) = &mut self.baseline {
            return mono.run(dur, tracer);
        }
        let start = Instant::now();
        let mut round_trips = 0;
        let mut echo_ns = Vec::new();
        while start.elapsed() < dur {
            // An untimed flow set-up first; the echo then takes the place of
            // the next packet-in.
            self.pump(tracer, false, 1, mix, |sent| sent >= 1);
            let Baseline::Echo { sent, answered } = &mut self.baseline else {
                unreachable!("checked above");
            };
            *sent += 1;
            tracer.begin("wire.echo_round_trip", *sent);
            let t = Instant::now();
            match self.conns[0].echo_round_trip(*sent, ANSWER_TIMEOUT) {
                Ok(true) => {
                    *answered += 1;
                    round_trips += 1;
                }
                Ok(false) => {}
                Err(_) => self.io_errors += 1,
            }
            echo_ns.push(t.elapsed().as_nanos() as f64);
            tracer.end();
        }
        Segment {
            flowsetups: round_trips,
            calls: 0,
            secs: echo_ns.iter().sum::<f64>() / 1e9,
            median_ns: Some(median(&echo_ns)),
        }
    }
}

impl<const TPUT: bool> Workload for WireWorkload<TPUT> {
    const NAME: &'static str = if TPUT { "wire_tput" } else { "wire_lat" };

    fn setup(seed: u64) -> Self {
        let server = Server::start();
        let addr = server.handle.local_addr();
        let switches: u64 = if TPUT { 2 } else { 1 };
        let mut conns = Vec::new();
        for d in 1..=switches {
            let mut c = Conn::connect(addr, DatapathId(d)).expect("switch handshake");
            if TPUT {
                c.set_nonblocking();
            } else {
                // Blocking with a short timeout: the read returns as soon as
                // bytes arrive, and the loop re-checks its deadlines.
                c.stream
                    .set_read_timeout(Some(Duration::from_millis(20)))
                    .expect("read timeout");
            }
            conns.push(c);
        }
        let mut w = WireWorkload {
            server,
            conns,
            gen: Generator::new(seed),
            tracker: Tracker::new(TPUT_WINDOW * 2),
            baseline: if TPUT {
                Baseline::Mono(MonoSide::new(seed, switches))
            } else {
                Baseline::Echo {
                    sent: 0,
                    answered: 0,
                }
            },
            latencies: LatencySamples::default(),
            segment_lat: Vec::new(),
            audit_base: 0,
            attempted: 0,
            io_errors: 0,
        };
        // Warm-up, a fixed operation count: every host speaks once, then a
        // stretch of the mix itself.
        let mut tracer = Tracer::new(false);
        let mut hellos = hello_all(&mut w.gen, 1..=switches);
        let total = hellos.len() as u64;
        hellos.reverse();
        w.pump(
            &mut tracer,
            false,
            Self::WINDOW,
            // Hellos are grouped by switch; a connection idles until its
            // switch's block comes up.
            |_, dpid| match hellos.last() {
                Some(h) if h.dpid == dpid => hellos.pop(),
                _ => None,
            },
            |sent| sent >= total,
        );
        let target = if TPUT { WARMUP_MIX.1 } else { WARMUP_MIX.0 };
        w.pump(&mut tracer, false, Self::WINDOW, mix, |sent| sent >= target);
        w.server.controller.quiesce();
        w.latencies.clear();
        w.attempted = 0;
        w.audit_base = w.audit_seq();
        let failed = w.tracker.stats.failed();
        assert_eq!(failed, 0, "warm-up left {failed} failed packet-ins");
        w.tracker.stats = l2mix::TrackStats::default();
        w
    }

    fn segment(&mut self, side: Side, dur: Duration, tracer: &mut Tracer) -> Segment {
        match side {
            Side::Baseline => self.baseline_segment(dur, tracer),
            Side::Mediated => {
                let audit0 = self.audit_seq();
                self.segment_lat.clear();
                let start = Instant::now();
                let flowsetups =
                    self.pump(tracer, true, Self::WINDOW, mix, |_| start.elapsed() >= dur);
                let secs = start.elapsed().as_secs_f64();
                self.server.controller.quiesce();
                Segment {
                    flowsetups,
                    calls: self.audit_seq() - audit0,
                    secs,
                    median_ns: (!TPUT).then(|| median(&self.segment_lat)),
                }
            }
        }
    }

    fn latency_summary(&mut self) -> LatencySummary {
        self.latencies.summarize()
    }

    fn journaled_tail(&mut self) -> ReplayJob {
        // The server is timed without a journal. The tail runs on an
        // instance that is never timed: a journal is attached, a fixed
        // number of packet-ins is served through the same sockets, and the
        // records they left are what gets replayed.
        let journal = Arc::new(Journal::in_memory());
        self.server.controller.attach_journal(Arc::clone(&journal));
        let base = self.server.controller.snapshot();
        let mut tracer = Tracer::new(false);
        self.pump(
            &mut tracer,
            false,
            1,
            |gen, dpid| (dpid == DatapathId(1)).then(|| gen.next_on(dpid)),
            |sent| sent >= TAIL_PACKET_INS,
        );
        self.server.controller.quiesce();
        let failed = self.tracker.stats.failed();
        assert_eq!(failed, 0, "journaled tail left {failed} failed packet-ins");
        let live = self.server.controller.snapshot();
        ReplayJob::new(base, &journal, live, Some(TAIL_PACKET_INS), l2mix::network)
    }

    fn finish(mut self, out: &mut RunOutput, _tracer: &Tracer) {
        let t = self.tracker.stats.clone();
        out.attempted = self.attempted;
        out.failed = self.io_errors;
        let audited = self.audit_seq() - self.audit_base;
        let (mono, echoes) = match &self.baseline {
            Baseline::Mono(mono) => (Some(&mono.tracker.stats), 0),
            Baseline::Echo { sent, answered } => {
                out.failed += sent - answered;
                out.check(
                    "every baseline echo answered verbatim",
                    answered == sent && *sent > 0,
                    format!("sent {sent} answered {answered}"),
                );
                (None, *sent)
            }
        };
        l2::report(out, &self.server.controller, &t, mono, audited, !TPUT);
        let s = self.server.handle.stats();
        out.check(
            "southbound shed nothing and saw no protocol error",
            s.shed == 0 && s.protocol_errors == 0 && self.io_errors == 0,
            format!(
                "shed {} protocol_errors {} client io errors {}",
                s.shed, s.protocol_errors, self.io_errors
            ),
        );
        let sent = t.sent.max(1) as f64;
        // The baseline's echoes (header plus an 8-byte sequence number, each
        // way) are no part of a flow set-up.
        let echo_bytes = echoes * 2 * (wire::HEADER_LEN as u64 + 8);
        let bytes: u64 = self.conns.iter().map(|c| c.bytes_tx + c.bytes_rx).sum();
        out.set(
            "openflow.wire_bytes_per_flowsetup",
            bytes.saturating_sub(echo_bytes) as f64 / sent,
        );
        out.set(
            "southbound.frames_rx_per_flowsetup",
            s.frames_rx.saturating_sub(echoes) as f64 / sent,
        );
        out.set("southbound.shed", s.shed as f64);
        out.set("southbound.protocol_errors", s.protocol_errors as f64);
        out.note(format!(
            "{} connection(s), window {}, loopback; {} packet-ins, {} unicast",
            self.conns.len(),
            Self::WINDOW,
            t.sent,
            t.unicast_answered
        ));
        self.conns.clear();
        self.server.handle.shutdown();
        self.server.controller.shutdown();
    }
}

/// Median flow set-up latency (µs) of a short `wire_lat`-style probe: the
/// top rung of the ladder, measured the same way in every traced run.
pub fn probe_p50_us(seed: u64, flowsetups: u64) -> f64 {
    let mut w = WireWorkload::<false>::setup(seed);
    let mut tracer = Tracer::new(false);
    w.pump(&mut tracer, true, 1, mix, |sent| sent >= flowsetups);
    let failed = w.tracker.stats.failed();
    assert_eq!(failed, 0, "wire probe left {failed} failed packet-ins");
    let summary = w.latencies.summarize();
    w.conns.clear();
    w.server.handle.shutdown();
    w.server.controller.shutdown();
    summary.p50_us
}
