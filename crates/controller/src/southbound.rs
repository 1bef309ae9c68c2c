//! The southbound TCP server: real switches (or CBench-style emulators)
//! speaking the OpenFlow wire codec to the shielded controller over sockets.
//!
//! # Reactor model
//!
//! One thread owns a nonblocking [`TcpListener`] and every connection, and
//! drives them with a *sweep*: each [`Reactor::poll_once`] call accepts
//! pending connections, then for every connection flushes queued egress
//! bytes, reads until `WouldBlock`, decodes complete frames from the
//! reusable stream buffer, and finally runs the liveness/timeout pass. A
//! sweep never blocks, and the explicit `poll_once(tick)` entry point keeps
//! the whole state machine deterministic under test.
//!
//! Between sweeps that found nothing to do, [`Reactor::wait`] blocks in
//! `poll(2)` (the FFI lives in the `affinity` shim) on the listener, every
//! connection — `POLLOUT` too while its write ring holds bytes — and the
//! read end of a wake socket. Egress is produced on other threads: a
//! FLOW_MOD/PACKET_OUT pushed into a ring writes one byte to the wake
//! socket, but only when it flips the reactor's `armed` flag, which the
//! reactor sets just before it last looks at the rings and clears when
//! `poll` returns. So no push is lost, wake-ups are coalesced, and a push
//! while the reactor is awake costs no syscall.
//!
//! # Per-connection state machine
//!
//! ```text
//! accept ──HELLO sent──▶ AwaitHello ──peer HELLO──▶ AwaitFeatures
//!     (FEATURES_REQUEST sent)  AwaitFeatures ──FEATURES_REPLY(dpid)──▶ Ready
//! ```
//!
//! `Ready` requires the claimed datapath to exist in the network
//! topology and to be unclaimed by another live connection; the reactor
//! then registers a [`WireEgress`] so every mediated flow-mod/packet-out
//! for that datapath is mirrored onto the socket. Steady state is
//! PACKET_IN upstream (batched into the dispatcher's vectored delivery)
//! and FLOW_MOD/PACKET_OUT/ECHO downstream.
//!
//! # Backpressure and liveness
//!
//! Egress frames queue in a bounded [`WriteRing`]; when a slow peer fills
//! it, whole frames are shed and counted, so a stalled switch can never
//! wedge the reactor or the threads producing its egress, and the reactor
//! waits for its socket with `POLLOUT` instead of spinning on it. Liveness: after `echo_interval`
//! ticks of silence the reactor sends an ECHO_REQUEST with an opaque
//! payload; a peer that fails to echo it (xid and payload verbatim) within
//! `echo_timeout` ticks is declared dead, its egress deregistered, and its
//! flows reaped through the network's existing delete path.

use std::collections::BTreeSet;
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd as _;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use affinity::{PollFd, POLLIN, POLLOUT};
use bytes::Bytes;
use parking_lot::Mutex;
use sdnshield_netsim::network::WireEgress;
use sdnshield_openflow::messages::{FlowMod, OfBody, PacketIn, PacketOut};
use sdnshield_openflow::southbound::{StreamDecoder, WriteRing};
use sdnshield_openflow::types::{DatapathId, Xid};
use sdnshield_openflow::wire::msg_type;

use crate::isolation::ShieldedController;

/// Opaque payload carried by reactor-initiated ECHO_REQUESTs. The reply
/// must return it verbatim; anything else fails the liveness check.
pub const LIVENESS_PAYLOAD: &[u8] = b"sdnshield-liveness\x00\xa5";

/// Wall-clock length of one liveness tick in a server started by
/// [`spawn_southbound`].
const TICK: Duration = Duration::from_micros(200);

/// Longest a spawned reactor blocks between sweeps (five ticks): liveness
/// probes and timeouts still fire on a silent server.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// Tuning knobs for the southbound reactor.
///
/// `echo_interval` and `echo_timeout` count liveness *ticks*. In a server
/// started by [`spawn_southbound`] a tick is 200 µs of wall-clock time, so
/// the defaults mean 1 s and 10 s under any load. A reactor driven by hand
/// counts the `tick` values its caller passes to [`Reactor::poll_once`].
#[derive(Debug, Clone)]
pub struct SouthboundConfig {
    /// Per-connection egress ring capacity in bytes. Frames that do not fit
    /// are shed whole and counted.
    pub write_ring_capacity: usize,
    /// Ticks of inbound silence before the reactor probes with an
    /// ECHO_REQUEST.
    pub echo_interval: u64,
    /// Ticks after a probe (or after accept, for the handshake) without the
    /// expected reply before the connection is declared dead.
    pub echo_timeout: u64,
    /// Max packet-ins accumulated before a vectored dispatch into the
    /// controller (mirrors the benchmark drivers' chunked delivery).
    pub batch_max: usize,
}

impl Default for SouthboundConfig {
    fn default() -> Self {
        SouthboundConfig {
            write_ring_capacity: 1 << 20,
            echo_interval: 5_000,
            echo_timeout: 50_000,
            batch_max: 512,
        }
    }
}

/// Monotonic counters shared between the reactor and its handle.
#[derive(Default)]
struct StatsInner {
    accepted: AtomicU64,
    handshakes: AtomicU64,
    closed: AtomicU64,
    echo_timeouts: AtomicU64,
    frames_rx: AtomicU64,
    packet_ins: AtomicU64,
    flow_mods_tx: AtomicU64,
    packet_outs_tx: AtomicU64,
    unknown_skipped: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A point-in-time copy of the reactor's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SouthboundStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections that completed the HELLO/FEATURES handshake.
    pub handshakes: u64,
    /// Connections closed (any reason).
    pub closed: u64,
    /// Connections killed by the echo liveness timeout.
    pub echo_timeouts: u64,
    /// Complete frames decoded across all connections.
    pub frames_rx: u64,
    /// PACKET_IN frames forwarded into the mediation pipeline.
    pub packet_ins: u64,
    /// FLOW_MOD frames queued onto the wire.
    pub flow_mods_tx: u64,
    /// PACKET_OUT frames queued onto the wire.
    pub packet_outs_tx: u64,
    /// Unknown-type frames skipped via their length header.
    pub unknown_skipped: u64,
    /// Egress frames shed because a connection's write ring was full.
    pub shed: u64,
    /// Connections killed by an unrecoverable stream error.
    pub protocol_errors: u64,
}

impl StatsInner {
    fn snapshot(&self) -> SouthboundStats {
        SouthboundStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            handshakes: self.handshakes.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            echo_timeouts: self.echo_timeouts.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            packet_ins: self.packet_ins.load(Ordering::Relaxed),
            flow_mods_tx: self.flow_mods_tx.load(Ordering::Relaxed),
            packet_outs_tx: self.packet_outs_tx.load(Ordering::Relaxed),
            unknown_skipped: self.unknown_skipped.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// The reactor's wake socket, write end. Egress producers write one byte
/// only when they flip `armed`, which [`Reactor::wait`] sets just before
/// it last looks at the rings and clears when `poll` returns: one byte per
/// sleep at most, and none while the reactor is awake.
struct Waker {
    armed: AtomicBool,
    tx: UnixStream,
}

impl Waker {
    /// Wakes the reactor if it is (about to be) blocked in [`Reactor::wait`].
    fn wake(&self) {
        // SeqCst RMW against the reactor's arming swap: either the push
        // before this is visible to the reactor's ring check, or the
        // reactor was armed and this writes the byte.
        if self.armed.swap(false, Ordering::SeqCst) {
            self.poke();
        }
    }

    /// Writes a wake byte unconditionally. Nonblocking: a full socket
    /// already holds a pending wake.
    fn poke(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// What the reactor shares with its connections' egress halves and its
/// handle.
struct Shared {
    stats: StatsInner,
    waker: Waker,
}

/// The egress half of one wire-attached switch: mediated controller→switch
/// messages are encoded into the connection's bounded write ring from
/// whichever thread executed them (a deputy, or an app thread applying its
/// handler's output); the reactor thread flushes.
struct ConnEgress {
    ring: Arc<Mutex<WriteRing>>,
    xid: AtomicU32,
    shared: Arc<Shared>,
}

impl ConnEgress {
    fn next_xid(&self) -> Xid {
        Xid(self.xid.fetch_add(1, Ordering::Relaxed))
    }
}

impl WireEgress for ConnEgress {
    fn flow_mod(&self, fm: &FlowMod) {
        let body = OfBody::FlowMod(fm.clone());
        if self.ring.lock().push_body(self.next_xid(), &body) {
            self.shared
                .stats
                .flow_mods_tx
                .fetch_add(1, Ordering::Relaxed);
            self.shared.waker.wake();
        }
    }

    fn packet_out(&self, po: &PacketOut) {
        let body = OfBody::PacketOut(po.clone());
        if self.ring.lock().push_body(self.next_xid(), &body) {
            self.shared
                .stats
                .packet_outs_tx
                .fetch_add(1, Ordering::Relaxed);
            self.shared.waker.wake();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitHello,
    AwaitFeatures,
    Ready,
}

struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    ring: Arc<Mutex<WriteRing>>,
    phase: Phase,
    dpid: Option<DatapathId>,
    opened_tick: u64,
    last_rx_tick: u64,
    /// Outstanding reactor-initiated echo probe: (xid, tick sent).
    outstanding_echo: Option<(Xid, u64)>,
    /// Xid counter for reactor-initiated frames. Egress xids live in the
    /// upper half of the space (see [`Reactor::service_conn`]'s handshake
    /// arm) so the two streams cannot collide.
    next_xid: u32,
    /// Set to the close reason when the connection must die; reaped at the
    /// end of the sweep.
    dead: Option<&'static str>,
    /// Last decoder unknown-skip count folded into the shared stats.
    reported_unknown: u64,
    /// Last ring shed count folded into the shared stats.
    reported_shed: u64,
}

impl Conn {
    fn next_xid(&mut self) -> Xid {
        let x = Xid(self.next_xid);
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }
}

/// The southbound reactor: listener + connections + sweep loop.
///
/// [`spawn_southbound`] runs it on a dedicated thread; tests construct one
/// directly with [`Reactor::bind`] and drive [`Reactor::poll_once`] with an
/// explicit tick for deterministic liveness-timeout coverage.
pub struct Reactor {
    listener: TcpListener,
    local_addr: SocketAddr,
    controller: Arc<ShieldedController>,
    config: SouthboundConfig,
    conns: Vec<Conn>,
    claimed: BTreeSet<DatapathId>,
    shared: Arc<Shared>,
    batch: Vec<(DatapathId, PacketIn)>,
    /// Read end of the wake socket (see [`Waker`]).
    wake_rx: UnixStream,
    /// The `poll(2)` interest set, rebuilt per wait in a reused buffer.
    pollfds: Vec<PollFd>,
    /// The last sweep's accept failed with something other than
    /// `WouldBlock`. `EMFILE` leaves the listener readable, so the next
    /// wait leaves it out rather than waking at once, again and again.
    accept_failed: bool,
}

impl Reactor {
    /// Binds a nonblocking listener on `addr` (use port 0 for an ephemeral
    /// port; read it back with [`Reactor::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(
        addr: &str,
        controller: Arc<ShieldedController>,
        config: SouthboundConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Reactor {
            listener,
            local_addr,
            controller,
            config,
            conns: Vec::new(),
            claimed: BTreeSet::new(),
            shared: Arc::new(Shared {
                stats: StatsInner::default(),
                waker: Waker {
                    armed: AtomicBool::new(false),
                    tx: wake_tx,
                },
            }),
            batch: Vec::new(),
            wake_rx,
            pollfds: Vec::new(),
            accept_failed: false,
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connection count (any phase).
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// A copy of the reactor's counters.
    pub fn stats(&self) -> SouthboundStats {
        self.shared.stats.snapshot()
    }

    /// One nonblocking sweep at virtual time `tick`: accept, per-connection
    /// flush/read/decode, batched packet-in dispatch, liveness pass, reap.
    /// Returns a progress count (frames + connections handled); `0` means
    /// the sweep found nothing to do and the caller may [`Reactor::wait`].
    pub fn poll_once(&mut self, tick: u64) -> usize {
        let mut progress = 0usize;
        self.accept_failed = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    progress += 1;
                    self.accept_conn(stream, tick);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.accept_failed = true;
                    break;
                }
            }
        }
        for i in 0..self.conns.len() {
            progress += Self::service_conn(
                &mut self.conns[i],
                tick,
                &self.controller,
                &self.config,
                &mut self.claimed,
                &self.shared,
                &mut self.batch,
            );
        }
        if !self.batch.is_empty() {
            let batch = std::mem::take(&mut self.batch);
            self.controller.deliver_packet_in_batch(batch);
        }
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if conn.dead.is_some() {
                continue;
            }
            Self::liveness_pass(conn, tick, &self.config, &self.shared.stats);
            Self::flush_conn(conn, &self.shared.stats);
        }
        let mut i = 0;
        while i < self.conns.len() {
            if self.conns[i].dead.is_some() {
                let conn = self.conns.swap_remove(i);
                self.close_conn(conn);
                progress += 1;
            } else {
                i += 1;
            }
        }
        progress
    }

    /// Blocks in `poll(2)` until the next [`Reactor::poll_once`] may find
    /// work, or `timeout` (rounded up to whole milliseconds) passes: a
    /// connection or the listener is readable, a write ring holding bytes
    /// can be flushed, or an egress push or [`SouthboundHandle`] shutdown
    /// pokes the wake socket. Call it after a sweep that returned 0; a
    /// wake-up that finds nothing to do is harmless.
    ///
    /// Egress producers write a wake byte only while the reactor is armed.
    /// Arming comes before the rings are inspected, so a frame pushed
    /// earlier shows up as `POLLOUT` interest and one pushed later writes
    /// the byte: no push is lost. A failed `poll` (never expected; `EINTR`
    /// counts as a wake) degrades to a sleep of at most one tick.
    pub fn wait(&mut self, timeout: Duration) {
        let waker = &self.shared.waker;
        waker.armed.swap(true, Ordering::SeqCst);
        self.pollfds.clear();
        self.pollfds
            .push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        if !self.accept_failed {
            self.pollfds
                .push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        }
        for conn in &self.conns {
            let events = if conn.ring.lock().is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            self.pollfds
                .push(PollFd::new(conn.stream.as_raw_fd(), events));
        }
        if affinity::poll(&mut self.pollfds, timeout).is_err() {
            thread::sleep(timeout.min(TICK));
        }
        waker.armed.store(false, Ordering::SeqCst);
        if self.pollfds[0].revents != 0 {
            let mut buf = [0u8; 64];
            while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
        }
    }

    fn accept_conn(&mut self, stream: TcpStream, tick: u64) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(Mutex::new(WriteRing::new(self.config.write_ring_capacity)));
        let mut conn = Conn {
            stream,
            decoder: StreamDecoder::new(),
            ring,
            phase: Phase::AwaitHello,
            dpid: None,
            opened_tick: tick,
            last_rx_tick: tick,
            outstanding_echo: None,
            next_xid: 1,
            dead: None,
            reported_unknown: 0,
            reported_shed: 0,
        };
        let xid = conn.next_xid();
        conn.ring.lock().push_body(xid, &OfBody::Hello);
        Self::flush_conn(&mut conn, &self.shared.stats);
        self.conns.push(conn);
    }

    /// Flush + read + decode for one connection. Associated function (not a
    /// method) so the caller can hold disjoint borrows of the reactor's
    /// other fields.
    #[allow(clippy::too_many_lines)]
    fn service_conn(
        conn: &mut Conn,
        tick: u64,
        controller: &Arc<ShieldedController>,
        config: &SouthboundConfig,
        claimed: &mut BTreeSet<DatapathId>,
        shared: &Arc<Shared>,
        batch: &mut Vec<(DatapathId, PacketIn)>,
    ) -> usize {
        if conn.dead.is_some() {
            return 0;
        }
        let stats = &shared.stats;
        Self::flush_conn(conn, stats);
        let mut progress = 0usize;
        'io: loop {
            loop {
                // Split borrows: frame views borrow the decoder while the
                // handlers touch the ring and phase fields.
                let Conn {
                    decoder,
                    ring,
                    phase,
                    dpid,
                    last_rx_tick,
                    outstanding_echo,
                    dead,
                    next_xid,
                    ..
                } = conn;
                let frame = match decoder.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        *dead = Some("unrecoverable stream error");
                        break 'io;
                    }
                };
                progress += 1;
                *last_rx_tick = tick;
                stats.frames_rx.fetch_add(1, Ordering::Relaxed);
                match frame.ty {
                    msg_type::HELLO if *phase == Phase::AwaitHello => {
                        let x = Xid(*next_xid);
                        *next_xid = next_xid.wrapping_add(1);
                        ring.lock().push_body(x, &OfBody::FeaturesRequest);
                        *phase = Phase::AwaitFeatures;
                    }
                    msg_type::FEATURES_REPLY => {
                        if *phase != Phase::AwaitFeatures {
                            continue;
                        }
                        let claimed_dpid = match frame.message() {
                            Ok(m) => match m.body {
                                OfBody::FeaturesReply { datapath_id, .. } => datapath_id,
                                _ => unreachable!("type/body mismatch"),
                            },
                            Err(_) => {
                                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                *dead = Some("malformed features reply");
                                break 'io;
                            }
                        };
                        let known = controller
                            .kernel()
                            .with_network(|n| n.has_switch(claimed_dpid));
                        if !known || !claimed.insert(claimed_dpid) {
                            *dead = Some("unknown or already-claimed datapath");
                            break 'io;
                        }
                        let egress = Arc::new(ConnEgress {
                            ring: Arc::clone(ring),
                            // Egress xids start in the upper half of the
                            // space; reactor-initiated xids count up from 1.
                            xid: AtomicU32::new(0x8000_0000),
                            shared: Arc::clone(shared),
                        });
                        controller
                            .kernel()
                            .with_network(|n| n.register_wire_egress(claimed_dpid, egress));
                        *dpid = Some(claimed_dpid);
                        *phase = Phase::Ready;
                        stats.handshakes.fetch_add(1, Ordering::Relaxed);
                    }
                    msg_type::ECHO_REQUEST => {
                        // Round-trip the sender's xid and payload verbatim.
                        ring.lock().push_echo_reply(frame.xid, frame.echo_payload());
                    }
                    msg_type::ECHO_REPLY => {
                        if let Some((xid, _)) = *outstanding_echo {
                            if frame.xid == xid && frame.echo_payload() == LIVENESS_PAYLOAD {
                                *outstanding_echo = None;
                            }
                        }
                    }
                    msg_type::PACKET_IN => {
                        let Some(d) = *dpid else { continue };
                        match frame.packet_in() {
                            Ok(view) => {
                                stats.packet_ins.fetch_add(1, Ordering::Relaxed);
                                batch.push((d, view.to_packet_in()));
                            }
                            Err(_) => {
                                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                *dead = Some("malformed packet-in");
                                break 'io;
                            }
                        }
                    }
                    // Switch-originated messages the mediation layer has no
                    // consumer for yet (barriers, stats, errors): tolerated.
                    _ => {}
                }
                if batch.len() >= config.batch_max {
                    controller.deliver_packet_in_batch(std::mem::take(batch));
                }
            }
            match conn.decoder.read_from(&mut conn.stream) {
                Ok(0) => {
                    conn.dead = Some("peer closed");
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = Some("read error");
                    break;
                }
            }
        }
        let unknown = conn.decoder.unknown_skipped();
        stats
            .unknown_skipped
            .fetch_add(unknown - conn.reported_unknown, Ordering::Relaxed);
        conn.reported_unknown = unknown;
        progress
    }

    fn liveness_pass(conn: &mut Conn, tick: u64, config: &SouthboundConfig, stats: &StatsInner) {
        if let Some((_, sent)) = conn.outstanding_echo {
            if tick.saturating_sub(sent) >= config.echo_timeout {
                stats.echo_timeouts.fetch_add(1, Ordering::Relaxed);
                conn.dead = Some("echo liveness timeout");
            }
            return;
        }
        match conn.phase {
            Phase::Ready => {
                if tick.saturating_sub(conn.last_rx_tick) >= config.echo_interval {
                    let xid = conn.next_xid();
                    conn.ring.lock().push_body(
                        xid,
                        &OfBody::EchoRequest(Bytes::from_static(LIVENESS_PAYLOAD)),
                    );
                    conn.outstanding_echo = Some((xid, tick));
                }
            }
            Phase::AwaitHello | Phase::AwaitFeatures => {
                if tick.saturating_sub(conn.opened_tick) >= config.echo_timeout {
                    conn.dead = Some("handshake timeout");
                }
            }
        }
    }

    fn flush_conn(conn: &mut Conn, stats: &StatsInner) {
        let mut ring = conn.ring.lock();
        while !ring.is_empty() {
            match ring.flush(&mut conn.stream) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = Some("write error");
                    break;
                }
            }
        }
        let shed = ring.shed();
        stats
            .shed
            .fetch_add(shed - conn.reported_shed, Ordering::Relaxed);
        conn.reported_shed = shed;
    }

    /// Tears one connection down: deregister its wire egress, reap the
    /// flows on its switch through the kernel seam (journaled, and the
    /// owners' rule quotas released), close the socket. The reap's
    /// flow-removed events are dropped: the reactor has no dispatcher.
    fn close_conn(&mut self, conn: Conn) {
        self.shared.stats.closed.fetch_add(1, Ordering::Relaxed);
        if let Some(dpid) = conn.dpid {
            self.claimed.remove(&dpid);
            let kernel = self.controller.kernel();
            // Reap after deregistration so the delete is not mirrored back
            // onto the (dead) wire.
            kernel.with_network(|n| n.deregister_wire_egress(dpid));
            let _ = kernel.reap_switch(dpid);
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    /// Closes every connection (server shutdown).
    pub fn close_all(&mut self) {
        while let Some(conn) = self.conns.pop() {
            self.close_conn(conn);
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.close_all();
    }
}

/// Handle to a running southbound server thread. Dropping it (or calling
/// [`SouthboundHandle::shutdown`]) stops the reactor and closes every
/// connection.
pub struct SouthboundHandle {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl SouthboundHandle {
    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A copy of the reactor's counters.
    pub fn stats(&self) -> SouthboundStats {
        self.shared.stats.snapshot()
    }

    /// Stops the reactor thread and closes all connections.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::Release);
        // The byte ends the reactor's current or next wait at once.
        self.shared.waker.poke();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SouthboundHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the southbound server on a dedicated reactor thread.
///
/// The thread sweeps with [`Reactor::poll_once`] while sweeps make
/// progress, and blocks in [`Reactor::wait`] after one that found nothing
/// — woken by socket readiness or by egress produced on other threads, and
/// at the latest after a millisecond. The liveness tick is wall-clock time
/// in 200 µs units (see [`SouthboundConfig`]), so probes and timeouts keep
/// their meaning on an idle server and under load alike.
///
/// # Errors
///
/// Propagates listener bind failures.
pub fn spawn_southbound(
    controller: Arc<ShieldedController>,
    addr: &str,
    config: SouthboundConfig,
) -> io::Result<SouthboundHandle> {
    let mut reactor = Reactor::bind(addr, controller, config)?;
    let local_addr = reactor.local_addr();
    let shared = Arc::clone(&reactor.shared);
    let running = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&running);
    let thread = thread::Builder::new()
        .name("southbound-reactor".into())
        .spawn(move || {
            let start = Instant::now();
            while flag.load(Ordering::Acquire) {
                let tick = (start.elapsed().as_nanos() / TICK.as_nanos()) as u64;
                if reactor.poll_once(tick) == 0 {
                    reactor.wait(IDLE_WAIT);
                }
            }
            reactor.close_all();
        })?;
    Ok(SouthboundHandle {
        local_addr,
        running,
        shared,
        thread: Some(thread),
    })
}
