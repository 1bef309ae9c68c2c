//! The southbound reactor waits for readiness instead of sleeping: it
//! blocks in `poll(2)` between sweeps and is woken by socket readiness or
//! by egress queued on other threads. These tests pin the two halves of
//! that contract: an idle (or stalled) server burns no core, and no queued
//! FLOW_MOD ever waits for a timeout to be flushed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sdnshield::controller::southbound::{
    spawn_southbound, Reactor, SouthboundConfig, SouthboundHandle,
};
use sdnshield::controller::ShieldedController;
use sdnshield::core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield::core::parse_manifest;
use sdnshield::netsim::network::Network;
use sdnshield::netsim::topology::builders;
use sdnshield::openflow::actions::ActionList;
use sdnshield::openflow::flow_match::FlowMatch;
use sdnshield::openflow::messages::{FlowMod, PacketOut};
use sdnshield::openflow::types::{BufferId, DatapathId, PortNo, Priority};
use sdnshield::wirebench::{SwitchConn, WireEvent};

const DPID: DatapathId = DatapathId(1);
const PUSHER: AppId = AppId(77);

/// A controller with no apps, in CBench mode (packet-outs go to the wire
/// only), whose kernel knows `PUSHER` as an app allowed to insert flows and
/// send packet-outs.
fn controller() -> Arc<ShieldedController> {
    let c = Arc::new(ShieldedController::new(
        Network::new(builders::linear(1), 4096),
        1,
    ));
    c.kernel().set_absorb_packet_outs(true);
    let manifest = parse_manifest("PERM insert_flow\nPERM send_pkt_out").unwrap();
    c.kernel()
        .register_app(PUSHER, "pusher", &manifest)
        .unwrap();
    c
}

/// Executes one `SendPacketOut` of a `len`-byte payload as `PUSHER`.
fn send_packet_out(c: &ShieldedController, len: usize) {
    let packet_out = PacketOut {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo::NONE,
        actions: ActionList::output(PortNo(1)),
        payload: Bytes::from(vec![0u8; len]),
    };
    let call = ApiCall::new(
        PUSHER,
        ApiCallKind::SendPacketOut {
            dpid: DPID,
            packet_out,
        },
    );
    c.kernel().execute(&call).0.expect("send_pkt_out granted");
}

/// Executes one `InsertFlow` as `PUSHER` on `DPID`.
fn insert_flow(c: &ShieldedController, tp_dst: u16) {
    let flow_mod = FlowMod::add(
        FlowMatch::default().with_tp_dst(tp_dst),
        Priority(10),
        ActionList::output(PortNo(1)),
    );
    let call = ApiCall::new(
        PUSHER,
        ApiCallKind::InsertFlow {
            dpid: DPID,
            flow_mod,
        },
    );
    c.kernel().execute(&call).0.expect("insert_flow granted");
}

/// CPU time (user + system, in clock ticks of 10 ms) the spawned reactor
/// thread has used so far. Reading that one task keeps tests running in
/// parallel out of the number.
fn reactor_cpu_ticks() -> u64 {
    let mut found = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if comm.trim_end() != "southbound-reac" {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).unwrap();
        // Fields after the parenthesised name start at field 3 (state);
        // utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
            .split_whitespace()
            .collect();
        let utime: u64 = fields[11].parse().unwrap();
        let stime: u64 = fields[12].parse().unwrap();
        found.push(utime + stime);
    }
    assert_eq!(found.len(), 1, "exactly one reactor thread must be running");
    found[0]
}

/// Share of one core the reactor thread uses over the next second.
fn reactor_core_share_over_1s() -> f64 {
    let before = reactor_cpu_ticks();
    thread::sleep(Duration::from_secs(1));
    // Clock ticks are 10 ms on Linux (USER_HZ = 100).
    (reactor_cpu_ticks() - before) as f64 * 0.010
}

/// Whether the 64 KiB write ring of the server's one connection is still
/// more than half full after the reactor has had 10 ms to flush it: a
/// 32 KiB packet-out is then shed. The reactor counts the shed at its next
/// sweep, a millisecond later at most.
fn ring_stays_full(c: &ShieldedController, handle: &SouthboundHandle) -> bool {
    thread::sleep(Duration::from_millis(10));
    let before = handle.stats().shed;
    send_packet_out(c, 32 << 10);
    thread::sleep(Duration::from_millis(5));
    handle.stats().shed > before
}

/// One spawned server at a time (the CPU probe finds the reactor by thread
/// name): first with one Ready but silent connection, then with a peer that
/// never reads while its socket and write ring fill up.
#[test]
fn idle_and_stalled_reactor_burns_no_core() {
    let c = controller();
    let handle = spawn_southbound(Arc::clone(&c), "127.0.0.1:0", SouthboundConfig::default())
        .expect("bind loopback listener");
    let conn = SwitchConn::connect(handle.local_addr(), DPID, Duration::from_secs(5)).unwrap();
    let idle = reactor_core_share_over_1s();
    assert!(
        idle < 0.05,
        "idle reactor used {:.0} % of a core",
        idle * 100.0
    );
    drop(conn);
    handle.shutdown();
    c.shutdown();

    let c = controller();
    // The peer never answers liveness probes either; it must stay
    // connected however long the fill takes.
    let config = SouthboundConfig {
        write_ring_capacity: 64 << 10,
        echo_interval: u64::MAX,
        echo_timeout: u64::MAX,
        ..SouthboundConfig::default()
    };
    let handle = spawn_southbound(Arc::clone(&c), "127.0.0.1:0", config).unwrap();
    let stalled = SwitchConn::connect(handle.local_addr(), DPID, Duration::from_secs(5)).unwrap();
    // Execute flow-mods and 32 KiB packet-outs for the silent peer until
    // its socket buffers and then its ring are full. Loopback lets the
    // buffers keep growing, so a window in which they drained the ring
    // proves nothing: fill more and measure again. Nothing is queued
    // during a window, so a ring still full at its end was never empty.
    let mut bulks = 0;
    let share = loop {
        while !ring_stays_full(&c, &handle) {
            assert!(bulks < 500, "the peer's socket never filled");
            for i in 0..1_000 {
                insert_flow(&c, i);
            }
            for _ in 0..64 {
                send_packet_out(&c, 32 << 10);
            }
            bulks += 1;
        }
        let share = reactor_core_share_over_1s();
        if ring_stays_full(&c, &handle) {
            break share;
        }
    };
    eprintln!(
        "reactor core share: idle {:.1} %, stalled peer (after {bulks} bulks) {:.1} %",
        idle * 100.0,
        share * 100.0
    );
    assert!(
        share < 0.05,
        "reactor with a stalled peer used {:.0} % of a core",
        share * 100.0
    );
    drop(stalled);
    handle.shutdown();
    c.shutdown();
}

/// A reactor driven by hand with a 10 s wait: every FLOW_MOD executed on
/// another thread must still reach the client at once. A lost wake-up
/// shows as a 10 s stall.
#[test]
fn egress_wakes_a_waiting_reactor_every_time() {
    let c = controller();
    let config = SouthboundConfig {
        echo_interval: u64::MAX,
        echo_timeout: u64::MAX,
        ..SouthboundConfig::default()
    };
    let mut reactor = Reactor::bind("127.0.0.1:0", Arc::clone(&c), config).unwrap();
    let addr = reactor.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let reactor_thread = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut tick = 0;
            while !stop.load(Ordering::SeqCst) {
                tick += 1;
                if reactor.poll_once(tick) == 0 {
                    reactor.wait(Duration::from_secs(10));
                }
            }
            reactor.close_all();
        })
    };
    let mut conn = SwitchConn::connect(addr, DPID, Duration::from_secs(5)).unwrap();
    // The egress is registered once the reactor has read the handshake.
    let deadline = Instant::now() + Duration::from_secs(5);
    while c.kernel().with_network(|n| n.wire_egress_count()) == 0 {
        assert!(Instant::now() < deadline, "handshake never completed");
        thread::yield_now();
    }
    let mut slowest = Duration::ZERO;
    for i in 0..2_000u16 {
        let t = Instant::now();
        insert_flow(&c, i);
        let event = conn.recv_event().expect("FLOW_MOD within the read timeout");
        assert!(matches!(event, WireEvent::FlowMod(_)), "got {event:?}");
        slowest = slowest.max(t.elapsed());
    }
    assert!(
        slowest < Duration::from_secs(1),
        "a FLOW_MOD waited {slowest:?}: a wake-up was lost"
    );
    stop.store(true, Ordering::SeqCst);
    // Closing the client makes the reactor's socket readable: it wakes,
    // sees the stop flag, and exits.
    drop(conn);
    reactor_thread.join().unwrap();
    c.shutdown();
}
