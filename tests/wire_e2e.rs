//! End-to-end tests for the southbound wire path over loopback TCP: the
//! HELLO/FEATURES handshake, PACKET_INs flowing through the full mediation
//! pipeline (deputy, permission engine, audit, decision trace), echo
//! liveness with flow reaping, and tolerance of unknown message types.
//!
//! The liveness and tolerance tests drive `Reactor::poll_once` directly so
//! the virtual clock is deterministic; the mediation test uses the spawned
//! reactor thread exactly as production does.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sdnshield::controller::audit::AuditOutcome;
use sdnshield::controller::southbound::{Reactor, SouthboundConfig, LIVENESS_PAYLOAD};
use sdnshield::openflow::messages::{OfBody, OfMessage, PacketIn, PacketInReason};
use sdnshield::openflow::southbound::StreamDecoder;
use sdnshield::openflow::types::{BufferId, DatapathId, PortNo, Xid};
use sdnshield::openflow::wire::{self, msg_type, HEADER_LEN, WIRE_VERSION};
use sdnshield::wirebench::{serve_l2, SwitchConn, WireEvent};

fn arp_packet_in() -> PacketIn {
    use sdnshield::openflow::packet::EthernetFrame;
    use sdnshield::openflow::types::{EthAddr, Ipv4};
    // A broadcast ARP who-has, built by the same frame codec the data plane
    // parses — the L2 app floods it (one PACKET_OUT, no FLOW_MOD).
    let frame = EthernetFrame::arp_request(
        EthAddr::from_u64(0x02_00_00_00_00_01),
        Ipv4::new(10, 0, 0, 1),
        Ipv4::new(10, 0, 0, 2),
    );
    PacketIn {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo(1),
        reason: PacketInReason::NoMatch,
        payload: frame.to_bytes(),
    }
}

/// Raw frame writer for the deterministic tests: encode and push a body
/// with an explicit xid straight onto the socket.
fn send_raw(stream: &mut TcpStream, xid: u32, body: &OfBody) {
    let mut buf = Vec::new();
    wire::encode_into(&OfMessage::new(Xid(xid), body.clone()), &mut buf);
    stream.write_all(&buf).expect("socket write");
}

/// Pumps `poll_once` until the decoder yields a frame or `max_ticks` pass.
fn pump_until_frame(
    reactor: &mut Reactor,
    tick: &mut u64,
    stream: &mut TcpStream,
    dec: &mut StreamDecoder,
    max_ticks: u64,
) -> Option<(u8, Xid, Vec<u8>)> {
    let deadline = Instant::now() + Duration::from_secs(10);
    for _ in 0..max_ticks {
        *tick += 1;
        reactor.poll_once(*tick);
        match dec.read_from(stream) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Nothing on the wire yet — block until the reactor has
                // work: the app/deputy threads that produce the response
                // wake it when they queue egress.
                reactor.wait(Duration::from_millis(10));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => panic!("socket read: {e}"),
        }
        if let Some(f) = dec.next_frame().expect("valid stream") {
            return Some((f.ty, f.xid, f.body.to_vec()));
        }
        if Instant::now() > deadline {
            break;
        }
    }
    None
}

/// Deterministic fixture: a served L2 controller with the reactor polled by
/// hand, plus one raw connection that has completed the handshake.
fn handshaken_raw_conn(
    config: SouthboundConfig,
) -> (
    Arc<sdnshield::controller::ShieldedController>,
    Reactor,
    u64,
    TcpStream,
    StreamDecoder,
) {
    use sdnshield::apps::{L2LearningSwitch, L2_MANIFEST};
    use sdnshield::core::parse_manifest;
    use sdnshield::netsim::network::Network;
    use sdnshield::netsim::topology::builders;

    let network = Network::new(builders::linear(2), 1024);
    let controller = Arc::new(sdnshield::controller::ShieldedController::new(network, 2));
    controller.kernel().set_absorb_packet_outs(true);
    controller
        .register(
            Box::new(L2LearningSwitch::new()),
            &parse_manifest(L2_MANIFEST).unwrap(),
        )
        .unwrap();
    let mut reactor = Reactor::bind("127.0.0.1:0", Arc::clone(&controller), config).unwrap();
    let addr = reactor.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_nonblocking(true).unwrap();
    let mut dec = StreamDecoder::new();
    let mut tick = 0u64;

    send_raw(&mut stream, 1, &OfBody::Hello);
    // The reactor greets with its own HELLO before the FEATURES_REQUEST.
    let xid = loop {
        let (ty, xid, _) = pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 1000)
            .expect("server FEATURES_REQUEST");
        if ty == msg_type::FEATURES_REQUEST {
            break xid;
        }
        assert_eq!(ty, msg_type::HELLO, "unexpected pre-handshake frame {ty}");
    };
    send_raw(
        &mut stream,
        xid.0,
        &OfBody::FeaturesReply {
            datapath_id: DatapathId(1),
            ports: vec![PortNo(1), PortNo(2)],
            table_capacity: 1024,
        },
    );
    // Let the reactor ingest the reply and register the wire egress.
    for _ in 0..50 {
        tick += 1;
        reactor.poll_once(tick);
        if reactor.stats().handshakes == 1 {
            break;
        }
    }
    assert_eq!(reactor.stats().handshakes, 1, "handshake must complete");
    assert_eq!(
        controller.kernel().with_network(|n| n.wire_egress_count()),
        1
    );
    (controller, reactor, tick, stream, dec)
}

/// Socket PACKET_INs must cross the same mediation seams as in-process
/// ones: permission-checked in a deputy, audited, decision-traced, and the
/// app's PACKET_OUT must come back over the same socket.
#[test]
fn packet_in_over_wire_is_mediated_and_answered() {
    let (controller, handle) = serve_l2("127.0.0.1:0", 2, 2, SouthboundConfig::default()).unwrap();
    controller.kernel().enable_decision_trace();

    let mut conn =
        SwitchConn::connect(handle.local_addr(), DatapathId(1), Duration::from_secs(5)).unwrap();
    conn.send_packet_in(&arp_packet_in()).unwrap();
    let ev = conn.recv_event().unwrap();
    assert!(
        ev.is_response(),
        "expected a mediated FLOW_MOD/PACKET_OUT, got {ev:?}"
    );

    // The response was produced by the permission pipeline, not a bypass:
    // the audit log holds an allowed send_packet_out and the decision trace
    // recorded the check.
    let records = controller.kernel().audit_records();
    let sent = records
        .iter()
        .filter(|r| r.operation == "send_packet_out" && matches!(r.outcome, AuditOutcome::Allowed))
        .count();
    assert!(sent >= 1, "no audited send_packet_out in {records:?}");
    let trace = controller.kernel().take_decision_trace();
    assert!(!trace.is_empty(), "decision trace must record the check");

    let stats = handle.stats();
    assert_eq!(stats.handshakes, 1);
    assert!(stats.packet_ins >= 1);
    assert!(stats.packet_outs_tx >= 1);
    assert_eq!(stats.protocol_errors, 0);

    drop(conn);
    handle.shutdown();
    controller.shutdown();
}

/// ECHO_REQUEST from the switch: the reply must mirror xid and payload
/// verbatim.
#[test]
fn echo_round_trips_xid_and_payload_verbatim() {
    let (controller, mut reactor, mut tick, mut stream, mut dec) =
        handshaken_raw_conn(SouthboundConfig::default());

    let payload = b"\x00\xffopaque probe \x7f".to_vec();
    send_raw(
        &mut stream,
        0xDEAD_BEEF,
        &OfBody::EchoRequest(Bytes::from(payload.clone())),
    );
    let (ty, xid, body) =
        pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 1000).expect("echo reply");
    assert_eq!(ty, msg_type::ECHO_REPLY);
    assert_eq!(xid, Xid(0xDEAD_BEEF));
    assert_eq!(body, payload);

    reactor.close_all();
    controller.shutdown();
}

/// A switch that stops answering liveness probes is declared dead after
/// `echo_timeout` virtual ticks, its wire egress is deregistered, and its
/// flows are reaped.
#[test]
fn echo_liveness_timeout_reaps_connection_and_flows() {
    let config = SouthboundConfig {
        echo_interval: 10,
        echo_timeout: 40,
        ..SouthboundConfig::default()
    };
    let (controller, mut reactor, mut tick, mut stream, mut dec) = handshaken_raw_conn(config);
    let journal = Arc::new(sdnshield::controller::journal::Journal::in_memory());
    controller.attach_journal(Arc::clone(&journal));

    // Give the dead-switch-to-be a flow so the reap is observable.
    use sdnshield::openflow::actions::{Action, ActionList};
    use sdnshield::openflow::flow_match::FlowMatch;
    use sdnshield::openflow::messages::FlowMod;
    let dpid = DatapathId(1);
    controller.kernel().with_network(|n| {
        let fm = FlowMod::add(
            FlowMatch::any(),
            sdnshield::openflow::types::Priority(10),
            ActionList(vec![Action::Output(PortNo(2))]),
        );
        n.apply_flow_mod(dpid, &fm).unwrap();
    });
    assert_eq!(controller.kernel().flow_count(dpid), 1);

    // Idle past echo_interval: the server must probe with its liveness
    // payload. The mirrored FLOW_MOD from the install above arrives first —
    // proof the egress mirror covers direct network writes too.
    let mut saw_flow_mod = false;
    let body = loop {
        let (ty, _, body) = pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 200)
            .expect("liveness probe");
        match ty {
            msg_type::ECHO_REQUEST => break body,
            msg_type::FLOW_MOD => saw_flow_mod = true,
            other => panic!("unexpected frame type {other}"),
        }
    };
    assert!(saw_flow_mod, "flow install must be mirrored to the wire");
    assert_eq!(body, LIVENESS_PAYLOAD);

    // ...and when the switch never answers, the connection dies after the
    // timeout, the egress deregisters, and the flows are reaped.
    for _ in 0..200 {
        tick += 1;
        reactor.poll_once(tick);
        if reactor.connections() == 0 {
            break;
        }
    }
    assert_eq!(reactor.connections(), 0, "dead switch must be reaped");
    assert_eq!(reactor.stats().echo_timeouts, 1);
    assert_eq!(
        controller.kernel().with_network(|n| n.wire_egress_count()),
        0
    );
    assert_eq!(
        controller.kernel().flow_count(dpid),
        0,
        "flows must be reaped"
    );
    assert!(
        journal
            .trace()
            .iter()
            .any(|r| r.cmd.name() == "reap_switch"),
        "the reap must go through the seam, so a recovered kernel agrees"
    );

    reactor.close_all();
    controller.shutdown();
}

/// Unknown message types mid-stream are length-skipped and counted; the
/// connection keeps working.
#[test]
fn unknown_message_types_are_skipped_not_fatal() {
    let (controller, mut reactor, mut tick, mut stream, mut dec) =
        handshaken_raw_conn(SouthboundConfig::default());

    // A future/vendor frame the codec has no variant for.
    let mut junk = Vec::new();
    junk.push(WIRE_VERSION);
    junk.push(0xC8);
    junk.extend_from_slice(&((HEADER_LEN + 5) as u16).to_be_bytes());
    junk.extend_from_slice(&0x1234_5678u32.to_be_bytes());
    junk.extend_from_slice(b"weird");
    stream.write_all(&junk).unwrap();

    // Followed by a live packet-in, which must still be mediated.
    send_raw(&mut stream, 7, &OfBody::PacketIn(arp_packet_in()));
    let (ty, _, _) = pump_until_frame(&mut reactor, &mut tick, &mut stream, &mut dec, 1000)
        .expect("mediated response after junk");
    assert_eq!(ty, msg_type::PACKET_OUT);

    let stats = reactor.stats();
    assert_eq!(stats.unknown_skipped, 1);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(reactor.connections(), 1, "connection must survive junk");

    reactor.close_all();
    controller.shutdown();
}

/// The wirebench client surfaces responses correctly (guards the harness
/// the benchmark numbers depend on).
#[test]
fn wirebench_events_classify_responses() {
    assert!(WireEvent::FlowMod(Xid(1)).is_response());
    assert!(WireEvent::PacketOut(Xid(2)).is_response());
    assert!(!WireEvent::Other(msg_type::HELLO, Xid(3)).is_response());
}
