//! Property-based tests for the flow-match subsumption algebra and the wire
//! codec — the invariants SDNShield's permission comparison relies on.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use proptest::prelude::*;
use sdnshield_openflow::actions::{Action, ActionList};
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::{
    FlowMod, FlowModCommand, OfBody, OfMessage, PacketIn, PacketInReason,
};
use sdnshield_openflow::packet::{EthernetFrame, TcpFlags};
use sdnshield_openflow::types::{BufferId, Cookie, EthAddr, Ipv4, PortNo, Priority, Xid};
use sdnshield_openflow::wire;

fn arb_masked_ipv4() -> impl Strategy<Value = MaskedIpv4> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| MaskedIpv4::prefix(Ipv4(addr), len))
}

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(0u16..16u16),
        proptest::option::of(any::<u64>()),
        proptest::option::of(any::<u64>()),
        proptest::option::of(prop_oneof![Just(0x0800u16), Just(0x0806u16)]),
        proptest::option::of(arb_masked_ipv4()),
        proptest::option::of(arb_masked_ipv4()),
        proptest::option::of(prop_oneof![Just(6u8), Just(17u8)]),
        proptest::option::of(0u16..1024),
        proptest::option::of(0u16..1024),
    )
        .prop_map(
            |(in_port, eth_src, eth_dst, eth_type, ip_src, ip_dst, ip_proto, tp_src, tp_dst)| {
                FlowMatch {
                    in_port: in_port.map(PortNo),
                    eth_src: eth_src.map(EthAddr::from_u64),
                    eth_dst: eth_dst.map(EthAddr::from_u64),
                    eth_type,
                    vlan_id: None,
                    vlan_pcp: None,
                    ip_src,
                    ip_dst,
                    ip_proto,
                    ip_tos: None,
                    tp_src,
                    tp_dst,
                }
            },
        )
}

/// A match whose every field is absent (`0`), zero (`1`) or one (`2`).
fn tiny_match(f: &[u8]) -> FlowMatch {
    let v = |i: usize| f[i].checked_sub(1);
    FlowMatch {
        in_port: v(0).map(|x| PortNo(x.into())),
        eth_src: v(1).map(|x| EthAddr::from_u64(x.into())),
        eth_dst: v(2).map(|x| EthAddr::from_u64(x.into())),
        eth_type: v(3).map(u16::from),
        vlan_id: v(4).map(u16::from),
        vlan_pcp: v(5),
        ip_src: v(6).map(|x| MaskedIpv4::exact(Ipv4(x.into()))),
        ip_dst: v(7).map(|x| MaskedIpv4::prefix(Ipv4(x.into()), 8 * x)),
        ip_proto: v(8),
        ip_tos: v(9),
        tp_src: v(10).map(u16::from),
        tp_dst: v(11).map(u16::from),
    }
}

fn hash_of(m: &FlowMatch) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

fn arb_frame() -> impl Strategy<Value = (PortNo, EthernetFrame)> {
    (
        0u16..16,
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        0u16..1024,
        0u16..1024,
    )
        .prop_map(|(port, smac, dmac, sip, dip, sport, dport)| {
            (
                PortNo(port),
                EthernetFrame::tcp(
                    EthAddr::from_u64(smac),
                    EthAddr::from_u64(dmac),
                    Ipv4(sip),
                    Ipv4(dip),
                    sport,
                    dport,
                    TcpFlags::default(),
                    Bytes::new(),
                ),
            )
        })
}

proptest! {
    /// Subsumption is reflexive.
    /// The packed `Hash` agrees with `Eq`, and `None` against `Some(0)`
    /// stays two distinct matches with (presence bits) distinct hashes.
    #[test]
    fn packed_hash_agrees_with_eq(
        f in proptest::collection::vec(0u8..3, 12..13),
        flip in proptest::option::of(0usize..12),
        field in 0usize..12,
    ) {
        let mut g = f.clone();
        if let Some(i) = flip {
            g[i] = (g[i] + 1) % 3;
        }
        let (a, b) = (tiny_match(&f), tiny_match(&g));
        prop_assert_eq!(a == b, flip.is_none());
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        let (mut absent, mut zero) = (f.clone(), f);
        absent[field] = 0;
        zero[field] = 1;
        let (absent, zero) = (tiny_match(&absent), tiny_match(&zero));
        prop_assert_ne!(&absent, &zero);
        prop_assert_ne!(hash_of(&absent), hash_of(&zero));
    }

    #[test]
    fn subsumes_reflexive(m in arb_match()) {
        prop_assert!(m.subsumes(&m));
    }

    /// Subsumption is transitive.
    #[test]
    fn subsumes_transitive(a in arb_match(), b in arb_match(), c in arb_match()) {
        if a.subsumes(&b) && b.subsumes(&c) {
            prop_assert!(a.subsumes(&c));
        }
    }

    /// The wildcard match subsumes everything.
    #[test]
    fn any_subsumes_all(m in arb_match()) {
        prop_assert!(FlowMatch::any().subsumes(&m));
    }

    /// Semantic soundness: if `a` subsumes `b` and a packet matches `b`,
    /// it must match `a` too.
    #[test]
    fn subsumption_sound_on_packets(a in arb_match(), b in arb_match(), f in arb_frame()) {
        let (port, frame) = f;
        if a.subsumes(&b) && b.matches_frame(port, &frame) {
            prop_assert!(a.matches_frame(port, &frame));
        }
    }

    /// Overlap is symmetric and implied by subsumption.
    #[test]
    fn overlap_symmetric(a in arb_match(), b in arb_match()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        if a.subsumes(&b) {
            prop_assert!(a.overlaps(&b));
        }
    }

    /// A packet matched by both matches is a witness of overlap.
    #[test]
    fn overlap_sound_on_packets(a in arb_match(), b in arb_match(), f in arb_frame()) {
        let (port, frame) = f;
        if a.matches_frame(port, &frame) && b.matches_frame(port, &frame) {
            prop_assert!(a.overlaps(&b));
        }
    }

    /// Intersection is the greatest lower bound: both operands subsume it,
    /// and a packet matching both operands matches the intersection.
    #[test]
    fn intersect_is_glb(a in arb_match(), b in arb_match(), f in arb_frame()) {
        let (port, frame) = f;
        match a.intersect(&b) {
            Some(i) => {
                prop_assert!(a.subsumes(&i), "a={a} i={i}");
                prop_assert!(b.subsumes(&i), "b={b} i={i}");
                prop_assert_eq!(
                    i.matches_frame(port, &frame),
                    a.matches_frame(port, &frame) && b.matches_frame(port, &frame)
                );
            }
            None => {
                // Disjoint: no packet may match both.
                prop_assert!(!(a.matches_frame(port, &frame) && b.matches_frame(port, &frame)));
            }
        }
    }

    /// Masked-set inclusion agrees with pointwise membership.
    #[test]
    fn masked_inclusion_sound(a in arb_masked_ipv4(), b in arb_masked_ipv4(), ip in any::<u32>()) {
        if a.includes(&b) && b.matches(Ipv4(ip)) {
            prop_assert!(a.matches(Ipv4(ip)));
        }
    }

    /// Wire codec round-trips arbitrary flow-mods.
    #[test]
    fn wire_roundtrip_flow_mod(
        m in arb_match(),
        prio in any::<u16>(),
        cookie in any::<u64>(),
        out_port in 0u16..64,
        idle in any::<u16>(),
        cmd in 0u8..5,
    ) {
        let command = match cmd {
            0 => FlowModCommand::Add,
            1 => FlowModCommand::Modify,
            2 => FlowModCommand::ModifyStrict,
            3 => FlowModCommand::Delete,
            _ => FlowModCommand::DeleteStrict,
        };
        let fm = FlowMod {
            command,
            flow_match: m,
            priority: Priority(prio),
            actions: ActionList(vec![Action::Output(PortNo(out_port))]),
            cookie: Cookie(cookie),
            idle_timeout: idle,
            hard_timeout: 0,
            notify_when_removed: true,
        };
        let msg = OfMessage::new(Xid(1), OfBody::FlowMod(fm));
        prop_assert_eq!(wire::decode(wire::encode(&msg)).unwrap(), msg);
    }

    /// Wire codec round-trips packet-ins with arbitrary payloads.
    #[test]
    fn wire_roundtrip_packet_in(payload in proptest::collection::vec(any::<u8>(), 0..256), port in any::<u16>()) {
        let msg = OfMessage::new(Xid(9), OfBody::PacketIn(PacketIn {
            buffer_id: BufferId::NO_BUFFER,
            in_port: PortNo(port),
            reason: PacketInReason::NoMatch,
            payload: Bytes::from(payload),
        }));
        prop_assert_eq!(wire::decode(wire::encode(&msg)).unwrap(), msg);
    }

    /// Packet serialization round-trips TCP frames.
    #[test]
    fn packet_roundtrip(f in arb_frame()) {
        let (_, frame) = f;
        prop_assert_eq!(EthernetFrame::from_bytes(frame.to_bytes()).unwrap(), frame);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn wire_decode_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = wire::decode(Bytes::from(junk));
    }

    /// Packet parsing of arbitrary garbage never panics.
    #[test]
    fn packet_parse_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = EthernetFrame::from_bytes(Bytes::from(junk));
    }
}
