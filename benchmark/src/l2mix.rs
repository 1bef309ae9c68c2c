//! The `l2mix` traffic shared by the three L2 workloads, and the tracker
//! that pairs and verifies the controller's responses.
//!
//! Two switches with 256 hosts each. Every packet-in picks a uniform source
//! host and a different destination host on the same switch; 90 % are
//! unicast TCP-SYN frames, 10 % ARP broadcasts. Once every host has spoken
//! (the warm-up), a unicast packet-in must be answered by one FLOW_MOD on
//! the destination's `eth_dst` **and** one PACKET_OUT to the learned port;
//! a broadcast by one PACKET_OUT to FLOOD.
//!
//! Each frame carries a 32-bit sequence number (TCP `seq` / ARP target
//! address, both at byte [`SEQ_OFFSET`] of the Ethernet frame). The server
//! does not echo xids, so the tracker pairs a PACKET_OUT with its packet-in
//! by reading the sequence number back from the released payload. FLOW_MODs
//! carry no payload; they are identical for a given destination, so each
//! one is credited to the oldest outstanding packet-in for that destination.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::Topology;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, FlowModCommand, PacketIn, PacketInReason, PacketOut};
use sdnshield_openflow::packet::{
    ArpOp, ArpPacket, EthPayload, EthernetFrame, IpPayload, Ipv4Packet, TcpFlags, TcpSegment,
};
use sdnshield_openflow::types::{BufferId, DatapathId, EthAddr, Ipv4, PortNo, Priority};

/// Switches in the mix (datapath ids `1..=SWITCHES`).
pub const SWITCHES: u64 = 2;
/// Hosts attached to each switch.
pub const HOSTS_PER_SWITCH: u16 = 256;
/// Share of unicast packet-ins, per thousand.
pub const UNICAST_PER_MILLE: u64 = 900;
/// Byte offset of the sequence stamp in both frame kinds.
pub const SEQ_OFFSET: usize = 38;
/// Physical ports per switch; host `h` sits on port `1 + h % 48`.
const PORTS: u16 = 64;
/// Flow-table capacity of every simulated switch.
pub const TABLE_CAPACITY: usize = 16_384;

/// SplitMix64: the benchmark's only source of randomness, so the byte
/// stream for a seed does not depend on any product or shim crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` > 0). The modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A fresh simulated network for the mix: the switches, no links, no
/// attached hosts (packet-outs are absorbed, never walked).
pub fn network() -> Network {
    let mut topo = Topology::new();
    for d in 1..=SWITCHES {
        topo.add_switch(DatapathId(d), PORTS);
    }
    Network::new(topo, TABLE_CAPACITY)
}

/// MAC of host `h` on switch `dpid` (locally administered, unicast).
pub fn host_mac(dpid: DatapathId, h: u16) -> EthAddr {
    EthAddr::from_u64(0x0200_0000_0000 | (dpid.0 << 16) | u64::from(h))
}

/// The host a MAC belongs to, if it is one of the mix's hosts on `dpid`.
fn host_of(dpid: DatapathId, mac: EthAddr) -> Option<u16> {
    let v = mac.to_u64();
    let h = (v & 0xffff) as u16;
    (h < HOSTS_PER_SWITCH && host_mac(dpid, h) == mac).then_some(h)
}

/// The host whose learned-destination rule `flow_match` is on `dpid`:
/// exactly `eth_dst = <that host's MAC>`, every other field wild.
pub fn rule_host(dpid: DatapathId, flow_match: &FlowMatch) -> Option<u16> {
    let h = host_of(dpid, flow_match.eth_dst?)?;
    (*flow_match == FlowMatch::default().with_eth_dst(host_mac(dpid, h))).then_some(h)
}

/// Switch port host `h` is attached to.
pub fn host_port(h: u16) -> PortNo {
    PortNo(1 + h % 48)
}

fn host_ip(dpid: DatapathId, h: u16) -> Ipv4 {
    Ipv4::new(10, dpid.0 as u8, (h >> 8) as u8, h as u8)
}

/// One generated packet-in and what the tracker needs to verify its answer.
#[derive(Debug, Clone)]
pub struct PacketSpec {
    /// The sequence number stamped into the frame (never 0).
    pub seq: u32,
    /// The switch the packet-in comes from.
    pub dpid: DatapathId,
    /// Destination host; `None` for a broadcast.
    pub dst: Option<u16>,
    /// The message as the switch sends it.
    pub packet_in: PacketIn,
}

/// Deterministic packet-in source: the same seed yields the same byte
/// stream, whatever the program under test does.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: Rng,
    next_seq: u32,
}

impl Generator {
    /// A generator for `seed`. Panics if the product's frame encoder no
    /// longer puts the stamp where the tracker reads it back.
    pub fn new(seed: u64) -> Self {
        let g = Generator {
            rng: Rng::new(seed),
            next_seq: 1,
        };
        let probe = 0xA1B2_C3D4u32;
        for frame in [
            Self::unicast_frame(DatapathId(1), 0, 1, probe),
            Self::broadcast_frame(DatapathId(1), 0, 1, probe),
        ] {
            let bytes = frame.to_bytes();
            assert_eq!(
                read_seq(&bytes),
                Some(probe),
                "sequence stamp is not at byte {SEQ_OFFSET}"
            );
        }
        g
    }

    fn unicast_frame(dpid: DatapathId, src: u16, dst: u16, seq: u32) -> EthernetFrame {
        EthernetFrame {
            src: host_mac(dpid, src),
            dst: host_mac(dpid, dst),
            vlan: None,
            payload: EthPayload::Ipv4(Ipv4Packet {
                src: host_ip(dpid, src),
                dst: host_ip(dpid, dst),
                ttl: 64,
                tos: 0,
                payload: IpPayload::Tcp(TcpSegment {
                    src_port: 32_768 + src,
                    dst_port: 80,
                    seq,
                    ack: 0,
                    flags: TcpFlags {
                        syn: true,
                        ..TcpFlags::default()
                    },
                    data: Bytes::new(),
                }),
            }),
        }
    }

    fn broadcast_frame(dpid: DatapathId, src: u16, _dst: u16, seq: u32) -> EthernetFrame {
        EthernetFrame {
            src: host_mac(dpid, src),
            dst: EthAddr::BROADCAST,
            vlan: None,
            payload: EthPayload::Arp(ArpPacket {
                op: ArpOp::Request,
                sender_mac: host_mac(dpid, src),
                sender_ip: host_ip(dpid, src),
                target_mac: EthAddr::ZERO,
                // The who-has target doubles as the sequence stamp.
                target_ip: Ipv4(seq),
            }),
        }
    }

    fn take_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("sequence space exhausted");
        s
    }

    fn spec(
        dpid: DatapathId,
        src: u16,
        dst: Option<u16>,
        seq: u32,
        frame: &EthernetFrame,
    ) -> PacketSpec {
        PacketSpec {
            seq,
            dpid,
            dst,
            packet_in: PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                in_port: host_port(src),
                reason: PacketInReason::NoMatch,
                payload: frame.to_bytes(),
            },
        }
    }

    /// Host `h` on `dpid` announces itself with a broadcast — the warm-up
    /// packet that teaches the controller where `h` lives.
    pub fn hello(&mut self, dpid: DatapathId, h: u16) -> PacketSpec {
        let seq = self.take_seq();
        let frame = Self::broadcast_frame(dpid, h, 0, seq);
        Self::spec(dpid, h, None, seq, &frame)
    }

    /// The next packet-in of the mix on switch `dpid`.
    pub fn next_on(&mut self, dpid: DatapathId) -> PacketSpec {
        let n = u64::from(HOSTS_PER_SWITCH);
        let src = self.rng.below(n) as u16;
        // Uniform over the other hosts.
        let dst = ((u64::from(src) + 1 + self.rng.below(n - 1)) % n) as u16;
        let unicast = self.rng.below(1000) < UNICAST_PER_MILLE;
        let seq = self.take_seq();
        if unicast {
            let frame = Self::unicast_frame(dpid, src, dst, seq);
            Self::spec(dpid, src, Some(dst), seq, &frame)
        } else {
            let frame = Self::broadcast_frame(dpid, src, dst, seq);
            Self::spec(dpid, src, None, seq, &frame)
        }
    }
}

/// Reads the sequence stamp back from a frame's bytes.
pub fn read_seq(payload: &[u8]) -> Option<u32> {
    let b = payload.get(SEQ_OFFSET..SEQ_OFFSET + 4)?;
    Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// A packet-in whose answer is complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answered {
    /// Its sequence number.
    pub seq: u32,
    /// When it was sent (harness clock, ns).
    pub sent_ns: u64,
    /// Whether it was a unicast packet-in (answered by two messages).
    pub unicast: bool,
}

/// Counters kept by the [`Tracker`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackStats {
    /// Packet-ins sent.
    pub sent: u64,
    /// Packet-ins fully and correctly answered.
    pub answered: u64,
    /// Unicast packet-ins among `answered`.
    pub unicast_answered: u64,
    /// FLOW_MODs credited to a packet-in.
    pub flow_mods_rx: u64,
    /// PACKET_OUTs credited to a packet-in.
    pub packet_outs_rx: u64,
    /// Packet-ins with a wrong payload, port, action or `eth_dst`.
    pub wrong: u64,
    /// Responses that belong to no outstanding packet-in.
    pub stray: u64,
    /// Packet-ins given up on (unanswered at the deadline).
    pub unanswered: u64,
}

impl TrackStats {
    /// Operations that count as failed.
    pub fn failed(&self) -> u64 {
        self.wrong + self.stray + self.unanswered
    }
}

#[derive(Debug, Clone)]
struct Slot {
    sent_ns: u64,
    dpid: u64,
    dst: Option<u16>,
    in_port: PortNo,
    payload: Bytes,
    got_po: bool,
    got_fm: bool,
    bad: bool,
}

/// Pairs responses with outstanding packet-ins and verifies them.
#[derive(Debug)]
pub struct Tracker {
    /// Outstanding packet-ins by sequence number. A map, not a ring: one
    /// slow packet-in may stay outstanding while the window cycles past it.
    slots: HashMap<u32, Slot>,
    /// Per (switch, destination host): unicast packet-ins still owed a
    /// FLOW_MOD, oldest first.
    fm_wait: Vec<VecDeque<u32>>,
    /// Running counters.
    pub stats: TrackStats,
}

impl Tracker {
    /// A tracker sized for about `max_outstanding` packet-ins in flight.
    pub fn new(max_outstanding: usize) -> Self {
        Tracker {
            slots: HashMap::with_capacity(max_outstanding * 2),
            fm_wait: vec![VecDeque::new(); SWITCHES as usize * HOSTS_PER_SWITCH as usize],
            stats: TrackStats::default(),
        }
    }

    /// Packet-ins sent and not yet answered or given up on.
    pub fn outstanding(&self) -> usize {
        self.slots.len()
    }

    fn wait_index(dpid: u64, h: u16) -> usize {
        (dpid as usize - 1) * HOSTS_PER_SWITCH as usize + h as usize
    }

    /// Records a packet-in as sent at `now_ns`.
    pub fn on_send(&mut self, spec: &PacketSpec, now_ns: u64) {
        let slot = Slot {
            sent_ns: now_ns,
            dpid: spec.dpid.0,
            dst: spec.dst,
            in_port: spec.packet_in.in_port,
            payload: spec.packet_in.payload.clone(),
            got_po: false,
            got_fm: false,
            bad: false,
        };
        let previous = self.slots.insert(spec.seq, slot);
        assert!(previous.is_none(), "sequence number {} reused", spec.seq);
        if let Some(d) = spec.dst {
            self.fm_wait[Self::wait_index(spec.dpid.0, d)].push_back(spec.seq);
        }
        self.stats.sent += 1;
    }

    fn finish(&mut self, seq: u32) -> Option<Answered> {
        let slot = self.slots.get(&seq)?;
        let complete = slot.got_po && (slot.dst.is_none() || slot.got_fm);
        if !complete {
            return None;
        }
        let done = Answered {
            seq,
            sent_ns: slot.sent_ns,
            unicast: slot.dst.is_some(),
        };
        let bad = slot.bad;
        self.slots.remove(&seq);
        if bad {
            self.stats.wrong += 1;
            return None;
        }
        self.stats.answered += 1;
        if done.unicast {
            self.stats.unicast_answered += 1;
        }
        Some(done)
    }

    /// A PACKET_OUT arrived for switch `dpid`.
    pub fn on_packet_out(&mut self, dpid: DatapathId, po: &PacketOut) -> Option<Answered> {
        let Some(seq) = read_seq(&po.payload) else {
            self.stats.stray += 1;
            return None;
        };
        let slot = match self.slots.get_mut(&seq) {
            Some(slot) if slot.dpid == dpid.0 && !slot.got_po => slot,
            _ => {
                self.stats.stray += 1;
                return None;
            }
        };
        let want_port = slot.dst.map_or(PortNo::FLOOD, host_port);
        let ok = po.payload == slot.payload
            && po.in_port == slot.in_port
            && po.actions == ActionList::output(want_port);
        slot.got_po = true;
        slot.bad |= !ok;
        self.stats.packet_outs_rx += 1;
        self.finish(seq)
    }

    /// A FLOW_MOD arrived for switch `dpid`.
    pub fn on_flow_mod(&mut self, dpid: DatapathId, fm: &FlowMod) -> Option<Answered> {
        // A FLOW_MOD on anything but a host's `eth_dst` is credited to the
        // destination it names, if any, and marks that packet-in wrong.
        let host = fm.flow_match.eth_dst.and_then(|mac| host_of(dpid, mac));
        let Some(h) = host else {
            self.stats.stray += 1;
            return None;
        };
        let Some(seq) = self.fm_wait[Self::wait_index(dpid.0, h)].pop_front() else {
            self.stats.stray += 1;
            return None;
        };
        let ok = fm.command == FlowModCommand::Add
            && rule_host(dpid, &fm.flow_match) == Some(h)
            && fm.priority == Priority(100)
            && fm.actions == ActionList::output(host_port(h));
        let slot = self
            .slots
            .get_mut(&seq)
            .expect("a waiting sequence number has a slot");
        slot.got_fm = true;
        slot.bad |= !ok;
        self.stats.flow_mods_rx += 1;
        self.finish(seq)
    }

    /// Gives up on every packet-in sent at or before `cutoff_ns`; each one
    /// counts as unanswered. Returns how many were dropped.
    pub fn expire(&mut self, cutoff_ns: u64) -> u64 {
        let expired: Vec<u32> = self
            .slots
            .iter()
            .filter(|(_, slot)| slot.sent_ns <= cutoff_ns)
            .map(|(seq, _)| *seq)
            .collect();
        for seq in &expired {
            let slot = self.slots.remove(seq).expect("listed above");
            if let Some(d) = slot.dst {
                self.fm_wait[Self::wait_index(slot.dpid, d)].retain(|s| s != seq);
            }
        }
        self.stats.unanswered += expired.len() as u64;
        expired.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<u8> {
        let mut g = Generator::new(seed);
        let mut out = Vec::new();
        for i in 0..n {
            let s = g.next_on(DatapathId(1 + i as u64 % SWITCHES));
            out.extend_from_slice(&s.dpid.0.to_be_bytes());
            out.extend_from_slice(&s.packet_in.in_port.0.to_be_bytes());
            out.extend_from_slice(&s.packet_in.payload);
        }
        out
    }

    #[test]
    fn generator_is_byte_deterministic_per_seed() {
        assert_eq!(stream(7, 500), stream(7, 500));
        assert_ne!(stream(7, 500), stream(8, 500));
    }

    #[test]
    fn mix_is_ninety_percent_unicast_and_never_self_addressed() {
        let mut g = Generator::new(3);
        let mut unicast = 0;
        for _ in 0..20_000 {
            let s = g.next_on(DatapathId(1));
            let frame = EthernetFrame::from_bytes(s.packet_in.payload.clone()).unwrap();
            assert_eq!(read_seq(&s.packet_in.payload), Some(s.seq));
            if let Some(d) = s.dst {
                unicast += 1;
                assert_eq!(frame.dst, host_mac(s.dpid, d));
                assert_ne!(frame.dst, frame.src);
            } else {
                assert!(frame.dst.is_multicast());
            }
        }
        assert!((17_600..=18_400).contains(&unicast), "{unicast}");
    }

    fn answer(spec: &PacketSpec) -> (Option<FlowMod>, PacketOut) {
        let port = spec.dst.map_or(PortNo::FLOOD, host_port);
        let fm = spec.dst.map(|d| {
            FlowMod::add(
                FlowMatch::default().with_eth_dst(host_mac(spec.dpid, d)),
                Priority(100),
                ActionList::output(host_port(d)),
            )
            .with_idle_timeout(60)
        });
        let po = PacketOut {
            buffer_id: BufferId::NO_BUFFER,
            in_port: spec.packet_in.in_port,
            actions: ActionList::output(port),
            payload: spec.packet_in.payload.clone(),
        };
        (fm, po)
    }

    #[test]
    fn pairing_survives_reordered_flow_mods_and_packet_outs() {
        let mut g = Generator::new(11);
        let mut t = Tracker::new(64);
        // Two unicast packet-ins to the SAME destination plus a broadcast.
        let mut a = g.next_on(DatapathId(1));
        while a.dst.is_none() {
            a = g.next_on(DatapathId(1));
        }
        let mut b = g.next_on(DatapathId(1));
        while b.dst != a.dst {
            b = g.next_on(DatapathId(1));
        }
        let c = g.hello(DatapathId(1), 9);
        for (i, s) in [&a, &b, &c].into_iter().enumerate() {
            t.on_send(s, 100 + i as u64);
        }
        let (fm_a, po_a) = answer(&a);
        let (fm_b, po_b) = answer(&b);
        let (_, po_c) = answer(&c);
        // FLOW_MOD first, packet-outs in reverse order, second FLOW_MOD last.
        assert_eq!(t.on_flow_mod(a.dpid, &fm_a.unwrap()), None);
        assert_eq!(t.on_packet_out(b.dpid, &po_b), None);
        let done_c = t.on_packet_out(c.dpid, &po_c).unwrap();
        assert_eq!((done_c.seq, done_c.unicast), (c.seq, false));
        // a is the oldest waiter for the destination: it got the first mod.
        assert_eq!(t.on_packet_out(a.dpid, &po_a).unwrap().seq, a.seq);
        assert_eq!(t.on_flow_mod(b.dpid, &fm_b.unwrap()).unwrap().seq, b.seq);
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.stats.answered, 3);
        assert_eq!(t.stats.unicast_answered, 2);
        assert_eq!(t.stats.flow_mods_rx, 2);
        assert_eq!(t.stats.failed(), 0);
    }

    #[test]
    fn wrong_port_stray_and_unanswered_all_count_as_failures() {
        let mut g = Generator::new(5);
        let mut t = Tracker::new(8);
        let mut a = g.next_on(DatapathId(2));
        while a.dst.is_none() {
            a = g.next_on(DatapathId(2));
        }
        t.on_send(&a, 10);
        let (fm, mut po) = answer(&a);
        po.actions = ActionList::output(PortNo::FLOOD);
        assert_eq!(t.on_packet_out(a.dpid, &po), None);
        assert_eq!(t.on_flow_mod(a.dpid, &fm.clone().unwrap()), None);
        assert_eq!(t.stats.wrong, 1);
        // A second FLOW_MOD for the same destination belongs to nobody.
        assert_eq!(t.on_flow_mod(a.dpid, &fm.unwrap()), None);
        assert_eq!(t.stats.stray, 1);
        let b = g.hello(DatapathId(2), 1);
        t.on_send(&b, 20);
        assert_eq!(t.expire(15), 0);
        assert_eq!(t.expire(20), 1);
        assert_eq!(t.stats.unanswered, 1);
        assert_eq!(t.stats.failed(), 3);
        assert_eq!(t.outstanding(), 0);
    }
}
