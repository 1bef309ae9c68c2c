//! The L2 learning switch — the paper's first end-to-end evaluation
//! scenario (§IX-A): "learns host position and generates switching rules by
//! listening to OpenFlow packet-ins containing ARP packets".

use std::collections::HashMap;

use sdnshield_controller::api::FlowOp;
use sdnshield_controller::app::{App, AppCtx, BurstOutput};
use sdnshield_controller::events::Event;
use sdnshield_core::api::EventKind;
use sdnshield_core::token::PermissionToken;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, PacketIn, PacketOut};
use sdnshield_openflow::packet::EthernetFrame;
use sdnshield_openflow::types::{BufferId, DatapathId, EthAddr, PortNo, Priority};

/// The canonical permission manifest for the learning switch, in the
/// SDNShield permission language.
pub const L2_MANIFEST: &str = "\
PERM pkt_in_event
PERM read_payload
PERM insert_flow
PERM send_pkt_out
";

/// A per-switch MAC learning table plus reactive rule installation.
#[derive(Debug, Default)]
pub struct L2LearningSwitch {
    /// (switch, MAC) → port where the MAC was last seen.
    mac_table: HashMap<(DatapathId, EthAddr), PortNo>,
    /// Rules installed (for tests/benches).
    rules_installed: u64,
    /// Packets flooded.
    floods: u64,
}

impl L2LearningSwitch {
    /// A fresh learning switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rules installed so far.
    pub fn rules_installed(&self) -> u64 {
        self.rules_installed
    }

    /// Number of learned (switch, MAC) locations.
    pub fn learned(&self) -> usize {
        self.mac_table.len()
    }

    /// Learns the source and decides the reaction to one packet-in: the
    /// forwarding rule to install (known unicast destination only) plus the
    /// packet-out that releases the packet. `None` for unparseable frames.
    fn react(
        &mut self,
        dpid: DatapathId,
        packet_in: &PacketIn,
    ) -> Option<(Option<FlowMod>, PacketOut)> {
        let frame = EthernetFrame::from_bytes(packet_in.payload.clone()).ok()?;
        // Learn the source location.
        self.mac_table.insert((dpid, frame.src), packet_in.in_port);
        // Known destination: install a forwarding rule and release the
        // packet; unknown: flood.
        let out_port = if frame.dst.is_multicast() {
            None
        } else {
            self.mac_table.get(&(dpid, frame.dst)).copied()
        };
        Some(match out_port {
            Some(port) => {
                let fm = FlowMod::add(
                    FlowMatch::default().with_eth_dst(frame.dst),
                    Priority(100),
                    ActionList::output(port),
                )
                .with_idle_timeout(60);
                (
                    Some(fm),
                    PacketOut {
                        buffer_id: BufferId::NO_BUFFER,
                        in_port: packet_in.in_port,
                        actions: ActionList::output(port),
                        payload: packet_in.payload.clone(),
                    },
                )
            }
            None => {
                self.floods += 1;
                (
                    None,
                    PacketOut {
                        buffer_id: BufferId::NO_BUFFER,
                        in_port: packet_in.in_port,
                        actions: ActionList::output(PortNo::FLOOD),
                        payload: packet_in.payload.clone(),
                    },
                )
            }
        })
    }
}

impl App for L2LearningSwitch {
    fn name(&self) -> &str {
        "l2-learning"
    }

    fn required_tokens(&self) -> Vec<PermissionToken> {
        vec![
            PermissionToken::PktInEvent,
            PermissionToken::ReadPayload,
            PermissionToken::InsertFlow,
            PermissionToken::SendPktOut,
        ]
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        ctx.subscribe(EventKind::PacketIn)
            .expect("pkt_in_event granted");
    }

    fn on_event(&mut self, ctx: &AppCtx, event: &Event) {
        let Event::PacketIn { dpid, packet_in } = event else {
            return;
        };
        let Some((flow_mod, packet_out)) = self.react(*dpid, packet_in) else {
            return;
        };
        if let Some(fm) = flow_mod {
            if ctx.insert_flow(*dpid, fm).is_ok() {
                self.rules_installed += 1;
            }
        }
        let _ = ctx.send_packet_out(*dpid, packet_out);
    }

    /// Vectored delivery: one wake-up carries a burst of packet-ins. The
    /// packet-outs releasing each packet (in arrival order) and the
    /// forwarding rules for the whole burst are returned; the runtime
    /// applies them as this app, packet-outs first and the rules as one
    /// atomic batch, with no deputy crossing (see [`App::on_events`]).
    fn on_events(&mut self, _ctx: &AppCtx, events: &[&Event]) -> BurstOutput {
        let mut out = BurstOutput::default();
        for event in events {
            let Event::PacketIn { dpid, packet_in } = event else {
                continue;
            };
            let Some((flow_mod, packet_out)) = self.react(*dpid, packet_in) else {
                continue;
            };
            if let Some(flow_mod) = flow_mod {
                // Counted at emission: the runtime applies the batch as this
                // app, and L2's manifest grants insert_flow unconditionally.
                self.rules_installed += 1;
                out.flow_ops.push(FlowOp {
                    dpid: *dpid,
                    flow_mod,
                });
            }
            out.packet_outs.push((*dpid, packet_out));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnshield_controller::isolation::ShieldedController;
    use sdnshield_controller::monolithic::MonolithicController;
    use sdnshield_core::lang::parse_manifest;
    use sdnshield_netsim::network::Network;
    use sdnshield_netsim::topology::builders;
    use sdnshield_openflow::types::Ipv4;

    fn arp_request(src: u64, target_ip: Ipv4) -> EthernetFrame {
        EthernetFrame::arp_request(
            EthAddr::from_u64(src),
            Ipv4::new(10, 0, 0, src as u8),
            target_ip,
        )
    }

    /// A unicast ARP reply from `src` to `dst` — the frame whose known
    /// destination triggers rule installation.
    fn arp_reply(src: u64, dst: u64) -> EthernetFrame {
        use sdnshield_openflow::packet::{ArpOp, ArpPacket, EthPayload};
        EthernetFrame {
            src: EthAddr::from_u64(src),
            dst: EthAddr::from_u64(dst),
            vlan: None,
            payload: EthPayload::Arp(ArpPacket {
                op: ArpOp::Reply,
                sender_mac: EthAddr::from_u64(src),
                sender_ip: Ipv4::new(10, 0, 0, src as u8),
                target_mac: EthAddr::from_u64(dst),
                target_ip: Ipv4::new(10, 0, 0, dst as u8),
            }),
        }
    }

    #[test]
    fn learns_and_installs_on_shielded_controller() {
        let c = ShieldedController::new(Network::new(builders::linear(2), 1024), 4);
        c.register(
            Box::new(L2LearningSwitch::new()),
            &parse_manifest(L2_MANIFEST).unwrap(),
        )
        .unwrap();
        // Host 1 ARPs for host 2: broadcast → flooded; the flood traverses
        // s2, whose packet-in teaches the app h1's location at s2.
        c.inject_host_frame(arp_request(1, Ipv4::new(10, 0, 0, 2)));
        c.quiesce();
        // Host 2's unicast reply: dst h1 is known at s2 → rule installed.
        c.inject_host_frame(arp_reply(2, 1));
        c.quiesce();
        let installed = c.kernel().flow_count(DatapathId(2));
        assert!(
            installed >= 1,
            "expected a learned rule on s2, got {installed}"
        );
        c.shutdown();
    }

    #[test]
    fn identical_behavior_on_monolithic_controller() {
        let c = MonolithicController::new(Network::new(builders::linear(2), 1024));
        c.register(
            Box::new(L2LearningSwitch::new()),
            &parse_manifest(L2_MANIFEST).unwrap(),
        );
        c.inject_host_frame(arp_request(1, Ipv4::new(10, 0, 0, 2)));
        c.inject_host_frame(arp_reply(2, 1));
        assert!(c.kernel().flow_count(DatapathId(2)) >= 1);
    }

    #[test]
    fn denied_without_insert_flow() {
        let c = ShieldedController::new(Network::new(builders::linear(2), 1024), 2);
        // Loading-time check refuses the under-privileged manifest.
        let err = c
            .register(
                Box::new(L2LearningSwitch::new()),
                &parse_manifest("PERM pkt_in_event\nPERM read_payload\nPERM send_pkt_out").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            sdnshield_controller::isolation::RegisterError::MissingTokens(ref ts)
                if ts == &vec![PermissionToken::InsertFlow]
        ));
        c.shutdown();
    }
}
