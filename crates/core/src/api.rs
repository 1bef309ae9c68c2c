//! The mediated API-call abstraction.
//!
//! Every northbound call an app makes is reified as an [`ApiCall`] before it
//! reaches the kernel: the caller identity, the operation, and its runtime
//! arguments. This is the object the permission engine inspects (paper
//! §VI-B: "a runtime API call is wrapped into a permission checking object,
//! which contains the caller app identity, the required permission and the
//! parameters").

use std::fmt;

use bytes::Bytes;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, PacketOut, StatsRequest};
use sdnshield_openflow::types::{DatapathId, Ipv4, Priority};

use crate::token::PermissionToken;

/// Identity of a controller app, assigned at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u16);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app:{}", self.0)
    }
}

/// Kinds of events apps can subscribe to (each guarded by an event token).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Packet-in notifications.
    PacketIn,
    /// Flow-removed / flow-change notifications.
    Flow,
    /// Topology-change notifications.
    Topology,
    /// Error notifications.
    Error,
}

impl EventKind {
    /// The token guarding subscriptions to this event kind.
    pub fn required_token(self) -> PermissionToken {
        match self {
            EventKind::PacketIn => PermissionToken::PktInEvent,
            EventKind::Flow => PermissionToken::FlowEvent,
            EventKind::Topology => PermissionToken::TopologyEvent,
            EventKind::Error => PermissionToken::ErrorEvent,
        }
    }
}

/// One mediated API call: who + what.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiCall {
    /// The calling app.
    pub app: AppId,
    /// The operation and its arguments.
    pub kind: ApiCallKind,
}

impl ApiCall {
    /// Creates a call record.
    pub fn new(app: AppId, kind: ApiCallKind) -> Self {
        ApiCall { app, kind }
    }

    /// The permission token this call requires.
    pub fn required_token(&self) -> PermissionToken {
        self.kind.required_token()
    }
}

/// The operation being performed, with its runtime arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiCallKind {
    /// Read flow entries subsumed by `query` on `dpid`.
    ReadFlowTable {
        /// Target switch.
        dpid: DatapathId,
        /// Flow-space query.
        query: FlowMatch,
    },
    /// Install or modify a rule.
    InsertFlow {
        /// Target switch.
        dpid: DatapathId,
        /// The flow-mod (Add/Modify*).
        flow_mod: FlowMod,
    },
    /// Delete rules.
    DeleteFlow {
        /// Target switch.
        dpid: DatapathId,
        /// The flow-mod (Delete*).
        flow_mod: FlowMod,
    },
    /// Read the (filtered) topology.
    ReadTopology,
    /// Change the controller's topology view (add/remove a link or switch).
    ModifyTopology {
        /// Affected switch.
        dpid: DatapathId,
    },
    /// Request statistics.
    ReadStatistics {
        /// Target switch.
        dpid: DatapathId,
        /// What statistics.
        request: StatsRequest,
    },
    /// Access a packet-in payload.
    ReadPayload {
        /// Switch the packet-in came from.
        dpid: DatapathId,
    },
    /// Emit a packet-out.
    SendPacketOut {
        /// Target switch.
        dpid: DatapathId,
        /// The message.
        packet_out: PacketOut,
    },
    /// Subscribe to an event stream.
    Subscribe {
        /// The event kind.
        kind: EventKind,
    },
    /// Open a network connection from the controller host.
    HostConnect {
        /// Remote address.
        dst_ip: Ipv4,
        /// Remote TCP port.
        dst_port: u16,
    },
    /// Send on an established host connection.
    ///
    /// The kernel re-validates the destination against the `host_network`
    /// filter by resolving the handle to its remote address, so a filter
    /// narrowed after connect still applies.
    HostSend {
        /// Opaque connection handle (kernel-assigned).
        conn: u64,
        /// Payload length in bytes.
        len: usize,
    },
    /// Open a file on the controller host.
    FileOpen {
        /// Filesystem path.
        path: String,
        /// Whether the open is for writing.
        write: bool,
    },
    /// Spawn a process on the controller host.
    ProcessExec {
        /// Program path or name.
        program: String,
    },
}

impl ApiCallKind {
    /// The permission token this operation requires.
    pub fn required_token(&self) -> PermissionToken {
        match self {
            ApiCallKind::ReadFlowTable { .. } => PermissionToken::ReadFlowTable,
            ApiCallKind::InsertFlow { .. } => PermissionToken::InsertFlow,
            ApiCallKind::DeleteFlow { .. } => PermissionToken::DeleteFlow,
            ApiCallKind::ReadTopology => PermissionToken::VisibleTopology,
            ApiCallKind::ModifyTopology { .. } => PermissionToken::ModifyTopology,
            ApiCallKind::ReadStatistics { .. } => PermissionToken::ReadStatistics,
            ApiCallKind::ReadPayload { .. } => PermissionToken::ReadPayload,
            ApiCallKind::SendPacketOut { .. } => PermissionToken::SendPktOut,
            ApiCallKind::Subscribe { kind } => kind.required_token(),
            ApiCallKind::HostConnect { .. } | ApiCallKind::HostSend { .. } => {
                PermissionToken::HostNetwork
            }
            ApiCallKind::FileOpen { .. } => PermissionToken::FileSystem,
            ApiCallKind::ProcessExec { .. } => PermissionToken::ProcessRuntime,
        }
    }

    /// Is this a query — a read answered from the registry view and the
    /// network alone, which changes no state and emits no event? Queries
    /// are audited on every lane but never journaled: replaying one would
    /// serve a reply nobody reads. `ReadPayload` is not one; it stays a
    /// command.
    pub fn is_query(&self) -> bool {
        matches!(
            self,
            ApiCallKind::ReadTopology
                | ApiCallKind::ReadFlowTable { .. }
                | ApiCallKind::ReadStatistics { .. }
        )
    }

    /// A short operation name for logs and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            ApiCallKind::ReadFlowTable { .. } => "read_flow_table",
            ApiCallKind::InsertFlow { .. } => "insert_flow",
            ApiCallKind::DeleteFlow { .. } => "delete_flow",
            ApiCallKind::ReadTopology => "read_topology",
            ApiCallKind::ModifyTopology { .. } => "modify_topology",
            ApiCallKind::ReadStatistics { .. } => "read_statistics",
            ApiCallKind::ReadPayload { .. } => "read_payload",
            ApiCallKind::SendPacketOut { .. } => "send_packet_out",
            ApiCallKind::Subscribe { .. } => "subscribe",
            ApiCallKind::HostConnect { .. } => "host_connect",
            ApiCallKind::HostSend { .. } => "host_send",
            ApiCallKind::FileOpen { .. } => "file_open",
            ApiCallKind::ProcessExec { .. } => "process_exec",
        }
    }

    /// The flow-space this call touches, viewed as a [`FlowMatch`], when it
    /// has one. Predicate filters compare against this.
    ///
    /// Host-network connects expose their destination as an `ip_dst`/`tp_dst`
    /// match so the paper's `network_access LIMITING IP_DST …` permissions
    /// work uniformly.
    pub fn flow_space(&self) -> Option<FlowMatch> {
        match self {
            ApiCallKind::ReadFlowTable { query, .. } => Some(query.clone()),
            ApiCallKind::ReadStatistics {
                request: StatsRequest::Flow(m) | StatsRequest::Aggregate(m),
                ..
            } => Some(m.clone()),
            ApiCallKind::InsertFlow { flow_mod, .. } | ApiCallKind::DeleteFlow { flow_mod, .. } => {
                Some(flow_mod.flow_match.clone())
            }
            ApiCallKind::HostConnect { dst_ip, dst_port } => Some(
                FlowMatch::default()
                    .with_ip_dst(*dst_ip)
                    .with_tp_dst(*dst_port),
            ),
            _ => None,
        }
    }

    /// The switch this call targets, when it targets one.
    pub fn dpid(&self) -> Option<DatapathId> {
        match self {
            ApiCallKind::ReadFlowTable { dpid, .. }
            | ApiCallKind::InsertFlow { dpid, .. }
            | ApiCallKind::DeleteFlow { dpid, .. }
            | ApiCallKind::ModifyTopology { dpid }
            | ApiCallKind::ReadStatistics { dpid, .. }
            | ApiCallKind::ReadPayload { dpid }
            | ApiCallKind::SendPacketOut { dpid, .. } => Some(*dpid),
            _ => None,
        }
    }

    /// The rule priority, for flow-mods.
    pub fn priority(&self) -> Option<Priority> {
        match self {
            ApiCallKind::InsertFlow { flow_mod, .. } | ApiCallKind::DeleteFlow { flow_mod, .. } => {
                Some(flow_mod.priority)
            }
            _ => None,
        }
    }

    /// The packet-out payload, for send-packet-out calls.
    pub fn pkt_out_payload(&self) -> Option<&Bytes> {
        match self {
            ApiCallKind::SendPacketOut { packet_out, .. } => Some(&packet_out.payload),
            _ => None,
        }
    }
}

impl fmt::Display for ApiCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.app, self.kind.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnshield_openflow::actions::ActionList;
    use sdnshield_openflow::types::{BufferId, PortNo};

    fn insert_call() -> ApiCall {
        ApiCall::new(
            AppId(1),
            ApiCallKind::InsertFlow {
                dpid: DatapathId(2),
                flow_mod: FlowMod::add(
                    FlowMatch::default().with_tp_dst(80),
                    Priority(5),
                    ActionList::output(PortNo(1)),
                ),
            },
        )
    }

    #[test]
    fn required_tokens() {
        assert_eq!(insert_call().required_token(), PermissionToken::InsertFlow);
        let sub = ApiCallKind::Subscribe {
            kind: EventKind::PacketIn,
        };
        assert_eq!(sub.required_token(), PermissionToken::PktInEvent);
        let hc = ApiCallKind::HostConnect {
            dst_ip: Ipv4::new(1, 2, 3, 4),
            dst_port: 80,
        };
        assert_eq!(hc.required_token(), PermissionToken::HostNetwork);
    }

    #[test]
    fn flow_space_of_insert() {
        let call = insert_call();
        let fs = call.kind.flow_space().unwrap();
        assert_eq!(fs.tp_dst, Some(80));
        assert_eq!(call.kind.dpid(), Some(DatapathId(2)));
        assert_eq!(call.kind.priority(), Some(Priority(5)));
    }

    #[test]
    fn host_connect_exposes_destination_as_flow_space() {
        let hc = ApiCallKind::HostConnect {
            dst_ip: Ipv4::new(10, 1, 0, 7),
            dst_port: 443,
        };
        let fs = hc.flow_space().unwrap();
        assert!(fs.ip_dst.unwrap().matches(Ipv4::new(10, 1, 0, 7)));
        assert_eq!(fs.tp_dst, Some(443));
        assert!(hc.dpid().is_none());
    }

    #[test]
    fn pkt_out_payload_access() {
        let po = ApiCallKind::SendPacketOut {
            dpid: DatapathId(1),
            packet_out: PacketOut {
                buffer_id: BufferId::NO_BUFFER,
                in_port: PortNo::NONE,
                actions: ActionList::output(PortNo(1)),
                payload: Bytes::from_static(b"abc"),
            },
        };
        assert_eq!(po.pkt_out_payload().unwrap().as_ref(), b"abc");
        assert!(ApiCallKind::ReadTopology.pkt_out_payload().is_none());
    }

    #[test]
    fn queries_are_the_three_reads() {
        let flow = FlowMatch::default();
        assert!(ApiCallKind::ReadTopology.is_query());
        assert!(ApiCallKind::ReadFlowTable {
            dpid: DatapathId(1),
            query: flow.clone(),
        }
        .is_query());
        assert!(ApiCallKind::ReadStatistics {
            dpid: DatapathId(1),
            request: StatsRequest::Flow(flow),
        }
        .is_query());
        assert!(!ApiCallKind::ReadPayload {
            dpid: DatapathId(1)
        }
        .is_query());
        assert!(!insert_call().kind.is_query());
    }

    #[test]
    fn display() {
        assert_eq!(insert_call().to_string(), "app:1:insert_flow");
    }
}
