//! The controller's northbound API surface: typed requests and responses
//! marshalled between app threads and kernel deputies.

use std::fmt;

use sdnshield_core::api::EventKind;
use sdnshield_core::engine::{Decision, DenyReason};
use sdnshield_core::token::PermissionToken;
use sdnshield_openflow::messages::{FlowMod, FlowStats, OfError, StatsReply};
use sdnshield_openflow::types::{DatapathId, PortNo};

use crate::command::{Command, CommandOutcome};
use crate::hostsys::ConnId;

/// A topology view returned to apps — possibly filtered or virtualized
/// according to the app's `visible_topology` filter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopologyView {
    /// Visible switches with their ports.
    pub switches: Vec<SwitchView>,
    /// Visible inter-switch links as (a, b) dpid pairs (undirected, each
    /// once).
    pub links: Vec<(DatapathId, DatapathId)>,
    /// Hosts attached to visible switches.
    pub hosts: Vec<sdnshield_netsim::topology::Host>,
    /// Directed link port map: (src, src_port, dst, dst_port), for apps that
    /// install hop-by-hop paths.
    pub link_ports: Vec<(DatapathId, PortNo, DatapathId, PortNo)>,
}

/// One switch in a topology view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchView {
    /// Datapath id (virtual when a virtual-topology filter applies).
    pub dpid: DatapathId,
    /// Ports.
    pub ports: Vec<PortNo>,
}

impl TopologyView {
    /// Finds a switch by dpid.
    pub fn switch(&self, dpid: DatapathId) -> Option<&SwitchView> {
        self.switches.iter().find(|s| s.dpid == dpid)
    }

    /// Are two switches adjacent in the view?
    pub fn adjacent(&self, a: DatapathId, b: DatapathId) -> bool {
        self.links
            .iter()
            .any(|(x, y)| (*x == a && *y == b) || (*x == b && *y == a))
    }

    /// The egress port on `from` that reaches the adjacent switch `to`.
    pub fn port_toward(&self, from: DatapathId, to: DatapathId) -> Option<PortNo> {
        self.link_ports
            .iter()
            .find(|(a, _, b, _)| *a == from && *b == to)
            .map(|(_, p, _, _)| *p)
    }

    /// Finds the host with the given IP.
    pub fn host_by_ip(
        &self,
        ip: sdnshield_openflow::types::Ipv4,
    ) -> Option<&sdnshield_netsim::topology::Host> {
        self.hosts.iter().find(|h| h.ip == ip)
    }

    /// Finds the host with the given MAC.
    pub fn host_by_mac(
        &self,
        mac: sdnshield_openflow::types::EthAddr,
    ) -> Option<&sdnshield_netsim::topology::Host> {
        self.hosts.iter().find(|h| h.mac == mac)
    }

    /// Unweighted shortest path between two visible switches (BFS over the
    /// view's links), inclusive of both endpoints.
    pub fn shortest_path(&self, from: DatapathId, to: DatapathId) -> Option<Vec<DatapathId>> {
        use std::collections::{BTreeMap, BTreeSet, VecDeque};
        if from == to {
            return Some(vec![from]);
        }
        let mut adj: BTreeMap<DatapathId, Vec<DatapathId>> = BTreeMap::new();
        for (a, b) in &self.links {
            adj.entry(*a).or_default().push(*b);
            adj.entry(*b).or_default().push(*a);
        }
        let mut prev = BTreeMap::new();
        let mut seen = BTreeSet::from([from]);
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            for next in adj.get(&cur).into_iter().flatten() {
                if seen.insert(*next) {
                    prev.insert(*next, cur);
                    if *next == to {
                        let mut path = vec![to];
                        let mut c = to;
                        while c != from {
                            c = prev[&c];
                            path.push(c);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(*next);
                }
            }
        }
        None
    }
}

/// A successful API response.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiResponse {
    /// Nothing to return.
    Unit,
    /// Flow-table read results (already visibility-filtered).
    FlowEntries(Vec<FlowStats>),
    /// Topology read result.
    Topology(TopologyView),
    /// Statistics.
    Stats(StatsReply),
    /// A host-network connection handle.
    Connection(ConnId),
    /// A subscription acknowledgment.
    Subscribed(EventKind),
}

/// Errors surfaced to apps from mediated API calls.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The permission engine denied the call.
    PermissionDenied {
        /// The token the call required.
        token: PermissionToken,
        /// The denial reason.
        reason: DenyReason,
    },
    /// The switch rejected the operation.
    Switch(OfError),
    /// A transaction aborted; no operation was applied.
    TransactionAborted {
        /// Index of the first offending operation.
        failed_index: usize,
        /// The underlying error.
        cause: Box<ApiError>,
    },
    /// Virtual-topology translation failed.
    Vtopo(String),
    /// The registration-time lint rejected the manifest (error-severity
    /// static-analysis finding; see `sdnshield-analysis`).
    ManifestRejected(String),
    /// The controller is shutting down.
    Shutdown,
    /// The deputy submitting the command panicked; the command was
    /// discarded but the deputy pool (and every other app) keeps running.
    Internal(String),
    /// No reply arrived within the app's per-call deadline.
    Timeout,
}

impl ApiError {
    /// Builds the permission-denied variant from an engine decision.
    ///
    /// # Panics
    ///
    /// Panics when the decision is [`Decision::Allowed`] — callers convert
    /// only denials.
    pub fn from_decision(d: Decision) -> Self {
        match d {
            Decision::Allowed => panic!("allowed decision is not an error"),
            Decision::Denied { token, reason } => ApiError::PermissionDenied { token, reason },
        }
    }

    /// Is this a permission denial (as opposed to an operational error)?
    pub fn is_denied(&self) -> bool {
        matches!(self, ApiError::PermissionDenied { .. })
            || matches!(self, ApiError::TransactionAborted { cause, .. } if cause.is_denied())
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::PermissionDenied { token, reason } => {
                write!(f, "permission denied for {token}: {reason}")
            }
            ApiError::Switch(e) => write!(f, "switch error: {e}"),
            ApiError::TransactionAborted {
                failed_index,
                cause,
            } => {
                write!(f, "transaction aborted at op {failed_index}: {cause}")
            }
            ApiError::Vtopo(m) => write!(f, "virtual topology error: {m}"),
            ApiError::ManifestRejected(m) => write!(f, "manifest rejected by lint: {m}"),
            ApiError::Shutdown => write!(f, "controller is shutting down"),
            ApiError::Internal(m) => write!(f, "internal controller fault: {m}"),
            ApiError::Timeout => write!(f, "call timed out waiting for a reply"),
        }
    }
}

impl std::error::Error for ApiError {}

/// One flow operation inside a transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOp {
    /// Target switch.
    pub dpid: DatapathId,
    /// The flow-mod to apply.
    pub flow_mod: FlowMod,
}

/// A request crossing the app → deputy channel. Everything an app asks of
/// the kernel is a [`Command`] in `Submit`; the other requests carry work
/// that is not a kernel command.
#[derive(Debug)]
pub(crate) enum DeputyRequest {
    /// Submit one command to the kernel on the app's behalf.
    Submit {
        /// The command; its app field names the caller.
        cmd: Command,
        /// Where to send the outcome.
        reply: crossbeam::channel::Sender<CommandOutcome>,
    },
    /// Dispatch events that have an interceptor target, with no reply. The
    /// app runtime hands over the intercepted events an app's returned
    /// output derived, so that the deputy, never an app thread, waits for
    /// the interceptors to finish.
    Dispatch {
        /// The derived events.
        events: Vec<crate::kernel::OutboundEvent>,
    },
    /// Publish a custom event to topic subscribers.
    Publish {
        /// The event (must be [`crate::events::Event::Custom`]).
        event: crate::events::Event,
        /// Acknowledgment.
        reply: crossbeam::channel::Sender<Result<(), ApiError>>,
    },
    /// Stop the receiving deputy thread.
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_view_queries() {
        let view = TopologyView {
            switches: vec![
                SwitchView {
                    dpid: DatapathId(1),
                    ports: vec![PortNo(1)],
                },
                SwitchView {
                    dpid: DatapathId(2),
                    ports: vec![PortNo(1)],
                },
            ],
            links: vec![(DatapathId(1), DatapathId(2))],
            hosts: Vec::new(),
            link_ports: vec![
                (DatapathId(1), PortNo(1), DatapathId(2), PortNo(1)),
                (DatapathId(2), PortNo(1), DatapathId(1), PortNo(1)),
            ],
        };
        assert!(view.switch(DatapathId(1)).is_some());
        assert_eq!(
            view.shortest_path(DatapathId(1), DatapathId(2)).unwrap(),
            vec![DatapathId(1), DatapathId(2)]
        );
        assert!(view.shortest_path(DatapathId(1), DatapathId(9)).is_none());
        assert_eq!(
            view.port_toward(DatapathId(1), DatapathId(2)),
            Some(PortNo(1))
        );
        assert_eq!(view.port_toward(DatapathId(1), DatapathId(9)), None);
        assert!(view.switch(DatapathId(9)).is_none());
        assert!(view.adjacent(DatapathId(2), DatapathId(1)), "undirected");
        assert!(!view.adjacent(DatapathId(1), DatapathId(1)));
    }

    #[test]
    fn api_error_classification() {
        let denied = ApiError::PermissionDenied {
            token: PermissionToken::InsertFlow,
            reason: DenyReason::MissingToken,
        };
        assert!(denied.is_denied());
        let txn = ApiError::TransactionAborted {
            failed_index: 2,
            cause: Box::new(denied.clone()),
        };
        assert!(txn.is_denied());
        let op = ApiError::Switch(OfError::TableFull);
        assert!(!op.is_denied());
        assert!(txn.to_string().contains("op 2"));
    }

    #[test]
    #[should_panic(expected = "allowed decision")]
    fn from_decision_rejects_allowed() {
        let _ = ApiError::from_decision(Decision::Allowed);
    }
}
