//! The data-plane walk: injecting packets and carrying them hop by hop
//! through switch flow tables until they reach hosts or the controller.
//!
//! # Concurrency
//!
//! The network's **read side is lock-free**: the topology and a per-switch
//! [`SwitchView`] are published as immutable `Arc` snapshots through epoch
//! RCU cells ([`crossbeam::epoch::RcuCell`]). Readers pin an epoch, do one
//! atomic pointer load, and never block; stats queries, topology reads and
//! flow counts are all served from snapshots.
//!
//! Writers still serialize per switch: each switch's mutable state sits
//! behind its own [`Mutex`] and every mutation bumps that shard's version
//! counter under the lock. Switch views refresh **lazily**: the first
//! reader that observes a stale version rebuilds the view under an
//! opportunistic `try_lock` (copy-on-write of the touched shard — `Arc`
//! pointer clones, no deep copies) and republishes it; if a writer holds
//! the lock the reader serves the previous view instead. Reads are
//! therefore *snapshot-trailing*: bounded by the mutations of whichever
//! writer currently holds the shard lock, and exact whenever the shard is
//! quiescent. Topology mutations clone-and-publish eagerly (they are rare)
//! under a small writer mutex.
//!
//! Lock ordering: **at most one switch lock at a time**, and the RCU cells
//! are not locks at all (pinning never blocks). The
//! data-plane walk releases a switch's lock before following a link into
//! the next switch (`step` computes the forwarding decision under the
//! lock, then recurses lock-free), so concurrent walks in opposite
//! directions cannot deadlock. Cross-switch sweeps (`advance_clock`,
//! `remove_flows_owned_by`) visit switches one at a time in ascending dpid
//! order.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::epoch::{self, RcuCell};
use parking_lot::{Mutex, MutexGuard, RwLock};
use sdnshield_openflow::flow_table::RemovedEntry;
use sdnshield_openflow::messages::{
    FlowMod, OfError, PacketIn, PacketInReason, PacketOut, StatsReply, StatsRequest,
};
use sdnshield_openflow::packet::EthernetFrame;
use sdnshield_openflow::types::{BufferId, DatapathId, EthAddr, PortNo};

use crate::switch::{Forwarding, SimSwitch, SwitchView};
use crate::topology::{Host, Topology};

/// Maximum hops a single injected packet may traverse before the simulator
/// declares a forwarding loop and drops it.
pub const MAX_HOPS: usize = 64;

/// Where a packet ended up after a data-plane walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered to a host NIC.
    ToHost {
        /// MAC of the receiving host.
        mac: EthAddr,
        /// The frame as received.
        frame: EthernetFrame,
    },
    /// Punted to the controller as a packet-in.
    ToController {
        /// Switch that punted.
        dpid: DatapathId,
        /// The packet-in body.
        packet_in: PacketIn,
    },
    /// Dropped: matched a drop rule, exited a dangling port, or hit the hop
    /// limit.
    Dropped {
        /// Switch where the drop happened.
        dpid: DatapathId,
        /// Why it dropped.
        reason: DropReason,
    },
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A flow entry with no forwarding action.
    DropRule,
    /// Output port had neither a link nor a host.
    DanglingPort,
    /// Hop budget exhausted (forwarding loop).
    LoopGuard,
}

/// Controller→switch traffic mirrored to a wire-attached backend.
///
/// The in-process simulator *executes* flow-mods and packet-outs directly
/// against [`SimSwitch`] state. A real switch speaking OpenFlow over TCP
/// additionally needs those messages **on the wire**: the southbound
/// reactor registers one `WireEgress` per connected datapath, and the
/// network calls it after the corresponding simulator mutation succeeds —
/// the shard stays the source of truth (flow counts, reaping, stats) while
/// the egress mirrors the decision to the remote peer.
///
/// Contract: implementations must be cheap and non-blocking (queue +
/// counted shed, never a socket write in the caller's thread beyond a
/// nonblocking push), and must **not** call back into [`Network`] — the
/// notification runs after the shard lock is dropped, but the caller may
/// still hold the kernel's commit lock.
pub trait WireEgress: Send + Sync {
    /// A flow-mod the kernel successfully applied for this switch.
    fn flow_mod(&self, fm: &FlowMod);
    /// A packet-out the kernel emitted at this switch.
    fn packet_out(&self, po: &PacketOut);
}

/// A removed flow entry along with the switch it was removed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemovedFlow {
    /// The switch.
    pub dpid: DatapathId,
    /// The entry and removal reason.
    pub removed: RemovedEntry,
}

/// The simulated network: topology + live switch state + virtual clock.
///
/// # Examples
///
/// ```
/// use sdnshield_netsim::network::Network;
/// use sdnshield_netsim::topology::builders;
///
/// let net = Network::new(builders::linear(3), 1024);
/// assert_eq!(net.topology().switch_count(), 3);
/// ```
pub struct Network {
    /// The topology snapshot; replaced wholesale on (rare) mutation.
    topology: RcuCell<Topology>,
    /// Serializes topology writers (readers never touch it).
    topo_writer: Mutex<()>,
    switches: BTreeMap<DatapathId, SwitchShard>,
    clock: AtomicU64,
    /// Wire backends keyed by datapath, consulted *after* a simulator
    /// mutation succeeds. Registration is rare (connection setup/teardown);
    /// the hot path takes only the read lock, and skips even that when the
    /// count says nobody is attached.
    wire: RwLock<BTreeMap<DatapathId, Arc<dyn WireEgress>>>,
    wire_count: AtomicU64,
}

/// One switch's slot: the mutable state under its own lock, plus the
/// lazily refreshed RCU view readers serve from.
struct SwitchShard {
    sw: Mutex<SimSwitch>,
    /// Bumped under `sw`'s lock after every mutation; a published view is
    /// fresh iff its recorded version equals this counter.
    version: AtomicU64,
    view: RcuCell<SwitchView>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("switches", &self.switches.len())
            .field("clock", &self.now())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds a network over a topology, giving every switch the same
    /// flow-table capacity.
    pub fn new(topology: Topology, table_capacity: usize) -> Self {
        let switches = topology
            .switches()
            .map(|s| {
                let sw = SimSwitch::new(s.dpid, table_capacity);
                let view = RcuCell::new(Arc::new(sw.view(0)));
                (
                    s.dpid,
                    SwitchShard {
                        sw: Mutex::new(sw),
                        version: AtomicU64::new(0),
                        view,
                    },
                )
            })
            .collect();
        Network {
            topology: RcuCell::new(Arc::new(topology)),
            topo_writer: Mutex::new(()),
            switches,
            clock: AtomicU64::new(0),
            wire: RwLock::new(BTreeMap::new()),
            wire_count: AtomicU64::new(0),
        }
    }

    /// Attaches a wire backend to a switch. Controller→switch messages for
    /// `dpid` are mirrored to `egress` from then on. Returns `false` (and
    /// registers nothing) when the datapath does not exist in the topology —
    /// wire peers may only claim datapaths the network models, so the
    /// simulator shard remains authoritative for state queries.
    pub fn register_wire_egress(&self, dpid: DatapathId, egress: Arc<dyn WireEgress>) -> bool {
        if !self.switches.contains_key(&dpid) {
            return false;
        }
        let prev = self.wire.write().insert(dpid, egress);
        if prev.is_none() {
            self.wire_count.fetch_add(1, Ordering::Release);
        }
        true
    }

    /// Detaches the wire backend for `dpid` (connection teardown). Returns
    /// whether one was attached.
    pub fn deregister_wire_egress(&self, dpid: DatapathId) -> bool {
        let removed = self.wire.write().remove(&dpid).is_some();
        if removed {
            self.wire_count.fetch_sub(1, Ordering::Release);
        }
        removed
    }

    /// Number of currently attached wire backends.
    pub fn wire_egress_count(&self) -> usize {
        self.wire_count.load(Ordering::Acquire) as usize
    }

    /// Does the topology model this datapath? The southbound reactor uses
    /// this to validate a peer's claimed datapath id during the handshake.
    pub fn has_switch(&self, dpid: DatapathId) -> bool {
        self.switches.contains_key(&dpid)
    }

    fn notify_wire_flow_mod(&self, dpid: DatapathId, fm: &FlowMod) {
        if self.wire_count.load(Ordering::Acquire) == 0 {
            return;
        }
        if let Some(eg) = self.wire.read().get(&dpid) {
            eg.flow_mod(fm);
        }
    }

    /// Mirrors a packet-out to the wire backend for `dpid`, if one is
    /// attached. Public because the kernel's CBench absorb mode skips
    /// [`Network::inject_packet_out`] entirely (no data-plane walk) yet the
    /// remote switch still needs its reply on the wire.
    pub fn notify_wire_packet_out(&self, dpid: DatapathId, po: &PacketOut) {
        if self.wire_count.load(Ordering::Acquire) == 0 {
            return;
        }
        if let Some(eg) = self.wire.read().get(&dpid) {
            eg.packet_out(po);
        }
    }

    /// The current topology snapshot (lock-free; one epoch pin + pointer
    /// load). The returned `Arc` stays valid across later mutations, which
    /// publish a *new* snapshot rather than changing this one.
    pub fn topology(&self) -> Arc<Topology> {
        self.topology.load_full()
    }

    /// Mutates the topology (controller-initiated changes): clones the
    /// current snapshot, applies `f`, and publishes the result. Writers
    /// serialize on a dedicated mutex; readers never block.
    pub fn with_topology_mut<R>(&self, f: impl FnOnce(&mut Topology) -> R) -> R {
        let _w = self.topo_writer.lock();
        let mut topo = (*self.topology.load_full()).clone();
        let r = f(&mut topo);
        self.topology.store(Arc::new(topo));
        r
    }

    /// Runs `f` on a switch's mutable state under its lock and bumps the
    /// shard version so the published view refreshes on the next read.
    fn with_switch_mut<R>(shard: &SwitchShard, f: impl FnOnce(&mut SimSwitch) -> R) -> R {
        let mut sw = shard.sw.lock();
        let r = f(&mut sw);
        shard.version.fetch_add(1, Ordering::Release);
        r
    }

    /// A fresh-enough view of a switch. Lock-free when the published view
    /// is current; otherwise the first reader rebuilds it under an
    /// opportunistic `try_lock` and republishes. If a writer holds the
    /// shard lock, the previous view is served instead (snapshot-trailing
    /// read, bounded by that writer's in-flight mutations).
    fn view(shard: &SwitchShard) -> Arc<SwitchView> {
        let current = shard.version.load(Ordering::Acquire);
        let view = shard.view.load_full();
        if view.version == current {
            return view;
        }
        match shard.sw.try_lock() {
            Some(sw) => {
                // Exact under the lock: no writer can bump concurrently.
                let v = shard.version.load(Ordering::Acquire);
                let fresh = Arc::new(sw.view(v));
                shard.view.store(fresh.clone());
                fresh
            }
            None => view,
        }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Sets the virtual clock directly without expiring anything — recovery
    /// support for restoring a snapshotted network to its recorded time. The
    /// expiry side effects of the skipped interval are assumed to be carried
    /// by the snapshot itself.
    pub fn set_clock(&self, now: u64) {
        self.clock.store(now, Ordering::SeqCst);
    }

    /// Advances the virtual clock and expires timed-out entries everywhere.
    /// Switches are visited one at a time (ascending dpid), so concurrent
    /// flow-mods on other switches proceed unhindered.
    pub fn advance_clock(&self, secs: u64) -> Vec<RemovedFlow> {
        let now = self.clock.fetch_add(secs, Ordering::SeqCst) + secs;
        let mut removed = Vec::new();
        for (dpid, shard) in &self.switches {
            let expired = {
                let mut sw = shard.sw.lock();
                let expired = sw.expire(now);
                if !expired.is_empty() {
                    shard.version.fetch_add(1, Ordering::Release);
                }
                expired
            };
            for r in expired {
                removed.push(RemovedFlow {
                    dpid: *dpid,
                    removed: r,
                });
            }
        }
        removed
    }

    /// Removes, from every switch, all flow entries whose cookie carries the
    /// given owner id. Used to reclaim a crashed app's rules. Takes one
    /// switch lock at a time in ascending dpid order.
    pub fn remove_flows_owned_by(&self, owner: u16) -> Vec<RemovedFlow> {
        let mut removed = Vec::new();
        for (dpid, shard) in &self.switches {
            let reclaimed = {
                let mut sw = shard.sw.lock();
                let reclaimed = sw.remove_owned_by(owner);
                if !reclaimed.is_empty() {
                    shard.version.fetch_add(1, Ordering::Release);
                }
                reclaimed
            };
            for r in reclaimed {
                removed.push(RemovedFlow {
                    dpid: *dpid,
                    removed: r,
                });
            }
        }
        removed
    }

    /// Locks one switch for inspection or mutation. Dropping the guard
    /// bumps the shard version, so any mutation made through it is picked
    /// up by the next view rebuild.
    pub fn switch(&self, dpid: DatapathId) -> Option<SwitchGuard<'_>> {
        self.switches.get(&dpid).map(|shard| SwitchGuard {
            guard: shard.sw.lock(),
            version: &shard.version,
        })
    }

    /// Number of installed flow entries on a switch, served from the RCU
    /// view (lock-free when the view is fresh).
    pub fn flow_count(&self, dpid: DatapathId) -> Option<usize> {
        self.switches.get(&dpid).map(|s| Self::view(s).table.len())
    }

    /// The RCU view of one switch (refreshing it first if stale and the
    /// shard lock is free) — the lock-free read surface for stats, flow
    /// counts, and the differential test suite.
    pub fn switch_view(&self, dpid: DatapathId) -> Option<Arc<SwitchView>> {
        self.switches.get(&dpid).map(Self::view)
    }

    /// Applies a flow-mod on a switch, taking only that switch's lock.
    ///
    /// # Errors
    ///
    /// [`OfError::BadRequest`] for unknown switches; table errors otherwise.
    pub fn apply_flow_mod(
        &self,
        dpid: DatapathId,
        fm: &FlowMod,
    ) -> Result<Vec<RemovedEntry>, OfError> {
        let now = self.now();
        let shard = self
            .switches
            .get(&dpid)
            .ok_or_else(|| OfError::BadRequest(format!("unknown switch {dpid}")))?;
        let removed = Self::with_switch_mut(shard, |sw| sw.apply_flow_mod(fm, now))?;
        // Mirror to the wire after the shard mutation commits (and after its
        // lock is released): the remote switch sees exactly the flow-mods
        // the authoritative simulator state accepted.
        self.notify_wire_flow_mod(dpid, fm);
        Ok(removed)
    }

    /// Answers a stats request for a switch from its RCU view — lock-free
    /// on the common path (see [`Network::switch_view`] for the staleness
    /// contract).
    ///
    /// # Errors
    ///
    /// [`OfError::BadRequest`] for unknown switches.
    pub fn stats(&self, dpid: DatapathId, req: &StatsRequest) -> Result<StatsReply, OfError> {
        let shard = self
            .switches
            .get(&dpid)
            .ok_or_else(|| OfError::BadRequest(format!("unknown switch {dpid}")))?;
        let now = self.now();
        Ok(Self::view(shard).stats(req, now))
    }

    /// Injects a frame from a host NIC; returns every terminal delivery.
    ///
    /// # Errors
    ///
    /// [`OfError::BadRequest`] when the source MAC is not an attached host.
    pub fn inject_from_host(&self, frame: EthernetFrame) -> Result<Vec<Delivery>, OfError> {
        let host = {
            let guard = epoch::pin();
            self.topology
                .load(&guard)
                .host_by_mac(frame.src)
                .cloned()
                .ok_or_else(|| OfError::BadRequest("source MAC is not an attached host".into()))?
        };
        Ok(self.walk(host.switch, host.port, frame))
    }

    /// Injects a controller packet-out at a switch: applies `actions` and
    /// walks the results through the network.
    ///
    /// # Errors
    ///
    /// [`OfError::BadRequest`] for unknown switches.
    pub fn inject_packet_out(
        &self,
        dpid: DatapathId,
        in_port: PortNo,
        frame: EthernetFrame,
        actions: impl IntoIterator<Item = sdnshield_openflow::actions::Action>,
    ) -> Result<Vec<Delivery>, OfError> {
        let actions: Vec<_> = actions.into_iter().collect();
        let payload = frame.to_bytes();
        let len = payload.len();
        let (frame, ports) = {
            let shard = self
                .switches
                .get(&dpid)
                .ok_or_else(|| OfError::BadRequest(format!("unknown switch {dpid}")))?;
            Self::with_switch_mut(shard, |sw| {
                sw.apply_packet_out(in_port, frame, actions.iter().cloned(), len)
            })
        };
        self.notify_wire_packet_out(
            dpid,
            &PacketOut {
                buffer_id: BufferId::NO_BUFFER,
                in_port,
                actions: sdnshield_openflow::actions::ActionList(actions),
                payload,
            },
        );
        let mut out = Vec::new();
        for port in self.expand_ports(dpid, in_port, ports) {
            out.extend(self.emit(dpid, port, frame.clone(), MAX_HOPS));
        }
        Ok(out)
    }

    /// Carries a frame entering `dpid` on `in_port` to its destinations.
    fn walk(&self, dpid: DatapathId, in_port: PortNo, frame: EthernetFrame) -> Vec<Delivery> {
        self.step(dpid, in_port, frame, MAX_HOPS)
    }

    fn step(
        &self,
        dpid: DatapathId,
        in_port: PortNo,
        frame: EthernetFrame,
        budget: usize,
    ) -> Vec<Delivery> {
        if budget == 0 {
            return vec![Delivery::Dropped {
                dpid,
                reason: DropReason::LoopGuard,
            }];
        }
        let now = self.now();
        // Compute the forwarding decision under this switch's lock alone,
        // then release it before walking onward: the recursion into `emit`
        // takes the *next* switch's lock, and holding two at once would
        // deadlock against a walk travelling the opposite direction.
        let forwarding = {
            let Some(shard) = self.switches.get(&dpid) else {
                return vec![Delivery::Dropped {
                    dpid,
                    reason: DropReason::DanglingPort,
                }];
            };
            Self::with_switch_mut(shard, |sw| sw.process(in_port, &frame, now))
        };
        match forwarding {
            Forwarding::PacketIn => {
                let payload = frame.to_bytes();
                vec![Delivery::ToController {
                    dpid,
                    packet_in: PacketIn {
                        buffer_id: BufferId::NO_BUFFER,
                        in_port,
                        reason: PacketInReason::NoMatch,
                        payload,
                    },
                }]
            }
            Forwarding::Forward {
                frame,
                ports,
                copy_to_controller,
            } => {
                let mut out = Vec::new();
                if copy_to_controller {
                    out.push(Delivery::ToController {
                        dpid,
                        packet_in: PacketIn {
                            buffer_id: BufferId::NO_BUFFER,
                            in_port,
                            reason: PacketInReason::Action,
                            payload: frame.to_bytes(),
                        },
                    });
                }
                let resolved = self.expand_ports(dpid, in_port, ports);
                if resolved.is_empty() && out.is_empty() {
                    return vec![Delivery::Dropped {
                        dpid,
                        reason: DropReason::DropRule,
                    }];
                }
                for port in resolved {
                    out.extend(self.emit(dpid, port, frame.clone(), budget - 1));
                }
                out
            }
        }
    }

    /// Resolves reserved ports (FLOOD/ALL/IN_PORT) into concrete port lists.
    fn expand_ports(&self, dpid: DatapathId, in_port: PortNo, ports: Vec<PortNo>) -> Vec<PortNo> {
        let mut resolved = Vec::new();
        let guard = epoch::pin();
        let topology = self.topology.load(&guard);
        for p in ports {
            match p {
                PortNo::FLOOD | PortNo::ALL => {
                    if let Some(info) = topology.switch(dpid) {
                        for port in &info.ports {
                            let occupied = topology.link_from(dpid, *port).is_some()
                                || topology
                                    .hosts()
                                    .iter()
                                    .any(|h| h.switch == dpid && h.port == *port);
                            if *port != in_port && occupied {
                                resolved.push(*port);
                            }
                        }
                    }
                }
                PortNo::IN_PORT => resolved.push(in_port),
                p if p.is_reserved() => {} // LOCAL/NONE etc.: ignore
                p => resolved.push(p),
            }
        }
        resolved
    }

    /// Emits a frame out of `(dpid, port)`: to a host, the next switch, or
    /// the void. The epoch pin is released before recursing into the next
    /// switch so a long walk never holds one epoch across many hops.
    fn emit(
        &self,
        dpid: DatapathId,
        port: PortNo,
        frame: EthernetFrame,
        budget: usize,
    ) -> Vec<Delivery> {
        let (link, host) = {
            let guard = epoch::pin();
            let topology = self.topology.load(&guard);
            let link = topology.link_from(dpid, port).copied();
            let host = topology
                .hosts()
                .iter()
                .find(|h| h.switch == dpid && h.port == port)
                .cloned();
            (link, host)
        };
        if let Some(link) = link {
            return self.step(link.dst, link.dst_port, frame, budget);
        }
        if let Some(host) = host {
            return vec![Delivery::ToHost {
                mac: host.mac,
                frame,
            }];
        }
        vec![Delivery::Dropped {
            dpid,
            reason: DropReason::DanglingPort,
        }]
    }

    /// Convenience: the host record for a MAC.
    pub fn host(&self, mac: EthAddr) -> Option<Host> {
        let guard = epoch::pin();
        self.topology.load(&guard).host_by_mac(mac).cloned()
    }
}

/// A locked switch handle from [`Network::switch`]. Mutations made through
/// it are observed by later reads: dropping the guard bumps the shard's
/// version (while still holding the lock), invalidating the published RCU
/// view.
pub struct SwitchGuard<'a> {
    guard: MutexGuard<'a, SimSwitch>,
    version: &'a AtomicU64,
}

impl Deref for SwitchGuard<'_> {
    type Target = SimSwitch;
    fn deref(&self) -> &SimSwitch {
        &self.guard
    }
}

impl DerefMut for SwitchGuard<'_> {
    fn deref_mut(&mut self) -> &mut SimSwitch {
        &mut self.guard
    }
}

impl Drop for SwitchGuard<'_> {
    fn drop(&mut self) {
        // Runs before `guard` releases the mutex, so the bump is ordered
        // with the mutations it covers.
        self.version.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::builders;
    use bytes::Bytes;
    use sdnshield_openflow::actions::{Action, ActionList};
    use sdnshield_openflow::flow_match::FlowMatch;
    use sdnshield_openflow::packet::TcpFlags;
    use sdnshield_openflow::types::{Ipv4, Priority};

    fn tcp(src: u64, dst: u64, dst_ip: Ipv4) -> EthernetFrame {
        EthernetFrame::tcp(
            EthAddr::from_u64(src),
            EthAddr::from_u64(dst),
            Ipv4::new(10, 0, 0, src as u8),
            dst_ip,
            1000,
            80,
            TcpFlags::default(),
            Bytes::new(),
        )
    }

    #[test]
    fn miss_everywhere_reaches_controller_once() {
        let net = Network::new(builders::linear(3), 64);
        let out = net
            .inject_from_host(tcp(1, 3, Ipv4::new(10, 0, 0, 3)))
            .unwrap();
        assert_eq!(out.len(), 1);
        match &out[0] {
            Delivery::ToController { dpid, packet_in } => {
                assert_eq!(*dpid, DatapathId(1));
                assert_eq!(packet_in.reason, PacketInReason::NoMatch);
                // Payload parses back to the original frame.
                let parsed = EthernetFrame::from_bytes(packet_in.payload.clone()).unwrap();
                assert_eq!(parsed.src, EthAddr::from_u64(1));
            }
            other => panic!("expected controller delivery, got {other:?}"),
        }
    }

    #[test]
    fn installed_path_delivers_to_host() {
        let net = Network::new(builders::linear(3), 64);
        // Install a forwarding path 1→2→3→host3 matching dst ip 10.0.0.3.
        let m = FlowMatch::default().with_ip_dst(Ipv4::new(10, 0, 0, 3));
        // Find inter-switch ports.
        let p12 = net
            .topology()
            .link_between(DatapathId(1), DatapathId(2))
            .unwrap()
            .src_port;
        let p23 = net
            .topology()
            .link_between(DatapathId(2), DatapathId(3))
            .unwrap()
            .src_port;
        let h3 = net
            .topology()
            .host_by_mac(EthAddr::from_u64(3))
            .unwrap()
            .port;
        net.apply_flow_mod(
            DatapathId(1),
            &FlowMod::add(m.clone(), Priority(10), ActionList::output(p12)),
        )
        .unwrap();
        net.apply_flow_mod(
            DatapathId(2),
            &FlowMod::add(m.clone(), Priority(10), ActionList::output(p23)),
        )
        .unwrap();
        net.apply_flow_mod(
            DatapathId(3),
            &FlowMod::add(m.clone(), Priority(10), ActionList::output(h3)),
        )
        .unwrap();
        let out = net
            .inject_from_host(tcp(1, 3, Ipv4::new(10, 0, 0, 3)))
            .unwrap();
        assert_eq!(
            out,
            vec![Delivery::ToHost {
                mac: EthAddr::from_u64(3),
                frame: tcp(1, 3, Ipv4::new(10, 0, 0, 3)),
            }]
        );
    }

    #[test]
    fn flood_reaches_all_other_hosts_and_switch_misses() {
        let net = Network::new(builders::star(3), 64);
        // Flood on every switch.
        for s in [1u64, 2, 3, 4] {
            net.apply_flow_mod(
                DatapathId(s),
                &FlowMod::add(
                    FlowMatch::any(),
                    Priority(1),
                    ActionList::output(PortNo::FLOOD),
                ),
            )
            .unwrap();
        }
        let arp = EthernetFrame::arp_request(
            EthAddr::from_u64(1),
            Ipv4::new(10, 0, 0, 1),
            Ipv4::new(10, 0, 0, 2),
        );
        let out = net.inject_from_host(arp).unwrap();
        let host_hits: Vec<_> = out
            .iter()
            .filter_map(|d| match d {
                Delivery::ToHost { mac, .. } => Some(*mac),
                _ => None,
            })
            .collect();
        assert!(host_hits.contains(&EthAddr::from_u64(2)));
        assert!(host_hits.contains(&EthAddr::from_u64(3)));
        assert!(!host_hits.contains(&EthAddr::from_u64(1)), "no hairpin");
    }

    #[test]
    fn loop_guard_terminates() {
        // Two switches forwarding to each other forever.
        let net = Network::new(builders::linear(2), 64);
        let p12 = net
            .topology()
            .link_between(DatapathId(1), DatapathId(2))
            .unwrap()
            .src_port;
        let p21 = net
            .topology()
            .link_between(DatapathId(2), DatapathId(1))
            .unwrap()
            .src_port;
        net.apply_flow_mod(
            DatapathId(1),
            &FlowMod::add(FlowMatch::any(), Priority(1), ActionList::output(p12)),
        )
        .unwrap();
        net.apply_flow_mod(
            DatapathId(2),
            &FlowMod::add(FlowMatch::any(), Priority(1), ActionList::output(p21)),
        )
        .unwrap();
        let out = net
            .inject_from_host(tcp(1, 2, Ipv4::new(10, 0, 0, 2)))
            .unwrap();
        assert!(matches!(
            out.as_slice(),
            [Delivery::Dropped {
                reason: DropReason::LoopGuard,
                ..
            }]
        ));
    }

    #[test]
    fn drop_rule_reports_drop() {
        let net = Network::new(builders::linear(2), 64);
        net.apply_flow_mod(
            DatapathId(1),
            &FlowMod::add(FlowMatch::any(), Priority(1), ActionList::drop()),
        )
        .unwrap();
        let out = net
            .inject_from_host(tcp(1, 2, Ipv4::new(10, 0, 0, 2)))
            .unwrap();
        assert!(matches!(
            out.as_slice(),
            [Delivery::Dropped {
                dpid: DatapathId(1),
                reason: DropReason::DropRule,
            }]
        ));
    }

    #[test]
    fn packet_out_injects_into_dataplane() {
        let net = Network::new(builders::linear(2), 64);
        let h2 = net.host(EthAddr::from_u64(2)).unwrap();
        let (dpid, port) = (h2.switch, h2.port);
        let frame = tcp(1, 2, Ipv4::new(10, 0, 0, 2));
        let out = net
            .inject_packet_out(dpid, PortNo::NONE, frame.clone(), [Action::Output(port)])
            .unwrap();
        assert_eq!(
            out,
            vec![Delivery::ToHost {
                mac: EthAddr::from_u64(2),
                frame,
            }]
        );
    }

    #[test]
    fn clock_advancement_expires_flows() {
        let net = Network::new(builders::linear(2), 64);
        net.apply_flow_mod(
            DatapathId(1),
            &FlowMod::add(FlowMatch::any(), Priority(1), ActionList::drop()).with_hard_timeout(5),
        )
        .unwrap();
        assert!(net.advance_clock(3).is_empty());
        let removed = net.advance_clock(3);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].dpid, DatapathId(1));
    }

    #[test]
    fn unknown_switch_rejected() {
        let net = Network::new(builders::linear(2), 64);
        let err = net
            .apply_flow_mod(
                DatapathId(99),
                &FlowMod::add(FlowMatch::any(), Priority(1), ActionList::drop()),
            )
            .unwrap_err();
        assert!(matches!(err, OfError::BadRequest(_)));
        assert!(net.stats(DatapathId(99), &StatsRequest::Table).is_err());
    }

    #[test]
    fn unknown_host_rejected() {
        let net = Network::new(builders::linear(2), 64);
        let err = net
            .inject_from_host(tcp(77, 2, Ipv4::new(10, 0, 0, 2)))
            .unwrap_err();
        assert!(matches!(err, OfError::BadRequest(_)));
    }

    #[test]
    fn wire_egress_mirrors_flow_mods_and_packet_outs() {
        #[derive(Default)]
        struct Capture {
            fms: Mutex<Vec<FlowMod>>,
            pos: Mutex<Vec<PacketOut>>,
        }
        impl WireEgress for Capture {
            fn flow_mod(&self, fm: &FlowMod) {
                self.fms.lock().push(fm.clone());
            }
            fn packet_out(&self, po: &PacketOut) {
                self.pos.lock().push(po.clone());
            }
        }

        let net = Network::new(builders::linear(2), 64);
        let cap = Arc::new(Capture::default());
        assert!(
            !net.register_wire_egress(DatapathId(99), cap.clone()),
            "unknown dpid rejected"
        );
        assert!(net.register_wire_egress(DatapathId(1), cap.clone()));
        assert_eq!(net.wire_egress_count(), 1);

        let fm = FlowMod::add(FlowMatch::any(), Priority(3), ActionList::drop());
        net.apply_flow_mod(DatapathId(1), &fm).unwrap();
        // A flow-mod on the *other* switch is not mirrored.
        net.apply_flow_mod(DatapathId(2), &fm).unwrap();
        assert_eq!(cap.fms.lock().as_slice(), &[fm]);

        let frame = tcp(1, 2, Ipv4::new(10, 0, 0, 2));
        net.inject_packet_out(
            DatapathId(1),
            PortNo::NONE,
            frame.clone(),
            [Action::Output(PortNo(1))],
        )
        .unwrap();
        {
            let pos = cap.pos.lock();
            assert_eq!(pos.len(), 1);
            assert_eq!(pos[0].payload, frame.to_bytes());
            assert_eq!(pos[0].actions, ActionList::output(PortNo(1)));
        }

        // The simulator shard stayed authoritative.
        assert_eq!(net.flow_count(DatapathId(1)), Some(1));

        assert!(net.deregister_wire_egress(DatapathId(1)));
        assert!(!net.deregister_wire_egress(DatapathId(1)));
        net.apply_flow_mod(
            DatapathId(1),
            &FlowMod::add(FlowMatch::any(), Priority(4), ActionList::drop()),
        )
        .unwrap();
        assert_eq!(cap.fms.lock().len(), 1, "no mirroring after deregister");
    }

    #[test]
    fn concurrent_flow_mods_on_distinct_switches() {
        use std::sync::Arc;
        let net = Arc::new(Network::new(builders::linear(4), 4096));
        std::thread::scope(|s| {
            for d in 1u64..=4 {
                let net = Arc::clone(&net);
                s.spawn(move || {
                    for i in 0..200u16 {
                        net.apply_flow_mod(
                            DatapathId(d),
                            &FlowMod::add(
                                FlowMatch::default().with_tp_dst(i + 1),
                                Priority(10),
                                ActionList::drop(),
                            ),
                        )
                        .unwrap();
                    }
                });
            }
        });
        for d in 1u64..=4 {
            assert_eq!(net.switch(DatapathId(d)).unwrap().table().len(), 200);
        }
    }
}
