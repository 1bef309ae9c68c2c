//! The monolithic baseline controller: the unmodified-OpenDaylight stand-in
//! the paper compares against (§IX).
//!
//! Apps share the caller's thread, API calls execute directly with no
//! permission checks, and events dispatch by plain function call — the
//! architecture whose lack of isolation motivates SDNShield. The same
//! [`App`] implementations run unchanged on both controllers, and both
//! mutate the network through the same kernel seam
//! ([`Kernel::submit`]): the baseline is that seam with checks off, not a
//! second write path.
//!
//! Deliberately absent: panic containment. A crashing app unwinds through
//! the controller itself — exactly the monolithic fragility the paper's
//! thread containers eliminate (compare
//! [`crate::isolation::ShieldedController`], where app panics terminate
//! only the offending app's thread).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sdnshield_core::api::AppId;
use sdnshield_core::perm::PermissionSet;
use sdnshield_netsim::network::Network;
use sdnshield_openflow::messages::PacketIn;
use sdnshield_openflow::packet::EthernetFrame;
use sdnshield_openflow::types::DatapathId;

use crate::app::{App, AppCtx, CallRoute};
use crate::events::Event;
use crate::kernel::{Kernel, OutboundEvent};

/// Safety valve: maximum event-cascade rounds per external stimulus.
const MAX_CASCADE: usize = 64;

/// The monolithic controller.
///
/// # Examples
///
/// ```
/// use sdnshield_controller::monolithic::MonolithicController;
/// use sdnshield_netsim::network::Network;
/// use sdnshield_netsim::topology::builders;
///
/// let controller = MonolithicController::new(Network::new(builders::linear(2), 1024));
/// assert_eq!(controller.kernel().flow_count(sdnshield_openflow::types::DatapathId(1)), 0);
/// ```
pub struct MonolithicController {
    kernel: Arc<Kernel>,
    apps: Mutex<HashMap<AppId, Box<dyn App>>>,
    pending: Arc<Mutex<VecDeque<OutboundEvent>>>,
    next_app: AtomicU16,
}

impl MonolithicController {
    /// Builds the baseline controller (permission checks disabled).
    pub fn new(network: Network) -> Self {
        MonolithicController {
            kernel: Arc::new(Kernel::new(network, false)),
            apps: Mutex::new(HashMap::new()),
            pending: Arc::new(Mutex::new(VecDeque::new())),
            next_app: AtomicU16::new(1),
        }
    }

    /// The kernel, for inspection.
    pub fn kernel(&self) -> Arc<Kernel> {
        Arc::clone(&self.kernel)
    }

    /// Registers an app. The manifest is recorded for parity with the
    /// shielded controller but **not enforced** — that is the point of the
    /// baseline.
    pub fn register(&self, mut app: Box<dyn App>, manifest: &PermissionSet) -> AppId {
        let id = AppId(self.next_app.fetch_add(1, Ordering::Relaxed));
        let name = app.name().to_owned();
        // Registration cannot fail: checks are disabled, virtual topologies
        // are not materialized (the baseline has no such feature).
        let _ = self.kernel.register_app(id, &name, manifest);
        let ctx = self.ctx(id);
        app.on_start(&ctx);
        self.apps.lock().insert(id, app);
        self.drain_cascade();
        id
    }

    fn ctx(&self, id: AppId) -> AppCtx {
        AppCtx::new(
            id,
            CallRoute::Direct {
                kernel: Arc::clone(&self.kernel),
                pending: Arc::clone(&self.pending),
            },
            None,
        )
    }

    /// Delivers a packet-in to subscribers by direct call, then drains the
    /// resulting event cascade.
    pub fn deliver_packet_in(&self, dpid: DatapathId, packet_in: PacketIn) {
        let events = self.kernel.feed_packet_in(dpid, packet_in);
        self.pending.lock().extend(events);
        self.drain_cascade();
    }

    /// Alias of [`MonolithicController::deliver_packet_in`]: the baseline is
    /// inherently synchronous, so "no-wait" delivery degenerates to the same
    /// thing (kept for driver symmetry in benches).
    pub fn deliver_packet_in_nowait(&self, dpid: DatapathId, packet_in: PacketIn) {
        self.deliver_packet_in(dpid, packet_in);
    }

    /// Injects a data-plane frame from a host.
    pub fn inject_host_frame(&self, frame: EthernetFrame) {
        let events = self.kernel.inject_host_frame(frame);
        self.pending.lock().extend(events);
        self.drain_cascade();
    }

    /// Fails a physical link and notifies topology subscribers. Returns
    /// whether the link existed.
    pub fn fail_link(&self, a: DatapathId, b: DatapathId) -> bool {
        match self.kernel.fail_link(a, b) {
            Some(event) => {
                self.pending.lock().push_back(event);
                self.drain_cascade();
                true
            }
            None => false,
        }
    }

    /// Publishes a custom event from outside the app layer (test drivers).
    pub fn publish_topic(&self, topic: &str, data: bytes::Bytes) {
        self.pending.lock().push_back(OutboundEvent {
            event: Event::Custom {
                topic: topic.to_owned(),
                data,
            },
        });
        self.drain_cascade();
    }

    /// Fires a topology-change notification to subscribed apps (the ALTO
    /// scenario driver).
    pub fn deliver_topology_change(&self, description: &str) {
        self.pending.lock().push_back(OutboundEvent {
            event: Event::TopologyChanged {
                description: description.to_owned(),
            },
        });
        self.drain_cascade();
    }

    /// Advances the virtual clock.
    pub fn advance_clock(&self, secs: u64) {
        let events = self.kernel.advance_clock(secs);
        self.pending.lock().extend(events);
        self.drain_cascade();
    }

    /// Processes queued events until quiescence (bounded by
    /// [`MAX_CASCADE`] rounds to survive event loops).
    fn drain_cascade(&self) {
        for _ in 0..MAX_CASCADE {
            let Some(out) = self.pending.lock().pop_front() else {
                return;
            };
            // Sequential processing in subscriber order (interceptors lead)
            // gives the baseline phased semantics for free.
            let targets: Vec<AppId> = match &out.event {
                Event::Custom { topic, .. } => self.kernel.topic_subscribers(topic),
                other => match other.kind() {
                    Some(kind) => self.kernel.subscribers(kind),
                    None => Vec::new(),
                },
            };
            for target in targets {
                let Some(view) = self.kernel.event_view_for(target, &out.event) else {
                    continue;
                };
                // Take the app out so its `on_event` can issue calls that
                // enqueue further events without deadlocking on the map.
                let Some(mut app) = self.apps.lock().remove(&target) else {
                    continue;
                };
                let ctx = self.ctx(target);
                app.on_event(&ctx, &view);
                self.apps.lock().insert(target, app);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnshield_core::api::EventKind;
    use sdnshield_netsim::topology::builders;
    use sdnshield_openflow::actions::ActionList;
    use sdnshield_openflow::flow_match::FlowMatch;
    use sdnshield_openflow::messages::{FlowMod, PacketInReason};
    use sdnshield_openflow::types::{BufferId, PortNo, Priority};

    /// Installs one rule per packet-in, unconditionally.
    struct RuleStamper;

    impl App for RuleStamper {
        fn name(&self) -> &str {
            "rule-stamper"
        }

        fn on_start(&mut self, ctx: &AppCtx) {
            ctx.subscribe(EventKind::PacketIn).unwrap();
        }

        fn on_event(&mut self, ctx: &AppCtx, event: &Event) {
            if let Event::PacketIn { dpid, .. } = event {
                ctx.insert_flow(
                    *dpid,
                    FlowMod::add(
                        FlowMatch::default().with_tp_dst(80),
                        Priority(10),
                        ActionList::output(PortNo(1)),
                    ),
                )
                .unwrap();
            }
        }
    }

    fn pi() -> PacketIn {
        PacketIn {
            buffer_id: BufferId::NO_BUFFER,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            payload: bytes::Bytes::from_static(b"x"),
        }
    }

    #[test]
    fn event_drives_rule_installation_without_checks() {
        let c = MonolithicController::new(Network::new(builders::linear(2), 64));
        c.register(Box::new(RuleStamper), &PermissionSet::new());
        c.deliver_packet_in(DatapathId(1), pi());
        assert_eq!(c.kernel().flow_count(DatapathId(1)), 1);
        // No manifest, still allowed: the baseline enforces nothing.
    }

    #[test]
    fn unsubscribed_app_sees_nothing() {
        struct Deaf;
        impl App for Deaf {
            fn name(&self) -> &str {
                "deaf"
            }
            fn on_event(&mut self, _ctx: &AppCtx, _event: &Event) {
                panic!("should never be called");
            }
        }
        let c = MonolithicController::new(Network::new(builders::linear(2), 64));
        c.register(Box::new(Deaf), &PermissionSet::new());
        c.deliver_packet_in(DatapathId(1), pi());
    }
}
