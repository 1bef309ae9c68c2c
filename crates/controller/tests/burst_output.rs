//! The output a batched handler returns (`App::on_events` → `BurstOutput`)
//! is applied by the app runtime on the app's own thread, with no deputy
//! crossing: packet-outs first, then the flow operations as one batch, each
//! checked, journaled and audited as the app. These tests pin what that
//! path must keep from the deputy route it replaces: fault containment,
//! enforcement, the journal's command stream, and "quiescent means applied".

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sdnshield_apps::l2_learning::{L2LearningSwitch, L2_MANIFEST};
use sdnshield_controller::app::{App, AppCtx, BurstOutput};
use sdnshield_controller::audit::AuditOutcome;
use sdnshield_controller::command::Command;
use sdnshield_controller::events::Event;
use sdnshield_controller::fault::FaultPlan;
use sdnshield_controller::isolation::{AppState, ShieldedController};
use sdnshield_controller::journal::Journal;
use sdnshield_core::api::{AppId, EventKind};
use sdnshield_core::lang::parse_manifest;
use sdnshield_core::token::PermissionToken;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::messages::{PacketIn, PacketInReason};
use sdnshield_openflow::packet::EthernetFrame;
use sdnshield_openflow::types::{BufferId, DatapathId, EthAddr, Ipv4, PortNo};

const DPID: DatapathId = DatapathId(1);

/// A packet-in on `DPID` from host `src` (seen on port `src % 3 + 1`) to
/// host `dst`, or broadcast when `dst` is `None`.
fn packet_in(src: u64, dst: Option<u64>) -> PacketIn {
    let mut frame = EthernetFrame::arp_request(
        EthAddr::from_u64(src),
        Ipv4::new(10, 0, 0, src as u8),
        Ipv4::new(10, 0, 0, dst.unwrap_or(0) as u8),
    );
    if let Some(dst) = dst {
        frame.dst = EthAddr::from_u64(dst);
    }
    PacketIn {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo((src % 3 + 1) as u16),
        reason: PacketInReason::NoMatch,
        payload: frame.to_bytes(),
    }
}

/// A shielded controller in CBench mode (packet-outs absorbed, no
/// data-plane walk) with `app` registered under `manifest`.
fn controller_with(app: Box<dyn App>, manifest: &str) -> (ShieldedController, AppId) {
    let c = ShieldedController::new(Network::new(builders::linear(2), 1024), 2);
    c.kernel().set_absorb_packet_outs(true);
    let id = c.register(app, &parse_manifest(manifest).unwrap()).unwrap();
    (c, id)
}

fn l2() -> (ShieldedController, AppId) {
    controller_with(Box::new(L2LearningSwitch::new()), L2_MANIFEST)
}

fn count(c: &ShieldedController, app: AppId, op: &str, outcome: AuditOutcome) -> usize {
    c.kernel()
        .audit_records_since(0)
        .iter()
        .filter(|r| r.app == app && r.operation == op && r.outcome == outcome)
        .count()
}

#[test]
fn kernel_panic_while_applying_output_is_contained_not_a_crash() {
    let (c, id) = l2();
    // The first burst's apply panics inside the runtime's guard.
    c.arm_faults(id, FaultPlan::none().panic_in_deputy(1));
    c.deliver_packet_in(DPID, packet_in(1, None));
    assert_eq!(count(&c, id, "send_packet_out", AuditOutcome::Allowed), 0);
    assert_eq!(c.app_state(id), Some(AppState::Running));
    assert_eq!(
        c.crash_count(id),
        0,
        "a kernel panic is not the app's crash"
    );
    // The next burst is served and applied in full: host 1 was learned.
    c.deliver_packet_in(DPID, packet_in(2, Some(1)));
    assert_eq!(c.kernel().flow_count(DPID), 1);
    assert_eq!(count(&c, id, "send_packet_out", AuditOutcome::Allowed), 1);
    assert_eq!(c.app_state(id), Some(AppState::Running));
    c.shutdown();
}

/// L2 with its loading-time requirements waived, so it can run under a
/// manifest that lacks `insert_flow`.
struct L2Unchecked(L2LearningSwitch);

impl App for L2Unchecked {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn required_tokens(&self) -> Vec<PermissionToken> {
        Vec::new()
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        self.0.on_start(ctx);
    }

    fn on_events(&mut self, ctx: &AppCtx, events: &[&Event]) -> BurstOutput {
        self.0.on_events(ctx, events)
    }
}

#[test]
fn output_is_enforced_as_the_app_without_insert_flow() {
    let (c, id) = controller_with(
        Box::new(L2Unchecked(L2LearningSwitch::new())),
        "PERM pkt_in_event\nPERM read_payload\nPERM send_pkt_out",
    );
    c.deliver_packet_in(DPID, packet_in(1, None));
    c.deliver_packet_in(DPID, packet_in(2, Some(1)));
    // Both packet-outs went out; the one rule was refused and audited.
    assert_eq!(count(&c, id, "send_packet_out", AuditOutcome::Allowed), 2);
    assert_eq!(count(&c, id, "batch", AuditOutcome::Denied), 1);
    assert_eq!(count(&c, id, "batch", AuditOutcome::Allowed), 0);
    assert_eq!(c.kernel().flow_count(DPID), 0);
    assert_eq!(c.app_state(id), Some(AppState::Running));
    assert_eq!(c.crash_count(id), 0);
    c.shutdown();
}

#[test]
fn each_burst_journals_one_packet_outs_then_one_batch() {
    let (c, id) = l2();
    let journal = Arc::new(Journal::in_memory());
    c.attach_journal(Arc::clone(&journal));
    // Teach the app eight hosts, one synchronous delivery each.
    for h in 1..=8 {
        c.deliver_packet_in(DPID, packet_in(h, None));
    }
    let learned = journal.trace().len();
    // Two bursts of eight unicast packet-ins to known hosts.
    for round in 0..2u64 {
        let burst = (1..=8)
            .map(|h| (DPID, packet_in(100 + round * 8 + h, Some(h))))
            .collect();
        c.deliver_packet_in_batch(burst);
        c.quiesce();
    }
    let tail: Vec<(&str, usize)> = journal.trace()[learned..]
        .iter()
        .filter_map(|r| match &r.cmd {
            Command::PacketOuts { app, outs } if *app == id => Some(("packet_outs", outs.len())),
            Command::Batch { app, ops } if *app == id => Some(("batch", ops.len())),
            _ => None,
        })
        .collect();
    assert_eq!(
        tail,
        [
            ("packet_outs", 8),
            ("batch", 8),
            ("packet_outs", 8),
            ("batch", 8)
        ]
    );
    c.shutdown();
}

/// Logs each packet-in it sees as `(label, dpid)`. With an inner app it
/// sleeps first on packet-ins from `slow_on`, then delegates: a slow
/// interceptor that must still be served before everyone else.
struct Probe {
    label: &'static str,
    log: Arc<Mutex<Vec<(&'static str, DatapathId)>>>,
    inner: Option<L2LearningSwitch>,
    slow_on: DatapathId,
}

impl App for Probe {
    fn name(&self) -> &str {
        self.label
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        match &mut self.inner {
            Some(inner) => inner.on_start(ctx),
            None => ctx.subscribe(EventKind::PacketIn).unwrap(),
        }
    }

    fn on_events(&mut self, ctx: &AppCtx, events: &[&Event]) -> BurstOutput {
        for event in events {
            if let Event::PacketIn { dpid, .. } = event {
                if self.inner.is_some() && *dpid == self.slow_on {
                    std::thread::sleep(Duration::from_millis(50));
                }
                self.log.lock().unwrap().push((self.label, *dpid));
            }
        }
        match &mut self.inner {
            Some(inner) => inner.on_events(ctx, events),
            None => BurstOutput::default(),
        }
    }
}

/// An event derived from an interceptor's own returned output still
/// reaches that interceptor before any other subscriber (paper §IV-B),
/// and the interceptor's thread never waits on itself.
#[test]
fn interceptor_sees_events_its_output_derived_first() {
    let c = Arc::new(ShieldedController::new(
        Network::new(builders::linear(2), 1024),
        2,
    ));
    let log = Arc::new(Mutex::new(Vec::new()));
    let probe = |label, inner| Probe {
        label,
        log: Arc::clone(&log),
        inner,
        slow_on: DatapathId(2),
    };
    c.register(
        Box::new(probe("plain", None)),
        &parse_manifest("PERM pkt_in_event").unwrap(),
    )
    .unwrap();
    let manifest = L2_MANIFEST.replace(
        "PERM pkt_in_event",
        "PERM pkt_in_event LIMITING EVENT_INTERCEPTION",
    );
    c.register(
        Box::new(probe("interceptor", Some(L2LearningSwitch::new()))),
        &parse_manifest(&manifest).unwrap(),
    )
    .unwrap();
    // Host 1's broadcast is flooded through the data plane (not absorbed):
    // the flood reaches s2, whose packet-in is derived from the L2 app's
    // returned packet-outs.
    let frame = EthernetFrame::arp_request(
        EthAddr::from_u64(1),
        Ipv4::new(10, 0, 0, 1),
        Ipv4::new(10, 0, 0, 2),
    );
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let injector = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            c.inject_host_frame(frame);
            c.quiesce();
            let _ = done_tx.send(());
        })
    };
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the flood's derived packet-in deadlocked");
    injector.join().unwrap();
    let on_s2: Vec<&str> = log
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, dpid)| *dpid == DatapathId(2))
        .map(|(label, _)| *label)
        .collect();
    assert_eq!(on_s2, ["interceptor", "plain"]);
    c.shutdown();
}

#[test]
fn quiesce_after_a_batch_means_every_flow_is_installed() {
    let (c, _) = l2();
    const HOSTS: u64 = 32;
    // Each round teaches the app 32 new hosts, then one burst installs a
    // rule towards each: all of them must be in the table the moment
    // quiesce returns.
    for round in 0..20u64 {
        let fresh = round * HOSTS + 1..=(round + 1) * HOSTS;
        let hellos = fresh.clone().map(|h| (DPID, packet_in(h, None))).collect();
        c.deliver_packet_in_batch(hellos);
        c.quiesce();
        let burst = fresh
            .map(|h| (DPID, packet_in(h + 10_000, Some(h))))
            .collect();
        c.deliver_packet_in_batch(burst);
        c.quiesce();
        let expected = ((round + 1) * HOSTS) as usize;
        assert_eq!(c.kernel().flow_count(DPID), expected, "round {round}");
    }
    c.shutdown();
}
