//! Every `AppCtx` request is one kernel `Command`, whichever route carries
//! it: across the deputy channel (with or without the app-side read fast
//! lane) or straight to the kernel on the monolithic baseline. These tests
//! pin that the routes journal the same commands, hand back the same typed
//! returns, and report a sealed kernel the same way.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use sdnshield_controller::api::ApiError;
use sdnshield_controller::app::{App, AppCtx};
use sdnshield_controller::command::Command;
use sdnshield_controller::isolation::{ControllerConfig, ShieldedController};
use sdnshield_controller::journal::Journal;
use sdnshield_controller::monolithic::MonolithicController;
use sdnshield_core::api::EventKind;
use sdnshield_core::lang::parse_manifest;
use sdnshield_core::perm::PermissionSet;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, StatsRequest};
use sdnshield_openflow::packet::EthernetFrame;
use sdnshield_openflow::types::{DatapathId, EthAddr, Ipv4, PortNo, Priority};

use sdnshield_controller::api::FlowOp;

const DPID: DatapathId = DatapathId(1);

/// Grants every token the script uses, unconditionally, so no request is
/// denied and every route must give the same answer.
const SCRIPT_MANIFEST: &str = "\
PERM visible_topology
PERM topology_event
PERM read_flow_table
PERM insert_flow
PERM delete_flow
PERM read_statistics
PERM send_pkt_out
PERM host_network
PERM file_system
PERM process_runtime
";

fn manifest() -> PermissionSet {
    parse_manifest(SCRIPT_MANIFEST).unwrap()
}

/// One switch with one host: a packet-out reaches a host NIC and raises no
/// packet-in, so nothing outside the script submits a command.
fn network() -> Network {
    Network::new(builders::linear(1), 1024)
}

fn rule(tp_dst: u16) -> FlowMod {
    FlowMod::add(
        FlowMatch::default().with_tp_dst(tp_dst),
        Priority(10),
        ActionList::output(PortNo(1)),
    )
}

fn op(tp_dst: u16) -> FlowOp {
    FlowOp {
        dpid: DPID,
        flow_mod: rule(tp_dst),
    }
}

/// Runs a fixed script of every request kind in `on_start` and logs each
/// typed return.
struct ScriptApp {
    log: Arc<Mutex<Vec<String>>>,
}

impl App for ScriptApp {
    fn name(&self) -> &str {
        "script"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        let mut log = self.log.lock().unwrap();
        let frame = EthernetFrame::arp_request(
            EthAddr::from_u64(7),
            Ipv4::new(10, 0, 0, 7),
            Ipv4::new(10, 0, 0, 1),
        );
        log.push(format!("{:?}", ctx.subscribe(EventKind::Topology)));
        log.push(format!("{:?}", ctx.read_topology()));
        log.push(format!("{:?}", ctx.insert_flow(DPID, rule(80))));
        log.push(format!("{:?}", ctx.read_flow_table(DPID, FlowMatch::any())));
        log.push(format!(
            "{:?}",
            ctx.read_statistics(DPID, StatsRequest::Flow(FlowMatch::any()))
        ));
        log.push(format!(
            "{:?}",
            ctx.delete_flow(DPID, FlowMod::delete(FlowMatch::default().with_tp_dst(80)))
        ));
        log.push(format!(
            "{:?}",
            ctx.packet_out_port(DPID, PortNo(1), frame.to_bytes())
        ));
        log.push(format!("{:?}", ctx.transaction(vec![op(81), op(82)])));
        log.push(format!(
            "{:?}",
            ctx.submit_batch(vec![op(83), op(84), op(85)])
        ));
        let conn = ctx.host_connect(Ipv4::new(192, 0, 2, 1), 443);
        log.push(format!("{conn:?}"));
        if let Ok(conn) = conn {
            log.push(format!(
                "{:?}",
                ctx.host_send(conn, Bytes::from_static(b"report"))
            ));
        }
        log.push(format!("{:?}", ctx.subscribe_topic("alto")));
        // Nobody subscribes to this topic: publishing waits on no one.
        log.push(format!(
            "{:?}",
            ctx.publish("news", Bytes::from_static(b"hi"))
        ));
        log.push(format!("{:?}", ctx.open_file("/var/log/app", true)));
        log.push(format!("{:?}", ctx.exec("ping")));
    }
}

/// The commands journaled after the app's registration, plus the script's
/// typed returns.
struct Run {
    commands: Vec<Command>,
    returns: Vec<String>,
    fast_path_hits: u64,
}

fn after_registration(journal: &Journal) -> Vec<Command> {
    let cmds: Vec<Command> = journal
        .records_since(0)
        .into_iter()
        .map(|r| r.cmd)
        .collect();
    let start = cmds
        .iter()
        .position(|c| matches!(c, Command::RegisterApp { .. }))
        .expect("registration is journaled");
    cmds[start + 1..].to_vec()
}

fn run_shielded(read_fast_path: bool) -> Run {
    let c = ShieldedController::new_with_config(
        network(),
        ControllerConfig {
            num_deputies: 2,
            read_fast_path,
            ..ControllerConfig::default()
        },
    );
    let journal = Arc::new(Journal::in_memory());
    c.attach_journal(Arc::clone(&journal));
    let log = Arc::new(Mutex::new(Vec::new()));
    c.register(
        Box::new(ScriptApp {
            log: Arc::clone(&log),
        }),
        &manifest(),
    )
    .unwrap();
    c.quiesce();
    let fast_path_hits = c.fast_path_hits();
    c.shutdown();
    let returns = log.lock().unwrap().clone();
    Run {
        commands: after_registration(&journal),
        returns,
        fast_path_hits,
    }
}

fn run_monolithic() -> Run {
    let m = MonolithicController::new(network());
    let journal = Arc::new(Journal::in_memory());
    m.kernel().attach_journal(Arc::clone(&journal));
    let log = Arc::new(Mutex::new(Vec::new()));
    m.register(
        Box::new(ScriptApp {
            log: Arc::clone(&log),
        }),
        &manifest(),
    );
    let returns = log.lock().unwrap().clone();
    Run {
        commands: after_registration(&journal),
        returns,
        fast_path_hits: 0,
    }
}

#[test]
fn every_request_reaches_the_kernel_as_the_same_command_on_every_route() {
    let deputy = run_shielded(false);
    let fast = run_shielded(true);
    let direct = run_monolithic();

    // The script ran to the end and nothing in it failed.
    assert_eq!(deputy.returns.len(), 15, "{:#?}", deputy.returns);
    for ret in &deputy.returns {
        assert!(ret.starts_with("Ok("), "request failed: {ret}");
    }
    assert!(deputy.returns.contains(&"Ok(3)".to_owned()), "batch count");

    // One journaled command per request except `publish`, which is not a
    // command, and the three reads, which are queries: decided and audited
    // on every route, journaled on none.
    assert_eq!(deputy.commands.len(), deputy.returns.len() - 4);
    assert!(!deputy.commands.iter().any(Command::is_query));
    assert_eq!(deputy.fast_path_hits, 0);
    assert_eq!(deputy.commands, direct.commands, "deputy vs direct route");

    // The fast lane serves the three reads on the app thread; the journal
    // it leaves is the deputy route's, command for command.
    assert_eq!(fast.fast_path_hits, 3);
    assert_eq!(fast.commands, deputy.commands, "fast lane vs deputy route");

    assert_eq!(deputy.returns, direct.returns, "deputy vs direct returns");
    assert_eq!(deputy.returns, fast.returns, "deputy vs fast-lane returns");
}

/// Keeps the app's context so the test thread can issue requests as the
/// app after the kernel is sealed.
struct Stash {
    ctx: Arc<Mutex<Option<AppCtx>>>,
}

impl App for Stash {
    fn name(&self) -> &str {
        "stash"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        *self.ctx.lock().unwrap() = Some(ctx.clone());
    }
}

/// A topic subscription sent to a sealed kernel is refused, as a
/// transaction is, and leaves no subscriber behind.
fn assert_sealed_refuses(ctx: &AppCtx, subscribers: impl Fn() -> usize) {
    let subscribe = ctx.subscribe_topic("late");
    let txn = ctx.transaction(vec![]);
    assert_eq!(
        (subscribe, txn),
        (Err(ApiError::Shutdown), Err(ApiError::Shutdown))
    );
    assert_eq!(subscribers(), 0, "a refused subscription took effect");
}

#[test]
fn subscribe_topic_on_a_sealed_kernel_reports_shutdown_on_the_deputy_route() {
    let c = ShieldedController::new(network(), 2);
    let slot = Arc::new(Mutex::new(None));
    c.register(
        Box::new(Stash {
            ctx: Arc::clone(&slot),
        }),
        &manifest(),
    )
    .unwrap();
    let ctx = slot.lock().unwrap().take().unwrap();
    c.kernel().seal();
    assert_sealed_refuses(&ctx, || c.kernel().topic_subscribers("late").len());
}

#[test]
fn subscribe_topic_on_a_sealed_kernel_reports_shutdown_on_the_direct_route() {
    let m = MonolithicController::new(network());
    let slot = Arc::new(Mutex::new(None));
    m.register(
        Box::new(Stash {
            ctx: Arc::clone(&slot),
        }),
        &manifest(),
    );
    let ctx = slot.lock().unwrap().take().unwrap();
    m.kernel().seal();
    assert_sealed_refuses(&ctx, || m.kernel().topic_subscribers("late").len());
}
