//! A kernel is a passive object: building one, running a journaled call
//! through it and recovering a second one from its journal start no OS
//! thread. The one test lives alone in this binary so that no other test's
//! threads share the process while it counts.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use sdnshield_controller::journal::Journal;
use sdnshield_controller::kernel::Kernel;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::FlowMod;
use sdnshield_openflow::types::{DatapathId, PortNo, Priority};

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

fn net() -> Network {
    Network::new(builders::linear(2), 16_384)
}

#[test]
fn kernel_new_execute_and_recover_start_no_thread() {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "sdnshield-kernel-threads-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let before = os_threads();

    let kernel = Kernel::new(net(), true);
    let snapshot = kernel.snapshot();
    assert_eq!(os_threads(), before, "Kernel::new");

    let journal = Arc::new(Journal::open(&path).unwrap());
    kernel.attach_journal(Arc::clone(&journal));
    let app = AppId(1);
    kernel
        .register_app(app, "writer", &parse_manifest("PERM insert_flow").unwrap())
        .unwrap();
    let insert = ApiCall::new(
        app,
        ApiCallKind::InsertFlow {
            dpid: DatapathId(1),
            flow_mod: FlowMod::add(
                FlowMatch::default().with_tp_dst(80),
                Priority(100),
                ActionList::output(PortNo(1)),
            ),
        },
    );
    kernel.execute(&insert).0.expect("permitted insert");
    assert_eq!(journal.len(), 2, "registration + insert journaled");
    assert_eq!(os_threads(), before, "journaled execute");

    drop(Kernel::recover(net(), &snapshot, &journal));
    assert_eq!(os_threads(), before, "Kernel::recover + drop");

    drop(kernel);
    drop(journal);
    let _ = std::fs::remove_file(&path);
}
