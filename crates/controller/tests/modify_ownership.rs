//! The ownership filter against `MODIFY` (paper §IV-B): a non-strict modify
//! rewrites — and stamps its cookie on — every entry its match subsumes, at
//! any priority, so `OWN_FLOWS` must judge it by the rules it names. The
//! tracker mirrors the table: a modify hands over every entry it rewrote
//! and records a rule only when it acted as an add.

use std::collections::BTreeSet;

use sdnshield_controller::kernel::Kernel;
use sdnshield_controller::ApiError;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::flow_table::FlowEntry;
use sdnshield_openflow::messages::{FlowMod, FlowModCommand};
use sdnshield_openflow::types::{DatapathId, PortNo, Priority};

use FlowModCommand::{Add, DeleteStrict, Modify, ModifyStrict};

const A: AppId = AppId(1);
const B: AppId = AppId(2);
const C: AppId = AppId(3);
const DPID: DatapathId = DatapathId(1);

/// A and B may touch only their own flows; C may touch every flow.
fn kernel() -> Kernel {
    let kernel = Kernel::new(Network::new(builders::linear(2), 1024), true);
    let own = "PERM insert_flow LIMITING OWN_FLOWS\nPERM delete_flow LIMITING OWN_FLOWS";
    for (app, manifest) in [
        (A, own),
        (B, own),
        (C, "PERM insert_flow LIMITING ALL_FLOWS"),
    ] {
        let manifest = parse_manifest(manifest).unwrap();
        kernel.register_app(app, "app", &manifest).unwrap();
    }
    kernel
}

/// Sends `command` for `(tp_dst, prio)` as `app` — `None` matches every
/// packet and carries no actions. `Ok(false)` means denied.
fn flow_mod(
    kernel: &Kernel,
    app: AppId,
    command: FlowModCommand,
    tp: Option<u16>,
    prio: u16,
) -> Result<bool, ApiError> {
    let (m, actions) = match tp {
        Some(tp) => (
            FlowMatch::default().with_tp_dst(tp),
            ActionList::output(PortNo(1)),
        ),
        None => (FlowMatch::any(), ActionList::default()),
    };
    let mut flow_mod = FlowMod::add(m, Priority(prio), actions);
    flow_mod.command = command;
    let dpid = DPID;
    let kind = if command == DeleteStrict {
        ApiCallKind::DeleteFlow { dpid, flow_mod }
    } else {
        ApiCallKind::InsertFlow { dpid, flow_mod }
    };
    match kernel.execute(&ApiCall::new(app, kind)).0 {
        Ok(_) => Ok(true),
        Err(ApiError::PermissionDenied { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

fn entries(kernel: &Kernel) -> Vec<FlowEntry> {
    let view = kernel.with_network(|n| n.switch_view(DPID)).unwrap();
    view.table.iter().cloned().collect()
}

/// Who owns what, by cookie and by tracker: the two books must agree.
fn assert_books_agree(kernel: &Kernel) {
    let by_cookie: BTreeSet<_> = entries(kernel)
        .into_iter()
        .map(|e| (e.cookie.owner(), format!("{:?}", e.flow_match), e.priority))
        .collect();
    let tracker = kernel.snapshot().tracker.rules;
    let by_tracker: BTreeSet<_> = tracker
        .iter()
        .filter(|(dpid, _)| *dpid == DPID)
        .flat_map(|(_, rules)| rules.iter())
        .map(|(app, m, p)| (app.0, format!("{m:?}"), *p))
        .collect();
    assert_eq!(by_cookie, by_tracker);
}

#[test]
fn non_strict_modify_cannot_rewrite_a_foreign_rule() {
    let kernel = kernel();
    assert_eq!(flow_mod(&kernel, A, Add, Some(80), 100), Ok(true));
    let before = entries(&kernel);

    // B names A's rule through a wildcard modify at priority 0, strictly by
    // its identity, and by shadowing it: all denied.
    assert_eq!(flow_mod(&kernel, B, Modify, None, 0), Ok(false));
    assert_eq!(flow_mod(&kernel, B, ModifyStrict, Some(80), 100), Ok(false));
    assert_eq!(flow_mod(&kernel, B, Add, Some(80), 200), Ok(false));
    assert_eq!(entries(&kernel), before, "A's rule is untouched");
    assert_books_agree(&kernel);

    // A may modify its own rule; B's modify naming no rule acts as an add.
    assert_eq!(flow_mod(&kernel, A, Modify, Some(80), 0), Ok(true));
    assert_eq!(flow_mod(&kernel, B, Modify, Some(81), 50), Ok(true));
    assert_eq!(entries(&kernel).len(), 2);
    assert_books_agree(&kernel);
}

#[test]
fn all_flows_modify_hands_every_rewritten_entry_to_the_modifier() {
    let kernel = kernel();
    for (app, tp, prio) in [(A, 80, 100), (A, 81, 10), (B, 82, 300)] {
        assert_eq!(flow_mod(&kernel, app, Add, Some(tp), prio), Ok(true));
    }
    assert_eq!(flow_mod(&kernel, C, Modify, None, 0), Ok(true));
    let installed = entries(&kernel);
    assert_eq!(installed.len(), 3, "the modify rewrote, it did not add");
    assert!(installed.iter().all(|e| e.cookie.owner() == C.0));
    assert_books_agree(&kernel);
    // The rules are C's now: their former owner cannot delete them.
    assert_eq!(flow_mod(&kernel, A, DeleteStrict, Some(80), 100), Ok(false));
}
