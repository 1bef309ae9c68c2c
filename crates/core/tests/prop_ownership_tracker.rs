//! Differential property test: the indexed `OwnershipTracker` (per-switch
//! insertion-ordered records with holes, plus a `(match, priority)` index)
//! must match a naive `Vec`-scan model after every step of a random
//! flow-mod/expiry sequence — same snapshot, record order included, same
//! `owns`/`count` answers — and `restore(snapshot())` must round-trip.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdnshield_core::api::AppId;
use sdnshield_core::engine::{OwnershipTracker, TrackedRules};
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, FlowModCommand};
use sdnshield_openflow::types::{DatapathId, Ipv4, PortNo, Priority};

/// The oracle: one `Vec` per switch, every operation a scan, mirroring what
/// `FlowTable::apply` does with each command.
#[derive(Default)]
struct Model(BTreeMap<DatapathId, TrackedRules>);

impl Model {
    fn apply(&mut self, step: &Step) {
        let (dpid, m, p) = match step {
            Step::Mod(_, dpid, fm) => (dpid, &fm.flow_match, fm.priority),
            Step::Expire(dpid, m, p) => (dpid, m, *p),
        };
        let same = |r: &(AppId, FlowMatch, Priority)| r.1 == *m && r.2 == p;
        let Step::Mod(app, _, fm) = step else {
            if let Some(rules) = self.0.get_mut(dpid) {
                rules.retain(|r| !same(r));
            }
            return;
        };
        let rules = self.0.entry(*dpid).or_default();
        match fm.command {
            FlowModCommand::Add | FlowModCommand::ModifyStrict => {
                match rules.iter_mut().find(|r| same(r)) {
                    Some(r) => r.0 = *app,
                    None => rules.push((*app, m.clone(), p)),
                }
            }
            FlowModCommand::Modify => {
                let mut hit = false;
                for r in rules.iter_mut().filter(|r| m.subsumes(&r.1)) {
                    r.0 = *app;
                    hit = true;
                }
                if !hit {
                    rules.push((*app, m.clone(), p));
                }
            }
            FlowModCommand::Delete => rules.retain(|r| !m.subsumes(&r.1)),
            FlowModCommand::DeleteStrict => rules.retain(|r| !same(r)),
        }
    }
}

#[derive(Debug, Clone)]
enum Step {
    Mod(AppId, DatapathId, FlowMod),
    Expire(DatapathId, FlowMatch, Priority),
}

const PRIOS: [u16; 3] = [10, 20, 30];

/// A small universe so random sequences collide: identical keys recur,
/// wildcards subsume, and `tp_dst` `None` meets `Some(0)`.
fn small_match(shape: u8, v: u16) -> FlowMatch {
    let ip = Ipv4::new(10, 0, 0, v as u8);
    match shape {
        0 => FlowMatch::any(),
        1 => FlowMatch::default().with_tp_dst(v),
        2 => FlowMatch::default().with_ip_dst(ip),
        _ => FlowMatch::default().with_ip_dst(ip).with_tp_dst(v),
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..6, 1u16..=3, 1u64..=2, 0u8..4, 0u16..3, 0usize..3).prop_map(
        |(cmd, app, dpid, shape, v, prio)| {
            let (m, p) = (small_match(shape, v), Priority(PRIOS[prio]));
            let command = match cmd {
                0 => FlowModCommand::Add,
                1 => FlowModCommand::Modify,
                2 => FlowModCommand::ModifyStrict,
                3 => FlowModCommand::Delete,
                4 => FlowModCommand::DeleteStrict,
                _ => return Step::Expire(DatapathId(dpid), m, p),
            };
            let mut fm = FlowMod::add(m, p, ActionList::output(PortNo(1)));
            fm.command = command;
            Step::Mod(AppId(app), DatapathId(dpid), fm)
        },
    )
}

fn apply(tracker: &mut OwnershipTracker, step: &Step) {
    match step {
        Step::Mod(app, dpid, fm) => tracker.record_flow_mod(*app, *dpid, fm),
        Step::Expire(dpid, m, p) => tracker.record_expiry(*dpid, m, *p),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_tracker_matches_scan_model(
        steps in proptest::collection::vec(arb_step(), 0..120),
    ) {
        let mut tracker = OwnershipTracker::new();
        let mut model = Model::default();
        for (n, step) in steps.iter().enumerate() {
            // A tracker restored from the previous step's image goes on
            // exactly like the original: the index is rebuilt, not copied.
            let mut restored = OwnershipTracker::restore(&tracker.snapshot());
            apply(&mut tracker, step);
            apply(&mut restored, step);
            model.apply(step);
            let snap = tracker.snapshot();
            let expected: Vec<_> = model.0.iter().map(|(d, r)| (*d, r.clone())).collect();
            prop_assert_eq!(&snap.rules, &expected, "diverged at step {}: {:?}", n, step);
            prop_assert_eq!(snap.epoch, n as u64 + 1);
            prop_assert_eq!(&restored.snapshot(), &snap);
            prop_assert_eq!(&OwnershipTracker::restore(&snap).snapshot(), &snap);
            let keys = (0..4).flat_map(|s| (0..3).map(move |v| small_match(s, v)));
            for dpid in [DatapathId(1), DatapathId(2)] {
                let rules = model.0.get(&dpid).cloned().unwrap_or_default();
                for app in [AppId(1), AppId(2), AppId(3)] {
                    let count = rules.iter().filter(|r| r.0 == app).count();
                    prop_assert_eq!(tracker.count(app, dpid) as usize, count);
                    for (m, p) in keys.clone().flat_map(|m| PRIOS.map(|p| (m.clone(), Priority(p)))) {
                        let owns = rules.contains(&(app, m.clone(), p));
                        prop_assert_eq!(tracker.owns(app, dpid, &m, p), owns);
                    }
                }
            }
        }
    }
}
