//! Differential property tests of the app-side read fast path: a kernel
//! whose read calls go through [`Kernel::try_serve_read`] (falling back to
//! `execute`, exactly as [`sdnshield_controller::app::AppCtx`] does) must be
//! observationally identical to a pure-deputy kernel fed the same call
//! script — across arbitrary manifests, call sequences, and epoch-bumping
//! tracker mutations interleaved mid-sequence.
//!
//! Structural guarantees proved here:
//!
//! * the fast path never returns a decision the deputy path would not;
//! * every mutating call and every stateful-plan read returns `None` from
//!   the fast path (it must traverse the deputy);
//! * under a concurrent epoch-bumping mutator, fast-path answers for
//!   call-only plans never waver (the epoch-keyed decision cache cannot
//!   leak a stale verdict);
//! * at controller level, an app observes identical results with the fast
//!   lane on and off — and the `#[ignore]`d tier-2 test asserts the lane's
//!   ≥2× latency win on multi-core hosts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use proptest::prelude::*;

use sdnshield_controller::app::{App, AppCtx};
use sdnshield_controller::events::Event;
use sdnshield_controller::isolation::{ControllerConfig, ShieldedController};
use sdnshield_controller::kernel::Kernel;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId, EventKind};
use sdnshield_core::filter::{
    ActionConstraint, FilterExpr, Ownership, PktOutSource, SingletonFilter, StatsLevel,
};
use sdnshield_core::lang::parse_manifest;
use sdnshield_core::perm::{Permission, PermissionSet};
use sdnshield_core::token::PermissionToken;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::builders;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::{FlowMod, PacketIn, PacketInReason, PacketOut, StatsRequest};
use sdnshield_openflow::types::{BufferId, DatapathId, Ipv4, PortNo, Priority};

const READER: AppId = AppId(1);
const MUTATOR: AppId = AppId(2);

/// Singleton filters spanning every literal class the compiler
/// distinguishes: static, call-only, stateful, and stubs — the fast path
/// must defer to the deputy exactly when a stateful literal (or a plan the
/// compiler could not reduce to call-only) is in play.
fn arb_singleton() -> impl Strategy<Value = SingletonFilter> {
    prop_oneof![
        (0u32..4, 8u8..=24).prop_map(|(net, len)| {
            SingletonFilter::Pred(FlowMatch {
                ip_dst: Some(MaskedIpv4::prefix(Ipv4(net << 24), len)),
                ..FlowMatch::default()
            })
        }),
        (0u16..200).prop_map(SingletonFilter::MaxPriority),
        (0u16..200).prop_map(SingletonFilter::MinPriority),
        prop_oneof![
            Just(SingletonFilter::Action(ActionConstraint::Forward)),
            Just(SingletonFilter::Action(ActionConstraint::Drop)),
        ],
        prop_oneof![
            Just(SingletonFilter::Ownership(Ownership::OwnFlows)),
            Just(SingletonFilter::Ownership(Ownership::AllFlows)),
        ],
        (0u32..4).prop_map(SingletonFilter::MaxRuleCount),
        prop_oneof![
            Just(SingletonFilter::PktOut(PktOutSource::FromPktIn)),
            Just(SingletonFilter::PktOut(PktOutSource::Arbitrary)),
        ],
        prop_oneof![
            Just(SingletonFilter::Stats(StatsLevel::FlowLevel)),
            Just(SingletonFilter::Stats(StatsLevel::PortLevel)),
            Just(SingletonFilter::Stats(StatsLevel::SwitchLevel)),
        ],
        Just(SingletonFilter::Stub("AdminRange".into())),
    ]
}

fn arb_filter() -> impl Strategy<Value = FilterExpr> {
    let leaf = prop_oneof![
        Just(FilterExpr::True),
        arb_singleton().prop_map(FilterExpr::Atom),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(FilterExpr::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(FilterExpr::Or),
            inner.prop_map(|x| FilterExpr::Not(Box::new(x))),
        ]
    })
}

fn flow_mod(net: u32, len: u8, prio: u16, drop: bool) -> FlowMod {
    let actions = if drop {
        ActionList::drop()
    } else {
        ActionList::output(PortNo(1))
    };
    FlowMod::add(
        FlowMatch {
            ip_dst: Some(MaskedIpv4::prefix(Ipv4(net << 24), len)),
            ..FlowMatch::default()
        },
        Priority(prio),
        actions,
    )
}

/// The reader's calls: every fast-path-eligible read kind plus the mutating
/// kinds that must always traverse the deputy.
fn arb_call() -> impl Strategy<Value = ApiCall> {
    prop_oneof![
        Just(ApiCall::new(READER, ApiCallKind::ReadTopology)),
        (0u32..4, 8u8..=32).prop_map(|(net, len)| {
            ApiCall::new(
                READER,
                ApiCallKind::ReadFlowTable {
                    dpid: DatapathId(1),
                    query: FlowMatch {
                        ip_dst: Some(MaskedIpv4::prefix(Ipv4(net << 24), len)),
                        ..FlowMatch::default()
                    },
                },
            )
        }),
        (0u8..3).prop_map(|lvl| {
            let request = match lvl {
                0 => StatsRequest::Flow(FlowMatch::any()),
                1 => StatsRequest::Port(PortNo::NONE),
                _ => StatsRequest::Table,
            };
            ApiCall::new(
                READER,
                ApiCallKind::ReadStatistics {
                    dpid: DatapathId(1),
                    request,
                },
            )
        }),
        (0u32..4, 8u8..=32, 0u16..200, any::<bool>()).prop_map(|(net, len, prio, drop)| {
            ApiCall::new(
                READER,
                ApiCallKind::InsertFlow {
                    dpid: DatapathId(1),
                    flow_mod: flow_mod(net, len, prio, drop),
                },
            )
        }),
        (0u32..4, 8u8..=32, 0u16..200, any::<bool>()).prop_map(|(net, len, prio, drop)| {
            ApiCall::new(
                READER,
                ApiCallKind::DeleteFlow {
                    dpid: DatapathId(1),
                    flow_mod: flow_mod(net, len, prio, drop),
                },
            )
        }),
        (0u8..4).prop_map(|which| {
            ApiCall::new(
                READER,
                ApiCallKind::SendPacketOut {
                    dpid: DatapathId(1),
                    packet_out: PacketOut {
                        buffer_id: BufferId::NO_BUFFER,
                        in_port: PortNo(1),
                        actions: ActionList::output(PortNo(2)),
                        payload: bytes::Bytes::from(vec![which]),
                    },
                },
            )
        }),
    ]
}

/// One step of a script: a reader call, or an epoch-bumping mutation issued
/// by a second app (a real mediated insert — it records ownership in the
/// tracker and therefore bumps the context epoch).
#[derive(Debug, Clone)]
enum Step {
    Call(ApiCall),
    Mutate { net: u32, prio: u16 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_call().prop_map(Step::Call),
        arb_call().prop_map(Step::Call),
        arb_call().prop_map(Step::Call),
        (0u32..4, 0u16..200).prop_map(|(net, prio)| Step::Mutate { net, prio }),
    ]
}

/// Two kernels registered identically: the reader under the generated
/// filter manifest, the mutator with unconditional insert rights.
fn kernel_pair(filter: &FilterExpr) -> (Kernel, Kernel) {
    let manifest = PermissionSet::from_permissions([
        Permission::limited(PermissionToken::ReadFlowTable, filter.clone()),
        Permission::limited(PermissionToken::VisibleTopology, filter.clone()),
        Permission::limited(PermissionToken::ReadStatistics, filter.clone()),
        Permission::limited(PermissionToken::InsertFlow, filter.clone()),
        Permission::limited(PermissionToken::DeleteFlow, filter.clone()),
        Permission::limited(PermissionToken::SendPktOut, filter.clone()),
    ]);
    let mutator_manifest = parse_manifest("PERM insert_flow").unwrap();
    let mk = || {
        let k = Kernel::new(Network::new(builders::linear(2), 1024), true);
        k.register_app(READER, "reader", &manifest).unwrap();
        k.register_app(MUTATOR, "mutator", &mutator_manifest)
            .unwrap();
        k
    };
    (mk(), mk())
}

fn mutate(kernel: &Kernel, net: u32, prio: u16) {
    let call = ApiCall::new(
        MUTATOR,
        ApiCallKind::InsertFlow {
            dpid: DatapathId(2),
            flow_mod: flow_mod(net, 16, prio, false),
        },
    );
    kernel.execute(&call).0.unwrap();
}

fn is_read(kind: &ApiCallKind) -> bool {
    matches!(
        kind,
        ApiCallKind::ReadTopology
            | ApiCallKind::ReadFlowTable { .. }
            | ApiCallKind::ReadStatistics { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The whole-script differential: a kernel answering reads through the
    /// fast path whenever it volunteers must match a pure-deputy kernel
    /// call for call, with epoch-bumping mutations interleaved anywhere in
    /// the sequence. Mutating calls must never be fast-served.
    #[test]
    fn fast_path_matches_pure_deputy_kernel(
        f in arb_filter(),
        script in proptest::collection::vec(arb_step(), 1..24),
    ) {
        let (fast_kernel, deputy_kernel) = kernel_pair(&f);
        for step in &script {
            match step {
                Step::Mutate { net, prio } => {
                    let before = fast_kernel.context_epoch();
                    mutate(&fast_kernel, *net, *prio);
                    mutate(&deputy_kernel, *net, *prio);
                    prop_assert!(
                        fast_kernel.context_epoch() != before,
                        "a recorded insert must bump the context epoch"
                    );
                }
                Step::Call(call) => {
                    let fast = match fast_kernel.try_serve_read(call) {
                        Some(result) => {
                            prop_assert!(
                                is_read(&call.kind),
                                "fast path served a non-read call: {:?}", call.kind
                            );
                            result
                        }
                        // Exactly what AppCtx does on a fast-path miss.
                        None => fast_kernel.execute(call).0,
                    };
                    let deputy = deputy_kernel.execute(call).0;
                    prop_assert_eq!(
                        fast, deputy,
                        "fast and deputy kernels diverged on {:?}", call.kind
                    );
                }
            }
        }
    }

    /// Mutating kinds are structurally barred from the fast lane, whatever
    /// the manifest says.
    #[test]
    fn mutating_calls_never_fast_served(
        f in arb_filter(),
        net in 0u32..4,
        prio in 0u16..200,
    ) {
        let (kernel, _) = kernel_pair(&f);
        let mutating = [
            ApiCallKind::InsertFlow { dpid: DatapathId(1), flow_mod: flow_mod(net, 16, prio, false) },
            ApiCallKind::DeleteFlow { dpid: DatapathId(1), flow_mod: flow_mod(net, 16, prio, false) },
            ApiCallKind::SendPacketOut {
                dpid: DatapathId(1),
                packet_out: PacketOut {
                    buffer_id: BufferId::NO_BUFFER,
                    in_port: PortNo(1),
                    actions: ActionList::output(PortNo(2)),
                    payload: bytes::Bytes::new(),
                },
            },
        ];
        for kind in mutating {
            let call = ApiCall::new(READER, kind);
            prop_assert!(kernel.try_serve_read(&call).is_none());
        }
    }
}

/// A stateful-plan read (MAX_RULE_COUNT consults the tracker's live rule
/// count) must always defer to the deputy, even though the call kind is
/// fast-path-eligible.
#[test]
fn stateful_plan_reads_defer_to_deputy() {
    let manifest = PermissionSet::from_permissions([Permission::limited(
        PermissionToken::ReadStatistics,
        FilterExpr::Atom(SingletonFilter::MaxRuleCount(5)),
    )]);
    let kernel = Kernel::new(Network::new(builders::linear(1), 1024), true);
    kernel.register_app(READER, "reader", &manifest).unwrap();
    let call = ApiCall::new(
        READER,
        ApiCallKind::ReadStatistics {
            dpid: DatapathId(1),
            request: StatsRequest::Table,
        },
    );
    assert!(
        kernel.try_serve_read(&call).is_none(),
        "a stateful plan must not be served on the fast path"
    );
    // The deputy path still answers it.
    let (result, _) = kernel.execute(&call);
    assert!(result.is_ok());
}

/// Forced epoch races: a mutator thread hammers the tracker (every insert
/// bumps the context epoch) while the main thread reads through the fast
/// path. Call-only decisions are epoch-independent — the epoch only keys
/// the decision cache — so any waver in the answers would be a stale cache
/// entry leaking across an epoch change.
#[test]
fn concurrent_epoch_bumps_never_change_call_only_decisions() {
    // SWITCH_LEVEL is the coarsest grant: table summaries pass, flow-level
    // detail is denied — both verdicts are call-only (epoch-independent).
    let manifest = PermissionSet::from_permissions([Permission::limited(
        PermissionToken::ReadStatistics,
        FilterExpr::Atom(SingletonFilter::Stats(StatsLevel::SwitchLevel)),
    )]);
    let kernel = Arc::new(Kernel::new(Network::new(builders::linear(2), 1024), true));
    kernel.register_app(READER, "reader", &manifest).unwrap();
    kernel
        .register_app(
            MUTATOR,
            "mutator",
            &parse_manifest("PERM insert_flow").unwrap(),
        )
        .unwrap();
    let allowed_call = ApiCall::new(
        READER,
        ApiCallKind::ReadStatistics {
            dpid: DatapathId(1),
            request: StatsRequest::Table,
        },
    );
    let denied_call = ApiCall::new(
        READER,
        ApiCallKind::ReadStatistics {
            dpid: DatapathId(1),
            request: StatsRequest::Flow(FlowMatch::any()),
        },
    );
    let stop = Arc::new(AtomicBool::new(false));
    let mutator = {
        let kernel = Arc::clone(&kernel);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut prio = 0u16;
            while !stop.load(Ordering::Relaxed) {
                prio = prio.wrapping_add(1);
                mutate(&kernel, u32::from(prio) % 4, prio % 200);
            }
        })
    };
    let mut hits = 0u32;
    for _ in 0..4_000 {
        if let Some(result) = kernel.try_serve_read(&allowed_call) {
            assert!(result.is_ok(), "allowed call wavered under epoch races");
            hits += 1;
        }
        if let Some(result) = kernel.try_serve_read(&denied_call) {
            let err = result.expect_err("denied call wavered under epoch races");
            assert!(err.is_denied());
            hits += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    mutator.join().unwrap();
    assert!(hits > 0, "the fast path never served a single call");
}

/// An app that performs a fixed read/write script and records every result
/// (debug-formatted) for comparison across controller configurations.
struct ScriptedReader {
    log: Arc<Mutex<Vec<String>>>,
}

impl App for ScriptedReader {
    fn name(&self) -> &str {
        "scripted-reader"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        let mut log = self.log.lock().unwrap();
        for round in 0u16..4 {
            log.push(format!("{:?}", ctx.read_topology()));
            log.push(format!(
                "{:?}",
                ctx.read_flow_table(DatapathId(1), FlowMatch::any())
            ));
            log.push(format!(
                "{:?}",
                ctx.read_statistics(DatapathId(1), StatsRequest::Table)
            ));
            // A mutating call mid-script: bumps the context epoch, so the
            // next round's reads cross an invalidation boundary.
            log.push(format!(
                "{:?}",
                ctx.insert_flow(
                    DatapathId(1),
                    FlowMod::add(
                        FlowMatch::default().with_tp_dst(round + 1),
                        Priority(100),
                        ActionList::output(PortNo(1)),
                    ),
                )
            ));
        }
    }

    fn on_event(&mut self, _ctx: &AppCtx, _event: &Event) {}
}

fn run_scripted(read_fast_path: bool) -> (Vec<String>, u64) {
    let c = ShieldedController::new_with_config(
        Network::new(builders::linear(2), 1024),
        ControllerConfig {
            read_fast_path,
            ..ControllerConfig::default()
        },
    );
    let log = Arc::new(Mutex::new(Vec::new()));
    c.register(
        Box::new(ScriptedReader {
            log: Arc::clone(&log),
        }),
        &parse_manifest(
            "PERM read_flow_table\nPERM visible_topology\nPERM read_statistics\nPERM insert_flow",
        )
        .unwrap(),
    )
    .unwrap();
    c.quiesce();
    let hits = c.fast_path_hits();
    c.shutdown();
    let log = log.lock().unwrap().clone();
    (log, hits)
}

/// Controller-level differential: the same app observes byte-identical
/// results with the fast lane on and off — and the lane actually engages
/// when enabled.
#[test]
fn controller_results_identical_with_fast_lane_on_and_off() {
    let (fast_log, fast_hits) = run_scripted(true);
    let (deputy_log, deputy_hits) = run_scripted(false);
    assert_eq!(fast_log, deputy_log);
    assert!(
        fast_hits >= 12,
        "expected all 12 reads on the fast lane, got {fast_hits}"
    );
    assert_eq!(deputy_hits, 0, "disabled lane must never serve a call");
}

/// A packet-in handler that issues a burst of mediated reads per event —
/// the workload whose latency the fast lane exists to cut.
struct ReadHeavy;

impl App for ReadHeavy {
    fn name(&self) -> &str {
        "read-heavy"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        ctx.subscribe(EventKind::PacketIn).expect("subscribe");
    }

    fn on_event(&mut self, ctx: &AppCtx, event: &Event) {
        let Event::PacketIn { dpid, .. } = event else {
            return;
        };
        for _ in 0..16 {
            let _ = ctx.read_statistics(*dpid, StatsRequest::Table);
        }
    }
}

fn mediated_read_latency(read_fast_path: bool, events: usize) -> f64 {
    let c = ShieldedController::new_with_config(
        Network::new(builders::linear(1), 1_000_000),
        ControllerConfig {
            read_fast_path,
            ..ControllerConfig::default()
        },
    );
    c.register(
        Box::new(ReadHeavy),
        &parse_manifest("PERM pkt_in_event\nPERM read_statistics").unwrap(),
    )
    .unwrap();
    let mk_pi = |i: usize| PacketIn {
        buffer_id: BufferId::NO_BUFFER,
        in_port: PortNo(1),
        reason: PacketInReason::NoMatch,
        payload: bytes::Bytes::from(vec![i as u8; 8]),
    };
    for i in 0..64 {
        c.deliver_packet_in(DatapathId(1), mk_pi(i));
    }
    let t = Instant::now();
    for i in 0..events {
        c.deliver_packet_in(DatapathId(1), mk_pi(i));
    }
    let elapsed = t.elapsed().as_secs_f64();
    c.shutdown();
    elapsed / events as f64
}

/// Tier-2 (run explicitly with `cargo test -- --ignored` on a multi-core
/// host): serving a read-heavy handler's calls on the fast lane must beat
/// the pure-deputy path by ≥2× on mediated packet-in latency. Meaningless
/// on single-core CI runners, where the app and deputy threads cannot
/// overlap — hence ignored by default.
#[test]
#[ignore = "tier-2 fast-lane assertion; needs >= 2 hardware threads"]
fn fast_lane_beats_pure_deputy_by_2x() {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert!(
        parallelism >= 2,
        "host has {parallelism} hardware threads; the lane's win cannot materialize"
    );
    let events = 1_000;
    let deputy = mediated_read_latency(false, events);
    let fast = mediated_read_latency(true, events);
    assert!(
        deputy >= 2.0 * fast,
        "fast lane {:.2}us/event vs deputy {:.2}us/event — speedup {:.2}x < 2x",
        fast * 1e6,
        deputy * 1e6,
        deputy / fast
    );
}
