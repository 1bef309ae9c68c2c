//! The layer ladder: fixed-count, single-thread timings of calls into each
//! layer's public functions, outermost last. Spans cannot yet nest inside
//! the program, so the self time of a layer is the difference between the
//! rung that includes it and the rung below:
//!
//! ```text
//! core.check_ns_l2 -> kernel.execute_write_ns_nojournal
//!   -> kernel.execute_write_ns_filejournal -> isolation.singleton_call_ns
//!   -> isolation.deliver_sync_us -> southbound.wire_probe_p50_us
//! ```
//!
//! Every rung times the same operation seen from further out: the
//! `insert_flow` an L2 unicast flow set-up makes. The rungs that sit beside
//! the ladder (netsim, audit, codec, reactor, the large manifest) are timed
//! the same way.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sdnshield_controller::api::FlowOp;
use sdnshield_controller::app::{App, AppCtx};
use sdnshield_controller::audit::{AuditLog, AuditOutcome};
use sdnshield_controller::isolation::ShieldedController;
use sdnshield_controller::journal::Journal;
use sdnshield_controller::kernel::Kernel;
use sdnshield_controller::southbound::{Reactor, SouthboundConfig};
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::engine::PermissionEngine;
use sdnshield_core::lang::parse_manifest;
use sdnshield_core::policy::parse_policy;
use sdnshield_core::reconcile::Reconciler;
use sdnshield_core::token::PermissionToken;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::messages::{FlowMod, OfBody, OfMessage, PacketOut, StatsRequest};
use sdnshield_openflow::southbound::{StreamDecoder, WriteRing};
use sdnshield_openflow::types::{BufferId, DatapathId, Ipv4, Priority, Xid};
use sdnshield_openflow::wire;

use crate::common::{controller_config, out_dir, shielded_l2, RunOutput};
use crate::kernelw::{self, LARGE_MANIFEST};
use crate::l2::hello_all;
use crate::l2mix::{self, host_mac, host_port, Generator, HOSTS_PER_SWITCH};
use crate::wire::{self as wireload, Conn};

const APP: AppId = AppId(1);
const DPID: DatapathId = DatapathId(1);

/// The ladder's rungs, innermost first: `(metric, scale to ns)`.
const LADDER: &[(&str, f64)] = &[
    ("core.check_ns_l2", 1.0),
    ("kernel.execute_write_ns_nojournal", 1.0),
    ("kernel.execute_write_ns_filejournal", 1.0),
    ("isolation.singleton_call_ns", 1.0),
    ("isolation.deliver_sync_us", 1000.0),
    ("southbound.wire_probe_p50_us", 1000.0),
];

/// The rule an L2 unicast flow set-up installs for destination host `h`.
fn l2_flow_mod(h: u16) -> FlowMod {
    FlowMod::add(
        FlowMatch::default().with_eth_dst(host_mac(DPID, h)),
        Priority(100),
        ActionList::output(host_port(h)),
    )
    .with_idle_timeout(60)
}

fn l2_inserts() -> Vec<ApiCall> {
    (0..HOSTS_PER_SWITCH)
        .map(|h| {
            ApiCall::new(
                APP,
                ApiCallKind::InsertFlow {
                    dpid: DPID,
                    flow_mod: l2_flow_mod(h),
                },
            )
        })
        .collect()
}

/// Mean nanoseconds per call of `f` over `n` calls (after `n / 8` warm-up).
fn time_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..n / 8 {
        f(i);
    }
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn l2_kernel() -> Kernel {
    let kernel = Kernel::new(l2mix::network(), true);
    kernel
        .register_app(
            APP,
            "ladder",
            &parse_manifest(sdnshield_apps::l2_learning::L2_MANIFEST).expect("L2 manifest"),
        )
        .expect("register ladder app");
    kernel
}

fn temp_journal(tag: &str) -> (Arc<Journal>, std::path::PathBuf) {
    let path = out_dir().join(format!("journal_ladder_{tag}_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = Arc::new(Journal::open(&path).expect("open journal file"));
    (journal, path)
}

fn execute_write_ns(journal: Option<Arc<Journal>>) -> f64 {
    let kernel = l2_kernel();
    if let Some(j) = journal {
        kernel.attach_journal(j);
    }
    let calls = l2_inserts();
    time_ns(300_000, |i| {
        let (r, _) = kernel.execute(&calls[i % calls.len()]);
        black_box(r.is_ok());
        if i % 4096 == 4095 {
            if let Some(j) = kernel.journal() {
                j.compact(kernel.last_applied());
            }
        }
    })
}

fn core_rungs(out: &mut RunOutput) {
    let kernel = l2_kernel();
    let engine = kernel.engine_snapshot(APP).expect("ladder app engine");
    let calls = l2_inserts();
    let epoch = kernel.context_epoch();
    out.set(
        "core.check_ns_l2",
        time_ns(4_000_000, |i| {
            black_box(engine.check_call_only(&calls[i % calls.len()], epoch));
        }),
    );

    let t = Instant::now();
    let reps = 20;
    for _ in 0..reps {
        let manifest = parse_manifest(LARGE_MANIFEST).expect("large manifest parses");
        let policy = parse_policy("ASSERT EITHER { PERM host_network } OR { PERM send_pkt_out }")
            .expect("policy parses");
        let mut reconciler = Reconciler::new(policy);
        reconciler.register_app("driver", manifest);
        let report = reconciler.reconcile("driver").expect("reconciles");
        black_box(PermissionEngine::compile(&report.reconciled));
    }
    out.set(
        "core.reconcile_compile_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(reps),
    );

    let large = PermissionEngine::compile(&parse_manifest(LARGE_MANIFEST).expect("large manifest"));
    let read = |n: u64| {
        ApiCall::new(
            APP,
            ApiCallKind::ReadFlowTable {
                dpid: DPID,
                query: FlowMatch::default()
                    .with_ip_dst(Ipv4::new(10, 13, (n >> 8) as u8, n as u8))
                    .with_tp_dst(1 + (n >> 16) as u16),
            },
        )
    };
    let shapes: Vec<ApiCall> = (0..64).map(read).collect();
    out.set(
        "core.check_ns_large_repeat",
        time_ns(1_000_000, |i| {
            black_box(large.check_call_only(&shapes[i % shapes.len()], 0));
        }),
    );
    let mut unique = 1_000u64;
    out.set(
        "core.check_ns_large_unique",
        time_ns(500_000, |_| {
            unique += 1;
            black_box(large.check_call_only(&read(unique), 0));
        }),
    );
}

fn netsim_and_audit_rungs(out: &mut RunOutput) {
    let network = l2mix::network();
    let mods: Vec<FlowMod> = (0..HOSTS_PER_SWITCH).map(l2_flow_mod).collect();
    out.set(
        "netsim.apply_flow_mod_ns",
        time_ns(500_000, |i| {
            black_box(network.apply_flow_mod(DPID, &mods[i % mods.len()]).is_ok());
        }),
    );
    let requests: Vec<StatsRequest> = (0..HOSTS_PER_SWITCH)
        .map(|h| StatsRequest::Flow(FlowMatch::default().with_eth_dst(host_mac(DPID, h))))
        .collect();
    out.set(
        "netsim.stats_ns",
        time_ns(100_000, |i| {
            black_box(network.stats(DPID, &requests[i % requests.len()]).is_ok());
        }),
    );
    let audit = AuditLog::new(65_536);
    out.set(
        "audit.record_ns",
        time_ns(500_000, |_| {
            audit.record(
                APP,
                "insert_flow",
                PermissionToken::InsertFlow,
                AuditOutcome::Allowed,
            );
        }),
    );
}

fn kernel_rungs(seed: u64, out: &mut RunOutput) {
    let none = execute_write_ns(None);
    let mem = execute_write_ns(Some(Arc::new(Journal::in_memory())));
    let (journal, path) = temp_journal("kernel");
    let file = execute_write_ns(Some(journal));
    let _ = std::fs::remove_file(path);
    out.set("kernel.execute_write_ns_nojournal", none);
    out.set("kernel.execute_write_ns_memjournal", mem);
    out.set("kernel.execute_write_ns_filejournal", file);
    out.set("journal.append_ns_per_cmd", file - none);
    out.set("kernel.write_scaling_2v1", kernelw::write_scaling_2v1(seed));

    let kernel = Kernel::new(kernelw::network(), true);
    kernel
        .register_app(
            APP,
            "reader",
            &parse_manifest(LARGE_MANIFEST).expect("large manifest"),
        )
        .expect("register reader");
    let reads: Vec<ApiCall> = (0..64u8)
        .map(|n| {
            ApiCall::new(
                APP,
                ApiCallKind::ReadFlowTable {
                    dpid: DPID,
                    query: FlowMatch::default()
                        .with_ip_dst(Ipv4::new(10, 13, 0, n))
                        .with_tp_dst(1),
                },
            )
        })
        .collect();
    out.set(
        "kernel.try_serve_read_ns",
        time_ns(500_000, |i| {
            black_box(kernel.try_serve_read(&reads[i % reads.len()]).is_some());
        }),
    );
}

/// Times singleton and batched calls from inside an app's own thread.
struct ProbeApp {
    out: Arc<Mutex<Option<(f64, f64)>>>,
}

impl App for ProbeApp {
    fn name(&self) -> &str {
        "ladder-probe"
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        let mods: Vec<FlowMod> = (0..HOSTS_PER_SWITCH).map(l2_flow_mod).collect();
        let singleton = time_ns(10_000, |i| {
            ctx.insert_flow(DPID, mods[i % mods.len()].clone())
                .expect("probe insert");
        });
        const BATCH: usize = 64;
        let batch = time_ns(400, |i| {
            let ops = (0..BATCH)
                .map(|j| FlowOp {
                    dpid: DPID,
                    flow_mod: mods[(i * BATCH + j) % mods.len()].clone(),
                })
                .collect();
            ctx.submit_batch(ops).expect("probe batch");
        });
        *self.out.lock().expect("probe result") = Some((singleton, batch / BATCH as f64));
    }
}

fn isolation_rungs(seed: u64, out: &mut RunOutput) {
    // Rungs above the kernel keep the file journal attached, so each rung
    // contains everything the rung below it does.
    let (journal, path) = temp_journal("probe");
    let controller = ShieldedController::new_with_config(l2mix::network(), controller_config());
    controller.attach_journal(Arc::clone(&journal));
    let result = Arc::new(Mutex::new(None));
    controller
        .register(
            Box::new(ProbeApp {
                out: Arc::clone(&result),
            }),
            &parse_manifest("PERM insert_flow").expect("probe manifest"),
        )
        .expect("register probe app");
    let (singleton, batch) = result
        .lock()
        .expect("probe result")
        .take()
        .expect("probe ran");
    controller.shutdown();
    let _ = std::fs::remove_file(path);
    out.set("isolation.singleton_call_ns", singleton);
    out.set("isolation.batch_call_ns_per_op", batch);
    let kernel_rung = out
        .metrics
        .get("kernel.execute_write_ns_filejournal")
        .copied()
        .unwrap_or(0.0);
    out.set("isolation.channel_crossing_ns", singleton - kernel_rung);

    let (journal, path) = temp_journal("deliver");
    let controller = shielded_l2();
    controller.attach_journal(Arc::clone(&journal));
    let mut gen = Generator::new(seed);
    for s in hello_all(&mut gen, 1..=1) {
        controller.deliver_packet_in(s.dpid, s.packet_in);
    }
    let mut unicast = Vec::new();
    while unicast.len() < 4096 {
        let s = gen.next_on(DPID);
        if s.dst.is_some() {
            unicast.push(s);
        }
    }
    let sync_ns = time_ns(4_000, |i| {
        let s = &unicast[i % unicast.len()];
        controller.deliver_packet_in(s.dpid, s.packet_in.clone());
        if i % 1024 == 1023 {
            journal.compact(controller.kernel().last_applied());
        }
    });
    out.set("isolation.deliver_sync_us", sync_ns / 1000.0);
    // Dispatch alone: the vectored hand-off returns once the batch is queued.
    let mut dispatch_ns = 0u128;
    let rounds = 40;
    for r in 0..rounds {
        let batch: Vec<_> = (0..512)
            .map(|i| {
                let s = &unicast[(r * 512 + i) % unicast.len()];
                (s.dpid, s.packet_in.clone())
            })
            .collect();
        let t = Instant::now();
        controller.deliver_packet_in_batch(batch);
        dispatch_ns += t.elapsed().as_nanos();
        controller.quiesce();
        journal.compact(controller.kernel().last_applied());
    }
    out.set(
        "isolation.dispatch_ns_per_event",
        dispatch_ns as f64 / (rounds * 512) as f64,
    );
    assert!(
        controller.kernel().flow_count(DPID) > 0,
        "ladder installed no flow"
    );
    controller.shutdown();
    let _ = std::fs::remove_file(path);
}

fn codec_rungs(seed: u64, out: &mut RunOutput) {
    let mut gen = Generator::new(seed);
    let specs: Vec<_> = (0..4096).map(|_| gen.next_on(DPID)).collect();
    let mut stream = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let msg = OfMessage::new(Xid(i as u32), OfBody::PacketIn(s.packet_in.clone()));
        wire::encode_into(&msg, &mut stream);
    }
    let mut decoder = StreamDecoder::new();
    let mut frames = 0u64;
    let t = Instant::now();
    for _ in 0..40 {
        for chunk in stream.chunks(16 * 1024) {
            decoder.extend(chunk);
            while let Some(frame) = decoder.next_frame().expect("valid stream") {
                black_box(frame.packet_in().expect("packet-in frame").payload.len());
                frames += 1;
            }
        }
    }
    out.set(
        "openflow.decode_ns_per_frame",
        t.elapsed().as_nanos() as f64 / frames as f64,
    );

    let bodies: Vec<OfBody> = specs
        .iter()
        .flat_map(|s| {
            let port = s
                .dst
                .map_or(sdnshield_openflow::types::PortNo::FLOOD, host_port);
            let po = OfBody::PacketOut(PacketOut {
                buffer_id: BufferId::NO_BUFFER,
                in_port: s.packet_in.in_port,
                actions: ActionList::output(port),
                payload: s.packet_in.payload.clone(),
            });
            s.dst
                .map(|d| OfBody::FlowMod(l2_flow_mod(d)))
                .into_iter()
                .chain(std::iter::once(po))
        })
        .collect();
    let mut ring = WriteRing::new(1 << 20);
    let mut sink = std::io::sink();
    let mut pushed = 0u64;
    let t = Instant::now();
    for _ in 0..40 {
        for (i, body) in bodies.iter().enumerate() {
            assert!(
                ring.push_body(Xid(i as u32), body),
                "ring sized for a flush per 256"
            );
            pushed += 1;
            if i % 256 == 255 {
                while !ring.is_empty() {
                    ring.flush(&mut sink).expect("sink write");
                }
            }
        }
        while !ring.is_empty() {
            ring.flush(&mut sink).expect("sink write");
        }
    }
    out.set(
        "openflow.encode_ns_per_frame",
        t.elapsed().as_nanos() as f64 / pushed as f64,
    );
}

fn reactor_rung(seed: u64, out: &mut RunOutput) {
    let controller = shielded_l2();
    let mut reactor = Reactor::bind(
        "127.0.0.1:0",
        Arc::clone(&controller),
        SouthboundConfig::default(),
    )
    .expect("bind loopback listener");
    let mut tick = 0u64;
    let mut conn = Conn::connect_driving(reactor.local_addr(), DPID, &mut || {
        reactor.poll_once(tick);
        tick += 1;
    })
    .expect("handshake against a hand-driven reactor");
    conn.set_nonblocking();
    let mut gen = Generator::new(seed);
    let mut timed_ns = 0u128;
    let mut frames = 0u64;
    let burst = 32;
    let hellos = hello_all(&mut gen, 1..=1);
    for round in 0..(hellos.len() / burst + 300) {
        for i in 0..burst {
            let spec = match hellos.get(round * burst + i) {
                Some(h) => h.clone(),
                None => gen.next_on(DPID),
            };
            conn.queue(&spec.packet_in);
        }
        while !conn.flush().expect("loopback write") {}
        let want = reactor.stats().packet_ins + burst as u64;
        let warm = round * burst >= hellos.len();
        while reactor.stats().packet_ins < want {
            let t = Instant::now();
            reactor.poll_once(tick);
            tick += 1;
            if warm {
                timed_ns += t.elapsed().as_nanos();
            }
        }
        if warm {
            frames += burst as u64;
        }
        // Untimed: let the answers out and off the socket.
        controller.quiesce();
        reactor.poll_once(tick);
        tick += 1;
        let _ = conn.poll(&mut |_| {});
    }
    out.set(
        "southbound.poll_once_ns_per_frame",
        timed_ns as f64 / frames.max(1) as f64,
    );
    drop(conn);
    reactor.close_all();
    controller.shutdown();
}

/// Runs every rung and records it in `out`.
pub fn run(seed: u64, out: &mut RunOutput) {
    core_rungs(out);
    netsim_and_audit_rungs(out);
    kernel_rungs(seed, out);
    isolation_rungs(seed, out);
    codec_rungs(seed, out);
    reactor_rung(seed, out);
    let probe = wireload::probe_p50_us(seed, 1_500);
    out.set("southbound.wire_probe_p50_us", probe);
    let sync = out
        .metrics
        .get("isolation.deliver_sync_us")
        .copied()
        .unwrap_or(0.0);
    out.set("southbound.wire_tax_us", probe - sync);

    let rungs: Vec<f64> = LADDER
        .iter()
        .map(|(name, scale)| out.metrics.get(name).copied().unwrap_or(0.0) * scale)
        .collect();
    let monotone = rungs.windows(2).all(|w| w[0] > 0.0 && w[1] > w[0]);
    out.check(
        "ladder rungs are monotone",
        monotone,
        rungs
            .iter()
            .map(|r| format!("{r:.0}ns"))
            .collect::<Vec<_>>()
            .join(" < "),
    );
}

/// Prints the rungs and the self time each one adds.
pub fn print(out: &RunOutput) {
    println!("  ladder (one L2 unicast insert_flow, seen from further and further out):");
    let mut below = 0.0;
    for (name, scale) in LADDER {
        let ns = out.metrics.get(name).copied().unwrap_or(0.0) * scale;
        println!(
            "    {name:<40} {ns:>12.0} ns   +{:>12.0} ns added by this layer",
            ns - below
        );
        below = ns;
    }
}
