//! In-process pieces shared by the L2 workloads: the egress collector that
//! observes a controller's responses, the unmediated baseline side, and the
//! verification every L2 run ends with.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdnshield_apps::l2_learning::{L2LearningSwitch, L2_MANIFEST};
use sdnshield_controller::isolation::ShieldedController;
use sdnshield_controller::monolithic::MonolithicController;
use sdnshield_core::lang::parse_manifest;
use sdnshield_netsim::network::{Network, WireEgress};
use sdnshield_openflow::messages::{FlowMod, PacketOut};
use sdnshield_openflow::types::DatapathId;

use crate::common::{now_ns, RunOutput, Segment};
use crate::l2mix::{self, Answered, Generator, PacketSpec, TrackStats, Tracker};
use crate::trace::Tracer;

/// Packet-ins handed to a controller per in-process batch.
pub const BATCH: usize = 512;

/// A controller response as the collector saw it.
#[derive(Debug, Clone)]
pub enum Response {
    /// A mediated FLOW_MOD.
    FlowMod(FlowMod),
    /// A mediated PACKET_OUT.
    PacketOut(PacketOut),
}

/// `WireEgress` that records every response with its arrival time. Pushing
/// under a mutex is all it does, as the trait's contract requires.
#[derive(Debug, Default)]
pub struct Collector {
    seen: Mutex<Vec<(u64, DatapathId, Response)>>,
}

struct SwitchTap {
    dpid: DatapathId,
    collector: Arc<Collector>,
}

impl WireEgress for SwitchTap {
    fn flow_mod(&self, fm: &FlowMod) {
        let entry = (now_ns(), self.dpid, Response::FlowMod(fm.clone()));
        self.collector
            .seen
            .lock()
            .expect("collector lock")
            .push(entry);
    }

    fn packet_out(&self, po: &PacketOut) {
        let entry = (now_ns(), self.dpid, Response::PacketOut(po.clone()));
        self.collector
            .seen
            .lock()
            .expect("collector lock")
            .push(entry);
    }
}

impl Collector {
    /// Attaches a collector to every switch of `network`.
    pub fn attach(network: &Network) -> Arc<Collector> {
        let collector = Arc::new(Collector::default());
        for d in 1..=l2mix::SWITCHES {
            let tap = Arc::new(SwitchTap {
                dpid: DatapathId(d),
                collector: Arc::clone(&collector),
            });
            assert!(network.register_wire_egress(DatapathId(d), tap));
        }
        collector
    }

    /// Feeds everything collected so far to `tracker`; calls `on_done` for
    /// each packet-in this completes, with the completing response's time.
    pub fn drain_into(&self, tracker: &mut Tracker, mut on_done: impl FnMut(Answered, u64)) {
        let seen = std::mem::take(&mut *self.seen.lock().expect("collector lock"));
        for (at_ns, dpid, response) in seen {
            let done = match &response {
                Response::FlowMod(fm) => tracker.on_flow_mod(dpid, fm),
                Response::PacketOut(po) => tracker.on_packet_out(dpid, po),
            };
            if let Some(done) = done {
                on_done(done, at_ns);
            }
        }
    }
}

/// Makes every host of the mix speak once on a controller driven through
/// `deliver`, so that later unicast packet-ins find their destination
/// learned. Returns the hello packet-ins for the caller's tracker.
pub fn hello_all(gen: &mut Generator, switches: std::ops::RangeInclusive<u64>) -> Vec<PacketSpec> {
    let mut out = Vec::new();
    for d in switches {
        for h in 0..l2mix::HOSTS_PER_SWITCH {
            out.push(gen.hello(DatapathId(d), h));
        }
    }
    out
}

/// The unmediated side of `mediated_over_baseline` for the L2 workloads:
/// the same app on the monolithic controller (no checks, no isolation, no
/// journal), fed the same packet stream in process and verified the same
/// way.
pub struct MonoSide {
    controller: MonolithicController,
    collector: Arc<Collector>,
    gen: Generator,
    /// Verifies the baseline's answers too: a baseline that answers wrongly
    /// is not a baseline.
    pub tracker: Tracker,
    switches: u64,
}

impl MonoSide {
    /// Builds and warms the baseline for the first `switches` switches.
    pub fn new(seed: u64, switches: u64) -> Self {
        let network = l2mix::network();
        let collector = Collector::attach(&network);
        let controller = MonolithicController::new(network);
        controller.kernel().set_absorb_packet_outs(true);
        controller.register(
            Box::new(L2LearningSwitch::new()),
            &parse_manifest(L2_MANIFEST).expect("L2 manifest parses"),
        );
        let mut side = MonoSide {
            controller,
            collector,
            gen: Generator::new(seed),
            tracker: Tracker::new(BATCH),
            switches,
        };
        let hellos = hello_all(&mut side.gen, 1..=switches);
        for chunk in hellos.chunks(BATCH) {
            side.deliver(chunk);
        }
        side
    }

    fn deliver(&mut self, specs: &[PacketSpec]) -> u64 {
        let t = now_ns();
        for s in specs {
            self.tracker.on_send(s, t);
            self.controller
                .deliver_packet_in(s.dpid, s.packet_in.clone());
        }
        let mut answered = 0;
        self.collector
            .drain_into(&mut self.tracker, |_, _| answered += 1);
        // The baseline is synchronous: anything unanswered now never will be.
        self.tracker.expire(u64::MAX);
        answered
    }

    /// Runs the baseline for `dur`, a batch at a time.
    pub fn run(&mut self, dur: Duration, tracer: &mut Tracer) -> Segment {
        let start = Instant::now();
        let mut flowsetups = 0;
        let mut batch = Vec::with_capacity(BATCH);
        while start.elapsed() < dur {
            batch.clear();
            for _ in 0..BATCH {
                let dpid = DatapathId(1 + (batch.len() as u64 % self.switches));
                batch.push(self.gen.next_on(dpid));
            }
            tracer.begin("monolithic.deliver_batch", 0);
            flowsetups += self.deliver(&batch);
            tracer.end();
        }
        Segment {
            flowsetups,
            calls: 0,
            secs: start.elapsed().as_secs_f64(),
            median_ns: None,
        }
    }
}

/// The verification and counters every L2 workload ends with: each
/// packet-in answered and verified on both sides, `flow_mods_rx ==
/// unicast_answered > 0` (a flood-only run cannot pass as flow set-up), the
/// audit log one record per mediated call, flow tables holding only
/// learned-host rules, no app event shed.
///
/// `baseline` is `None` when the workload's baseline is not a [`MonoSide`]
/// and is verified by the workload itself.
///
/// `audited` is the audit records written since the tracker counters were
/// reset. A PACKET_OUT is one mediated call; the FLOW_MODs of one app
/// wake-up travel as one batched call, so the record count lies between the
/// PACKET_OUTs alone and PACKET_OUTs plus FLOW_MODs, and equals the latter
/// when `one_at_a_time` (every wake-up carries a single packet-in).
pub fn report(
    out: &mut RunOutput,
    controller: &ShieldedController,
    mediated: &TrackStats,
    baseline: Option<&TrackStats>,
    audited: u64,
    one_at_a_time: bool,
) {
    let t = mediated;
    out.failed += t.failed();
    out.check(
        "flow_mods_rx == unicast_answered > 0",
        t.flow_mods_rx == t.unicast_answered && t.unicast_answered > 0,
        format!(
            "flow_mods_rx {} unicast_answered {} answered {} sent {}",
            t.flow_mods_rx, t.unicast_answered, t.answered, t.sent
        ),
    );
    out.check(
        "every packet-in answered",
        t.answered == t.sent && t.failed() == 0,
        format!(
            "sent {} answered {} wrong {} stray {} unanswered {}",
            t.sent, t.answered, t.wrong, t.stray, t.unanswered
        ),
    );
    if let Some(b) = baseline {
        out.failed += b.failed();
        out.check(
            "baseline answers verified",
            b.failed() == 0 && b.answered == b.sent && b.flow_mods_rx == b.unicast_answered,
            format!(
                "sent {} answered {} failed {}",
                b.sent,
                b.answered,
                b.failed()
            ),
        );
    }
    let (lo, hi) = (t.packet_outs_rx, t.packet_outs_rx + t.flow_mods_rx);
    out.check(
        "audit log has one record per mediated call",
        (lo..=hi).contains(&audited) && (!one_at_a_time || audited == hi),
        format!(
            "{audited} records for {lo} packet-outs and {} flow-mods",
            t.flow_mods_rx
        ),
    );
    let kernel = controller.kernel();
    let mut entries = 0u64;
    let mut foreign = 0u64;
    for d in 1..=l2mix::SWITCHES {
        let dpid = DatapathId(d);
        if let Some(view) = kernel.with_network(|n| n.switch_view(dpid)) {
            for entry in view.table.iter() {
                entries += 1;
                foreign += u64::from(l2mix::rule_host(dpid, &entry.flow_match).is_none());
            }
        }
    }
    let cap = l2mix::SWITCHES * u64::from(l2mix::HOSTS_PER_SWITCH);
    out.check(
        "flow tables hold only learned-host rules",
        foreign == 0 && entries <= cap,
        format!("{entries} entries, {foreign} foreign, cap {cap}"),
    );
    let events_shed = kernel
        .audit_records()
        .iter()
        .filter(|r| r.operation == "event_shed")
        .count();
    out.check(
        "no app event shed",
        events_shed == 0,
        format!("{events_shed} event_shed audit records retained"),
    );
    out.set("netsim.flow_entries", entries as f64);
    out.set(
        "audit.records_per_op",
        audited as f64 / t.answered.max(1) as f64,
    );
    out.set(
        "isolation.fast_path_hits",
        controller.fast_path_hits() as f64,
    );
    out.set("isolation.events_shed", events_shed as f64);
    let c = controller.combiner_stats();
    out.set("kernel.combiner_mean_batch", c.mean_batch());
    out.set(
        "kernel.combiner_combined_frac",
        c.combined as f64 / c.submitted.max(1) as f64,
    );
}
