//! `inproc_l2`: the L2 mix delivered in process, bypassing codec and
//! reactor. `deliver_packet_in_batch` (512) + `quiesce` on the shielded
//! controller with an in-memory journal, alternating with the monolithic
//! controller on the same stream. Responses are observed through
//! `Network::register_wire_egress`. Yields the paper's headline ratio.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdnshield_controller::isolation::ShieldedController;
use sdnshield_controller::journal::Journal;
use sdnshield_openflow::types::DatapathId;

use crate::common::{
    now_ns, shielded_l2, LatencySamples, LatencySummary, RunOutput, Segment, Side,
};
use crate::l2::{self, hello_all, Collector, MonoSide, BATCH};
use crate::l2mix::{self, Generator, PacketSpec, Tracker};
use crate::replay::ReplayJob;
use crate::runner::Workload;
use crate::trace::Tracer;

/// Mixed batches delivered after the hellos during set-up.
const WARMUP_BATCHES: usize = 128;
/// Packet-ins of the journaled tail that `replay_per_s` replays. Delivered
/// one at a time (`deliver_packet_in`, synchronous), so that the number of
/// journal records they leave does not depend on how the controller
/// happened to batch them.
const TAIL_PACKET_INS: usize = 4096;

/// State of the in-process workload between segments.
pub struct InprocWorkload {
    controller: Arc<ShieldedController>,
    journal: Arc<Journal>,
    collector: Arc<Collector>,
    gen: Generator,
    tracker: Tracker,
    baseline: MonoSide,
    latencies: LatencySamples,
    audit_base: u64,
    attempted: u64,
    batches: u64,
}

impl InprocWorkload {
    fn audit_seq(&self) -> u64 {
        self.controller.snapshot().audit_seq
    }

    /// Delivers one batch, waits for the controller to go quiet, verifies
    /// every answer. Returns packet-ins answered.
    fn deliver(&mut self, specs: &[PacketSpec], tracer: &mut Tracer, record: bool) -> u64 {
        self.batches += 1;
        tracer.begin("inproc.batch", self.batches);
        let sent_ns = now_ns();
        let batch: Vec<_> = specs
            .iter()
            .map(|s| {
                self.tracker.on_send(s, sent_ns);
                (s.dpid, s.packet_in.clone())
            })
            .collect();
        tracer.begin("isolation.deliver_packet_in_batch", self.batches);
        self.controller.deliver_packet_in_batch(batch);
        tracer.end();
        let answered = self.settle(tracer, record);
        tracer.end();
        answered
    }

    /// Waits for the controller to go quiet and verifies every answer it
    /// gave since the last call. Returns packet-ins answered.
    fn settle(&mut self, tracer: &mut Tracer, record: bool) -> u64 {
        tracer.begin("isolation.quiesce", self.batches);
        self.controller.quiesce();
        tracer.end();
        tracer.begin("harness.verify", self.batches);
        let mut answered = 0;
        let latencies = &mut self.latencies;
        self.collector.drain_into(&mut self.tracker, |done, at| {
            answered += 1;
            if record {
                latencies.push_ns(at.saturating_sub(done.sent_ns));
            }
        });
        // The controller is quiescent: what is unanswered now stays so.
        self.tracker.expire(u64::MAX);
        tracer.end();
        answered
    }

    fn next_batch(&mut self) -> Vec<PacketSpec> {
        (0..BATCH)
            .map(|i| self.gen.next_on(DatapathId(1 + i as u64 % l2mix::SWITCHES)))
            .collect()
    }

    /// The driver's checkpoint: everything applied so far is released.
    fn compact(&self, tracer: &mut Tracer) {
        tracer.begin("journal.compact", self.batches);
        self.journal
            .compact(self.controller.kernel().last_applied());
        tracer.end();
    }
}

impl Workload for InprocWorkload {
    const NAME: &'static str = "inproc_l2";

    fn setup(seed: u64) -> Self {
        let controller = shielded_l2();
        let journal = Arc::new(Journal::in_memory());
        controller.attach_journal(Arc::clone(&journal));
        let collector = controller.kernel().with_network(Collector::attach);
        let mut w = InprocWorkload {
            controller,
            journal,
            collector,
            gen: Generator::new(seed),
            tracker: Tracker::new(BATCH),
            baseline: MonoSide::new(seed, l2mix::SWITCHES),
            latencies: LatencySamples::default(),
            audit_base: 0,
            attempted: 0,
            batches: 0,
        };
        let mut tracer = Tracer::new(false);
        let hellos = hello_all(&mut w.gen, 1..=l2mix::SWITCHES);
        for chunk in hellos.chunks(BATCH) {
            w.deliver(chunk, &mut tracer, false);
        }
        for _ in 0..WARMUP_BATCHES {
            let batch = w.next_batch();
            w.deliver(&batch, &mut tracer, false);
            w.compact(&mut tracer);
        }
        let failed = w.tracker.stats.failed();
        assert_eq!(failed, 0, "warm-up left {failed} failed packet-ins");
        w.tracker.stats = l2mix::TrackStats::default();
        w.audit_base = w.audit_seq();
        w
    }

    fn segment(&mut self, side: Side, dur: Duration, tracer: &mut Tracer) -> Segment {
        match side {
            Side::Baseline => self.baseline.run(dur, tracer),
            Side::Mediated => {
                let audit0 = self.audit_seq();
                let start = Instant::now();
                let mut flowsetups = 0;
                while start.elapsed() < dur {
                    let batch = self.next_batch();
                    self.attempted += batch.len() as u64;
                    flowsetups += self.deliver(&batch, tracer, true);
                    self.compact(tracer);
                }
                let secs = start.elapsed().as_secs_f64();
                Segment {
                    flowsetups,
                    calls: self.audit_seq() - audit0,
                    secs,
                    median_ns: None,
                }
            }
        }
    }

    fn latency_summary(&mut self) -> LatencySummary {
        self.latencies.summarize()
    }

    fn journaled_tail(&mut self) -> ReplayJob {
        let mut tracer = Tracer::new(false);
        let base = self.controller.snapshot();
        self.journal.compact(base.last_seq);
        for _ in 0..TAIL_PACKET_INS / BATCH {
            let batch = self.next_batch();
            let sent_ns = now_ns();
            for s in &batch {
                self.tracker.on_send(s, sent_ns);
                self.controller
                    .deliver_packet_in(s.dpid, s.packet_in.clone());
            }
            self.settle(&mut tracer, false);
        }
        let failed = self.tracker.stats.failed();
        assert_eq!(failed, 0, "journaled tail left {failed} failed packet-ins");
        let live = self.controller.snapshot();
        let operations = TAIL_PACKET_INS as u64;
        ReplayJob::new(base, &self.journal, live, Some(operations), l2mix::network)
    }

    fn finish(self, out: &mut RunOutput, tracer: &Tracer) {
        let t = self.tracker.stats.clone();
        out.attempted = self.attempted;
        let audited = self.audit_seq() - self.audit_base;
        l2::report(
            out,
            &self.controller,
            &t,
            Some(&self.baseline.tracker.stats),
            audited,
            false,
        );
        let batch = tracer.total("inproc.batch");
        if batch.total_ns > 0 {
            out.set(
                "isolation.quiesce_wait_frac",
                tracer.total("isolation.quiesce").total_ns as f64 / batch.total_ns as f64,
            );
        }
        out.note(format!(
            "batch {BATCH}, in-memory journal compacted per batch; {} packet-ins, {} unicast",
            t.sent, t.unicast_answered
        ));
        self.controller.shutdown();
    }
}
