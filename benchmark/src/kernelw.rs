//! `kernel_write` and `kernel_read`: two driver threads straight on the
//! kernel seam, bypassing apps, channels and wire.
//!
//! * `kernel_write` — per 16 calls: 13 `InsertFlow` replacing within a
//!   256-identity cycle (one of them on a switch both drivers share),
//!   2 `DeleteStrict`, 1 `InsertFlow` outside the manifest's filter.
//!   Commit lock, combiner, journal, audit and `netsim` apply do the work.
//! * `kernel_read` — apps hold the 15-token x 20-filter manifest
//!   (`manifests/large.perm`); per 20 calls: 12 `ReadFlowTable`,
//!   5 `ReadStatistics`, 2 `InsertFlow`, 1 read outside the filter. Half
//!   the reads cycle 64 shapes, half are unique. Each read tries
//!   `try_serve_read` and falls back to `execute`, as the shielded
//!   controller's fast lane does. Engine checks and RCU views dominate.
//!
//! Both kernels journal to a file opened with `Journal::open`: buffered
//! writes, **no fsync** — durable across a process crash, not power loss.
//! The baseline is the same call stream on a kernel built with checks off
//! and no journal, the kernel the monolithic controller runs on.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdnshield_controller::journal::Journal;
use sdnshield_controller::kernel::Kernel;
use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
use sdnshield_core::lang::parse_manifest;
use sdnshield_core::perm::PermissionSet;
use sdnshield_netsim::network::Network;
use sdnshield_netsim::topology::Topology;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::{FlowMatch, MaskedIpv4};
use sdnshield_openflow::messages::{FlowMod, FlowModCommand, StatsRequest};
use sdnshield_openflow::types::{DatapathId, Ipv4, PortNo, Priority};

use crate::common::{
    now_ns, out_dir, LatencySamples, LatencySummary, RunOutput, Segment, Side, DRIVER_THREADS,
};
use crate::l2mix::Rng;
use crate::replay::ReplayJob;
use crate::runner::Workload;
use crate::trace::Tracer;

/// Match identities each driver cycles through on a switch.
pub const IDENTITIES: usize = 256;
/// Repeated read shapes per driver (`kernel_read`).
const READ_SHAPES: usize = 64;
/// The switch both drivers write to once per cycle.
const SHARED_SWITCH: DatapathId = DatapathId(3);
/// Whole cycles each driver runs during set-up.
const WARMUP_CYCLES: usize = 2048;
/// Whole cycles each driver runs in the journaled tail: (`kernel_write`,
/// `kernel_read`). Reads leave few records, so their tail is longer.
const TAIL_CYCLES: (usize, usize) = (2048, 8192);
/// Cycles between journal compactions by driver 0 (its checkpoint).
const COMPACT_EVERY: usize = 256;

/// The manifest the `kernel_write` apps hold.
pub const WRITE_MANIFEST: &str = "\
PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0 AND MAX_PRIORITY 400
PERM delete_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0
";

/// The checked-in 15-token x 20-filter manifest the `kernel_read` apps hold.
pub const LARGE_MANIFEST: &str = include_str!("../manifests/large.perm");

/// A fresh three-switch network: one private switch per driver and the
/// shared one.
pub fn network() -> Network {
    let mut topo = Topology::new();
    for d in 1..=3 {
        topo.add_switch(DatapathId(d), 8);
    }
    Network::new(topo, 16_384)
}

fn app_of(thread: usize) -> AppId {
    AppId(thread as u16 + 1)
}

fn insert_call(thread: usize, identity: usize, shared: bool) -> ApiCall {
    // The shared switch sees a per-driver salted range, so one driver never
    // replaces (and takes ownership of) the other's rule.
    let (dpid, third) = if shared {
        (SHARED_SWITCH, 16 + thread as u8)
    } else {
        (DatapathId(thread as u64 + 1), thread as u8)
    };
    ApiCall::new(
        app_of(thread),
        ApiCallKind::InsertFlow {
            dpid,
            flow_mod: FlowMod::add(
                FlowMatch::default()
                    .with_ip_dst(Ipv4::new(10, 13, third, identity as u8))
                    .with_tp_dst(1 + identity as u16),
                Priority(100),
                ActionList::output(PortNo(1 + (identity % 4) as u16)),
            ),
        },
    )
}

fn delete_strict_of(insert: &ApiCall) -> ApiCall {
    let ApiCallKind::InsertFlow { dpid, flow_mod } = &insert.kind else {
        unreachable!("built from an insert");
    };
    let mut fm = FlowMod::delete(flow_mod.flow_match.clone());
    fm.command = FlowModCommand::DeleteStrict;
    fm.priority = flow_mod.priority;
    ApiCall::new(
        insert.app,
        ApiCallKind::DeleteFlow {
            dpid: *dpid,
            flow_mod: fm,
        },
    )
}

/// An insert outside every granted filter: 172.31/16 is in no clause.
fn forbidden_insert(thread: usize, n: usize) -> ApiCall {
    ApiCall::new(
        app_of(thread),
        ApiCallKind::InsertFlow {
            dpid: DatapathId(thread as u64 + 1),
            flow_mod: FlowMod::add(
                FlowMatch::default()
                    .with_ip_dst(Ipv4::new(172, 31, thread as u8, (n % 16) as u8))
                    .with_tp_dst(80),
                Priority(100),
                ActionList::output(PortNo(1)),
            ),
        },
    )
}

fn read_query(thread: usize, n: u64) -> FlowMatch {
    FlowMatch::default()
        .with_ip_dst(Ipv4::new(10, 13, thread as u8, n as u8))
        .with_tp_dst(1 + (n >> 8) as u16)
}

/// What the oracle expects of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// In the manifest: must succeed. An insert that installs a rule.
    Insert,
    /// In the manifest: must succeed.
    Allowed,
    /// Outside the manifest: must be denied.
    Denied,
}

/// One driver's precomputed call cycle plus its counters.
struct Driver {
    thread: usize,
    /// The period of precomputed calls; reads marked unique are patched
    /// with a fresh query before they are issued.
    calls: Vec<(ApiCall, Expect, bool)>,
    cycle_len: usize,
    pos: usize,
    unique: u64,
    latencies: LatencySamples,
    stats: DriverStats,
}

#[derive(Debug, Clone, Copy, Default)]
struct DriverStats {
    calls: u64,
    inserts: u64,
    denied: u64,
    /// In-manifest calls that errored.
    errored: u64,
    /// Out-of-manifest calls that were allowed.
    leaked: u64,
    reads: u64,
    fast_reads: u64,
}

impl Driver {
    fn new(read: bool, thread: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ ((thread as u64 + 1) << 32));
        let mut perm: Vec<usize> = (0..IDENTITIES).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut calls = Vec::new();
        let mut inserted = 0usize;
        let mut next_insert = |shared: bool| {
            let call = insert_call(thread, perm[inserted % IDENTITIES], shared);
            inserted += 1;
            call
        };
        let cycle_len = if read { 20 } else { 16 };
        for cycle in 0..IDENTITIES {
            if read {
                let shapes = READ_SHAPES as u64;
                for r in 0..17u64 {
                    let repeat = r % 2 == 0;
                    let shape = (cycle as u64 * 9 + r / 2) % shapes;
                    let query = read_query(thread, shape);
                    let dpid = DatapathId(thread as u64 + 1);
                    let kind = if r < 12 {
                        ApiCallKind::ReadFlowTable { dpid, query }
                    } else {
                        ApiCallKind::ReadStatistics {
                            dpid,
                            request: StatsRequest::Flow(query),
                        }
                    };
                    calls.push((ApiCall::new(app_of(thread), kind), Expect::Allowed, !repeat));
                }
                calls.push((next_insert(false), Expect::Insert, false));
                calls.push((next_insert(cycle % 8 == 0), Expect::Insert, false));
                let forbidden = ApiCallKind::ReadFlowTable {
                    dpid: DatapathId(thread as u64 + 1),
                    query: FlowMatch::default().with_ip_dst(Ipv4::new(
                        172,
                        31,
                        thread as u8,
                        (cycle % 16) as u8,
                    )),
                };
                calls.push((
                    ApiCall::new(app_of(thread), forbidden),
                    Expect::Denied,
                    false,
                ));
            } else {
                let first = calls.len();
                for j in 0..13 {
                    calls.push((next_insert(j == 12), Expect::Insert, false));
                }
                for j in 0..2 {
                    let target = delete_strict_of(&calls[first + j].0);
                    calls.push((target, Expect::Allowed, false));
                }
                calls.push((forbidden_insert(thread, cycle), Expect::Denied, false));
            }
        }
        debug_assert_eq!(calls.len(), cycle_len * IDENTITIES);
        Driver {
            thread,
            calls,
            cycle_len,
            pos: 0,
            unique: 0,
            latencies: LatencySamples::default(),
            stats: DriverStats::default(),
        }
    }

    /// Issues one whole cycle against `kernel`.
    fn cycle(&mut self, kernel: &Kernel, tracer: &mut Tracer, record: bool) {
        for _ in 0..self.cycle_len {
            let i = self.pos;
            self.pos = (self.pos + 1) % self.calls.len();
            if self.calls[i].2 {
                // A unique read: a query this driver has never issued.
                self.unique += 1;
                let fresh = read_query(self.thread, 1_000_000 + self.unique);
                match &mut self.calls[i].0.kind {
                    ApiCallKind::ReadFlowTable { query, .. } => *query = fresh,
                    ApiCallKind::ReadStatistics { request, .. } => {
                        *request = StatsRequest::Flow(fresh);
                    }
                    _ => unreachable!("only reads are marked unique"),
                }
            }
            let (call, expect, _) = &self.calls[i];
            let is_read = matches!(
                call.kind,
                ApiCallKind::ReadFlowTable { .. } | ApiCallKind::ReadStatistics { .. }
            );
            // Every insert is timed where inserts are rare (`kernel_read`),
            // one in four where they are the bulk of the calls.
            let timed = record
                && *expect == Expect::Insert
                && (self.cycle_len == 20 || self.stats.inserts & 3 == 0);
            let t0 = if timed { now_ns() } else { 0 };
            let result = if is_read {
                self.stats.reads += 1;
                tracer.begin("kernel.try_serve_read", self.stats.calls);
                let served = kernel.try_serve_read(call);
                tracer.end();
                match served {
                    Some(r) => {
                        self.stats.fast_reads += 1;
                        r
                    }
                    None => {
                        tracer.begin("kernel.execute[read]", self.stats.calls);
                        let r = kernel.execute(call).0;
                        tracer.end();
                        r
                    }
                }
            } else {
                tracer.begin(
                    match expect {
                        Expect::Insert => "kernel.execute[insert]",
                        Expect::Allowed => "kernel.execute[delete]",
                        Expect::Denied => "kernel.execute[denied]",
                    },
                    self.stats.calls,
                );
                let r = kernel.execute(call).0;
                tracer.end();
                r
            };
            if timed {
                self.latencies.push_ns(now_ns() - t0);
            }
            self.stats.calls += 1;
            match (expect, &result) {
                (Expect::Insert, Ok(_)) => self.stats.inserts += 1,
                (Expect::Allowed, Ok(_)) => {}
                (Expect::Denied, Err(e)) if e.is_denied() => self.stats.denied += 1,
                (Expect::Denied, _) => self.stats.leaked += 1,
                (_, Err(_)) => self.stats.errored += 1,
            }
        }
    }
}

/// One side (mediated or baseline): a kernel and its two drivers.
struct KernelSide {
    kernel: Arc<Kernel>,
    drivers: Vec<Driver>,
}

impl KernelSide {
    fn new(read: bool, seed: u64, manifest: &PermissionSet, checks: bool) -> Self {
        let kernel = Arc::new(Kernel::new(network(), checks));
        let drivers: Vec<Driver> = (0..DRIVER_THREADS)
            .map(|t| Driver::new(read, t, seed))
            .collect();
        for d in &drivers {
            kernel
                .register_app(app_of(d.thread), &format!("driver-{}", d.thread), manifest)
                .expect("driver app registers");
        }
        KernelSide { kernel, drivers }
    }

    /// Runs every driver on its own thread until `stop` says so (checked
    /// between whole cycles, so the denied share stays exact).
    fn run(
        &mut self,
        tracer: &mut Tracer,
        record: bool,
        compact: bool,
        stop: impl Fn(usize) -> bool + Sync,
    ) -> (u64, u64, f64) {
        let kernel = &self.kernel;
        let before: Vec<DriverStats> = self.drivers.iter().map(|d| d.stats).collect();
        let traced = tracer.enabled();
        let start = Instant::now();
        let tracers: Vec<Tracer> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .drivers
                .iter_mut()
                .map(|d| {
                    let stop = &stop;
                    s.spawn(move || {
                        let mut tracer = Tracer::new(traced);
                        let mut cycles = 0usize;
                        while !stop(cycles) {
                            d.cycle(kernel, &mut tracer, record);
                            cycles += 1;
                            if compact && d.thread == 0 && cycles.is_multiple_of(COMPACT_EVERY) {
                                if let Some(journal) = kernel.journal() {
                                    journal.compact(kernel.last_applied());
                                }
                            }
                        }
                        tracer
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        for t in tracers {
            tracer.merge(t);
        }
        let (mut calls, mut inserts) = (0, 0);
        for (d, b) in self.drivers.iter().zip(&before) {
            calls += d.stats.calls - b.calls;
            inserts += d.stats.inserts - b.inserts;
        }
        (inserts, calls, secs)
    }

    fn totals(&self) -> DriverStats {
        let mut t = DriverStats::default();
        for d in &self.drivers {
            t.calls += d.stats.calls;
            t.inserts += d.stats.inserts;
            t.denied += d.stats.denied;
            t.errored += d.stats.errored;
            t.leaked += d.stats.leaked;
            t.reads += d.stats.reads;
            t.fast_reads += d.stats.fast_reads;
        }
        t
    }
}

/// State of a kernel workload between segments.
pub struct KernelWorkload<const READ: bool> {
    mediated: KernelSide,
    baseline: KernelSide,
    journal_dir: PathBuf,
    journal_no: u32,
    journal_path: Option<PathBuf>,
    /// Largest journal file seen.
    peak_file_bytes: u64,
    /// Bytes and records over every journal file of the run.
    file_bytes: u64,
    file_records: u64,
    /// `last_applied` when the current journal file was attached.
    journal_base_seq: u64,
    audit_base: u64,
    calls_base: u64,
}

impl<const READ: bool> KernelWorkload<READ> {
    /// Accounts for the current journal file, then swaps in a fresh one and
    /// deletes the old, so the disk holds one segment's records at most.
    fn rotate_journal(&mut self) {
        self.account_journal();
        let old = self.journal_path.take();
        self.journal_no += 1;
        let path = self.journal_dir.join(format!(
            "journal_{}_{}_{}.log",
            Self::NAME,
            std::process::id(),
            self.journal_no
        ));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).expect("open journal file");
        self.mediated.kernel.attach_journal(Arc::new(journal));
        self.journal_base_seq = self.mediated.kernel.last_applied();
        self.journal_path = Some(path);
        if let Some(old) = old {
            let _ = std::fs::remove_file(old);
        }
    }

    fn account_journal(&mut self) {
        let Some(path) = &self.journal_path else {
            return;
        };
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        self.peak_file_bytes = self.peak_file_bytes.max(bytes);
        self.file_bytes += bytes;
        self.file_records += self.mediated.kernel.last_applied() - self.journal_base_seq;
    }

    fn audit_seq(&self) -> u64 {
        self.mediated.kernel.snapshot().audit_seq
    }
}

impl<const READ: bool> Drop for KernelWorkload<READ> {
    fn drop(&mut self) {
        if let Some(path) = self.journal_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl<const READ: bool> Workload for KernelWorkload<READ> {
    const NAME: &'static str = if READ { "kernel_read" } else { "kernel_write" };

    fn setup(seed: u64) -> Self {
        let manifest = parse_manifest(if READ { LARGE_MANIFEST } else { WRITE_MANIFEST })
            .expect("workload manifest parses");
        let mut w = KernelWorkload {
            mediated: KernelSide::new(READ, seed, &manifest, true),
            baseline: KernelSide::new(READ, seed, &manifest, false),
            journal_dir: out_dir(),
            journal_no: 0,
            journal_path: None,
            peak_file_bytes: 0,
            file_bytes: 0,
            file_records: 0,
            journal_base_seq: 0,
            audit_base: 0,
            calls_base: 0,
        };
        w.rotate_journal();
        let mut tracer = Tracer::new(false);
        w.mediated
            .run(&mut tracer, false, true, |cycles| cycles >= WARMUP_CYCLES);
        w.baseline
            .run(&mut tracer, false, true, |cycles| cycles >= WARMUP_CYCLES);
        let t = w.mediated.totals();
        assert_eq!(
            (t.errored, t.leaked),
            (0, 0),
            "warm-up: in-manifest calls errored or out-of-manifest calls passed"
        );
        w.audit_base = w.audit_seq();
        w.calls_base = t.calls;
        w
    }

    fn segment(&mut self, side: Side, dur: Duration, tracer: &mut Tracer) -> Segment {
        let start = Instant::now();
        let stop = |_: usize| start.elapsed() >= dur;
        let (flowsetups, calls, secs) = match side {
            Side::Baseline => self.baseline.run(tracer, false, true, stop),
            Side::Mediated => {
                self.rotate_journal();
                self.mediated.run(tracer, true, true, stop)
            }
        };
        Segment {
            flowsetups,
            calls,
            secs,
            median_ns: None,
        }
    }

    fn latency_summary(&mut self) -> LatencySummary {
        let mut all = LatencySamples::default();
        for d in &mut self.mediated.drivers {
            all.absorb(&mut d.latencies);
        }
        all.summarize()
    }

    fn journaled_tail(&mut self) -> ReplayJob {
        self.rotate_journal();
        let kernel = Arc::clone(&self.mediated.kernel);
        let journal = kernel.journal().expect("journal attached");
        let base = kernel.snapshot();
        journal.compact(base.last_seq);
        let mut tracer = Tracer::new(false);
        // No compaction in the tail: every record since `base` is replayed.
        let tail = if READ { TAIL_CYCLES.1 } else { TAIL_CYCLES.0 };
        self.mediated
            .run(&mut tracer, false, false, |cycles| cycles >= tail);
        let t = self.mediated.totals();
        assert_eq!(
            (t.errored, t.leaked),
            (0, 0),
            "journaled tail: in-manifest calls errored or out-of-manifest calls passed"
        );
        ReplayJob::new(base, &journal, kernel.snapshot(), None, network)
    }

    fn finish(mut self, out: &mut RunOutput, _tracer: &Tracer) {
        self.account_journal();
        let kernel = Arc::clone(&self.mediated.kernel);
        let t = self.mediated.totals();
        let b = self.baseline.totals();
        let calls = t.calls - self.calls_base;
        out.attempted = calls;
        out.failed = t.errored + t.leaked + b.errored;
        out.check(
            "in-manifest calls succeed",
            t.errored == 0,
            format!("{} errored of {} calls", t.errored, t.calls),
        );
        let cycle = if READ { 20 } else { 16 };
        out.check(
            "the designed deny share is denied, exactly",
            t.leaked == 0 && t.denied * cycle == t.calls,
            format!(
                "{} denied, {} leaked, {} calls, 1 in {cycle} designed",
                t.denied, t.leaked, t.calls
            ),
        );
        // A denied call leaves no state: every entry on every switch lies in
        // the granted 10.13/16 (the denied inserts name 172.31/16).
        let mut entries = 0u64;
        let mut forbidden = 0u64;
        for d in 1..=3 {
            if let Some(view) = kernel.with_network(|n| n.switch_view(DatapathId(d))) {
                for e in view.table.iter() {
                    entries += 1;
                    let granted = MaskedIpv4::prefix(Ipv4::new(10, 13, 0, 0), 16);
                    if !e
                        .flow_match
                        .ip_dst
                        .is_some_and(|ip| granted.matches(ip.addr))
                    {
                        forbidden += 1;
                    }
                }
            }
        }
        out.check(
            "denied calls left no flow",
            forbidden == 0 && entries as usize <= 3 * DRIVER_THREADS * IDENTITIES,
            format!("{entries} entries, {forbidden} outside the granted 10.13/16"),
        );
        let audited = self.audit_seq() - self.audit_base;
        out.check(
            "audit log has one record per mediated call",
            audited == calls,
            format!("{audited} records for {calls} calls"),
        );
        let retained = kernel.audit_records().len() as u64;
        out.set(
            "audit.dropped",
            (self.audit_seq()).saturating_sub(retained) as f64,
        );
        out.set("audit.shed", calls.saturating_sub(audited) as f64);
        out.set("audit.records_per_op", audited as f64 / calls.max(1) as f64);
        out.set("core.deny_frac", t.denied as f64 / t.calls.max(1) as f64);
        out.set("netsim.flow_entries", entries as f64);
        if t.reads > 0 {
            out.set(
                "kernel.fast_read_hit_frac",
                t.fast_reads as f64 / t.reads as f64,
            );
        }
        let c = kernel.combiner_stats();
        out.set("kernel.combiner_mean_batch", c.mean_batch());
        out.set(
            "kernel.combiner_combined_frac",
            c.combined as f64 / c.submitted.max(1) as f64,
        );
        out.set(
            "journal.bytes_per_cmd",
            self.file_bytes as f64 / self.file_records.max(1) as f64,
        );
        out.set(
            "journal.file_mb",
            self.peak_file_bytes as f64 / (1024.0 * 1024.0),
        );
        out.note(format!(
            "{DRIVER_THREADS} driver threads; file-backed journal (buffered, no fsync), rotated per segment; {} calls, {} denied by design",
            t.calls, t.denied
        ));
    }
}

/// `kernel.write_scaling_2v1`: throughput of two drivers over one on a
/// file-journaled kernel, same call mix as `kernel_write`, fixed counts.
pub fn write_scaling_2v1(seed: u64) -> f64 {
    const CYCLES: usize = 4096;
    let manifest = parse_manifest(WRITE_MANIFEST).expect("write manifest parses");
    let rate = |threads: usize| -> f64 {
        let mut side = KernelSide::new(false, seed, &manifest, true);
        side.drivers.truncate(threads);
        let path = out_dir().join(format!(
            "journal_scaling_{}_{threads}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        side.kernel
            .attach_journal(Arc::new(Journal::open(&path).expect("open journal file")));
        let mut tracer = Tracer::new(false);
        side.run(&mut tracer, false, true, |cycles| cycles >= CYCLES / 4);
        let (_, calls, secs) = side.run(&mut tracer, false, true, |cycles| cycles >= CYCLES);
        let _ = std::fs::remove_file(&path);
        calls as f64 / secs
    };
    let one = rate(1);
    rate(2) / one
}
