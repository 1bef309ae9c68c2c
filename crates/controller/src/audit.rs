//! Activity logging for forensic analysis (paper §VII scenario 2: "the
//! SDNShield can provide activity logging, which enables forensic analysis
//! after the attack happens").
//!
//! # Concurrency
//!
//! Appending is wait-free for producers on the common path: a record is
//! pushed (without a sequence number) into a fixed-capacity lock-free ring
//! ([`crossbeam::queue::ArrayQueue`]), and a background drainer thread —
//! the single consumer, guarded by the *drain mutex* — pops records in
//! ring order, assigns each a monotonic sequence number, and appends it to
//! the retained, segmented store. Because sequence numbers are assigned at
//! drain time by one consumer, the retained log is gap-free *by
//! construction*: [`AuditLog::records_since`] cursors see every admitted
//! record exactly once without any sort-and-truncate repair.
//!
//! Readers self-synchronize: every read API first takes the drain mutex
//! and drains the ring, so a single-threaded append-then-read always
//! observes its own records. Between reads, drained records lag in the
//! ring by at most the drainer's park interval (~1ms) — the *bounded audit
//! lag* relaxation documented in DESIGN.md §13.
//!
//! When the ring fills faster than it drains, producers first *assist*
//! (try-lock the drain mutex and drain in place), then retry briefly, and
//! finally shed the record, counting it in [`AuditLog::shed`] — without
//! ever blocking, and (for [`AuditLog::record_system_with`]) without
//! formatting the detail string nobody will retain. In practice shedding
//! requires the drain mutex to be held continuously while the ring is
//! full, which only the tests arrange; assist keeps the log lossless under
//! ordinary contention.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::queue::ArrayQueue;
use parking_lot::Mutex;
use sdnshield_core::api::AppId;
use sdnshield_core::token::PermissionToken;

/// The recorded outcome of a mediated call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The call was allowed and executed.
    Allowed,
    /// The call was denied by the permission engine.
    Denied,
    /// The call was allowed but the operation failed (e.g. table full).
    Failed,
    /// The app crashed and was reaped by the supervisor.
    Crashed,
    /// An event addressed to the app was shed under overload (or discarded
    /// while reaping a crash) before the app saw it.
    Dropped,
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The calling app.
    pub app: AppId,
    /// The operation name.
    pub operation: String,
    /// The token the call required. `None` for supervisor records (crash /
    /// overload shedding), which are not permission-mediated calls.
    pub token: Option<PermissionToken>,
    /// The outcome.
    pub outcome: AuditOutcome,
}

impl fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.token {
            Some(token) => write!(
                f,
                "#{} {} {} [{}] {:?}",
                self.seq, self.app, self.operation, token, self.outcome
            ),
            None => write!(
                f,
                "#{} {} {} [-] {:?}",
                self.seq, self.app, self.operation, self.outcome
            ),
        }
    }
}

/// Records per segment that justify splitting the log; below this a single
/// segment keeps small logs' retention behavior simple and exact.
const SEGMENT_TARGET: usize = 8_192;
/// Upper bound on segments (retained-store shards).
const MAX_SEGMENTS: usize = 8;
/// Ring capacity bounds: at least a burst's worth of slack even for tiny
/// logs, at most one segment's worth so many kernels stay cheap.
const RING_MIN: usize = 64;
const RING_MAX: usize = 8_192;
/// Push attempts (each preceded by a drain-assist) before a record is shed.
const PUSH_RETRIES: usize = 64;
/// How long the drainer parks between sweeps — the audit-lag bound.
const DRAIN_PARK: Duration = Duration::from_millis(1);

/// A record as pushed by producers: everything but the sequence number,
/// which the drain side assigns in ring order.
struct PendingRecord {
    app: AppId,
    operation: String,
    token: Option<PermissionToken>,
    outcome: AuditOutcome,
}

#[derive(Default)]
struct Segment {
    records: Vec<AuditRecord>,
    dropped: u64,
}

/// State shared between producers, readers, and the drainer thread.
struct AuditShared {
    /// The lock-free producer ring.
    ring: ArrayQueue<PendingRecord>,
    /// Single-consumer role: whoever holds this may pop the ring, assign
    /// sequence numbers, and append to the segments. A leaf: nothing is
    /// acquired under it except the segment mutexes.
    drain: Mutex<()>,
    segments: Vec<Mutex<Segment>>,
    per_segment_capacity: usize,
    capacity: usize,
    /// Last assigned sequence number (records are 1-based). Written only
    /// under the drain mutex; read anywhere.
    next_seq: AtomicU64,
    /// Highest sequence number evicted by retention; readers report only
    /// records beyond this floor.
    evicted_through: AtomicU64,
    /// Admission gate: when `false` no record is admitted (and callers
    /// using the `_with` constructors never build their detail strings).
    enabled: AtomicBool,
    /// Records shed at the ring under overload — never admitted, never
    /// sequence-numbered.
    shed: AtomicU64,
    /// Tells the drainer thread to exit.
    stop: AtomicBool,
}

impl AuditShared {
    /// Takes the consumer role and drains the ring into the segments.
    fn drain_ring(&self) {
        let _consumer = self.drain.lock();
        self.drain_locked();
    }

    /// Drains while already holding the drain mutex.
    fn drain_locked(&self) {
        while let Some(pending) = self.ring.pop() {
            let seq = self.next_seq.fetch_add(1, Ordering::SeqCst) + 1;
            self.store_push(AuditRecord {
                seq,
                app: pending.app,
                operation: pending.operation,
                token: pending.token,
                outcome: pending.outcome,
            });
        }
    }

    /// Drains opportunistically: a no-op if another thread is consuming.
    fn try_assist(&self) {
        if let Some(_consumer) = self.drain.try_lock() {
            self.drain_locked();
        }
    }

    /// Appends a sequenced record to its segment, evicting the oldest half
    /// of that segment when it is at capacity.
    fn store_push(&self, record: AuditRecord) {
        let mut seg = self.segments[(record.seq as usize - 1) % self.segments.len()].lock();
        if seg.records.len() >= self.per_segment_capacity {
            // Keep the newest half to amortize the shift.
            let keep_from = seg.records.len() / 2;
            if keep_from > 0 {
                seg.dropped += keep_from as u64;
                let floor = seg.records[keep_from - 1].seq;
                seg.records.drain(..keep_from);
                self.evicted_through.fetch_max(floor, Ordering::SeqCst);
            }
        }
        seg.records.push(record);
    }
}

/// An append-only, internally synchronized audit log with bounded
/// retention: a lock-free ring on the producer side, drained by a
/// background thread into a segmented retained store.
///
/// Appends take `&self`; multiple deputy threads write concurrently
/// without ever taking a lock on the common path.
pub struct AuditLog {
    shared: Arc<AuditShared>,
    drainer: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditLog")
            .field("capacity", &self.shared.capacity)
            .field("segments", &self.shared.segments.len())
            .field("ring", &self.shared.ring.len())
            .field("seen", &self.shared.next_seq.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl AuditLog {
    /// A log retaining at most (about) `capacity` recent records.
    pub fn new(capacity: usize) -> Self {
        Self::with_ring(capacity, capacity.clamp(RING_MIN, RING_MAX))
    }

    /// Construction with an explicit ring capacity — exposed for tests
    /// that need a ring small enough to fill deterministically.
    fn with_ring(capacity: usize, ring_capacity: usize) -> Self {
        let num_segments = (capacity / SEGMENT_TARGET).clamp(1, MAX_SEGMENTS);
        let shared = Arc::new(AuditShared {
            ring: ArrayQueue::new(ring_capacity),
            drain: Mutex::new(()),
            segments: (0..num_segments)
                .map(|_| Mutex::new(Segment::default()))
                .collect(),
            per_segment_capacity: (capacity / num_segments).max(1),
            capacity,
            next_seq: AtomicU64::new(0),
            evicted_through: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            shed: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let drainer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("audit-drain".into())
                .spawn(move || {
                    while !shared.stop.load(Ordering::Acquire) {
                        shared.try_assist();
                        std::thread::park_timeout(DRAIN_PARK);
                    }
                    // Final sweep: anything pushed before the stop flag was
                    // raised lands in the store before the join returns.
                    shared.drain_ring();
                })
                .expect("spawn audit drainer")
        };
        AuditLog {
            shared,
            drainer: Mutex::new(Some(drainer)),
        }
    }

    /// Turns record admission on or off. Disabling keeps existing records
    /// readable but admits nothing new — and, through
    /// [`AuditLog::record_system_with`], spares callers the cost of
    /// formatting detail strings nobody will retain.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Would a record be admitted right now? Callers building expensive
    /// operation strings should consult this (or use
    /// [`AuditLog::record_system_with`]) before formatting.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Appends a record for a permission-mediated call.
    pub fn record(
        &self,
        app: AppId,
        operation: &str,
        token: PermissionToken,
        outcome: AuditOutcome,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push_pending(PendingRecord {
            app,
            operation: operation.to_owned(),
            token: Some(token),
            outcome,
        });
    }

    /// Appends a supervisor record (crash, shed event) with no token.
    pub fn record_system(&self, app: AppId, operation: &str, outcome: AuditOutcome) {
        if !self.is_enabled() {
            return;
        }
        self.push_pending(PendingRecord {
            app,
            operation: operation.to_owned(),
            token: None,
            outcome,
        });
    }

    /// Appends a supervisor record whose operation string is built lazily:
    /// the closure runs only when the record will actually be admitted —
    /// not while auditing is disabled, and not when the ring is full and
    /// the record would be shed anyway. Overload is exactly when the
    /// `format!` allocation matters most, so the drop path pays for
    /// neither the string nor a lock.
    pub fn record_system_with(
        &self,
        app: AppId,
        operation: impl FnOnce() -> String,
        outcome: AuditOutcome,
    ) {
        if !self.is_enabled() {
            return;
        }
        if self.shared.ring.is_full() {
            self.shared.try_assist();
            if self.shared.ring.is_full() {
                self.shared.shed.fetch_add(1, Ordering::SeqCst);
                return;
            }
        }
        self.push_pending(PendingRecord {
            app,
            operation: operation(),
            token: None,
            outcome,
        });
    }

    /// Pushes into the ring, assisting the drain and retrying briefly when
    /// full; sheds (with a count) rather than ever blocking.
    fn push_pending(&self, pending: PendingRecord) {
        let mut pending = pending;
        for _ in 0..PUSH_RETRIES {
            match self.shared.ring.push(pending) {
                Ok(()) => return,
                Err(back) => {
                    pending = back;
                    self.shared.try_assist();
                    std::thread::yield_now();
                }
            }
        }
        self.shared.shed.fetch_add(1, Ordering::SeqCst);
    }

    /// Drains any ring residue so subsequent store reads are current.
    fn sync(&self) {
        self.shared.drain_ring();
    }

    /// All retained records, oldest first (a snapshot; see
    /// [`AuditLog::records_since`] for incremental reads).
    pub fn records(&self) -> Vec<AuditRecord> {
        self.records_since(0)
    }

    /// Records with sequence number greater than `since`, oldest first —
    /// the incremental-reader path. Sequence numbers are assigned by the
    /// single drain consumer, so the retained run is contiguous; a reader
    /// that advances its cursor to the last returned `seq` sees every
    /// admitted record exactly once.
    pub fn records_since(&self, since: u64) -> Vec<AuditRecord> {
        // Hold the consumer role across both the drain and the segment
        // scan. If another drain could assign sequences while we walk the
        // segments one lock at a time, a record landing in an
        // already-scanned segment (while a later seq lands in a
        // yet-to-be-scanned one) would read as a hole in an otherwise
        // gap-free run. Producers are unaffected: they only push the ring.
        let _consumer = self.shared.drain.lock();
        self.shared.drain_locked();
        let floor = since.max(self.shared.evicted_through.load(Ordering::SeqCst));
        let mut out: Vec<AuditRecord> = Vec::new();
        for seg in &self.shared.segments {
            let seg = seg.lock();
            out.extend(seg.records.iter().filter(|r| r.seq > floor).cloned());
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Records for one app (snapshot).
    pub fn records_by(&self, app: AppId) -> Vec<AuditRecord> {
        self.records()
            .into_iter()
            .filter(|r| r.app == app)
            .collect()
    }

    /// Denied calls for one app — the forensic signal of an attack attempt.
    pub fn denials_by(&self, app: AppId) -> Vec<AuditRecord> {
        self.records_by(app)
            .into_iter()
            .filter(|r| r.outcome == AuditOutcome::Denied)
            .collect()
    }

    /// Number of records evicted by retention so far (admitted, then aged
    /// out — distinct from [`AuditLog::shed`]).
    pub fn dropped(&self) -> u64 {
        self.sync();
        self.shared.segments.iter().map(|s| s.lock().dropped).sum()
    }

    /// Number of records shed at the ring under overload: never admitted,
    /// never sequence-numbered, so they do not appear in
    /// [`AuditLog::seen`].
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::SeqCst)
    }

    /// Total records ever admitted (retained or evicted).
    pub fn seen(&self) -> u64 {
        self.sync();
        self.shared.next_seq.load(Ordering::SeqCst)
    }

    /// Seeds sequence numbering after recovery: the next appended record
    /// takes `through + 1`, and sequences `..=through` read as evicted (the
    /// pre-crash records themselves are gone, but cursors positioned at or
    /// before `through` resume without observing the gap as data loss).
    pub fn seed(&self, through: u64) {
        let _consumer = self.shared.drain.lock();
        // Flush anything still in flight under the old numbering first.
        self.shared.drain_locked();
        self.shared.next_seq.store(through, Ordering::SeqCst);
        self.shared
            .evicted_through
            .fetch_max(through, Ordering::SeqCst);
    }
}

impl Drop for AuditLog {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.drainer.lock().take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        // Belt and braces: nothing can be pushing anymore (`&mut self`),
        // so one more sweep leaves the ring provably empty.
        self.shared.drain_ring();
    }
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::new(65_536)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_queries() {
        let log = AuditLog::new(100);
        log.record(
            AppId(1),
            "insert_flow",
            PermissionToken::InsertFlow,
            AuditOutcome::Allowed,
        );
        log.record(
            AppId(2),
            "host_connect",
            PermissionToken::HostNetwork,
            AuditOutcome::Denied,
        );
        log.record(
            AppId(1),
            "insert_flow",
            PermissionToken::InsertFlow,
            AuditOutcome::Failed,
        );
        assert_eq!(log.records().len(), 3);
        assert_eq!(log.records_by(AppId(1)).len(), 2);
        assert_eq!(log.denials_by(AppId(2)).len(), 1);
        assert_eq!(log.denials_by(AppId(1)).len(), 0);
        assert_eq!(log.records()[0].seq, 1);
    }

    #[test]
    fn retention_evicts_oldest() {
        let log = AuditLog::new(4);
        for i in 0..10 {
            log.record(
                AppId(1),
                &format!("op{i}"),
                PermissionToken::ReadStatistics,
                AuditOutcome::Allowed,
            );
        }
        assert!(log.records().len() <= 4);
        assert!(log.dropped() > 0);
        // Sequence numbers keep counting across eviction.
        assert_eq!(log.records().last().unwrap().seq, 10);
    }

    #[test]
    fn dropped_counter_is_exact() {
        let log = AuditLog::new(4);
        for i in 0..4 {
            log.record(
                AppId(1),
                &format!("op{i}"),
                PermissionToken::ReadStatistics,
                AuditOutcome::Allowed,
            );
        }
        assert_eq!(log.dropped(), 0, "no eviction until capacity is exceeded");

        // The 5th record triggers one eviction of the oldest half (2 records).
        log.record(
            AppId(1),
            "op4",
            PermissionToken::ReadStatistics,
            AuditOutcome::Allowed,
        );
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.records().len(), 3);
        assert_eq!(log.records().first().unwrap().seq, 3, "oldest half gone");

        // Nothing retained is ever double-counted: retained + dropped = seen.
        log.record(
            AppId(1),
            "op5",
            PermissionToken::ReadStatistics,
            AuditOutcome::Allowed,
        );
        assert_eq!(log.records().len() as u64 + log.dropped(), 6);
        assert_eq!(log.seen(), 6);
    }

    #[test]
    fn system_records_have_no_token() {
        let log = AuditLog::new(10);
        log.record_system(AppId(7), "crash:on_event", AuditOutcome::Crashed);
        log.record_system(AppId(7), "event_shed", AuditOutcome::Dropped);
        let recs = log.records_by(AppId(7));
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.token.is_none()));
        assert_eq!(recs[0].outcome, AuditOutcome::Crashed);
        assert!(recs[0].to_string().contains("[-]"));
    }

    #[test]
    fn records_since_is_an_exactly_once_cursor() {
        let log = AuditLog::new(1024);
        for i in 0..5 {
            log.record(
                AppId(1),
                &format!("op{i}"),
                PermissionToken::ReadStatistics,
                AuditOutcome::Allowed,
            );
        }
        let first = log.records_since(0);
        assert_eq!(first.len(), 5);
        let cursor = first.last().unwrap().seq;
        assert!(log.records_since(cursor).is_empty());
        for i in 5..8 {
            log.record(
                AppId(1),
                &format!("op{i}"),
                PermissionToken::ReadStatistics,
                AuditOutcome::Allowed,
            );
        }
        let next = log.records_since(cursor);
        assert_eq!(
            next.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8]
        );
    }

    #[test]
    fn disabled_log_admits_nothing() {
        let log = AuditLog::new(16);
        log.record(
            AppId(1),
            "insert_flow",
            PermissionToken::InsertFlow,
            AuditOutcome::Allowed,
        );
        log.set_enabled(false);
        log.record(
            AppId(1),
            "insert_flow",
            PermissionToken::InsertFlow,
            AuditOutcome::Allowed,
        );
        log.record_system(AppId(1), "event_shed", AuditOutcome::Dropped);
        assert_eq!(log.records().len(), 1, "only the pre-disable record");
        assert_eq!(log.seen(), 1, "no sequence numbers burned while off");
        log.set_enabled(true);
        log.record_system(AppId(1), "event_shed", AuditOutcome::Dropped);
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn record_system_with_skips_formatting_when_disabled() {
        let log = AuditLog::new(16);
        log.set_enabled(false);
        let mut built = false;
        log.record_system_with(
            AppId(3),
            || {
                built = true;
                "crash:on_event".to_owned()
            },
            AuditOutcome::Crashed,
        );
        assert!(!built, "detail string must not be built while disabled");
        log.set_enabled(true);
        log.record_system_with(
            AppId(3),
            || {
                built = true;
                "crash:on_event".to_owned()
            },
            AuditOutcome::Crashed,
        );
        assert!(built);
        assert_eq!(log.records_by(AppId(3)).len(), 1);
        assert_eq!(log.records_by(AppId(3))[0].operation, "crash:on_event");
    }

    #[test]
    fn full_ring_sheds_lazy_records_without_formatting() {
        // A 2-slot ring whose drain mutex we hold: the drainer thread and
        // producer assists can't make space, so the third record must shed.
        let log = AuditLog::with_ring(1024, 2);
        {
            let _consumer = log.shared.drain.lock();
            log.record_system(AppId(1), "fill-a", AuditOutcome::Dropped);
            log.record_system(AppId(1), "fill-b", AuditOutcome::Dropped);
            let mut built = false;
            log.record_system_with(
                AppId(1),
                || {
                    built = true;
                    "expensive-detail".to_owned()
                },
                AuditOutcome::Dropped,
            );
            assert!(!built, "closure must not run when the record is shed");
            assert_eq!(log.shed(), 1);
        }
        // With the consumer role released the backlog drains normally.
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.seen(), 2, "shed records burn no sequence numbers");
    }

    #[test]
    fn full_ring_sheds_eager_records_after_bounded_retries() {
        let log = AuditLog::with_ring(1024, 2);
        {
            let _consumer = log.shared.drain.lock();
            log.record_system(AppId(1), "fill-a", AuditOutcome::Dropped);
            log.record_system(AppId(1), "fill-b", AuditOutcome::Dropped);
            // Bounded retries, then shed — never blocks the producer.
            log.record(
                AppId(1),
                "overflow",
                PermissionToken::ReadStatistics,
                AuditOutcome::Allowed,
            );
            assert_eq!(log.shed(), 1);
        }
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn background_drainer_advances_without_readers() {
        let log = AuditLog::new(64);
        log.record_system(AppId(1), "op", AuditOutcome::Dropped);
        // Wait (bounded) for the drainer thread, not a reader sync, to
        // move the record into the store.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !log.shared.ring.is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "drainer never swept the ring"
            );
            std::thread::yield_now();
        }
        assert_eq!(log.shared.next_seq.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_appends_keep_sequences_unique_and_complete() {
        use std::sync::Arc;
        let log = Arc::new(AuditLog::default());
        let threads = 8;
        let per_thread = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..per_thread {
                        log.record(
                            AppId(t as u16),
                            &format!("op{i}"),
                            PermissionToken::ReadStatistics,
                            AuditOutcome::Allowed,
                        );
                    }
                });
            }
        });
        let recs = log.records();
        assert_eq!(recs.len(), (threads as u64 * per_thread) as usize);
        // Sorted, unique, gap-free sequence numbers.
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
        }
    }
}
