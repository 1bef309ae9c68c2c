//! Activity logging for forensic analysis (paper §VII scenario 2: "the
//! SDNShield can provide activity logging, which enables forensic analysis
//! after the attack happens").
//!
//! # Concurrency
//!
//! One mutex guards the retained records, kept in sequence order, together
//! with the last assigned sequence number and the eviction count. An
//! append assigns its record the next sequence number and pushes it under
//! that lock, so the retained log is gap-free by construction and every
//! reader sees every record appended before its call began:
//! [`AuditLog::records_since`] is an exactly-once cursor, a binary search
//! plus a clone of the suffix.
//!
//! The operation string is built before the lock is taken and evicted
//! records are freed after it is released, so the critical section of an
//! append is a push. The lock is a leaf: `Kernel::submit` appends under the
//! commit lock, but nothing holding the audit lock takes another.
//! [`AuditLog::seen`] reads an atomic mirror of the last sequence number,
//! so stamping a journal record's audit watermark takes no lock at all.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Everything the audit mutex guards.
#[derive(Default)]
struct Store {
    /// Retained records, oldest first, with strictly increasing `seq`.
    /// Evicted records leave it, so its front is the eviction floor.
    records: VecDeque<AuditRecord>,
    /// Last assigned sequence number (records are 1-based).
    next_seq: u64,
    /// Records evicted by retention so far.
    dropped: u64,
}

/// An append-only, internally synchronized audit log with bounded
/// retention. Appends take `&self`, so deputies, the fast lane and the
/// commit-lock holder append concurrently.
pub struct AuditLog {
    store: Mutex<Store>,
    /// Most records retained at once (at least 1).
    capacity: usize,
    /// Mirror of `Store::next_seq`, written under the mutex.
    seen: AtomicU64,
}

impl fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditLog")
            .field("capacity", &self.capacity)
            .field("seen", &self.seen())
            .finish_non_exhaustive()
    }
}

impl AuditLog {
    /// A log retaining at most `capacity` recent records (at least one).
    /// At capacity the oldest half is evicted.
    pub fn new(capacity: usize) -> Self {
        AuditLog {
            store: Mutex::new(Store::default()),
            capacity: capacity.max(1),
            seen: AtomicU64::new(0),
        }
    }

    /// Appends a record for a permission-mediated call.
    pub fn record(
        &self,
        app: AppId,
        operation: &str,
        token: PermissionToken,
        outcome: AuditOutcome,
    ) {
        self.push(app, operation, Some(token), outcome);
    }

    /// Appends a supervisor record (crash, shed event) with no token.
    pub fn record_system(&self, app: AppId, operation: &str, outcome: AuditOutcome) {
        self.push(app, operation, None, outcome);
    }

    /// Numbers and stores one record, evicting the oldest half of the
    /// retained records first when they are at capacity.
    fn push(
        &self,
        app: AppId,
        operation: &str,
        token: Option<PermissionToken>,
        outcome: AuditOutcome,
    ) {
        let mut record = AuditRecord {
            seq: 0,
            app,
            operation: operation.to_owned(),
            token,
            outcome,
        };
        let mut store = self.store.lock();
        let evicted: Vec<AuditRecord> = if store.records.len() >= self.capacity {
            let n = (store.records.len() / 2).max(1);
            store.dropped += n as u64;
            store.records.drain(..n).collect()
        } else {
            Vec::new()
        };
        store.next_seq += 1;
        record.seq = store.next_seq;
        store.records.push_back(record);
        self.seen.store(store.next_seq, Ordering::Release);
        drop(store);
        drop(evicted);
    }

    /// All retained records, oldest first (a snapshot; see
    /// [`AuditLog::records_since`] for incremental reads).
    pub fn records(&self) -> Vec<AuditRecord> {
        self.records_since(0)
    }

    /// Records with sequence number greater than `since`, oldest first —
    /// the incremental-reader path. The retained run is contiguous, so a
    /// reader that advances its cursor to the last returned `seq` sees
    /// every retained record exactly once.
    pub fn records_since(&self, since: u64) -> Vec<AuditRecord> {
        let store = self.store.lock();
        let start = store.records.partition_point(|r| r.seq <= since);
        store.records.range(start..).cloned().collect()
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

    /// Number of records evicted by retention so far.
    pub fn dropped(&self) -> u64 {
        self.store.lock().dropped
    }

    /// Total records ever appended (retained or evicted), counting from
    /// the [`AuditLog::seed`] watermark. A plain atomic load.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Acquire)
    }

    /// Seeds sequence numbering after recovery: the next appended record
    /// takes `through + 1`, and sequences `..=through` read as evicted (the
    /// pre-crash records themselves are gone, but cursors positioned at or
    /// before `through` resume without observing the gap as data loss).
    /// Records retained before the seed are discarded: those at or below
    /// `through` read as evicted anyway, and any above it would collide
    /// with the new numbering.
    pub fn seed(&self, through: u64) {
        let mut store = self.store.lock();
        let discarded = std::mem::take(&mut store.records);
        store.next_seq = through;
        self.seen.store(through, Ordering::Release);
        drop(store);
        drop(discarded);
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

    #[test]
    fn retention_never_exceeds_capacity() {
        for capacity in [0, 1, 2, 3, 4, 5, 65_536] {
            let log = AuditLog::new(capacity);
            // Past two evictions; every step for small logs, and around
            // each eviction point plus a stride for the default size.
            let total = 2 * capacity.max(10) + 3;
            for i in 1..=total {
                log.record_system(AppId(1), "op", AuditOutcome::Dropped);
                if capacity > 5 && i % 4096 != 0 && (i as isize - capacity as isize).abs() > 1 {
                    continue;
                }
                let retained = log.records().len();
                assert!(
                    retained <= capacity.max(1),
                    "capacity {capacity}: {retained} records retained"
                );
                assert_eq!(retained as u64 + log.dropped(), log.seen());
            }
            assert_eq!(log.records().last().unwrap().seq, log.seen());
        }
    }
}
