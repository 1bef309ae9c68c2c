//! The durable command journal: an append-only, CRC-framed log of every
//! [`Command`] the kernel commits, in commit order.
//!
//! On-disk format is a sequence of frames:
//!
//! ```text
//! [u32 len][u32 crc32][payload: u64 seq | u64 audit_seq_after | command bytes]
//! ```
//!
//! `len` counts payload bytes; `crc32` (IEEE, reflected, poly `0xEDB88320`)
//! covers the payload. [`Journal::open`] validates frames front to back and
//! truncates the file at the first incomplete or corrupt frame — a torn
//! tail from a crash mid-write is discarded cleanly, never half-decoded.
//!
//! Group commit (DESIGN.md §16): a file-backed journal with no fault armed
//! does not write under the kernel's commit lock. The lock holder only
//! queues its record ([`Journal::append`] returns `true`), in commit order;
//! after dropping the lock the submitter calls [`Journal::sync`]. The first
//! waiter writes everything queued with one `write_all`, and every later
//! waiter whose record that write covered returns at once. No submit
//! returns before its own record is written, and every reader
//! ([`Journal::records_since`], [`Journal::trace`], ...) writes the queue
//! out first. With a fault armed, appends take the synchronous per-record
//! path, so injected byte offsets do not depend on timing.
//!
//! Accepted relaxation (DESIGN.md §12): appends reach the OS via buffered
//! `write` without `fsync`, so the durability boundary is process crash,
//! not power loss. The simulated testbed only ever kills processes.
//!
//! Fault injection for the supervision test matrix lives here too:
//! [`JournalFaults`] arms torn writes at a byte offset, CRC corruption on a
//! chosen record, and a crash between apply and append.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::command::{decode_command, encode_command, Command};

/// One committed command with its journal position and the audit watermark
/// observed immediately after it committed (recovery seeds the audit log
/// from the last record's watermark so replayed audit records extend the
/// sequence instead of colliding with pre-crash numbering).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Commit sequence number, 1-based, dense.
    pub seq: u64,
    /// `AuditLog::seen()` right after this command committed.
    pub audit_seq_after: u64,
    /// The command itself.
    pub cmd: Command,
}

/// Injected journal failures, armed via [`Journal::arm_faults`] (usually
/// through [`crate::fault::FaultPlan`]). Each fires at most once; after a
/// torn write or skipped append the journal marks itself dead and ignores
/// further appends, modeling the process dying at that instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalFaults {
    /// Tear the frame that crosses this file byte offset: only the prefix
    /// up to the offset reaches disk, then the journal dies.
    pub torn_write_at_byte: Option<u64>,
    /// Flip the stored CRC of the record with this sequence number. The
    /// process continues (the in-memory record stays), but recovery from
    /// disk truncates at this record.
    pub corrupt_crc_on_record: Option<u64>,
    /// Die after applying but before appending the record with this
    /// sequence number — the classic apply/append crash window.
    pub crash_before_append_on_record: Option<u64>,
}

impl JournalFaults {
    /// True when no journal fault is armed.
    pub fn is_none(&self) -> bool {
        *self == JournalFaults::default()
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), table-driven.
fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = table[((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

struct JournalState {
    /// Every valid record, in commit order (always kept in memory; the
    /// warm standby tails this, not the file).
    records: Vec<JournalRecord>,
    /// Backing file, absent for purely in-memory journals.
    file: Option<File>,
    /// Bytes written to the file so far.
    file_len: u64,
    /// Armed fault injections.
    faults: JournalFaults,
    /// Frame buffer reused by every queue write-out.
    frames: BytesMut,
}

/// The append-only command log. Thread-safe; one instance is shared by the
/// live kernel (appender) and any warm standby (tailer).
pub struct Journal {
    /// Lock order: `state` before `queue`, never the reverse.
    state: Mutex<JournalState>,
    /// File-backed records committed but not yet written, in commit order.
    /// Only the commit-lock holder pushes here; only a `state` holder
    /// drains it.
    queue: Mutex<Vec<JournalRecord>>,
    /// Highest sequence the queue write-outs have covered.
    written: AtomicU64,
    /// Queue appends (file-backed and no fault armed) rather than write
    /// them under the caller's lock.
    grouped: AtomicBool,
    /// Where the backing file lives, for diagnostics.
    path: Option<PathBuf>,
    /// Set once an injected fault has "killed" the journaling process;
    /// subsequent appends are dropped silently, as a dead process would.
    dead: AtomicBool,
}

impl Journal {
    fn with_state(records: Vec<JournalRecord>, file: Option<File>, file_len: u64) -> Journal {
        let grouped = file.is_some();
        let written = records.last().map_or(0, |r| r.seq);
        Journal {
            state: Mutex::new(JournalState {
                records,
                file,
                file_len,
                faults: JournalFaults::default(),
                frames: BytesMut::new(),
            }),
            queue: Mutex::new(Vec::new()),
            written: AtomicU64::new(written),
            grouped: AtomicBool::new(grouped),
            path: None,
            dead: AtomicBool::new(false),
        }
    }

    /// A journal with no backing file: commands are retained in memory
    /// only. This is the warm-standby / record-replay configuration and
    /// the cheapest way to measure the journaling hot-path tax.
    pub fn in_memory() -> Journal {
        Journal::with_state(Vec::new(), None, 0)
    }

    /// An in-memory journal seeded with an already-captured trace — the
    /// record/replay loading path: feed a trace (e.g. a prefix of a crashed
    /// run's [`Journal::trace`]) to [`crate::kernel::Kernel::recover`] or a
    /// warm standby.
    pub fn from_trace(records: Vec<JournalRecord>) -> Journal {
        Journal::with_state(records, None, 0)
    }

    /// Opens (or creates) a file-backed journal, validating every frame and
    /// truncating the file at the first incomplete or corrupt one. The
    /// surviving records are loaded into memory; appends continue after
    /// them.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening, reading, or truncating the
    /// file. Corrupt *content* is not an error — it is recovered from by
    /// truncation, per the crash-consistency contract.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;

        let mut records = Vec::new();
        let mut valid_len = 0u64;
        let mut b = Bytes::from(raw);
        loop {
            if b.len() < 8 {
                break; // incomplete header: torn tail
            }
            let mut header = b.clone();
            let len = header.get_u32() as usize;
            let crc = header.get_u32();
            if header.len() < len {
                break; // incomplete payload: torn tail
            }
            let payload = header.slice(0..len);
            if crc32(&payload) != crc {
                break; // corrupt frame: truncate from here
            }
            match decode_record(payload) {
                Ok(rec) => records.push(rec),
                Err(_) => break, // CRC passed but content is garbage
            }
            valid_len += 8 + len as u64;
            b.advance(8 + len);
        }

        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            path: Some(path),
            ..Journal::with_state(records, Some(file), valid_len)
        })
    }

    /// The backing file path, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Arms injected journal faults (each fires at most once). Writes the
    /// queue out first: from here on appends take the synchronous
    /// per-record path.
    pub fn arm_faults(&self, faults: JournalFaults) {
        let mut state = self.written_out();
        state.faults = faults;
        self.grouped
            .store(state.file.is_some() && faults.is_none(), Ordering::SeqCst);
    }

    /// True once an injected fault has "killed" the journaling process.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Appends one committed command. Called by the kernel under its commit
    /// lock, so records arrive in commit order with dense sequences.
    ///
    /// Returns `true` when the record was only queued: the caller must
    /// [`Journal::sync`] it once it has dropped its lock, and must not
    /// report the command done before that returns.
    pub(crate) fn append(&self, seq: u64, audit_seq_after: u64, cmd: Command) -> bool {
        if self.is_dead() {
            return false;
        }
        let record = JournalRecord {
            seq,
            audit_seq_after,
            cmd,
        };
        if self.grouped.load(Ordering::SeqCst) {
            self.queue.lock().unwrap().push(record);
            return true;
        }
        let mut state = self.state.lock().unwrap();
        if state.file.is_some() {
            // Anything queued before a fault was armed goes first.
            self.write_queue(&mut state);
        }
        self.append_locked(&mut state, record);
        false
    }

    /// Waits until the record with sequence `seq` is written. The first
    /// waiter writes everything queued with one `write_all`; a waiter whose
    /// record an earlier write covered returns at once. Returns how many
    /// records this call wrote (0: another caller's write covered `seq`).
    pub(crate) fn sync(&self, seq: u64) -> usize {
        if self.written.load(Ordering::Acquire) >= seq {
            return 0;
        }
        let mut state = self.state.lock().unwrap();
        if self.written.load(Ordering::Acquire) >= seq {
            return 0;
        }
        self.write_queue(&mut state)
    }

    /// The state lock, taken after writing the queue out, so whatever the
    /// caller reads or changes includes every committed record.
    fn written_out(&self) -> MutexGuard<'_, JournalState> {
        let mut state = self.state.lock().unwrap();
        self.write_queue(&mut state);
        state
    }

    /// Writes every queued record with one `write_all` and moves them to
    /// `records`. Returns how many it wrote.
    fn write_queue(&self, state: &mut JournalState) -> usize {
        let from = state.records.len();
        state.records.append(&mut self.queue.lock().unwrap());
        let written = &state.records[from..];
        let Some(last) = written.last().map(|r| r.seq) else {
            return 0;
        };
        state.frames.clear();
        for record in written {
            encode_frame(record, None, &mut state.frames);
        }
        if let Some(file) = state.file.as_mut() {
            file.write_all(&state.frames)
                .expect("journal append failed: backing file unwritable");
        }
        state.file_len += state.frames.len() as u64;
        self.written.store(last, Ordering::Release);
        written.len()
    }

    /// The synchronous single-record append: in memory, or with a fault
    /// armed. Marks the journal dead when an injected fault kills it.
    fn append_locked(&self, state: &mut JournalState, record: JournalRecord) {
        let seq = record.seq;
        if state.faults.crash_before_append_on_record == Some(seq) {
            state.faults.crash_before_append_on_record = None;
            self.dead.store(true, Ordering::SeqCst);
            return; // applied but never journaled: the crash window
        }

        // In-memory hot path: with no backing file and no armed faults the
        // frame (length, CRC, encoded command) exists only to survive a
        // reopen, which can never happen — skip it. This keeps the journal
        // tax on the mediation hot path to a clone and a push.
        if state.file.is_none() && state.faults.is_none() {
            state.records.push(record);
            return;
        }

        let corrupt = if state.faults.corrupt_crc_on_record == Some(seq) {
            state.faults.corrupt_crc_on_record = None;
            true
        } else {
            false
        };
        state.frames.clear();
        encode_frame(&record, corrupt.then_some(0xFF), &mut state.frames);
        let JournalState {
            file,
            file_len,
            frames,
            faults,
            records,
        } = state;

        if let Some(tear_at) = faults.torn_write_at_byte {
            let end = *file_len + frames.len() as u64;
            if end > tear_at {
                faults.torn_write_at_byte = None;
                let keep = tear_at.saturating_sub(*file_len) as usize;
                if let Some(file) = file.as_mut() {
                    let _ = file.write_all(&frames[..keep]);
                }
                self.dead.store(true, Ordering::SeqCst);
                return; // process died mid-write; record never committed
            }
        }

        if let Some(file) = file.as_mut() {
            file.write_all(frames)
                .expect("journal append failed: backing file unwritable");
        }
        *file_len += frames.len() as u64;
        records.push(record);
        self.written.store(seq, Ordering::Release);
    }

    /// Runs `f` over the records with `seq > since`, in order, in place —
    /// the recovery replay suffix, read without cloning a command.
    pub(crate) fn with_records_since<R>(
        &self,
        since: u64,
        f: impl FnOnce(&[JournalRecord]) -> R,
    ) -> R {
        let state = self.written_out();
        let start = state.records.partition_point(|r| r.seq <= since);
        f(&state.records[start..])
    }

    /// Records with `seq > since`, in order — the warm-standby catch-up
    /// cursor and the recovery replay suffix.
    pub fn records_since(&self, since: u64) -> Vec<JournalRecord> {
        self.with_records_since(since, <[JournalRecord]>::to_vec)
    }

    /// Every retained record (a full trace for record/replay debugging).
    pub fn trace(&self) -> Vec<JournalRecord> {
        self.written_out().records.clone()
    }

    /// The highest committed sequence, or 0 when empty.
    pub fn last_seq(&self) -> u64 {
        self.written_out().records.last().map_or(0, |r| r.seq)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.written_out().records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops in-memory records with `seq <= through_seq` — called after a
    /// snapshot makes that prefix redundant. The file is left alone (it
    /// remains a valid superset; rewriting it is a restart-time concern).
    pub fn compact(&self, through_seq: u64) {
        self.written_out().records.retain(|r| r.seq > through_seq);
    }

    /// Writes out every queued record — the barrier [`crate::kernel::Kernel::seal`]
    /// ends with, so a sealed primary's journal holds every command it
    /// acknowledged.
    pub(crate) fn flush(&self) {
        drop(self.written_out());
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap();
        f.debug_struct("Journal")
            .field("records", &state.records.len())
            .field("file_len", &state.file_len)
            .field("path", &self.path)
            .field("dead", &self.is_dead())
            .finish()
    }
}

/// Encodes one `[u32 len][u32 crc32][payload]` frame onto `out`, in
/// place: the payload goes straight after a header placeholder that is
/// filled in once its length and CRC are known.
/// `crc_xor` flips the stored CRC (the corrupt-CRC fault injection).
fn encode_frame(record: &JournalRecord, crc_xor: Option<u32>, out: &mut BytesMut) {
    let header = out.len();
    out.put_u64(0);
    out.put_u64(record.seq);
    out.put_u64(record.audit_seq_after);
    encode_command(&record.cmd, out);
    let payload = &out[header + 8..];
    let len = payload.len() as u32;
    let crc = crc32(payload) ^ crc_xor.unwrap_or(0);
    out[header..header + 4].copy_from_slice(&len.to_be_bytes());
    out[header + 4..header + 8].copy_from_slice(&crc.to_be_bytes());
}

fn decode_record(mut payload: Bytes) -> Result<JournalRecord, crate::command::DecodeError> {
    if payload.len() < 16 {
        return Err(crate::command::DecodeError::new("short journal record"));
    }
    let seq = payload.get_u64();
    let audit_seq_after = payload.get_u64();
    let cmd = decode_command(&mut payload)?;
    if !payload.is_empty() {
        return Err(crate::command::DecodeError::new(
            "trailing bytes in journal record",
        ));
    }
    Ok(JournalRecord {
        seq,
        audit_seq_after,
        cmd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnshield_core::api::AppId;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sdnshield-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let unique = format!(
            "{}-{}-{name}.journal",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
        );
        dir.join(unique)
    }

    fn cmd(secs: u64) -> Command {
        Command::AdvanceClock { secs }
    }

    /// One committed command, written before it returns: queue, then sync.
    fn append(j: &Journal, seq: u64, audit_seq_after: u64, cmd: Command) {
        if j.append(seq, audit_seq_after, cmd) {
            j.sync(seq);
        }
    }

    /// A commit group: every record queued, then one sync for the last.
    fn append_group(j: &Journal, entries: Vec<(u64, u64, Command)>) {
        let Some(last) = entries.last().map(|e| e.0) else {
            return;
        };
        let mut queued = false;
        for (seq, audit_seq_after, cmd) in entries {
            queued |= j.append(seq, audit_seq_after, cmd);
        }
        if queued {
            j.sync(last);
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn in_memory_append_and_cursor() {
        let j = Journal::in_memory();
        for i in 1..=5 {
            append(&j, i, i * 10, cmd(i));
        }
        assert_eq!(j.last_seq(), 5);
        assert_eq!(j.len(), 5);
        let suffix = j.records_since(3);
        assert_eq!(suffix.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(suffix[0].audit_seq_after, 40);
        j.compact(4);
        assert_eq!(j.records_since(0).len(), 1);
        assert_eq!(j.last_seq(), 5);
    }

    #[test]
    fn file_roundtrip_survives_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            append(&j, 1, 2, cmd(1));
            append(
                &j,
                2,
                4,
                Command::RegisterApp {
                    app: AppId(7),
                    name: "fw".into(),
                    manifest: "grant insert_flow;".into(),
                },
            );
        }
        let j = Journal::open(&path).unwrap();
        let trace = j.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].seq, 2);
        assert_eq!(trace[1].audit_seq_after, 4);
        assert!(matches!(trace[1].cmd, Command::RegisterApp { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            append(&j, 1, 1, cmd(1));
            append(&j, 2, 2, cmd(2));
        }
        let full = std::fs::read(&path).unwrap();
        // Tear mid-way through the second frame.
        let cut = full.len() - 5;
        std::fs::write(&path, &full[..cut]).unwrap();

        let j = Journal::open(&path).unwrap();
        assert_eq!(j.last_seq(), 1, "torn record discarded");
        // And the file itself was truncated back to the valid prefix.
        let survived = std::fs::read(&path).unwrap();
        assert!(survived.len() < cut);
        // Appending after recovery produces a clean frame again.
        append(&j, 2, 2, cmd(2));
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.last_seq(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_truncates_from_bad_record() {
        let path = tmp("crc");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            j.arm_faults(JournalFaults {
                corrupt_crc_on_record: Some(2),
                ..JournalFaults::default()
            });
            append(&j, 1, 1, cmd(1));
            append(&j, 2, 2, cmd(2));
            append(&j, 3, 3, cmd(3));
            // The live process kept all three in memory.
            assert_eq!(j.last_seq(), 3);
            assert!(!j.is_dead());
        }
        let j = Journal::open(&path).unwrap();
        // Recovery drops record 2 AND everything after it: prefix rule.
        assert_eq!(j.last_seq(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_fault_kills_journal() {
        let path = tmp("torn-fault");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        append(&j, 1, 1, cmd(1));
        let first_frame_len = std::fs::metadata(&path).unwrap().len();
        j.arm_faults(JournalFaults {
            torn_write_at_byte: Some(first_frame_len + 3),
            ..JournalFaults::default()
        });
        append(&j, 2, 2, cmd(2));
        assert!(j.is_dead());
        assert_eq!(j.last_seq(), 1, "torn record never committed in memory");
        // Further appends are dropped: the process is dead.
        append(&j, 3, 3, cmd(3));
        assert_eq!(j.last_seq(), 1);
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.last_seq(), 1, "recovery truncates the torn bytes");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_before_append_skips_record() {
        let j = Journal::in_memory();
        j.arm_faults(JournalFaults {
            crash_before_append_on_record: Some(2),
            ..JournalFaults::default()
        });
        append(&j, 1, 1, cmd(1));
        append(&j, 2, 2, cmd(2));
        assert!(j.is_dead());
        assert_eq!(j.last_seq(), 1);
    }

    #[test]
    fn garbage_file_recovers_to_empty() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a journal at all, definitely").unwrap();
        let j = Journal::open(&path).unwrap();
        assert!(j.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_append_is_byte_identical_to_serial_appends() {
        let serial_path = tmp("batch-serial");
        let batch_path = tmp("batch-batch");
        {
            let serial = Journal::open(&serial_path).unwrap();
            for i in 1..=3 {
                append(&serial, i, i * 7, cmd(i));
            }
            let batch = Journal::open(&batch_path).unwrap();
            append_group(&batch, (1..=3).map(|i| (i, i * 7, cmd(i))).collect());
            assert_eq!(batch.len(), 3);
            assert_eq!(batch.last_seq(), 3);
        }
        // One group append must leave the exact bytes N serial appends
        // leave: recovery and warm standbys cannot tell them apart.
        let serial_bytes = std::fs::read(&serial_path).unwrap();
        let batch_bytes = std::fs::read(&batch_path).unwrap();
        assert_eq!(serial_bytes, batch_bytes, "frame-for-frame identical");

        // And the reopened batch file replays the same records.
        let reopened = Journal::open(&batch_path).unwrap();
        let records = reopened.records_since(0);
        assert_eq!(records.len(), 3);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.audit_seq_after, (i as u64 + 1) * 7);
        }
        std::fs::remove_file(&serial_path).unwrap();
        std::fs::remove_file(&batch_path).unwrap();
    }

    #[test]
    fn batch_append_with_armed_tear_degrades_per_record() {
        let path = tmp("batch-torn");
        let prefix_len;
        {
            let j = Journal::open(&path).unwrap();
            append(&j, 1, 1, cmd(1));
            // Every AdvanceClock record has the same frame length, so the
            // file length after one append doubles as the frame size.
            prefix_len = std::fs::metadata(&path).unwrap().len();
            let frame_len = prefix_len;
            // Tear inside the SECOND record of the group: the batch path
            // must fall back to per-record framing so the tear lands at
            // the same byte offset a serial append would produce.
            j.arm_faults(JournalFaults {
                torn_write_at_byte: Some(prefix_len + frame_len + frame_len / 2),
                ..JournalFaults::default()
            });
            append_group(&j, vec![(2, 2, cmd(2)), (3, 3, cmd(3)), (4, 4, cmd(4))]);
            // The journal died at the tear; the batch suffix was dropped.
            assert!(j.is_dead());
            assert_eq!(
                j.last_seq(),
                2,
                "record before the torn one survives in memory"
            );
        }
        let reopened = Journal::open(&path).unwrap();
        // Recovery truncates the torn tail: only the pre-batch record and
        // the first (fully written) group record remain.
        assert_eq!(reopened.last_seq(), 2);
        assert!(std::fs::metadata(&path).unwrap().len() > prefix_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_append_to_dead_or_empty_is_a_noop() {
        let j = Journal::in_memory();
        append_group(&j, Vec::new());
        assert!(j.is_empty());
        append_group(&j, vec![(1, 1, cmd(1)), (2, 2, cmd(2))]);
        assert_eq!(j.len(), 2);
        j.arm_faults(JournalFaults {
            crash_before_append_on_record: Some(3),
            ..JournalFaults::default()
        });
        append_group(&j, vec![(3, 3, cmd(3)), (4, 4, cmd(4))]);
        assert!(j.is_dead());
        assert_eq!(j.last_seq(), 2);
        // Dead journals swallow batches silently, same as append().
        append_group(&j, vec![(5, 5, cmd(5))]);
        assert_eq!(j.last_seq(), 2);
    }
}
