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
//! truncates the file at the first incomplete, corrupt or zero-length
//! frame — a torn tail from a crash mid-write is discarded cleanly, never
//! half-decoded.
//!
//! Group commit (DESIGN.md §16): a file-backed journal does not write under
//! the kernel's commit lock. The lock holder only queues its record
//! ([`Journal::append`] returns `true`), in commit order; after dropping the
//! lock the submitter calls [`Journal::sync`]. The first waiter writes
//! everything queued in one go, and every later waiter whose record that
//! write covered returns at once. No submit returns before its own record
//! is written, and every reader ([`Journal::records_since`],
//! [`Journal::trace`], ...) writes the queue out first. An in-memory
//! journal has nothing to write: its appends push the record directly.
//!
//! The write-out makes no system call per group: it copies the encoded
//! frames into a `MAP_SHARED` window of the file ([`affinity::MappedWindow`],
//! [`WINDOW`] bytes, mapped on the first store), whose disk blocks are
//! allocated ahead of the cursor with `posix_fallocate`. A group that runs
//! past the window's end rolls to the next window — unmap, allocate, map —
//! so a frame may straddle two windows, and the mapping never holds more
//! than one window of resident pages. While a journal is live its file is
//! the valid frames plus a zeroed, preallocated tail; dropping the journal
//! unmaps the window and cuts the tail off. After a crash the zero tail
//! stays, and [`Journal::open`] reads its first zero length as the end of
//! the log. Hazard: a store past the end of the file kills the process
//! (`SIGBUS`), so only the live journal may shrink its file — reopening a
//! live journal's file (which truncates it) is supported only once the
//! journal has been sealed ([`crate::kernel::Kernel::seal`]) and will not
//! append again. The mappings exist on 64-bit Linux only; elsewhere a
//! file-backed journal panics on its first write-out, as it does on any
//! failure to store.
//!
//! Accepted relaxation (DESIGN.md §12): stored frames sit in the page cache
//! without `msync`/`fsync`, like a buffered `write(2)`, so the durability
//! boundary is process crash, not power loss. The simulated testbed only
//! ever kills processes.
//!
//! Fault injection for the supervision test matrix lives here too:
//! [`JournalFaults`] arms torn writes at a byte offset, CRC corruption on a
//! chosen record, and a crash between apply and append.

use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use affinity::MappedWindow;
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::command::{decode_command, encode_command, Command};

/// Bytes of the journal file mapped at a time. One window bounds the
/// resident pages the mapping adds to the process (shared file pages count
/// toward its RSS) while amortizing an unmap, allocate and map over about
/// 15 000 typical records.
const WINDOW: u64 = 1 << 20;

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
/// further appends, modeling the process dying at that instant. Torn
/// writes and CRC corruption act on the file, so an in-memory journal
/// ignores them.
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

/// Slicing-by-8 tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the classic byte-at-a-time table, `CRC_TABLES[k][b]` the CRC of byte
/// `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), eight bytes per
/// step (slicing-by-8), the tail byte by byte.
fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = t[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

struct JournalState {
    /// Every valid record, in commit order (always kept in memory; the
    /// warm standby tails this, not the file).
    records: Vec<JournalRecord>,
    /// Backing file, absent for purely in-memory journals.
    file: Option<File>,
    /// Bytes of frames stored in the file so far (a torn frame's prefix
    /// included): where the next frame goes, and the file's length once
    /// the journal drops.
    file_len: u64,
    /// The mapped window of `file` that stores go through, with its file
    /// offset (a multiple of [`WINDOW`]); mapped on the first store.
    window: Option<(MappedWindow, u64)>,
    /// Armed torn-write and CRC faults, applied by the write-out. The
    /// apply/append crash is read from [`Journal::crash_before_append`].
    faults: JournalFaults,
    /// Frame buffer reused by every queue write-out.
    frames: BytesMut,
}

impl JournalState {
    /// Stores `frames` at `file_len` through the mapped window, rolling to
    /// the next window whenever they run past the current one's end.
    fn store_frames(&mut self) -> io::Result<()> {
        let JournalState {
            file: Some(file),
            file_len,
            window,
            frames,
            ..
        } = self
        else {
            return Ok(());
        };
        let mut bytes = &frames[..];
        while !bytes.is_empty() {
            let base = *file_len - *file_len % WINDOW;
            let mapped = match window {
                Some((mapped, at)) if *at == base => mapped,
                _ => {
                    *window = None; // unmap before the next window maps
                    affinity::fallocate(file, base, WINDOW)?;
                    let mapped = MappedWindow::map(file, base, WINDOW as usize)?;
                    &mut window.insert((mapped, base)).0
                }
            };
            let off = (*file_len - base) as usize;
            let n = bytes.len().min(WINDOW as usize - off);
            mapped.bytes_mut()[off..off + n].copy_from_slice(&bytes[..n]);
            *file_len += n as u64;
            bytes = &bytes[n..];
        }
        Ok(())
    }
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
    /// Sequence of the record an armed apply/append crash skips (0: none).
    /// Read by [`Journal::append`] under the kernel's commit lock, which
    /// must not wait for `state`.
    crash_before_append: AtomicU64,
    /// The backing file's path: `Some` exactly when the journal is
    /// file-backed.
    path: Option<PathBuf>,
    /// Set once an injected fault has "killed" the journaling process;
    /// subsequent appends are dropped silently, as a dead process would.
    dead: AtomicBool,
}

impl Journal {
    fn with_state(
        records: Vec<JournalRecord>,
        file: Option<File>,
        file_len: u64,
        path: Option<PathBuf>,
    ) -> Journal {
        let written = records.last().map_or(0, |r| r.seq);
        Journal {
            state: Mutex::new(JournalState {
                records,
                file,
                file_len,
                window: None,
                faults: JournalFaults::default(),
                frames: BytesMut::new(),
            }),
            queue: Mutex::new(Vec::new()),
            written: AtomicU64::new(written),
            crash_before_append: AtomicU64::new(0),
            path,
            dead: AtomicBool::new(false),
        }
    }

    /// A journal with no backing file: commands are retained in memory
    /// only. This is the warm-standby / record-replay configuration and
    /// the cheapest way to measure the journaling hot-path tax.
    pub fn in_memory() -> Journal {
        Journal::with_state(Vec::new(), None, 0, None)
    }

    /// An in-memory journal seeded with an already-captured trace — the
    /// record/replay loading path: feed a trace (e.g. a prefix of a crashed
    /// run's [`Journal::trace`]) to [`crate::kernel::Kernel::recover`] or a
    /// warm standby.
    pub fn from_trace(records: Vec<JournalRecord>) -> Journal {
        Journal::with_state(records, None, 0, None)
    }

    /// Opens (or creates) a file-backed journal, validating every frame and
    /// truncating the file at the first incomplete, corrupt or zero-length
    /// one (a crashed journal's preallocated tail reads as zero lengths).
    /// The surviving records are loaded into memory; appends continue after
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
            if len == 0 {
                break; // no frame is empty: the zeroed preallocated tail
            }
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
        Ok(Journal::with_state(
            records,
            Some(file),
            valid_len,
            Some(path),
        ))
    }

    /// The backing file path, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Bytes of frames written to the backing file so far (0 in memory):
    /// the file's length once the journal drops. While the journal is live
    /// the file is longer, by its preallocated tail.
    pub fn file_len(&self) -> u64 {
        self.written_out().file_len
    }

    /// Arms injected journal faults (each fires at most once). Writes the
    /// queue out first, so the faults act only on records committed after
    /// this call.
    pub fn arm_faults(&self, faults: JournalFaults) {
        let mut state = self.written_out();
        self.crash_before_append.store(
            faults.crash_before_append_on_record.unwrap_or(0),
            Ordering::SeqCst,
        );
        state.faults = faults;
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
        if self.crash_before_append.load(Ordering::SeqCst) == seq {
            // Only the commit-lock holder appends, so no other append can
            // fire this fault between the load and the store.
            self.crash_before_append.store(0, Ordering::SeqCst);
            self.dead.store(true, Ordering::SeqCst);
            return false; // applied but never journaled: the crash window
        }
        let record = JournalRecord {
            seq,
            audit_seq_after,
            cmd,
        };
        if self.path.is_none() {
            // In-memory hot path: with no file to reopen, the frame (length,
            // CRC, encoded command) would never be read — skip it. This
            // keeps the journal tax on the mediation hot path to a push.
            self.state.lock().unwrap().records.push(record);
            return false;
        }
        let mut queue = self.queue.lock().unwrap();
        // A torn write-out kills the journal under this lock, so no record
        // queues behind the torn one.
        if self.is_dead() {
            return false;
        }
        queue.push(record);
        true
    }

    /// Waits until the record with sequence `seq` is written. The first
    /// waiter writes everything queued in one go; a waiter whose record an
    /// earlier write covered returns at once. Returns how many records this
    /// call wrote (0: another caller's write covered `seq`).
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

    /// Moves every queued record to `records` and stores their frames in
    /// the file, one copy per window, applying armed faults frame by frame: a
    /// corrupt-CRC record's frame is encoded with a flipped CRC; at a tear
    /// only the frame prefix up to the torn byte is stored, the journal
    /// dies, and the torn record and the rest of the group leave `records`.
    /// Returns how many records it wrote.
    fn write_queue(&self, state: &mut JournalState) -> usize {
        let from = state.records.len();
        state.records.append(&mut self.queue.lock().unwrap());
        let Some(last) = state.records[from..].last().map(|r| r.seq) else {
            return 0;
        };
        state.frames.clear();
        let mut kept = state.records.len();
        for (i, record) in state.records[from..].iter().enumerate() {
            let corrupt = state.faults.corrupt_crc_on_record == Some(record.seq);
            if corrupt {
                state.faults.corrupt_crc_on_record = None;
            }
            let start = state.frames.len();
            encode_frame(record, corrupt.then_some(0xFF), &mut state.frames);
            let end = state.file_len + state.frames.len() as u64;
            if let Some(tear_at) = state.faults.torn_write_at_byte.filter(|&at| end > at) {
                state.faults.torn_write_at_byte = None;
                // `tear_at < end`, so the kept prefix fits in `frames`.
                let keep = tear_at.saturating_sub(state.file_len) as usize;
                state.frames.truncate(keep.max(start));
                kept = from + i;
                break;
            }
        }
        state
            .store_frames()
            .expect("journal append failed: backing file unwritable");
        if kept < state.records.len() {
            // The process died mid-write: the torn record and everything
            // queued after it never committed.
            let mut queue = self.queue.lock().unwrap();
            self.dead.store(true, Ordering::SeqCst);
            queue.clear();
            state.records.truncate(kept);
        }
        self.written.store(last, Ordering::Release);
        kept - from
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

impl Drop for Journal {
    /// Unmaps the window, then cuts the preallocated tail off, so a closed
    /// journal's file is exactly its frames. Best effort: a failure leaves
    /// a zero tail, which [`Journal::open`] reads as the end of the log.
    fn drop(&mut self) {
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        state.window = None;
        if let Some(file) = &state.file {
            let _ = file.set_len(state.file_len);
        }
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

    /// The byte-at-a-time CRC-32 the slicing-by-8 tables must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        #[test]
        fn crc32_slicing_matches_bytewise_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..301),
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
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
        let first_frame_len = j.file_len();
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
            prefix_len = j.file_len();
            let frame_len = prefix_len;
            // Tear inside the SECOND record of the group: the write-out
            // applies the tear frame by frame, so it lands at the same
            // byte offset a serial append would produce.
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

    /// Every frame `records` encode to, back to back: the bytes a closed
    /// journal holding them must consist of.
    fn frames_of(records: &[JournalRecord]) -> Vec<u8> {
        let mut out = BytesMut::new();
        for r in records {
            encode_frame(r, None, &mut out);
        }
        out.to_vec()
    }

    #[test]
    fn crash_leaves_a_zero_tail_that_reopen_cuts_off() {
        let crashed_path = tmp("zero-tail");
        let clean_path = tmp("zero-tail-clean");
        let _ = std::fs::remove_file(&crashed_path);
        let _ = std::fs::remove_file(&clean_path);
        let j = Journal::open(&crashed_path).unwrap();
        for i in 1..=5 {
            append(&j, i, i, cmd(i));
        }
        let written = j.file_len();
        // Die without Drop: the window stays mapped and the tail stays.
        std::mem::forget(j);
        let on_disk = std::fs::metadata(&crashed_path).unwrap().len();
        assert!(on_disk > written, "preallocated tail left by the crash");

        let j = Journal::open(&crashed_path).unwrap();
        let seqs: Vec<u64> = j.trace().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "dense, nothing from the tail");
        assert_eq!(std::fs::metadata(&crashed_path).unwrap().len(), written);
        for i in 6..=8 {
            append(&j, i, i, cmd(i));
        }
        drop(j);

        let clean = Journal::open(&clean_path).unwrap();
        for i in 1..=8 {
            append(&clean, i, i, cmd(i));
        }
        drop(clean);
        assert_eq!(
            std::fs::read(&crashed_path).unwrap(),
            std::fs::read(&clean_path).unwrap(),
            "a crash and reopen leave no trace in the bytes"
        );
        std::fs::remove_file(&crashed_path).unwrap();
        std::fs::remove_file(&clean_path).unwrap();
    }

    #[test]
    fn frames_straddling_window_boundaries_reopen_dense() {
        let path = tmp("windows");
        let _ = std::fs::remove_file(&path);
        // ~60 KB frames: 2.5 windows' worth, some straddling a boundary.
        let big = |seq: u64| Command::RegisterApp {
            app: AppId(seq as u16),
            name: format!("app{seq}"),
            manifest: "x".repeat(60_000 + seq as usize),
        };
        let mut expected = Vec::new();
        {
            let j = Journal::open(&path).unwrap();
            // Single appends, then one group that crosses a boundary in a
            // single write-out.
            for seq in 1..=30 {
                append(&j, seq, seq, big(seq));
            }
            append_group(&j, (31..=45).map(|seq| (seq, seq, big(seq))).collect());
            assert!(j.file_len() > 2 * WINDOW);
            expected.extend(j.trace());
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, frames_of(&expected), "frames stored contiguously");
        let reopened = Journal::open(&path).unwrap();
        assert_eq!(reopened.trace(), expected);
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dropped_journal_file_is_exactly_its_frames() {
        let path = tmp("drop-len");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        for i in 1..=3 {
            append(&j, i, i, cmd(i));
        }
        let written = j.file_len();
        assert_eq!(written, frames_of(&j.trace()).len() as u64);
        drop(j);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), written);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopening_a_sealed_live_journal_is_safe() {
        let path = tmp("sealed-live");
        let _ = std::fs::remove_file(&path);
        let live = Journal::open(&path).unwrap();
        append_group(&live, (1..=4).map(|i| (i, i, cmd(i))).collect());
        // What `Kernel::seal` ends with: every queued record on file.
        live.flush();
        let expected = live.trace();
        // The reopen truncates the live journal's preallocated tail ...
        let reader = Journal::open(&path).unwrap();
        assert_eq!(reader.trace(), expected);
        drop(reader);
        // ... and dropping the live journal afterwards neither faults nor
        // changes the records.
        drop(live);
        assert_eq!(Journal::open(&path).unwrap().trace(), expected);
        std::fs::remove_file(&path).unwrap();
    }
}
