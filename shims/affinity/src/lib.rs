//! The workspace's one libc-FFI shim: best-effort CPU pinning
//! (`sched_setaffinity`), readiness waits (`poll(2)`), and shared file
//! mappings (`mmap`, `munmap`, `posix_fallocate`) for the command journal.
//!
//! The workspace is `#![forbid(unsafe_code)]` outside the shims; this crate
//! owns the FFI calls that core-pinned deputy shards, the southbound
//! reactor and the file-backed journal need, each behind a safe API that
//! turns a bad argument into an `io::Error`. libc is already linked by
//! std, so no new dependency is introduced.
//!
//! Pinning is strictly best-effort: a failed or unsupported call returns
//! `false` and the caller keeps running unpinned. Nothing in the workspace
//! may depend on pinning for correctness — only for locality. The file
//! mappings exist on 64-bit Linux only; elsewhere [`MappedWindow::map`] and
//! [`fallocate`] return `ErrorKind::Unsupported`.

use std::io;
use std::time::Duration;

mod window;

pub use window::{fallocate, MappedWindow};

/// Number of logical CPUs visible to this process (1 when unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins the calling thread to `core` (modulo the visible core count).
/// Returns `true` when the kernel accepted the mask, `false` on any
/// failure or on platforms without `sched_setaffinity`.
pub fn pin_to_core(core: usize) -> bool {
    imp::pin_to_core(core % available_cores().max(1))
}

/// Readable (or, on a listener, a connection is waiting to be accepted).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;

/// One `struct pollfd`: the descriptor, the events of interest, and the
/// events `poll` reported.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollFd {
    /// The file descriptor (a negative one is ignored).
    pub fd: i32,
    /// Requested events ([`POLLIN`], [`POLLOUT`]).
    pub events: i16,
    /// Returned events; error and hang-up bits are reported unrequested.
    pub revents: i16,
}

impl PollFd {
    /// Interest in `events` on `fd`.
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// Blocks until one of `fds` is ready or `timeout` passes, filling each
/// entry's `revents`; returns how many entries are ready (0 on timeout).
///
/// The timeout is rounded *up* to whole milliseconds, so a short wait never
/// becomes a busy poll. A signal interrupting the wait (`EINTR`) reads as a
/// wake with nothing ready: the caller re-checks its state, as after any
/// wake. Where `poll` does not exist this sleeps for at most 1 ms and
/// reports nothing ready.
///
/// # Errors
///
/// Any other `poll` failure (`EINVAL`, `ENOMEM`).
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX);
    match imp::poll(fds, ms) {
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        other => other,
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use std::io;

    use super::PollFd;

    // cpu_set_t is 1024 bits; represent it as 16 u64 words.
    const CPU_SET_WORDS: usize = 16;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        #[link_name = "poll"]
        fn c_poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }

    pub fn pin_to_core(core: usize) -> bool {
        if core >= CPU_SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[core / 64] = 1u64 << (core % 64);
        // SAFETY: `mask` is a live local of exactly `CPU_SET_WORDS * 8`
        // bytes, the size passed, and the kernel only reads it; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_setaffinity(0, CPU_SET_WORDS * 8, mask.as_ptr()) };
        rc == 0
    }

    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `PollFd` is `#[repr(C)]` with `struct pollfd`'s layout, and
        // the pointer/length pair describes exactly the borrowed slice, which
        // outlives the call.
        let rc = unsafe {
            c_poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout_ms,
            )
        };
        usize::try_from(rc).map_err(|_| io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;

    use super::PollFd;

    pub fn pin_to_core(_core: usize) -> bool {
        false
    }

    pub fn poll(_fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let ms = u64::try_from(timeout_ms).unwrap_or(0).min(1);
        std::thread::sleep(std::time::Duration::from_millis(ms));
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_cores_is_positive() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn pin_is_best_effort_and_does_not_panic() {
        // Whatever the platform answers, the call must not crash the
        // thread; on Linux pinning to core 0 should generally succeed.
        let _ = pin_to_core(0);
        let _ = pin_to_core(usize::MAX - 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn poll_reports_readiness_and_rounds_short_timeouts_up() {
        use std::io::Write as _;
        use std::os::fd::AsRawFd as _;
        use std::os::unix::net::UnixStream;
        use std::time::Instant;

        let (rx, mut tx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        // Nothing to read: a 1 ns timeout still sleeps a whole millisecond.
        let t = Instant::now();
        assert_eq!(poll(&mut fds, Duration::from_nanos(1)).unwrap(), 0);
        assert!(t.elapsed() >= Duration::from_millis(1));
        assert_eq!(fds[0].revents, 0);
        // A byte makes the read end ready at once.
        tx.write_all(&[1]).unwrap();
        assert_eq!(poll(&mut fds, Duration::from_secs(10)).unwrap(), 1);
        assert_eq!(fds[0].revents & POLLIN, POLLIN);
        // The write end of an idle pair is writable.
        let mut fds = [PollFd::new(tx.as_raw_fd(), POLLOUT)];
        assert_eq!(poll(&mut fds, Duration::ZERO).unwrap(), 1);
        assert_eq!(fds[0].revents & POLLOUT, POLLOUT);
    }
}
