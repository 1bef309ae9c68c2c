//! An accept that fails with something other than `WouldBlock` must not
//! turn the reactor's wait into a busy loop. Out of descriptors (`EMFILE`),
//! `accept` leaves the pending connection queued and the listener readable,
//! so a wait that kept polling the listener would return at once, forever.
//!
//! This test uses up every file descriptor of the process, so it lives in a
//! test binary of its own: no other test may run beside it.

use std::fs::File;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdnshield::controller::southbound::{Reactor, SouthboundConfig};
use sdnshield::controller::ShieldedController;
use sdnshield::netsim::network::Network;
use sdnshield::netsim::topology::builders;

/// `EMFILE`: the process has no free descriptor.
const EMFILE: i32 = 24;

/// The soft limit on open files, from `/proc/self/limits`.
fn open_files_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[test]
fn accept_failure_leaves_the_listener_out_of_the_next_wait() {
    let limit = open_files_limit().unwrap_or(u64::MAX);
    if limit > 1 << 17 {
        eprintln!("skipped: {limit} descriptors are too many to use up");
        return;
    }
    let controller = Arc::new(ShieldedController::new(
        Network::new(builders::linear(1), 16),
        1,
    ));
    let mut reactor = Reactor::bind(
        "127.0.0.1:0",
        Arc::clone(&controller),
        SouthboundConfig::default(),
    )
    .unwrap();
    // Queued in the listener's backlog, not yet accepted.
    let _client = TcpStream::connect(reactor.local_addr()).unwrap();
    let mut hog = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => hog.push(f),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(EMFILE), "{e}");
                break;
            }
        }
    }
    reactor.poll_once(1);
    assert_eq!(reactor.stats().accepted, 0, "accept must fail with EMFILE");
    let t = Instant::now();
    reactor.wait(Duration::from_millis(200));
    let waited = t.elapsed();
    drop(hog);
    assert!(
        waited >= Duration::from_millis(150),
        "wait returned after {waited:?}: the failed listener woke it"
    );
    // With descriptors free again, the next sweep accepts.
    reactor.poll_once(2);
    assert_eq!(reactor.stats().accepted, 1);
    reactor.close_all();
    controller.shutdown();
}
