//! Offline shim for `crossbeam`, in two modules:
//!
//! * [`channel`]: multi-producer **multi-consumer** channels with
//!   crossbeam's disconnect semantics, built on `Mutex<VecDeque>` +
//!   `Condvar`. `std::sync::mpsc` cannot back this — the controller clones
//!   one `Receiver` across a pool of deputy threads, which requires MPMC.
//! * [`epoch`]: `RcuCell`, an epoch-based RCU cell for the kernel's and the
//!   network's read-mostly snapshots. It holds the shim's only `unsafe`.

pub mod epoch;

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        capacity: Option<usize>,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled when an item is pushed or the last sender drops.
        readable: Condvar,
        /// Signalled when an item is popped or the last receiver drops
        /// (unblocks bounded senders).
        writable: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The sending half of a channel. Cloneable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Cloneable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; the
    /// unsent message is handed back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and all
    /// senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders have disconnected.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// The channel is empty and all senders have disconnected.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T: Send> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel that holds at most `cap` messages; sends block while
    /// full. `bounded(0)` is approximated with capacity 1 (the workspace only
    /// uses rendezvous channels for single-shot replies, where the two
    /// behave identically).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                capacity,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: wake receivers so they observe disconnection.
                let _guard = self.shared.inner.lock();
                self.shared.readable.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last receiver: wake blocked bounded senders.
                let _guard = self.shared.inner.lock();
                self.shared.writable.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while a bounded channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(msg));
                }
                let full = inner.capacity.is_some_and(|cap| inner.queue.len() >= cap);
                if !full {
                    inner.queue.push_back(msg);
                    self.shared.readable.notify_one();
                    return Ok(());
                }
                inner = self
                    .shared
                    .writable
                    .wait(inner)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Is the channel currently empty?
        pub fn is_empty(&self) -> bool {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .queue
                .is_empty()
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .queue
                .len()
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives or all senders
        /// disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    self.shared.writable.notify_one();
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                inner = self
                    .shared
                    .readable
                    .wait(inner)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(msg) = inner.queue.pop_front() {
                self.shared.writable.notify_one();
                return Ok(msg);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receives with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    self.shared.writable.notify_one();
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .shared
                    .readable
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                inner = guard;
            }
        }

        /// Is the channel currently empty?
        pub fn is_empty(&self) -> bool {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .queue
                .is_empty()
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .queue
                .len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn mpmc_fanout() {
        let (tx, rx) = unbounded::<u32>();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while rx.recv().is_ok() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        drop(rx);
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        let t = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(2))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(3).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(3));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
