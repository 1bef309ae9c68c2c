//! Epoch-based RCU cell for the offline `crossbeam` shim.
//!
//! `RcuCell<T>` publishes immutable `Arc<T>` snapshots through a single
//! atomic pointer. Readers pin the current epoch (one TLS access plus one
//! atomic store), load the pointer, and never block; writers swap the
//! pointer and retire the old snapshot onto a per-cell reclamation list
//! that is drained once every pinned reader has moved past the
//! retirement epoch.
//!
//! # Protocol
//!
//! Every operation on the global epoch, the participant slots, and the
//! cell pointer is `SeqCst`, which makes the safety argument a statement
//! about the single total order of those operations:
//!
//! * A writer **swaps** the pointer first, then bumps the global epoch to
//!   obtain the retirement tag `t`, then scans participant slots.
//! * A reader **loads** the global epoch `e`, stores it into its slot,
//!   then loads the pointer.
//!
//! If the writer's scan observes a slot as idle (or with epoch >= `t`),
//! then in the total order that reader's pointer load follows the swap,
//! so it can only observe the *new* pointer — never the retired one. A
//! reader that could still hold the old pointer necessarily published an
//! epoch `< t` before the scan, and blocks reclamation of that entry.
//!
//! A snapshot retired at tag `t` is therefore freed exactly when the
//! minimum epoch over all pinned participants exceeds `t` (idle slots
//! report `u64::MAX`). Reclamation is driven by subsequent `store` calls
//! and by `Drop`; a cell that is never written again keeps at most its
//! last retired snapshot alive until the cell itself drops.
//!
//! Participants are leaked `'static` nodes handed out through a free
//! list, so the registry is bounded by the peak number of concurrently
//! live threads, not by the total number of threads ever spawned.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Slot value meaning "not currently pinned".
const IDLE: u64 = u64::MAX;

/// Global epoch counter. Starts at 1 so an epoch of 0 is never observed
/// and retirement tags are always strictly positive.
static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Every participant ever created (leaked nodes; bounded by the peak
/// thread count thanks to the free list below).
static PARTICIPANTS: Mutex<Vec<&'static Participant>> = Mutex::new(Vec::new());

/// Participants whose owning thread has exited, available for reuse.
static FREE: Mutex<Vec<&'static Participant>> = Mutex::new(Vec::new());

struct Participant {
    /// The epoch this thread pinned at, or [`IDLE`].
    epoch: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-thread handle caching this thread's participant slot.
struct Handle {
    slot: &'static Participant,
    nest: Cell<usize>,
}

impl Handle {
    fn new() -> Handle {
        let slot = lock(&FREE).pop().unwrap_or_else(|| {
            let slot: &'static Participant = Box::leak(Box::new(Participant {
                epoch: AtomicU64::new(IDLE),
            }));
            lock(&PARTICIPANTS).push(slot);
            slot
        });
        slot.epoch.store(IDLE, SeqCst);
        Handle {
            slot,
            nest: Cell::new(0),
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.slot.epoch.store(IDLE, SeqCst);
        lock(&FREE).push(self.slot);
    }
}

thread_local! {
    static HANDLE: Handle = Handle::new();
}

/// Proof that the current thread is pinned; see [`pin`].
///
/// Deliberately `!Send`: the guard manipulates this thread's participant
/// slot on drop.
pub struct Guard {
    _not_send: PhantomData<*const ()>,
}

/// Pin the current thread, keeping every snapshot loaded through the
/// returned [`Guard`] alive until the guard drops. Reentrant: nested
/// pins share the outermost epoch.
pub fn pin() -> Guard {
    HANDLE.with(|h| {
        if h.nest.get() == 0 {
            h.slot.epoch.store(GLOBAL_EPOCH.load(SeqCst), SeqCst);
        }
        h.nest.set(h.nest.get() + 1);
    });
    Guard {
        _not_send: PhantomData,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // `try_with`: during thread teardown the handle may already be
        // gone, in which case its own Drop has retired the slot.
        let _ = HANDLE.try_with(|h| {
            let n = h.nest.get() - 1;
            h.nest.set(n);
            if n == 0 {
                h.slot.epoch.store(IDLE, SeqCst);
            }
        });
    }
}

/// Smallest epoch any pinned participant holds (`IDLE` if none).
fn min_active_epoch() -> u64 {
    lock(&PARTICIPANTS)
        .iter()
        .map(|p| p.epoch.load(SeqCst))
        .min()
        .unwrap_or(IDLE)
}

/// An epoch-protected cell publishing immutable `Arc<T>` snapshots.
///
/// Readers: [`RcuCell::load`] under a [`Guard`] (zero refcount traffic),
/// or [`RcuCell::load_full`] for an owned `Arc`. Writers:
/// [`RcuCell::store`] publishes a new snapshot and retires the old one.
/// Concurrent stores are safe but callers normally serialize writers
/// externally (the cell makes no ordering promise between racing
/// stores).
pub struct RcuCell<T> {
    ptr: AtomicPtr<T>,
    /// Retired snapshots as `(retirement_tag, pointer)` pairs.
    retired: Mutex<Vec<(u64, *const T)>>,
}

unsafe impl<T: Send + Sync> Send for RcuCell<T> {}
unsafe impl<T: Send + Sync> Sync for RcuCell<T> {}

impl<T> RcuCell<T> {
    pub fn new(value: Arc<T>) -> RcuCell<T> {
        RcuCell {
            ptr: AtomicPtr::new(Arc::into_raw(value) as *mut T),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Load the current snapshot. The reference lives as long as the
    /// guard: the snapshot cannot be reclaimed while any participant is
    /// pinned at or before the epoch of the store that retires it.
    pub fn load<'g>(&self, _guard: &'g Guard) -> &'g T {
        unsafe { &*self.ptr.load(SeqCst) }
    }

    /// Load the current snapshot as an owned `Arc` (pins internally).
    pub fn load_full(&self) -> Arc<T> {
        let guard = pin();
        let p = self.ptr.load(SeqCst);
        let arc = unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        };
        drop(guard);
        arc
    }

    /// Publish a new snapshot, retiring the old one. Reclaims every
    /// retired snapshot no pinned reader can still observe.
    pub fn store(&self, value: Arc<T>) {
        let new = Arc::into_raw(value) as *mut T;
        let old = self.ptr.swap(new, SeqCst);
        let tag = GLOBAL_EPOCH.fetch_add(1, SeqCst) + 1;
        let mut retired = lock(&self.retired);
        retired.push((tag, old as *const T));
        let min_active = min_active_epoch();
        retired.retain(|&(t, p)| {
            if t < min_active {
                unsafe { drop(Arc::from_raw(p)) };
                false
            } else {
                true
            }
        });
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        for &(_, p) in lock(&self.retired).iter() {
            unsafe { drop(Arc::from_raw(p)) };
        }
        unsafe { drop(Arc::from_raw(self.ptr.load(SeqCst))) };
    }
}

impl<T: fmt::Debug> fmt::Debug for RcuCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RcuCell")
            .field("value", &self.load_full())
            .finish()
    }
}

impl<T: Default> Default for RcuCell<T> {
    fn default() -> Self {
        RcuCell::new(Arc::new(T::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// The epoch and participant registry are process-global, so a test
    /// that pins perturbs every other test's reclamation counts: each
    /// test holds this for its whole body.
    static SERIAL: Mutex<()> = Mutex::new(());

    struct Counted {
        a: u64,
        b: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, SeqCst);
        }
    }

    fn counted(v: u64, drops: &Arc<AtomicUsize>) -> Arc<Counted> {
        Arc::new(Counted {
            a: v,
            b: v,
            drops: drops.clone(),
        })
    }

    #[test]
    fn store_then_load_sees_new_value() {
        let _serial = lock(&SERIAL);
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = RcuCell::new(counted(1, &drops));
        cell.store(counted(2, &drops));
        let g = pin();
        assert_eq!(cell.load(&g).a, 2);
        drop(g);
        assert_eq!(cell.load_full().a, 2);
    }

    #[test]
    fn unpinned_retirees_are_reclaimed() {
        let _serial = lock(&SERIAL);
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = RcuCell::new(counted(0, &drops));
        for i in 1..=10 {
            cell.store(counted(i, &drops));
        }
        // With no pinned readers every retired snapshot is freed on the
        // store that follows; only value 9's retirement may be pending,
        // and the final store's cleanup freed it too.
        assert_eq!(drops.load(SeqCst), 10 - 1 + 1);
        drop(cell);
        assert_eq!(drops.load(SeqCst), 11);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let _serial = lock(&SERIAL);
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = RcuCell::new(counted(1, &drops));
        let g = pin();
        let old = cell.load(&g);
        cell.store(counted(2, &drops));
        // Our pin predates the retirement tag, so value 1 must survive.
        assert_eq!(drops.load(SeqCst), 0);
        assert_eq!((old.a, old.b), (1, 1));
        drop(g);
        // Next store's cleanup runs with no pinned readers.
        cell.store(counted(3, &drops));
        assert!(drops.load(SeqCst) >= 2);
    }

    #[test]
    fn nested_pins_share_the_outer_epoch() {
        let _serial = lock(&SERIAL);
        let cell = RcuCell::new(Arc::new(7u64));
        let outer = pin();
        let inner = pin();
        assert_eq!(*cell.load(&inner), 7);
        drop(inner);
        // Still pinned: loads through the outer guard remain valid.
        assert_eq!(*cell.load(&outer), 7);
        drop(outer);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_snapshots() {
        let _serial = lock(&SERIAL);
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(RcuCell::new(counted(0, &drops)));
        let stop = Arc::new(AtomicU64::new(0));
        let started = Arc::new(AtomicUsize::new(0));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                let started = started.clone();
                thread::spawn(move || {
                    let mut reads = 0u64;
                    while stop.load(SeqCst) == 0 {
                        let g = pin();
                        let v = cell.load(&g);
                        // The invariant a == b holds in every published
                        // snapshot; a torn or reclaimed read breaks it.
                        assert_eq!(v.a, v.b);
                        reads += 1;
                        if reads == 1 {
                            started.fetch_add(1, SeqCst);
                        }
                    }
                    reads
                })
            })
            .collect();

        // Keep publishing until every reader has raced at least one load
        // against a store (so the writer can't finish before the readers
        // are scheduled).
        let mut i = 0u64;
        while i < 10_000 || started.load(SeqCst) < 4 {
            i += 1;
            cell.store(counted(i, &drops));
        }
        stop.store(1, SeqCst);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }

    #[test]
    fn participants_are_recycled_across_threads() {
        let _serial = lock(&SERIAL);
        for _ in 0..64 {
            thread::spawn(|| {
                let g = pin();
                drop(g);
            })
            .join()
            .unwrap();
        }
        // The free list bounds the registry: 64 sequential threads must
        // not have leaked 64 fresh participants beyond the peak count.
        assert!(lock(&PARTICIPANTS).len() < 64);
    }
}
