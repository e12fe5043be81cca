//! Epoch-stamped lock-free snapshot publication.
//!
//! The plane used to patch its snapshot in place, which required a
//! plane-wide quiesce: `refresh_delta` asserted `Arc::get_mut` — no
//! batch in flight, no stream-plane read half-way through a window, no
//! remote scrape holding the state. [`SnapshotSlot`] removes that
//! barrier with an `ArcSwap`-style published slot built from `std`
//! primitives only:
//!
//! * the current snapshot lives behind an [`AtomicPtr`] to a heap cell
//!   pairing the `Arc<Snapshot>` with its **publication epoch** (a
//!   monotone install counter), so a reader always gets a consistent
//!   (snapshot, epoch) pair in one pointer load;
//! * readers *pin* (one `fetch_add`) for the few instructions between
//!   loading the pointer and bumping the snapshot's `Arc` strong count,
//!   then unpin — after which they hold an owned `Arc` and never touch
//!   the slot again, however long the batch runs;
//! * a writer swaps the pointer in, then waits for the pin count to
//!   drain to zero before releasing the *old* cell. The wait is bounded
//!   by the pin window (pointer load + refcount bump), not by batch
//!   length, so installs stay O(readers) nanoseconds even mid-query.
//!
//! Readers therefore never block writers and writers never block
//! readers; a batch dispatched against epoch `e` keeps executing
//! against its frozen snapshot while epoch `e+1` is already serving new
//! arrivals — exactly the freshness-vs-stability contract the stream
//! plane's windows want.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::snapshot::Snapshot;

/// One published (snapshot, epoch) pairing. Heap-allocated so a single
/// atomic pointer hands readers both halves consistently.
struct Published {
    snapshot: Arc<Snapshot>,
    epoch: u64,
}

/// The publication slot. See the module docs for the protocol.
pub struct SnapshotSlot {
    ptr: AtomicPtr<Published>,
    /// Readers inside the load window (pointer read → refcount bump).
    pins: AtomicUsize,
    /// Mirror of the current cell's epoch, readable without pinning.
    epoch: AtomicU64,
}

impl SnapshotSlot {
    /// Publishes `snapshot` as epoch 0.
    pub fn new(snapshot: Arc<Snapshot>) -> Self {
        let cell = Box::into_raw(Box::new(Published { snapshot, epoch: 0 }));
        SnapshotSlot {
            ptr: AtomicPtr::new(cell),
            pins: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// The currently published snapshot and its publication epoch, as an
    /// owned handle: once this returns, the caller's `Arc` keeps the
    /// snapshot alive independently of any later install.
    pub fn load(&self) -> (Arc<Snapshot>, u64) {
        // Pin BEFORE loading the pointer: a writer that swapped first
        // will see our pin and wait; a writer that swaps after our load
        // waits for us too. Either way the cell we dereference is alive.
        self.pins.fetch_add(1, Ordering::SeqCst);
        let cell = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `cell` came from `Box::into_raw` in `new`/`install`,
        // and the pin above keeps any concurrent `install` from freeing
        // it until we unpin below.
        let (snapshot, epoch) = unsafe { (Arc::clone(&(*cell).snapshot), (*cell).epoch) };
        self.pins.fetch_sub(1, Ordering::SeqCst);
        (snapshot, epoch)
    }

    /// The current publication epoch (number of installs since `new`).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Atomically publishes `snapshot` under the next epoch and returns
    /// that epoch. Never blocks readers; waits only for readers inside
    /// the pin window (a few instructions) before freeing the old cell.
    /// Installs are serialized by the owning plane (its refresh methods
    /// take `&mut self`); concurrent installs would still be memory-safe
    /// (each swap takes a distinct old cell) but could duplicate epochs.
    pub fn install(&self, snapshot: Arc<Snapshot>) -> u64 {
        let epoch = self.epoch.load(Ordering::SeqCst) + 1;
        let cell = Box::into_raw(Box::new(Published { snapshot, epoch }));
        let old = self.ptr.swap(cell, Ordering::SeqCst);
        self.epoch.store(epoch, Ordering::SeqCst);
        // Wait out readers that loaded the OLD pointer but have not yet
        // bumped its refcount. New readers see the new cell, so this
        // drains in the time of a pointer load — spin, don't park.
        while self.pins.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // SAFETY: `old` was the published cell; no reader can reach it
        // any more (pointer swapped, pins drained), and the slot held
        // the only raw reference to the Box.
        drop(unsafe { Box::from_raw(old) });
        epoch
    }
}

impl Drop for SnapshotSlot {
    fn drop(&mut self) {
        let cell = *self.ptr.get_mut();
        // SAFETY: exclusive access (`&mut self`); the cell is the one
        // live Box the slot owns.
        drop(unsafe { Box::from_raw(cell) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;
    use switchpointer::testbed::{Testbed, TestbedConfig};

    fn snap(dir_shards: usize) -> Arc<Snapshot> {
        let topo = Topology::chain(2, 2, GBPS);
        let tb = Testbed::new(topo, TestbedConfig::default_ms());
        Arc::new(Snapshot::capture_with(&tb.analyzer(), 8, dir_shards))
    }

    /// Installs advance the epoch, loads see a consistent pair, and the
    /// old snapshot stays alive for holders of a pre-install handle.
    #[test]
    fn install_advances_epoch_and_keeps_old_handles_alive() {
        let first = snap(1);
        let slot = SnapshotSlot::new(Arc::clone(&first));
        let (s0, e0) = slot.load();
        assert_eq!(e0, 0);
        assert!(Arc::ptr_eq(&s0, &first));
        let second = snap(2);
        assert_eq!(slot.install(Arc::clone(&second)), 1);
        assert_eq!(slot.epoch(), 1);
        let (s1, e1) = slot.load();
        assert_eq!(e1, 1);
        assert!(Arc::ptr_eq(&s1, &second));
        // The pre-install handle still reads the old state.
        assert_eq!(s0.dir_shards(), first.dir_shards());
    }

    /// Hammer the slot from concurrent readers while a writer installs
    /// repeatedly: every load must return a pair whose epoch matches the
    /// snapshot installed under it (consistency), and epochs observed by
    /// any one reader never go backwards past a later re-read.
    #[test]
    fn concurrent_loads_see_consistent_pairs_under_install_storm() {
        // Distinguish snapshots by directory-shard count: epoch e is
        // always paired with a snapshot of (e % 8) + 1 dir shards.
        let snaps: Vec<Arc<Snapshot>> = (0..8).map(|i| snap(i + 1)).collect();
        let slot = Arc::new(SnapshotSlot::new(Arc::clone(&snaps[0])));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let (s, e) = slot.load();
                        // Pair consistency: the snapshot IS the one this
                        // epoch published.
                        assert_eq!(
                            s.dir_shards(),
                            (e as usize % 8) + 1,
                            "epoch {e} paired with wrong snapshot"
                        );
                        assert!(e >= last, "epoch went backwards: {last} → {e}");
                        last = e;
                    }
                })
            })
            .collect();
        for round in 1..64u64 {
            // Capture shards cycle 1..=8 in step with the epoch.
            let s = Arc::clone(&snaps[(round % 8) as usize]);
            assert_eq!(slot.install(s), round);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(slot.epoch(), 63);
    }
}
