//! Epoch-based quiescence for sweeps that need a consistent cut of
//! concurrently mutated state, without stopping any thread.
//!
//! The single-threaded [`crate::Jvm`] reaches a safepoint by simply
//! calling [`crate::Jvm::safepoint`] — there is nobody else to stop.
//! Checker leak/death sweeps over a lock-free store shared by several
//! worker threads need less than a frozen world: a consistent cut.
//! [`EpochParticipants`] provides it. Each participant advertises the
//! global epoch it has most recently observed ([`EpochHandle::pin`],
//! one load + one store); a sweeper bumps the global epoch and waits —
//! yielding, never parking anyone — until every online participant has
//! advertised the new epoch ([`EpochHandle::quiesce`]). At that point
//! every operation the other threads started *before* the bump has
//! completed and is visible, so a sorted sweep of the store is a
//! deterministic function of the pre-epoch operation set; no thread
//! ever stops running.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One participant's epoch cell.
#[derive(Debug)]
struct EpochSlot {
    /// The newest global epoch this participant has observed.
    seen: AtomicU64,
    /// `false` once the participant's handle is dropped; offline
    /// participants never block a quiesce.
    online: AtomicBool,
}

/// Epoch-based quiescence for sweeps that must not stop the world.
///
/// Protocol:
///
/// 1. Every worker [`register`](EpochParticipants::register)s once and
///    [`pin`](EpochHandle::pin)s between units of work (one relaxed
///    load + one release store — no contention, no branch on others).
/// 2. A sweeper calls [`EpochHandle::quiesce`]: it bumps the global
///    epoch and spins (yielding) until every *online* participant has
///    pinned at or past the bumped value, then runs its sweep closure
///    while the other threads keep running.
///
/// The guarantee is a consistent *cut*, not mutual exclusion: once
/// every participant has advertised epoch `E`, every operation begun
/// before `E` was published has completed and its effects are visible
/// (pins are release stores read with acquire loads). Operations begun
/// after the bump may or may not be observed — exactly the semantics a
/// leak/death sweep needs, because an entity transitioned concurrently
/// with the sweep was by definition still live at the cut. Sweep output
/// stays deterministic because the store's sweeps are sorted and each
/// entity is single-writer in a correct program.
///
/// Concurrent quiescers are safe: while waiting, a quiescer keeps
/// re-pinning its own slot to the newest global epoch, so two sweeps
/// racing each other both complete (each may then observe the other's
/// sweep as concurrent work).
#[derive(Debug, Default)]
pub struct EpochParticipants {
    /// The global epoch clock.
    epoch: AtomicU64,
    slots: Mutex<Vec<Arc<EpochSlot>>>,
    /// Completed quiesced sweeps.
    sweeps: AtomicU64,
}

impl EpochParticipants {
    /// Creates an epoch domain with no participants.
    pub fn new() -> EpochParticipants {
        EpochParticipants::default()
    }

    /// Registers the calling thread; the handle pins and quiesces, and
    /// marks the participant offline on drop.
    pub fn register(&self) -> EpochHandle<'_> {
        let slot = Arc::new(EpochSlot {
            seen: AtomicU64::new(self.epoch.load(Ordering::SeqCst)),
            online: AtomicBool::new(true),
        });
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&slot));
        EpochHandle {
            participants: self,
            slot,
        }
    }

    /// The current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Number of completed quiesced sweeps.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::SeqCst)
    }

    /// True when every online participant has advertised `target`.
    fn quiesced_at(&self, target: u64) -> bool {
        let slots = self
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slots
            .iter()
            .all(|s| !s.online.load(Ordering::Acquire) || s.seen.load(Ordering::Acquire) >= target)
    }
}

/// One registered participant of an [`EpochParticipants`] domain.
#[derive(Debug)]
pub struct EpochHandle<'a> {
    participants: &'a EpochParticipants,
    slot: Arc<EpochSlot>,
}

impl EpochHandle<'_> {
    /// Advertises the newest global epoch: call between units of work.
    /// One relaxed load and one release store — the whole per-iteration
    /// cost of sweep support.
    #[inline]
    pub fn pin(&self) {
        let now = self.participants.epoch.load(Ordering::Relaxed);
        self.slot.seen.store(now, Ordering::Release);
    }

    /// Bumps the global epoch, waits (yielding, never parking) until
    /// every online participant has pinned past the bump, then runs
    /// `sweep` against the quiesced cut. Returns the sweep's value.
    ///
    /// The calling thread's own slot is kept pinned to the newest epoch
    /// throughout, so concurrent quiescers cannot wait on each other.
    pub fn quiesce<T>(&self, sweep: impl FnOnce() -> T) -> T {
        let target = self.participants.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        loop {
            // Keep self current: another quiescer may have bumped past
            // our target and be waiting on us.
            let now = self.participants.epoch.load(Ordering::SeqCst);
            self.slot.seen.fetch_max(now, Ordering::AcqRel);
            if self.participants.quiesced_at(target) {
                break;
            }
            std::thread::yield_now();
        }
        let out = sweep();
        self.participants.sweeps.fetch_add(1, Ordering::SeqCst);
        out
    }
}

impl Drop for EpochHandle<'_> {
    fn drop(&mut self) {
        self.slot.online.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EpochParticipants>();
    };

    #[test]
    fn epoch_quiesce_single_participant_is_immediate() {
        let e = EpochParticipants::new();
        let h = e.register();
        let swept = h.quiesce(|| 42);
        assert_eq!(swept, 42);
        assert_eq!(e.sweeps(), 1);
        assert_eq!(e.epoch(), 1);
    }

    #[test]
    fn epoch_quiesce_waits_for_online_participants() {
        let e = EpochParticipants::new();
        let sweeps_seen = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let e = &e;
                let sweeps_seen = &sweeps_seen;
                scope.spawn(move || {
                    let h = e.register();
                    for i in 0..500 {
                        h.pin();
                        if t == 0 && i % 100 == 99 {
                            h.quiesce(|| {
                                sweeps_seen.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(sweeps_seen.load(Ordering::SeqCst), 5);
        assert_eq!(e.sweeps(), 5);
    }

    #[test]
    fn offline_participants_do_not_block_quiesce() {
        let e = EpochParticipants::new();
        {
            let _gone = e.register(); // never pins again after drop
        }
        let h = e.register();
        h.quiesce(|| ());
        assert_eq!(e.sweeps(), 1);
    }

    #[test]
    fn concurrent_quiescers_do_not_deadlock() {
        let e = EpochParticipants::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let e = &e;
                scope.spawn(move || {
                    let h = e.register();
                    for _ in 0..50 {
                        h.pin();
                        h.quiesce(|| ());
                    }
                });
            }
        });
        assert_eq!(e.sweeps(), 200);
    }

    #[test]
    fn quiesce_observes_pre_epoch_writes() {
        // A worker increments a counter, pins, and parks on a flag; the
        // sweeper's quiesced read must see every pre-pin increment.
        let e = EpochParticipants::new();
        let counter = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let eh = &e;
            let c = &counter;
            let s = &stop;
            scope.spawn(move || {
                let h = eh.register();
                while !s.load(Ordering::Acquire) {
                    c.fetch_add(1, Ordering::Relaxed);
                    h.pin();
                }
            });
            let h = e.register();
            // Let the worker run a bit, then take a cut.
            std::thread::sleep(std::time::Duration::from_millis(5));
            let at_cut = h.quiesce(|| counter.load(Ordering::Acquire));
            assert!(at_cut > 0, "worker progressed before the cut");
            stop.store(true, Ordering::Release);
        });
    }
}
