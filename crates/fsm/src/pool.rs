//! A reusable pool of per-machine engines for fleet-scale re-judging.
//!
//! The serving daemon (`jinn-serve`) rolls every ingested session's
//! transition stream through one engine per state machine. Building
//! those engines per session is pure waste — the machine specifications
//! never change, only the entity maps do — so the pool keeps finished
//! engine sets, clears them, and hands them to the next session.
//! [`Engine::clear`] is what makes this sound: a cleared engine is
//! observationally identical to a freshly built one (the equivalence
//! proptests in this crate cover both stores).
//!
//! The pool is encoding-agnostic: anything implementing [`Engine`] can
//! be pooled.
//!
//! ## Idle high-water
//!
//! Parked sets are capped, and the cap adapts to observed concurrency:
//! a lease dropped while `n` leases are still out parks only if fewer
//! than `n + 1` sets are already idle, so a one-time burst of N
//! concurrent sessions does not leave N engine sets parked forever —
//! the surplus is freed as the burst subsides. Dropped-instead-of-
//! parked sets are counted in [`PoolStats::dropped`].

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::engine::Engine;
use crate::machine::MachineSpec;

/// A pool of engine *sets*: each lease is one engine per machine, in
/// the machine order the pool was built with.
pub struct EnginePool<K, E: Engine<K>> {
    specs: Vec<MachineSpec>,
    idle: Mutex<Vec<Vec<E>>>,
    built: AtomicU64,
    leased: AtomicU64,
    in_flight: AtomicU64,
    /// Most leases ever out at once: the peak number of engine sets in
    /// use, read off [`PoolStats::lease_high_water`].
    high_water: AtomicU64,
    dropped: AtomicU64,
    _key: PhantomData<fn(K)>,
}

/// Point-in-time pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Machines per engine set.
    pub machines: usize,
    /// Engine sets currently parked in the pool.
    pub idle: usize,
    /// Engine sets ever constructed (cache misses).
    pub built: u64,
    /// Leases ever handed out (hits = `leases - built`).
    pub leases: u64,
    /// Most leases simultaneously out over the pool's lifetime — the
    /// peak number of engine sets in use at once. The serving daemon
    /// leases only for the length of one rollup, so this counts
    /// concurrent rollups, not live sessions.
    pub lease_high_water: u64,
    /// Engine sets freed at the idle high-water instead of parked.
    pub dropped: u64,
}

impl<K, E: Engine<K>> EnginePool<K, E> {
    /// A pool whose leases carry one engine per spec, in `specs` order,
    /// each built with [`Engine::for_machine`].
    pub fn new(specs: Vec<MachineSpec>) -> Arc<EnginePool<K, E>> {
        Arc::new(EnginePool {
            specs,
            idle: Mutex::new(Vec::new()),
            built: AtomicU64::new(0),
            leased: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            _key: PhantomData,
        })
    }

    /// The machine specifications each lease tracks.
    pub fn specs(&self) -> &[MachineSpec] {
        &self.specs
    }

    /// Takes an engine set — a parked one when available, else freshly
    /// built. Dropping the lease clears the engines and parks them
    /// (or frees them, past the idle high-water).
    pub fn lease(self: &Arc<Self>) -> EngineLease<K, E> {
        self.leased.fetch_add(1, Ordering::Relaxed);
        let now_out = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now_out, Ordering::Relaxed);
        let parked = lock(&self.idle).pop();
        let engines = parked.unwrap_or_else(|| {
            self.built.fetch_add(1, Ordering::Relaxed);
            self.specs
                .iter()
                .map(|s| E::for_machine(s.clone()))
                .collect()
        });
        EngineLease {
            engines,
            pool: Arc::clone(self),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            machines: self.specs.len(),
            idle: lock(&self.idle).len(),
            built: self.built.load(Ordering::Relaxed),
            leases: self.leased.load(Ordering::Relaxed),
            lease_high_water: self.high_water.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// One leased engine set. Derefs to `[E]` in spec order; cleared and
/// returned to the pool on drop.
pub struct EngineLease<K, E: Engine<K>> {
    engines: Vec<E>,
    pool: Arc<EnginePool<K, E>>,
}

impl<K, E: Engine<K>> EngineLease<K, E> {
    /// The engine tracking `machine`, if the pool was built with it.
    pub fn by_machine(&mut self, machine: &str) -> Option<&mut E> {
        self.engines.iter_mut().find(|e| e.spec().name() == machine)
    }
}

impl<K, E: Engine<K>> std::ops::Deref for EngineLease<K, E> {
    type Target = [E];

    fn deref(&self) -> &[E] {
        &self.engines
    }
}

impl<K, E: Engine<K>> std::ops::DerefMut for EngineLease<K, E> {
    fn deref_mut(&mut self) -> &mut [E] {
        &mut self.engines
    }
}

impl<K, E: Engine<K>> Drop for EngineLease<K, E> {
    fn drop(&mut self) {
        for e in &mut self.engines {
            e.clear();
        }
        let engines = std::mem::take(&mut self.engines);
        // `fetch_sub` returns the pre-decrement value, so `still_out`
        // is the number of leases other holders still have.
        let still_out = self.pool.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        let cap = (still_out as usize).saturating_add(1);
        let mut idle = lock(&self.pool.idle);
        if idle.len() < cap {
            idle.push(engines);
        } else {
            drop(idle);
            self.pool.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Poison-recovering lock: a panic on another thread (e.g. a worker
/// that died mid-judge) must not cascade into every future lease. The
/// idle list is a `Vec` of fully-owned engine sets, so the inner guard
/// is always structurally sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon's pool: lock-free [`AtomicStore`](crate::AtomicStore)
/// engines dispatching through compiled dense tables.
pub type AtomicEnginePool<K> = EnginePool<K, crate::atomic::AtomicStore<K>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ConstraintClass, Direction, EntityKind};
    use crate::runtime::TransitionOutcome;

    fn toy_machine(name: &'static str) -> MachineSpec {
        MachineSpec::builder(name, ConstraintClass::Resource)
            .entity(EntityKind::Reference)
            .state("Idle")
            .state("Held")
            .error_state("Error:Twice", "double acquire in {function}")
            .transition("Acquire", "Idle", "Held", |t| {
                t.on(Direction::CallCToJava, "acquire")
            })
            .transition("AcquireAgain", "Held", "Error:Twice", |t| {
                t.on(Direction::CallCToJava, "reacquire")
            })
            .build()
            .expect("toy machine")
    }

    #[test]
    fn leases_reuse_cleared_engines() {
        let pool: Arc<AtomicEnginePool<u64>> =
            EnginePool::new(vec![toy_machine("a"), toy_machine("b")]);
        {
            let mut lease = pool.lease();
            assert_eq!(lease.len(), 2);
            let a = lease.by_machine("a").expect("machine a");
            assert!(matches!(
                Engine::apply_named(a, &7, "Acquire"),
                TransitionOutcome::Moved { .. }
            ));
            assert_eq!(Engine::<u64>::len(a), 1);
        }
        // Second lease gets the same (cleared) set back: no new build.
        let mut lease = pool.lease();
        let a = lease.by_machine("a").expect("machine a");
        assert_eq!(Engine::<u64>::len(a), 0, "engines return cleared");
        drop(lease);
        let stats = pool.stats();
        assert_eq!(stats.built, 1);
        assert_eq!(stats.leases, 2);
        assert_eq!(stats.idle, 1);
        assert_eq!(stats.machines, 2);
    }

    #[test]
    fn concurrent_leases_build_independent_sets() {
        let pool: Arc<AtomicEnginePool<u64>> = EnginePool::new(vec![toy_machine("a")]);
        let l1 = pool.lease();
        let l2 = pool.lease();
        assert_eq!(pool.stats().built, 2);
        drop(l1); // one lease still out: parks (idle 0 < cap 2)
        drop(l2); // nothing out: cap is 1, idle already 1 — freed
        let stats = pool.stats();
        assert_eq!(stats.idle, 1, "idle adapts down to current demand");
        assert_eq!(stats.dropped, 1);
        let _l3 = pool.lease();
        assert_eq!(pool.stats().built, 2, "third lease is a pool hit");
    }

    #[test]
    fn idle_high_water_sheds_a_burst() {
        // Satellite regression: a burst of 8 concurrent leases must not
        // park 8 engine sets forever once the burst subsides.
        let pool: Arc<AtomicEnginePool<u64>> = EnginePool::new(vec![toy_machine("a")]);
        let leases: Vec<_> = (0..8).map(|_| pool.lease()).collect();
        assert_eq!(pool.stats().built, 8);
        // Drop sequentially: the adaptive cap (in-flight + 1) parks
        // while demand is still high and frees once it is not.
        for lease in leases {
            drop(lease);
        }
        let stats = pool.stats();
        assert_eq!(stats.idle, 4, "half the burst parks, half is freed");
        assert_eq!(stats.dropped, 4);
        // Reuse still works: no rebuild while sets are parked.
        drop(pool.lease());
        assert_eq!(pool.stats().built, 8);
    }

    #[test]
    fn lease_high_water_tracks_peak_concurrency() {
        let pool: Arc<AtomicEnginePool<u64>> = EnginePool::new(vec![toy_machine("a")]);
        assert_eq!(pool.stats().lease_high_water, 0);
        let l1 = pool.lease();
        let l2 = pool.lease();
        let l3 = pool.lease();
        assert_eq!(pool.stats().lease_high_water, 3);
        drop(l1);
        drop(l2);
        drop(l3);
        // High water is a lifetime maximum, not a gauge.
        drop(pool.lease());
        assert_eq!(pool.stats().lease_high_water, 3);
    }

    #[test]
    fn single_lease_cycle_always_reuses() {
        // The adaptive cap must keep at least one parked set when the
        // pool is quiet, or sequential sessions would rebuild per lease.
        let pool: Arc<AtomicEnginePool<u64>> = EnginePool::new(vec![toy_machine("a")]);
        for i in 0..10u64 {
            let mut lease = pool.lease();
            let e = lease.by_machine("a").unwrap();
            assert!(matches!(
                Engine::apply_named(e, &i, "Acquire"),
                TransitionOutcome::Moved { .. }
            ));
        }
        let stats = pool.stats();
        assert_eq!(stats.built, 1, "sequential leases reuse one set");
        assert_eq!(stats.idle, 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool: Arc<AtomicEnginePool<u64>> = EnginePool::new(vec![toy_machine("a")]);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let mut lease = pool.lease();
                    let e = lease.by_machine("a").unwrap();
                    assert!(matches!(
                        Engine::apply_named(e, &(t * 1000 + i), "Acquire"),
                        TransitionOutcome::Moved { .. }
                    ));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.leases, 200);
        // Sets in existence never exceed peak concurrency; every build
        // past that replaces a set freed at the idle high-water.
        assert!(
            stats.built <= 4 + stats.dropped,
            "unexpected build churn: {stats:?}"
        );
    }
}
