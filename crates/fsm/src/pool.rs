//! One compiled machine set for fleet-scale re-judging.
//!
//! The serving daemon (`jinn-serve`) rolls every judged session's
//! transition stream through one engine per state machine. The machine
//! specifications never change, so [`EnginePool::new`] compiles each
//! one once into a shared [`CompiledMachine`], and every
//! [`EnginePool::lease`] returns fresh [`CompiledStore`]s over those
//! tables: an empty `Vec` of cells and an empty spill map per machine,
//! with nothing to clear or return afterwards. A lease is owned by the
//! thread that took it, so the engines need no synchronization.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::compiled::{CompiledMachine, CompiledStore, DenseKey};
use crate::machine::MachineSpec;

/// The spec machines compiled once; each lease is one fresh engine per
/// machine, in the machine order the pool was built with.
pub struct EnginePool<K> {
    machines: Vec<Arc<CompiledMachine>>,
    leased: AtomicU64,
    _key: PhantomData<fn(K)>,
}

/// Point-in-time pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Machines per engine set.
    pub machines: usize,
    /// Machine sets compiled: always 1, by [`EnginePool::new`].
    pub built: u64,
    /// Leases ever handed out.
    pub leases: u64,
}

impl<K: DenseKey> EnginePool<K> {
    /// Compiles each spec once; leases carry one engine per spec, in
    /// `specs` order.
    pub fn new(specs: Vec<MachineSpec>) -> Arc<EnginePool<K>> {
        Arc::new(EnginePool {
            machines: specs
                .into_iter()
                .map(|s| Arc::new(CompiledMachine::compile(s)))
                .collect(),
            leased: AtomicU64::new(0),
            _key: PhantomData,
        })
    }

    /// Fresh, empty engines over the compiled machines.
    pub fn lease(&self) -> Vec<CompiledStore<K>> {
        self.leased.fetch_add(1, Ordering::Relaxed);
        self.machines
            .iter()
            .map(|m| CompiledStore::with_compiled(Arc::clone(m)))
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            machines: self.machines.len(),
            built: 1,
            leases: self.leased.load(Ordering::Relaxed),
        }
    }
}

/// The daemon's pool. The name predates [`CompiledStore`] and is kept
/// because the `benchmark` package imports this alias by name.
pub type AtomicEnginePool<K> = EnginePool<K>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
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
    fn leases_are_fresh_engines_over_one_compiled_set() {
        let pool: Arc<AtomicEnginePool<u64>> =
            EnginePool::new(vec![toy_machine("a"), toy_machine("b")]);
        let mut first = pool.lease();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].spec().name(), "a");
        assert_eq!(first[1].spec().name(), "b");
        assert!(matches!(
            first[0].apply_named(&7, "Acquire"),
            TransitionOutcome::Moved { .. }
        ));
        // A lease taken while another is out, or after it, starts empty.
        let second = pool.lease();
        assert_eq!(second[0].len(), 0);
        assert_eq!(first[0].len(), 1);
        drop(first);
        assert_eq!(pool.lease()[0].len(), 0);
        let stats = pool.stats();
        assert_eq!(
            stats,
            PoolStats {
                machines: 2,
                built: 1,
                leases: 3
            }
        );
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool: Arc<AtomicEnginePool<u64>> = EnginePool::new(vec![toy_machine("a")]);
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let mut lease = pool.lease();
                        assert!(matches!(
                            lease[0].apply_named(&(t * 1000 + i), "Acquire"),
                            TransitionOutcome::Moved { .. }
                        ));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.stats().leases, 200);
    }
}
