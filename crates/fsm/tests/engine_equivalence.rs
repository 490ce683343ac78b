//! Differential property tests: the lock-free production engine
//! ([`AtomicStore`]) must agree with the reference [`StateStore`]
//! outcome-for-outcome on arbitrary machines and arbitrary event
//! scripts — including `NotApplicable` non-matches, error entries,
//! unknown transition names, evictions, and the sorted leak-sweep
//! order. A separate concurrent property pins the [`AtomicStore`] under
//! real thread interleavings against a serialized reference replay.

use std::sync::Arc;

use jinn_fsm::{
    AtomicStore, ConstraintClass, Direction, Engine, EntityKind, MachineSpec, StateStore,
    TransitionOutcome, DENSE_LIMIT,
};
use proptest::prelude::*;

/// Decodes a shape word into a random-but-well-formed machine: a linear
/// ladder `S0 → … → Sn` (the shape of every Jinn machine), optionally
/// with an error tail and a reset edge back to `S0` (making the graph
/// non-linear so the transition matrix has off-ladder entries).
fn machine_from(shape: u64) -> MachineSpec {
    let states = 2 + (shape % 7) as usize;
    let with_error = shape & (1 << 8) != 0;
    let with_reset = shape & (1 << 9) != 0;
    let mut b =
        MachineSpec::builder("diff", ConstraintClass::Resource).entity(EntityKind::Reference);
    for i in 0..states {
        b = b.state(format!("S{i}"));
    }
    if with_error {
        b = b.error_state("E", "boom in {function}");
    }
    for i in 1..states {
        b = b.transition(
            format!("t{i}"),
            format!("S{}", i - 1),
            format!("S{i}"),
            |t| t.on(Direction::CallCToJava, "any"),
        );
    }
    if with_error {
        b = b.transition("fail", format!("S{}", states - 1), "E", |t| {
            t.on(Direction::ReturnJavaToC, "any")
        });
    }
    if with_reset {
        b = b.transition("reset", format!("S{}", states - 1), "S0", |t| {
            t.on(Direction::CallJavaToC, "any")
        });
    }
    b.build().expect("generated machines are well-formed")
}

/// One decoded script step, interpreted identically by every engine.
#[derive(Debug)]
enum Op {
    Apply(u64, usize),
    /// Apply by name, including names the machine does not have (the
    /// unknown-transition path must degrade identically).
    ApplyNamed(u64, String),
    Evict(u64),
    StateOf(u64),
}

/// Decodes raw proptest words into keys and operations. Keys mix the
/// dense slab range with values past [`DENSE_LIMIT`], so the script
/// exercises the atomic store's hash-spill path alongside the slab.
fn decode(words: &[u64], transitions: usize) -> Vec<Op> {
    words
        .iter()
        .map(|&w| {
            let small = (w >> 8) % 24;
            let key = if w & (1 << 40) != 0 {
                DENSE_LIMIT as u64 + small
            } else {
                small
            };
            match w % 8 {
                0..=3 => Op::Apply(key, ((w >> 16) as usize) % transitions),
                4 | 5 => {
                    let name = match (w >> 16) % 4 {
                        0 => "t1".to_string(),
                        1 => "fail".to_string(),
                        2 => "reset".to_string(),
                        _ => "NoSuchTransition".to_string(),
                    };
                    Op::ApplyNamed(key, name)
                }
                6 => Op::Evict(key),
                _ => Op::StateOf(key),
            }
        })
        .collect()
}

/// What one engine observed over a whole script — every comparable fact,
/// so engine disagreement cannot hide in an unchecked channel.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<TransitionOutcome>,
    states: Vec<usize>,
    evictions: Vec<bool>,
    len: usize,
    leak_sweep: Vec<u64>,
    in_initial: Vec<u64>,
}

fn drive<E: Engine<u64>>(machine: MachineSpec, ops: &[Op]) -> Observed {
    let mut engine = E::for_machine(machine);
    let mut observed = Observed {
        outcomes: Vec::new(),
        states: Vec::new(),
        evictions: Vec::new(),
        len: 0,
        leak_sweep: Vec::new(),
        in_initial: Vec::new(),
    };
    for op in ops {
        match op {
            Op::Apply(key, t) => {
                let id = {
                    let spec = engine.spec();
                    spec.transition_id(spec.transitions()[*t].name())
                        .expect("decoded index is in range")
                };
                observed.outcomes.push(engine.apply(key, id));
            }
            Op::ApplyNamed(key, name) => observed.outcomes.push(engine.apply_named(key, name)),
            Op::Evict(key) => observed.evictions.push(engine.evict(key).is_some()),
            Op::StateOf(key) => observed.states.push(engine.state_of(key).index()),
        }
    }
    let initial = engine.spec().initial();
    observed.len = engine.len();
    observed.leak_sweep = engine.entities_not_in(initial);
    observed.in_initial = engine.entities_in(initial);
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn atomic_engine_matches_reference(
        shape in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let machine = machine_from(shape);
        let ops = decode(&words, machine.transitions().len());
        let reference = drive::<StateStore<u64>>(machine.clone(), &ops);
        let atomic = drive::<AtomicStore<u64>>(machine, &ops);
        prop_assert_eq!(&reference, &atomic);
    }

    /// Concurrency equivalence: N threads drive one shared
    /// [`AtomicStore`] over *disjoint* key ranges (the checker's
    /// ownership discipline — each entity is homed to the thread that
    /// first touches it, exactly how the parallel bench partitions
    /// work). Whatever the OS interleaving, every thread's outcome
    /// transcript and the final sweep must equal a serialized replay of
    /// the same per-thread scripts through the reference store: the
    /// CAS slab, the shared length counter, and the spill shards may
    /// not leak effects across keys.
    #[test]
    fn concurrent_atomic_store_matches_serialized_reference(
        shape in any::<u64>(),
        scripts in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..60),
            2..5,
        ),
    ) {
        let machine = machine_from(shape);
        let transitions = machine.transitions().len();
        // Rebase each thread's keys into a private window (dense and
        // spill halves both), so threads never share an entity.
        let per_thread: Vec<Vec<Op>> = scripts
            .iter()
            .enumerate()
            .map(|(t, words)| {
                decode(words, transitions)
                    .into_iter()
                    .map(|op| {
                        // Decoded keys sit in [0, 24) or
                        // [DENSE_LIMIT, DENSE_LIMIT + 24); a +64·t
                        // offset keeps each window private to its
                        // thread without crossing the dense/spill split.
                        let rebase = |k: u64| k + 64 * t as u64;
                        match op {
                            Op::Apply(k, i) => Op::Apply(rebase(k), i),
                            Op::ApplyNamed(k, n) => Op::ApplyNamed(rebase(k), n),
                            Op::Evict(k) => Op::Evict(rebase(k)),
                            Op::StateOf(k) => Op::StateOf(rebase(k)),
                        }
                    })
                    .collect()
            })
            .collect();

        // Concurrent run: one shared lock-free store, one real thread
        // per script, outcomes collected per thread.
        let store: Arc<AtomicStore<u64>> = Arc::new(AtomicStore::new(machine.clone()));
        let concurrent: Vec<Observed> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_thread
                .iter()
                .enumerate()
                .map(|(t, ops)| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || {
                        let mut observed = Observed {
                            outcomes: Vec::new(),
                            states: Vec::new(),
                            evictions: Vec::new(),
                            len: 0,
                            leak_sweep: Vec::new(),
                            in_initial: Vec::new(),
                        };
                        let thread = t as u16;
                        for op in ops {
                            match op {
                                Op::Apply(key, i) => {
                                    let id = {
                                        let spec = store.machine();
                                        spec.transition_id(spec.transitions()[*i].name())
                                            .expect("decoded index is in range")
                                    };
                                    let out = store.apply(thread, key, id);
                                    assert!(
                                        out.cross_thread.is_none(),
                                        "disjoint keys must never report cross-thread use"
                                    );
                                    observed.outcomes.push(out.outcome);
                                }
                                Op::ApplyNamed(key, name) => {
                                    let out = store.apply_named(thread, key, name);
                                    assert!(out.cross_thread.is_none());
                                    observed.outcomes.push(out.outcome);
                                }
                                Op::Evict(key) => {
                                    observed.evictions.push(store.evict(key).is_some());
                                }
                                Op::StateOf(key) => {
                                    observed.states.push(store.state_of(thread, key).index());
                                }
                            }
                        }
                        observed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker must not panic"))
                .collect()
        });

        // Serialized reference: the same scripts, one after another,
        // through a single reference store. Disjoint keys make any
        // serialization order equivalent.
        let mut reference = StateStore::<u64>::for_machine(machine.clone());
        let serial: Vec<Observed> = per_thread
            .iter()
            .map(|ops| {
                let mut observed = Observed {
                    outcomes: Vec::new(),
                    states: Vec::new(),
                    evictions: Vec::new(),
                    len: 0,
                    leak_sweep: Vec::new(),
                    in_initial: Vec::new(),
                };
                for op in ops {
                    match op {
                        Op::Apply(key, i) => {
                            let id = {
                                let spec = reference.spec();
                                spec.transition_id(spec.transitions()[*i].name())
                                    .expect("decoded index is in range")
                            };
                            observed.outcomes.push(reference.apply(key, id));
                        }
                        Op::ApplyNamed(key, name) => {
                            observed.outcomes.push(reference.apply_named(key, name));
                        }
                        Op::Evict(key) => observed.evictions.push(reference.evict(key).is_some()),
                        Op::StateOf(key) => {
                            observed.states.push(reference.state_of(key).index());
                        }
                    }
                }
                observed
            })
            .collect();
        for (got, want) in concurrent.iter().zip(serial.iter()) {
            prop_assert_eq!(&got.outcomes, &want.outcomes);
            prop_assert_eq!(&got.states, &want.states);
            prop_assert_eq!(&got.evictions, &want.evictions);
        }

        // Final population and sweeps — the verdict-bearing reads —
        // must agree exactly, in sorted order.
        let initial = machine.initial();
        prop_assert_eq!(store.len(), reference.len());
        prop_assert_eq!(store.entities_not_in(initial), reference.entities_not_in(initial));
        prop_assert_eq!(store.entities_in(initial), reference.entities_in(initial));
    }

    #[test]
    fn not_applicable_preserves_state_in_both_engines(
        shape in any::<u64>(),
        key in any::<u64>(),
    ) {
        let machine = machine_from(shape);
        let mut reference: StateStore<u64> = StateStore::new(machine.clone());
        let atomic: AtomicStore<u64> = AtomicStore::new(machine.clone());
        // t2 from the initial state never applies (its source is S1).
        let want = reference.apply_named(&key, "t2");
        let got = atomic.apply_named(0, &key, "t2");
        prop_assert!(!want.applied());
        prop_assert_eq!(&got.outcome, &want);
        prop_assert_eq!(reference.state_of(&key), machine.initial());
        prop_assert_eq!(atomic.state_of(0, &key), machine.initial());
        prop_assert!(!reference.contains(&key));
        prop_assert!(!atomic.contains(&key));
    }
}
