//! Differential property tests: the production engine
//! ([`CompiledStore`]) must agree with the reference [`StateStore`]
//! outcome-for-outcome on arbitrary machines and arbitrary event
//! scripts — including `NotApplicable` non-matches, error entries,
//! unknown transition names, evictions, clears mid-script (the engine
//! pool's reuse path), and the sorted leak-sweep order. Keys cover the
//! bottom of the dense cell range, its top just below [`DENSE_LIMIT`]
//! (where the cell `Vec` grows to its cap), and the hash spill past it.

use jinn_fsm::{
    CompiledStore, ConstraintClass, Direction, Engine, EntityKind, MachineSpec, StateStore,
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
    /// Clear every entity, as the engine pool does between leases.
    Clear,
}

/// Decodes raw proptest words into keys and operations. Keys fall in
/// three windows of 24: the bottom of the dense cell range, just below
/// [`DENSE_LIMIT`] (so the cell `Vec` grows to its cap), and past it
/// (the hash spill).
fn decode(words: &[u64], transitions: usize) -> Vec<Op> {
    words
        .iter()
        .map(|&w| {
            let small = (w >> 8) % 24;
            let key = match (w >> 40) % 3 {
                0 => small,
                1 => DENSE_LIMIT as u64 - 24 + small,
                _ => DENSE_LIMIT as u64 + small,
            };
            if (w >> 56) % 32 == 0 {
                return Op::Clear;
            }
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
    lens_after_clear: Vec<usize>,
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
        lens_after_clear: Vec::new(),
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
            Op::Clear => {
                engine.clear();
                observed.lens_after_clear.push(engine.len());
            }
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
    fn compiled_engine_matches_reference(
        shape in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let machine = machine_from(shape);
        let ops = decode(&words, machine.transitions().len());
        let reference = drive::<StateStore<u64>>(machine.clone(), &ops);
        let compiled = drive::<CompiledStore<u64>>(machine, &ops);
        prop_assert_eq!(&reference, &compiled);
    }

    #[test]
    fn not_applicable_preserves_state_in_both_engines(
        shape in any::<u64>(),
        key in any::<u64>(),
    ) {
        let machine = machine_from(shape);
        let mut reference: StateStore<u64> = StateStore::new(machine.clone());
        let mut compiled: CompiledStore<u64> = CompiledStore::new(machine.clone());
        // t2 from the initial state never applies (its source is S1).
        let want = reference.apply_named(&key, "t2");
        let got = compiled.apply_named(&key, "t2");
        prop_assert!(!want.applied());
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(reference.state_of(&key), machine.initial());
        prop_assert_eq!(compiled.state_of(&key), machine.initial());
        prop_assert!(!reference.contains(&key));
        prop_assert!(!compiled.contains(&key));
    }
}
