//! Replay determinism guard: for a randomly generated correct program
//! with a randomly seeded bug, (1) recording is byte-identical across
//! runs, (2) replaying one trace twice produces byte-identical verdict
//! sequences across the standard configurations, and (3) each dispatch
//! engine — the reference and the compiled one — serializes
//! byte-identical observability traces for identical scripts.

use std::rc::Rc;

use jinn_fsm::{
    CompiledStore, ConstraintClass, Direction, Engine, EntityKind, MachineSpec, StateStore,
};
use jinn_obs::{EventKind, Recorder};
use jinn_replay::{record_program, replay_bytes, standard_configs, Program, Trace, TraceWriter};
use minijni::typed;
use minijvm::{JRef, JValue};
use proptest::prelude::*;

/// A tiny correct-by-construction op language (a subset of the soundness
/// property suite's), interpreted as a native method body.
#[derive(Debug, Clone)]
enum Op {
    NewString(u8),
    DupArg,
    DeleteLast,
    GlobalPair,
    PinAndRelease,
    GetVersion,
    FramedAllocs(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..20).prop_map(Op::NewString),
        Just(Op::DupArg),
        Just(Op::DeleteLast),
        Just(Op::GlobalPair),
        Just(Op::PinAndRelease),
        Just(Op::GetVersion),
        (1u8..6).prop_map(Op::FramedAllocs),
    ]
}

/// Bugs seeded after the correct prefix.
#[derive(Debug, Clone, Copy)]
enum Seeded {
    UseAfterDelete,
    DoubleDelete,
    NullArgument,
}

fn seeded_strategy() -> impl Strategy<Value = Seeded> {
    prop_oneof![
        Just(Seeded::UseAfterDelete),
        Just(Seeded::DoubleDelete),
        Just(Seeded::NullArgument),
    ]
}

fn interpret(
    env: &mut minijni::JniEnv<'_>,
    args: &[JValue],
    ops: &[Op],
    seeded: Option<Seeded>,
) -> Result<JValue, minijni::JniError> {
    let anchor = args[0].as_ref().expect("anchor argument");
    typed::ensure_local_capacity(env, 4096)?;
    let mut locals: Vec<JRef> = vec![anchor];
    for op in ops {
        match op {
            Op::NewString(n) => locals.push(typed::new_string_utf(env, &format!("s{n}"))?),
            Op::DupArg => locals.push(typed::new_local_ref(env, anchor)?),
            Op::DeleteLast => {
                if locals.len() > 1 {
                    let r = locals.pop().expect("len checked");
                    typed::delete_local_ref(env, r)?;
                }
            }
            Op::GlobalPair => {
                let g = typed::new_global_ref(env, anchor)?;
                typed::delete_global_ref(env, g)?;
            }
            Op::PinAndRelease => {
                let arr = typed::new_int_array(env, 4)?;
                let pin = typed::get_int_array_elements(env, arr)?;
                typed::release_int_array_elements(env, arr, pin, 0)?;
                typed::delete_local_ref(env, arr)?;
            }
            Op::GetVersion => {
                typed::get_version(env)?;
            }
            Op::FramedAllocs(n) => {
                typed::push_local_frame(env, i64::from(*n) + 1)?;
                for _ in 0..*n {
                    typed::new_local_ref(env, anchor)?;
                }
                typed::pop_local_frame(env, JRef::NULL)?;
            }
        }
    }
    if let Some(bug) = seeded {
        match bug {
            Seeded::UseAfterDelete => {
                let r = typed::new_local_ref(env, anchor)?;
                typed::delete_local_ref(env, r)?;
                typed::get_object_class(env, r)?;
            }
            Seeded::DoubleDelete => {
                let r = typed::new_local_ref(env, anchor)?;
                typed::delete_local_ref(env, r)?;
                typed::delete_local_ref(env, r)?;
            }
            Seeded::NullArgument => {
                typed::get_object_class(env, JRef::NULL)?;
            }
        }
    }
    Ok(JValue::Void)
}

/// Wraps a generated op list as a recordable [`Program`].
fn generated_program(ops: Vec<Op>, seeded: Option<Seeded>) -> Program {
    let ops = Rc::new(ops);
    Program {
        name: "Generated".into(),
        pitfall: None,
        machine: "local-reference",
        error_state: "Error:Generated",
        leaks: false,
        gc_period: None,
        build: Box::new(move |vm| {
            let ops = Rc::clone(&ops);
            let (_c, entry) = vm.define_native_class(
                "gen/Program",
                "run",
                "(Ljava/lang/Object;)V",
                true,
                Rc::new(move |env, args| interpret(env, args, &ops, seeded)),
            );
            let class = vm
                .jvm()
                .find_class("java/lang/Object")
                .expect("bootstrapped");
            let oop = vm.jvm_mut().alloc_object(class);
            let thread = vm.jvm().main_thread();
            let anchor = vm.jvm_mut().new_local(thread, oop);
            jinn_microbench::Setup {
                entries: vec![entry],
                first_args: vec![JValue::Ref(anchor)],
            }
        }),
    }
}

/// The full verdict sequence of one replay pass, as comparable bytes.
fn verdict_sequence(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for config in standard_configs() {
        let outcome = replay_bytes(bytes, &config).expect("generated trace replays");
        out.extend_from_slice(outcome.label.as_bytes());
        out.push(b'=');
        out.extend_from_slice(outcome.verdict_signature().as_bytes());
        out.extend_from_slice(format!(";events={}", outcome.events_replayed).as_bytes());
        out.push(b'\n');
    }
    out
}

/// A program that leaks several globals and pinned buffers, so the
/// VMDeath leak sweep fires with multiple entities at once. The sweep
/// iterates hash maps internally; its report order must be sorted by
/// entity key, or verdict sequences differ between process runs.
fn leaky_program() -> Program {
    Program {
        name: "LeakSweep".into(),
        pitfall: None,
        machine: "global-reference",
        error_state: "Error:Leak",
        leaks: true,
        gc_period: None,
        build: Box::new(|vm| {
            let (_c, entry) = vm.define_native_class(
                "gen/LeakSweep",
                "run",
                "(Ljava/lang/Object;)V",
                true,
                Rc::new(|env, args| {
                    let anchor = args[0].as_ref().expect("anchor argument");
                    for _ in 0..5 {
                        typed::new_global_ref(env, anchor)?; // never deleted
                    }
                    for _ in 0..3 {
                        let arr = typed::new_int_array(env, 4)?;
                        typed::get_int_array_elements(env, arr)?; // never released
                        typed::delete_local_ref(env, arr)?;
                    }
                    Ok(JValue::Void)
                }),
            );
            let class = vm
                .jvm()
                .find_class("java/lang/Object")
                .expect("bootstrapped");
            let oop = vm.jvm_mut().alloc_object(class);
            let thread = vm.jvm().main_thread();
            let anchor = vm.jvm_mut().new_local(thread, oop);
            jinn_microbench::Setup {
                entries: vec![entry],
                first_args: vec![JValue::Ref(anchor)],
            }
        }),
    }
}

/// Leak-sweep coverage for the determinism guard: multiple simultaneous
/// leaks must record byte-identically and replay to identical verdict
/// sequences — this is what sorting `entities_in`/`entities_not_in` (and
/// the checker's own pin/monitor sweeps) buys.
#[test]
fn leak_sweep_trace_is_deterministic() {
    let first = record_program(&leaky_program());
    let second = record_program(&leaky_program());
    assert_eq!(first, second, "re-recording a leaky run is byte-identical");
    assert!(Trace::parse(&first).is_ok());

    let verdicts_a = verdict_sequence(&first);
    let verdicts_b = verdict_sequence(&first);
    assert!(!verdicts_a.is_empty());
    assert_eq!(
        verdicts_a, verdicts_b,
        "leak-sweep verdict sequences must agree verbatim across replays"
    );
}

/// The lifecycle machine the engine-trace tests run.
fn engine_machine() -> MachineSpec {
    MachineSpec::builder("trace-resource", ConstraintClass::Resource)
        .entity(EntityKind::Reference)
        .state("BeforeAcquire")
        .state("Acquired")
        .state("Released")
        .error_state("Error:Dangling", "dangling use in {function}")
        .transition("Acquire", "BeforeAcquire", "Acquired", |t| {
            t.on(Direction::CallJavaToC, "native call")
        })
        .transition("Release", "Acquired", "Released", |t| {
            t.on(Direction::ReturnCToJava, "native return")
        })
        .transition("UseAfterRelease", "Released", "Error:Dangling", |t| {
            t.on(Direction::CallCToJava, "JNI function taking reference")
        })
        .build()
        .expect("static spec")
}

/// Drives a decoded script through `E` with an enabled recorder and
/// serializes every recorded event — seq, thread, and rendered kind, no
/// wall-clock timestamps — through a [`TraceWriter`]. The recorder's
/// events carry wall-clock micros; only the deterministic fields go into
/// the bytes (matching the `.jtrace` format's philosophy of recording
/// logical order, not time), so identical scripts must produce identical
/// bytes whichever engine ran them.
fn engine_trace<E: Engine<u64>>(words: &[u64]) -> Vec<u8> {
    let recorder = Recorder::enabled(1 << 12);
    let mut engine = E::for_machine(engine_machine());
    engine.set_recorder(recorder.clone());
    for &w in words {
        let key = (w >> 8) % 16;
        match w % 8 {
            0 | 1 => {
                engine.apply_named(&key, "Acquire");
            }
            2 | 3 => {
                engine.apply_named(&key, "Release");
            }
            4 => {
                engine.apply_named(&key, "UseAfterRelease");
            }
            5 => {
                engine.apply_named(&key, "NoSuchTransition");
            }
            6 => {
                engine.evict(&key);
            }
            _ => {
                let _ = engine.try_apply_named(&key, "Acquire");
            }
        }
    }
    let mut writer = TraceWriter::new();
    for event in recorder.events() {
        let rendered = match &event.kind {
            EventKind::FsmTransition {
                machine,
                transition,
                outcome,
                entity,
            } => match entity {
                Some(e) => format!("fsm {machine}.{transition} [{outcome}] entity={e}"),
                None => format!("fsm {machine}.{transition} [{outcome}]"),
            },
            other => format!("{other:?}"),
        };
        writer.obs_event(event.thread, &format!("#{} {rendered}", event.seq));
    }
    writer.finish()
}

/// Two runs of one script through the same engine must serialize
/// byte-identical observability traces — label interning and prototype
/// cloning may not inject nondeterminism.
#[test]
fn engines_serialize_identical_traces_for_a_scripted_run() {
    let words: Vec<u64> = (0..200u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let reference_a = engine_trace::<StateStore<u64>>(&words);
    let reference_b = engine_trace::<StateStore<u64>>(&words);
    assert!(!reference_a.is_empty());
    assert_eq!(
        reference_a, reference_b,
        "reference trace bytes are reproducible"
    );
    // The compiled store records *more* than the thread-less reference
    // (thread 0, dense entity labels), so its bytes differ by design;
    // what must hold is that two runs of the same script are
    // byte-identical — interning order and cell layout may not inject
    // nondeterminism.
    let compiled_a = engine_trace::<CompiledStore<u64>>(&words);
    let compiled_b = engine_trace::<CompiledStore<u64>>(&words);
    assert!(!compiled_a.is_empty());
    assert_eq!(
        compiled_a, compiled_b,
        "compiled trace bytes are reproducible"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scripts: each engine serializes the same trace bytes on
    /// every run. The compiled store's bytes differ from the
    /// reference's by design (see the scripted test above), so each is
    /// compared with itself.
    #[test]
    fn engines_serialize_identical_traces(
        words in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        prop_assert_eq!(
            engine_trace::<StateStore<u64>>(&words),
            engine_trace::<StateStore<u64>>(&words)
        );
        prop_assert_eq!(
            engine_trace::<CompiledStore<u64>>(&words),
            engine_trace::<CompiledStore<u64>>(&words)
        );
    }

    /// Recording a random correct program with a seeded bug twice yields
    /// byte-identical traces, and replaying one trace twice yields
    /// byte-identical verdict sequences.
    #[test]
    fn record_and_replay_are_deterministic(
        ops in proptest::collection::vec(op_strategy(), 0..24),
        bug in proptest::option::of(seeded_strategy()),
    ) {
        let first = record_program(&generated_program(ops.clone(), bug));
        let second = record_program(&generated_program(ops, bug));
        prop_assert_eq!(&first, &second, "re-recording must be byte-identical");
        prop_assert!(Trace::parse(&first).is_ok());

        let verdicts_a = verdict_sequence(&first);
        let verdicts_b = verdict_sequence(&first);
        prop_assert_eq!(
            verdicts_a,
            verdicts_b,
            "two replays of one trace must agree verbatim"
        );
    }
}
