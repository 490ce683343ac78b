//! Recorder wiring: JNI function labels are interned into whichever
//! recorder is attached when the function is first called on it.

use std::rc::Rc;

use jinn_obs::{EventKind, Recorder};
use minijni::{typed, RunOutcome, Session, Vm};
use minijvm::JValue;

/// The JNI functions named by a recorder's `JniEnter` events, in order.
fn entered(recorder: &Recorder) -> Vec<String> {
    recorder
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::JniEnter { func } => Some(func.to_string()),
            _ => None,
        })
        .collect()
}

/// The JNI functions in a recorder's metrics, with their call counts.
fn calls(recorder: &Recorder) -> Vec<(String, u64)> {
    let snapshot = recorder.snapshot().expect("enabled");
    snapshot
        .metrics
        .jni_functions()
        .map(|(name, m)| (name.to_string(), m.calls))
        .collect()
}

#[test]
fn a_second_recorder_names_functions_first_called_under_the_first() {
    let mut vm = Vm::permissive();
    let (_, calls_f) = vm.define_native_class(
        "t/A",
        "m",
        "()I",
        true,
        Rc::new(|env, _| Ok(JValue::Int(typed::get_version(env)?))),
    );
    let (_, calls_g_then_f) = vm.define_native_class(
        "t/B",
        "m",
        "()I",
        true,
        Rc::new(|env, _| {
            typed::exception_check(env)?;
            Ok(JValue::Int(typed::get_version(env)?))
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);

    let a = Recorder::enabled(64);
    session.set_recorder(a.clone());
    let outcome = session.run_native(thread, calls_f, &[]);
    assert!(matches!(outcome, RunOutcome::Completed(_)), "{outcome:?}");

    let b = Recorder::enabled(64);
    session.set_recorder(b.clone());
    let outcome = session.run_native(thread, calls_g_then_f, &[]);
    assert!(matches!(outcome, RunOutcome::Completed(_)), "{outcome:?}");

    assert_eq!(entered(&a), ["GetVersion"]);
    assert_eq!(entered(&b), ["ExceptionCheck", "GetVersion"]);
    assert_eq!(
        calls(&b),
        [
            ("ExceptionCheck".to_string(), 1),
            ("GetVersion".to_string(), 1)
        ]
    );
}
