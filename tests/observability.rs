//! End-to-end observability tests: the trace ring, metrics, forensics,
//! verdicts unchanged by observing, and hook panic containment, across
//! the whole JVM/JNI/checker stack and the Python/C side.

use std::rc::Rc;

use jinn::jni::{typed, CallCx, Interpose, Report, RunOutcome, Session, Vm};
use jinn::jvm::{JValue, Jvm};
use jinn::obs::{EventKind, Recorder};
use jinn::py::{dangle_bug, PyRunOutcome, PySession};
use jinn::replay::{replay_trace, replay_trace_observed, standard_configs, Trace};
use jinn::serve::ServeConfig;

fn object_arg(vm: &mut Vm) -> JValue {
    let class = vm
        .jvm()
        .find_class("java/lang/Object")
        .expect("bootstrapped");
    let oop = vm.jvm_mut().alloc_object(class);
    let thread = vm.jvm().main_thread();
    JValue::Ref(vm.jvm_mut().new_local(thread, oop))
}

/// A recorded GC-heavy workload produces a trace with JNI, FSM, and GC
/// events, non-zero metrics for all three, and a Chrome trace export —
/// the ISSUE's acceptance workload.
#[test]
fn recorded_workload_produces_trace_metrics_and_chrome_json() {
    let mut vm = Vm::permissive();
    vm.jvm_mut().set_auto_gc_period(Some(1)); // GC at every safepoint
    let (_c, entry) = vm.define_native_class(
        "obs/Churn",
        "churn",
        "(Ljava/lang/Object;)Z",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("arg");
            let mut ok = true;
            for i in 0..10 {
                let s = typed::new_string_utf(env, &format!("tmp-{i}"))?;
                ok &= !typed::is_same_object(env, obj, s)?;
                typed::delete_local_ref(env, s)?;
            }
            Ok(JValue::Bool(ok))
        }),
    );
    let arg = object_arg(&mut vm);
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    session.set_recorder(Recorder::enabled(1024));
    jinn::core::install(&mut session);
    let outcome = session.run_native(thread, entry, &[arg]);
    assert!(
        matches!(outcome, RunOutcome::Completed(JValue::Bool(true))),
        "{outcome:?}"
    );

    // The ring saw all three event families.
    let events = session.recorder().events();
    let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, EventKind::JniEnter { .. })));
    assert!(has(&|k| matches!(k, EventKind::JniExit { .. })));
    assert!(has(&|k| matches!(k, EventKind::NativeEnter { .. })));
    assert!(has(&|k| matches!(k, EventKind::FsmTransition { .. })));
    assert!(has(&|k| matches!(k, EventKind::GcSafepoint { .. })));
    assert!(has(&|k| matches!(k, EventKind::Gc { .. })));

    // Metrics: non-zero JNI, FSM, and GC counts.
    let snapshot = session.recorder().snapshot().expect("recorder enabled");
    let m = &snapshot.metrics;
    assert!(m.total_jni_calls() > 0, "jni calls");
    assert!(m.total_fsm_transitions() > 0, "fsm transitions");
    assert!(m.counter("gc.safepoints") > 0, "safepoints");
    assert!(m.counter("gc.collections") > 0, "collections");
    assert!(m.counter("native.calls") > 0, "native calls");
    assert!(
        m.jni_functions().any(|(f, _)| f == "NewStringUTF"),
        "per-function metrics keyed by JNI name"
    );
    let rendered = snapshot.render();
    assert!(rendered.contains("NewStringUTF"), "{rendered}");

    // Exporters.
    let chrome = session.recorder().chrome_trace().expect("enabled");
    assert!(
        chrome.starts_with("{\"displayTimeUnit\":\"ms\""),
        "{chrome}"
    );
    assert!(chrome.contains("\"ph\":\"B\""), "begin events present");
    assert!(chrome.contains("NewStringUTF"), "function names present");
    let dump = session.recorder().text_dump().expect("enabled");
    assert!(dump.contains("NewStringUTF"), "{dump}");
}

/// A disabled recorder observes nothing and exports nothing.
#[test]
fn disabled_recorder_is_inert() {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class(
        "obs/Quiet",
        "m",
        "()V",
        true,
        Rc::new(|env, _| {
            typed::get_version(env)?;
            Ok(JValue::Void)
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    jinn::core::install(&mut session);
    assert!(!session.recorder().is_enabled());
    session.run_native(thread, entry, &[]);
    assert!(session.recorder().events().is_empty());
    assert!(session.recorder().snapshot().is_none());
    assert!(session.recorder().chrome_trace().is_none());
    assert!(session.last_bug_report().is_none());
}

/// The Figure 9 experience: a seeded use-after-release produces a
/// forensics report naming the machine, the failing entity, and the last
/// N boundary crossings.
#[test]
fn seeded_dangling_local_produces_forensics_report() {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class(
        "obs/Dangle",
        "m",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().unwrap();
            let r = typed::new_local_ref(env, obj)?;
            typed::delete_local_ref(env, r)?;
            // Use after release: the checker must fire here.
            let _ = typed::is_same_object(env, obj, r)?;
            Ok(JValue::Void)
        }),
    );
    let arg = object_arg(&mut vm);
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    session.set_recorder(Recorder::enabled(512));
    jinn::core::install(&mut session);
    let outcome = session.run_native(thread, entry, &[arg]);
    match &outcome {
        RunOutcome::CheckerException(v) => assert_eq!(v.machine, "local-reference"),
        other => panic!("expected a checker exception, got {other:?}"),
    }

    let report = session.take_bug_report().expect("forensics captured");
    assert_eq!(report.machine, "local-reference");
    assert!(!report.recent.is_empty(), "history attached");
    let text = report.render();
    assert!(text.contains("JNIAssertionFailure"), "{text}");
    assert!(text.contains("local-reference"), "{text}");
    assert!(
        report.entity.is_some(),
        "failing entity recovered from the ring: {text}"
    );
    // The history ends at (or near) the failing call.
    assert!(text.contains("IsSameObject"), "{text}");
}

/// The Python/C checker's use-after-release (Figure 11) also captures a
/// forensics report, through `PySession`.
#[test]
fn python_use_after_release_produces_forensics_report() {
    let mut s = PySession::with_checker();
    s.set_recorder(Recorder::enabled(512));
    let outcome = s.run(|env| dangle_bug(env).map(|_| ()));
    match &outcome {
        PyRunOutcome::CheckerError(v) => {
            assert_eq!(v.machine, "borrowed-reference");
            assert!(v.entity.is_some(), "violation names the pointer");
        }
        other => panic!("expected a checker error, got {other:?}"),
    }
    let report = s.take_bug_report().expect("forensics captured");
    assert_eq!(report.machine, "borrowed-reference");
    assert_eq!(report.error_state, "Error:DanglingBorrow");
    assert_eq!(report.function, "PyString_AsString");
    assert!(report.entity.is_some(), "entity recovered");
    assert!(!report.recent.is_empty());
    let snapshot = s.recorder().snapshot().expect("enabled");
    assert!(snapshot.metrics.total_jni_calls() > 0, "Python/C calls");
    assert!(snapshot.metrics.counter("checks.violations") > 0);
}

/// Observing never changes a verdict: the daemon judges a session's
/// first config through `replay_trace_observed`, so for every corpus
/// trace and every standard config, replaying with the daemon's
/// recorder attached must give exactly what plain replay gives.
#[test]
fn observed_replay_matches_plain_replay_across_corpus() {
    let dir = format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jtrace"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no traces under {dir}");
    let ring = ServeConfig::default().recorder_ring;
    for path in &paths {
        let bytes = std::fs::read(path).expect("read trace");
        let trace = Trace::parse(&bytes).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        for config in standard_configs() {
            let plain = replay_trace(&trace, &config).expect("plain replay");
            let recorder = Recorder::enabled(ring);
            let observed =
                replay_trace_observed(&trace, &config, &recorder).expect("observed replay");
            let cell = format!("{} under {}", path.display(), plain.label);
            assert_eq!(
                observed.verdict_signature(),
                plain.verdict_signature(),
                "{cell}"
            );
            assert_eq!(observed.events_replayed, plain.events_replayed, "{cell}");
            assert_eq!(observed.divergences, plain.divergences, "{cell}");
        }
    }
}

/// A checker whose hook panics.
struct Panicky;

impl Interpose for Panicky {
    fn name(&self) -> &str {
        "panicky"
    }

    fn pre_jni(&mut self, _jvm: &Jvm, _cx: &CallCx<'_>) -> Vec<Report> {
        panic!("checker bug: poisoned invariant")
    }
}

/// A panicking hook must not unwind through the `JniEnv` driver: the
/// simulated VM dies deterministically with the panic text as diagnosis,
/// and the host test harness (this function) keeps running.
#[test]
fn panicking_checker_hook_does_not_poison_the_driver() {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class(
        "obs/Panic",
        "m",
        "()V",
        true,
        Rc::new(|env, _| {
            typed::get_version(env)?;
            Ok(JValue::Void)
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    session.set_recorder(Recorder::enabled(256));
    session.attach(Box::new(Panicky));
    let outcome = session.run_native(thread, entry, &[]);
    match &outcome {
        RunOutcome::Died(d) => {
            assert!(d.message.contains("panicked during pre_jni"), "{d}");
            assert!(d.message.contains("checker bug"), "{d}");
        }
        other => panic!("expected deterministic VM death, got {other:?}"),
    }
    // The internal-error verdict captured forensics like any other abort.
    let report = session.take_bug_report().expect("forensics captured");
    assert_eq!(report.machine, "checker-internal");
    assert_eq!(report.error_state, "Error:Panic");
    // Death is latched, but the session itself stays usable.
    assert!(matches!(
        session.run_native(thread, entry, &[]),
        RunOutcome::Died(_)
    ));
}
