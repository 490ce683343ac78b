//! Concurrent checking semantics: one lock-free store shared by several
//! threads must not change verdicts. Disjoint-entity threads produce the same verdict
//! multiset as a serialized run, and a cross-thread (foreign `JNIEnv`)
//! touch — the paper's `EnvMismatch` pitfall — is reported exactly once,
//! without deadlock and without silently rehoming the entity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use jinn_core::{install_prebuilt, Jinn};
use jinn_fsm::{AtomicStore, ConstraintClass, Direction, EntityKind, MachineSpec, StateStore};
use jinn_vendors::Vendor;
use minijni::{RunOutcome, Session};

fn machine() -> MachineSpec {
    MachineSpec::builder("local-reference", ConstraintClass::Resource)
        .entity(EntityKind::Reference)
        .state("BeforeAcquire")
        .state("Acquired")
        .state("Released")
        .error_state("Error:Dangling", "use after release in {function}")
        .transition("Acquire", "BeforeAcquire", "Acquired", |t| {
            t.on(Direction::CallJavaToC, "native call")
        })
        .transition("Release", "Acquired", "Released", |t| {
            t.on(Direction::ReturnCToJava, "native return")
        })
        .transition("UseAfterRelease", "Released", "Error:Dangling", |t| {
            t.on(Direction::CallCToJava, "JNI call")
        })
        .build()
        .unwrap()
}

/// The per-entity script each thread runs: clean lifecycle for even
/// entities, use-after-release for odd ones.
fn script(entity: u64) -> &'static [&'static str] {
    if entity.is_multiple_of(2) {
        &["Acquire", "Release"]
    } else {
        &["Acquire", "Release", "UseAfterRelease"]
    }
}

/// Disjoint-entity threads against one shared store must yield exactly
/// the verdict multiset of the same work applied serially to a plain
/// `StateStore`.
#[test]
fn disjoint_threads_match_serialized_verdict_multiset() {
    const THREADS: u16 = 4;
    const ENTITIES_PER_THREAD: u64 = 64;
    let keys = |t: u16| (0..ENTITIES_PER_THREAD).map(move |i| (u64::from(t) << 32) | i);

    // Serialized reference run.
    let mut serial: StateStore<u64> = StateStore::new(machine());
    let mut expected: Vec<(u64, String)> = Vec::new();
    for t in 0..THREADS {
        for key in keys(t) {
            for step in script(key) {
                if let Some(err) = serial.apply_named(&key, step).error() {
                    expected.push((key, err.state.clone()));
                }
            }
        }
    }

    // Concurrent run.
    let store: Arc<AtomicStore<u64>> = Arc::new(AtomicStore::new(machine()));
    let verdicts: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let cross = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let verdicts = Arc::clone(&verdicts);
            let cross = Arc::clone(&cross);
            scope.spawn(move || {
                for key in keys(t) {
                    for step in script(key) {
                        let out = store.apply_named(t, &key, step);
                        if out.cross_thread.is_some() {
                            cross.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(err) = out.outcome.error() {
                            verdicts
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push((key, err.state.clone()));
                        }
                    }
                }
            });
        }
    });

    expected.sort_unstable();
    let mut got = verdicts.lock().unwrap_or_else(|e| e.into_inner()).clone();
    got.sort_unstable();
    assert_eq!(got, expected, "verdict multiset must match serialized run");
    assert!(!got.is_empty(), "odd entities must error");
    assert_eq!(cross.load(Ordering::Relaxed), 0, "keys are disjoint");
    assert_eq!(store.len() as u64, u64::from(THREADS) * ENTITIES_PER_THREAD);

    // The leak sweep sees the same population, in sorted order.
    let dangling_id = store.machine().state_id("Error:Dangling").unwrap();
    assert_eq!(
        store.entities_in(dangling_id),
        serial.entities_in(dangling_id)
    );
}

/// A foreign-thread touch is the violation itself: the store flags it
/// exactly once, still applies the transition (no rehoming), and does
/// not deadlock.
#[test]
fn cross_thread_use_is_reported_exactly_once() {
    const THREADS: u16 = 4;
    let store: Arc<AtomicStore<u64>> = Arc::new(AtomicStore::new(machine()));
    const SHARED_KEY: u64 = 0xDEAD_BEEF;
    store.apply_named(0, &SHARED_KEY, "Acquire");

    let reports = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let reports = Arc::clone(&reports);
            scope.spawn(move || {
                // Every thread churns its own entities...
                for i in 0..128u64 {
                    let key = (u64::from(t) << 40) | i;
                    store.apply_named(t, &key, "Acquire");
                    store.apply_named(t, &key, "Release");
                    store.evict(&key);
                }
                // ...and thread 3 alone touches thread 0's entity once.
                if t == 3 {
                    let out = store.apply_named(t, &SHARED_KEY, "Release");
                    assert!(out.outcome.applied(), "transition still applies");
                    if let Some(cross) = out.cross_thread {
                        assert_eq!(cross.owner, 0);
                        assert_eq!(cross.user, 3);
                        reports.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        reports.load(Ordering::Relaxed),
        1,
        "EnvMismatch reported exactly once"
    );
    // The entity stayed home: the owner keeps seeing its state.
    let released = store.machine().state_id("Released").unwrap();
    assert_eq!(store.state_of(0, &SHARED_KEY), released);
}

/// End-to-end: two full `JniSession`s with their own `Jinn` checkers —
/// built on the driver thread, moved into the workers — run a real
/// workload concurrently with zero violations and live checking stats.
#[test]
fn two_sessions_on_two_threads_check_cleanly() {
    let checkers: Vec<Jinn> = (0..2).map(|_| Jinn::new()).collect();
    let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = checkers
            .into_iter()
            .enumerate()
            .map(|(t, jinn)| {
                scope.spawn(move || {
                    let mut vm = Vendor::HotSpot.vm();
                    let (entry, args) = jinn_workloads::build_workload(&mut vm, 7 + t as u64);
                    let thread = vm.jvm().main_thread();
                    let mut session = Session::new(vm);
                    let stats = install_prebuilt(&mut session, jinn);
                    for _ in 0..64 {
                        let outcome = session.run_native(thread, entry, &args);
                        assert!(matches!(outcome, RunOutcome::Completed(_)));
                    }
                    assert!(session.shutdown().is_empty(), "workload is leak-free");
                    (stats.checks_executed(), stats.violations())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no worker panic"))
            .collect()
    });
    for (checks, violations) in results {
        assert!(checks > 0, "checker actually ran");
        assert_eq!(violations, 0, "workload is bug-free");
    }
}
