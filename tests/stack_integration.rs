//! Cross-crate integration tests: the full stack from the simulated JVM
//! through the JNI surface to the synthesized checker.

use std::cell::RefCell;
use std::rc::Rc;

use jinn::jni::{typed, JniError, RunOutcome, Session, Vm};
use jinn::jvm::{JValue, PrimArray};
use jinn::vendors::Vendor;

fn object_arg(vm: &mut Vm) -> JValue {
    let class = vm
        .jvm()
        .find_class("java/lang/Object")
        .expect("bootstrapped");
    let oop = vm.jvm_mut().alloc_object(class);
    let thread = vm.jvm().main_thread();
    JValue::Ref(vm.jvm_mut().new_local(thread, oop))
}

#[test]
fn nested_java_c_java_c_call_chain() {
    // Java -> native outer -> managed middle -> native inner, with values
    // flowing back up — the language-transition nesting Jinn interposes on.
    let mut vm = Vm::permissive();
    let (_c, inner) = vm.define_native_class(
        "chain/Inner",
        "leaf",
        "()I",
        true,
        Rc::new(|_env, _| Ok(JValue::Int(21))),
    );
    let (_c2, _middle) = vm.define_managed_class(
        "chain/Middle",
        "relay",
        "()I",
        true,
        Rc::new(move |env, _| {
            let v = env.call_native_method(inner, &[])?;
            Ok(JValue::Int(v.as_int().unwrap_or(0) * 2))
        }),
    );
    let (_c3, outer) = vm.define_native_class(
        "chain/Outer",
        "enter",
        "()I",
        true,
        Rc::new(move |env, _| {
            let clazz = typed::find_class(env, "chain/Middle")?;
            let mid = typed::get_static_method_id(env, clazz, "relay", "()I")?;
            let v = typed::call_static_int_method_a(env, clazz, mid, &[])?;
            Ok(JValue::Int(v))
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    jinn::core::install(&mut session);
    let outcome = session.run_native(thread, outer, &[]);
    match outcome {
        RunOutcome::Completed(JValue::Int(v)) => assert_eq!(v, 42),
        other => panic!("chain failed: {other:?}"),
    }
    assert!(session.shutdown().is_empty(), "no leaks in a clean chain");
    // Transitions: 2 native calls + several JNI calls.
    assert!(session.vm().stats().java_to_c >= 2);
    assert!(session.vm().stats().c_to_java >= 3);
}

#[test]
fn gc_during_native_work_preserves_handles() {
    let mut vm = Vm::permissive();
    vm.jvm_mut().set_auto_gc_period(Some(1)); // GC at every safepoint
    let (_c, entry) = vm.define_native_class(
        "gc/Stress",
        "churn",
        "(Ljava/lang/Object;)Z",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("arg");
            let mut ok = true;
            for i in 0..20 {
                let s = typed::new_string_utf(env, &format!("tmp-{i}"))?;
                // Both references must stay valid across the GCs the
                // safepoints trigger.
                ok &= !typed::is_same_object(env, obj, s)?;
                typed::delete_local_ref(env, s)?;
            }
            Ok(JValue::Bool(ok))
        }),
    );
    let arg = object_arg(&mut vm);
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    jinn::core::install(&mut session);
    let outcome = session.run_native(thread, entry, &[arg]);
    assert!(
        matches!(outcome, RunOutcome::Completed(JValue::Bool(true))),
        "{outcome:?}"
    );
    assert!(
        session.vm().jvm().heap().collections() > 10,
        "GC really ran"
    );
}

#[test]
fn register_natives_binds_and_unbinds() {
    let mut vm = Vm::permissive();
    // A class with an unbound native method.
    vm.jvm_mut()
        .registry_mut()
        .define("reg/Native")
        .native_method("hello", "()I", jinn::jvm::MemberFlags::public_static())
        .build()
        .expect("fresh class");
    let (_c, entry) = vm.define_native_class(
        "reg/Driver",
        "drive",
        "()I",
        true,
        Rc::new(|env, _| {
            let clazz = typed::find_class(env, "reg/Native")?;
            let mid = typed::get_static_method_id(env, clazz, "hello", "()I")?;
            // Before RegisterNatives: UnsatisfiedLinkError.
            match typed::call_static_int_method_a(env, clazz, mid, &[]) {
                Err(JniError::Exception) => typed::exception_clear(env)?,
                other => panic!("expected link error, got {other:?}"),
            }
            typed::register_natives(
                env,
                clazz,
                vec![typed::NativeMethodDef {
                    name: "hello".into(),
                    sig: "()I".into(),
                    func: Rc::new(|_env, _| Ok(JValue::Int(7))),
                }],
            )?;
            let v = typed::call_static_int_method_a(env, clazz, mid, &[])?;
            typed::unregister_natives(env, clazz)?;
            Ok(JValue::Int(v))
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    let outcome = session.run_native(thread, entry, &[]);
    assert!(
        matches!(outcome, RunOutcome::Completed(JValue::Int(7))),
        "{outcome:?}"
    );
}

#[test]
fn push_pop_local_frame_protocol_is_clean_under_jinn() {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class(
        "frames/Disciplined",
        "work",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("arg");
            // More than 16 references, managed with explicit frames as the
            // JNI book instructs.
            for _ in 0..5 {
                typed::push_local_frame(env, 16)?;
                for _ in 0..10 {
                    typed::new_local_ref(env, obj)?;
                }
                typed::pop_local_frame(env, jinn::jvm::JRef::NULL)?;
            }
            Ok(JValue::Void)
        }),
    );
    let arg = object_arg(&mut vm);
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    jinn::core::install(&mut session);
    let outcome = session.run_native(thread, entry, &[arg]);
    assert!(matches!(outcome, RunOutcome::Completed(_)), "{outcome:?}");
    assert!(session.shutdown().is_empty());
}

#[test]
fn pop_local_frame_migrates_its_result_reference() {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class(
        "frames/Migrate",
        "build",
        "()Ljava/lang/String;",
        true,
        Rc::new(|env, _| {
            typed::push_local_frame(env, 16)?;
            let s = typed::new_string_utf(env, "survivor")?;
            // PopLocalFrame(result) re-registers `s` in the outer frame.
            let migrated = typed::pop_local_frame(env, s)?;
            let n = typed::get_string_utf_length(env, migrated)?;
            assert_eq!(n, 8);
            Ok(JValue::Ref(migrated))
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    jinn::core::install(&mut session);
    match session.run_native(thread, entry, &[]) {
        RunOutcome::Completed(JValue::Ref(r)) => {
            let oop = session.vm().jvm().resolve(thread, r).unwrap().unwrap();
            assert_eq!(
                session.vm().jvm().string_value(oop).as_deref(),
                Some("survivor")
            );
        }
        other => panic!("migration failed: {other:?}"),
    }
}

#[test]
fn array_copy_back_semantics() {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class(
        "arrays/CopyBack",
        "bump",
        "()I",
        true,
        Rc::new(|env, _| {
            let arr = typed::new_int_array(env, 3)?;
            typed::set_int_array_region(env, arr, 0, PrimArray::Int(vec![1, 2, 3]))?;
            let pin = typed::get_int_array_elements(env, arr)?;
            // Mutate the C copy, then commit.
            assert!(typed::write_prim_buffer(env, pin, 1, JValue::Int(99)));
            typed::release_int_array_elements(env, arr, pin, 0)?;
            let region = typed::get_int_array_region(env, arr, 0, 3)?;
            Ok(region
                .get(1)
                .as_int()
                .map(JValue::Int)
                .unwrap_or(JValue::Int(-1)))
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    let outcome = session.run_native(thread, entry, &[]);
    assert!(
        matches!(outcome, RunOutcome::Completed(JValue::Int(99))),
        "{outcome:?}"
    );
}

#[test]
fn abort_mode_discards_the_c_copy() {
    let mut vm = Vm::permissive();
    let (_c, entry) = vm.define_native_class(
        "arrays/Abort",
        "scratch",
        "()I",
        true,
        Rc::new(|env, _| {
            let arr = typed::new_int_array(env, 1)?;
            typed::set_int_array_region(env, arr, 0, PrimArray::Int(vec![5]))?;
            let pin = typed::get_int_array_elements(env, arr)?;
            assert!(typed::write_prim_buffer(env, pin, 0, JValue::Int(77)));
            typed::release_int_array_elements(env, arr, pin, jinn::jni::JNI_ABORT)?;
            let region = typed::get_int_array_region(env, arr, 0, 1)?;
            Ok(region
                .get(0)
                .as_int()
                .map(JValue::Int)
                .unwrap_or(JValue::Int(-1)))
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    let outcome = session.run_native(thread, entry, &[]);
    assert!(
        matches!(outcome, RunOutcome::Completed(JValue::Int(5))),
        "{outcome:?}"
    );
}

#[test]
fn weak_globals_observe_collection() {
    let mut vm = Vm::permissive();
    let weak_stash = Rc::new(RefCell::new(None));
    let (_c, make) = {
        let weak_stash = Rc::clone(&weak_stash);
        vm.define_native_class(
            "weak/Make",
            "make",
            "()V",
            true,
            Rc::new(move |env, _| {
                let s = typed::new_string_utf(env, "ephemeral")?;
                let w = typed::new_weak_global_ref(env, s)?;
                *weak_stash.borrow_mut() = Some(w);
                Ok(JValue::Void)
            }),
        )
    };
    let (_c2, probe) = {
        let weak_stash = Rc::clone(&weak_stash);
        vm.define_native_class(
            "weak/Probe",
            "probe",
            "()Z",
            true,
            Rc::new(move |env, _| {
                let w = weak_stash.borrow().expect("make ran");
                // IsSameObject(weak, NULL) is the canonical liveness test.
                let cleared = typed::is_same_object(env, w, jinn::jvm::JRef::NULL)?;
                typed::delete_weak_global_ref(env, w)?;
                Ok(JValue::Bool(cleared))
            }),
        )
    };
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    jinn::core::install(&mut session);
    assert!(matches!(
        session.run_native(thread, make, &[]),
        RunOutcome::Completed(_)
    ));
    // The string was only reachable through the weak ref; collect it.
    session.vm_mut().jvm_mut().gc();
    match session.run_native(thread, probe, &[]) {
        RunOutcome::Completed(JValue::Bool(cleared)) => {
            assert!(cleared, "weak global must observe the collection");
        }
        other => panic!("probe failed: {other:?}"),
    }
    assert!(
        session.shutdown().is_empty(),
        "weak ref was deleted: no leak"
    );
}

#[test]
fn jinn_is_vendor_independent_end_to_end() {
    // The same buggy program gets the same Jinn diagnosis on both vendor
    // models, even though the raw outcomes differ.
    for vendor in Vendor::ALL {
        let mut vm = vendor.vm();
        let (_c, entry) = vm.define_native_class(
            "vendor/Bug",
            "oops",
            "(Ljava/lang/Object;)V",
            true,
            Rc::new(|env, args| {
                let obj = args[0].as_ref().expect("arg");
                let r = typed::new_local_ref(env, obj)?;
                typed::delete_local_ref(env, r)?;
                typed::get_object_class(env, r)?; // dangling use
                Ok(JValue::Void)
            }),
        );
        let arg = object_arg(&mut vm);
        let thread = vm.jvm().main_thread();
        let mut session = Session::new(vm);
        jinn::core::install(&mut session);
        match session.run_native(thread, entry, &[arg]) {
            RunOutcome::CheckerException(v) => {
                assert_eq!(v.machine, "local-reference");
                assert_eq!(v.error_state, "Error:Dangling");
            }
            other => panic!("Jinn on {vendor} missed the bug: {other:?}"),
        }
    }
}

#[test]
fn exception_propagates_from_java_through_c_to_java() {
    let mut vm = Vm::permissive();
    let (_c, thrower) = vm.define_managed_class(
        "exc/Thrower",
        "boom",
        "()V",
        true,
        Rc::new(|env, _| Err(env.java_throw("java/lang/IllegalArgumentException", "bad input"))),
    );
    let _ = thrower;
    let (_c2, entry) = vm.define_native_class(
        "exc/Caller",
        "call",
        "()V",
        true,
        Rc::new(|env, _| {
            let clazz = typed::find_class(env, "exc/Thrower")?;
            let mid = typed::get_static_method_id(env, clazz, "boom", "()V")?;
            // The C code propagates by returning with the exception pending
            // — the correct pattern.
            match typed::call_static_void_method_a(env, clazz, mid, &[]) {
                Err(JniError::Exception) => Ok(JValue::Void),
                other => panic!("expected exception, got {other:?}"),
            }
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    jinn::core::install(&mut session);
    match session.run_native(thread, entry, &[]) {
        RunOutcome::UncaughtException(desc) => {
            assert!(desc.contains("IllegalArgumentException"), "{desc}");
            assert!(desc.contains("bad input"));
        }
        other => panic!("expected uncaught exception, got {other:?}"),
    }
}

/// `run_native` delivers an uncaught or checker exception to its caller
/// and clears it, as a Java caller's `catch` would: a second run in the
/// same session starts with no stale pending exception and ends the same
/// way as the first.
#[test]
fn a_delivered_exception_does_not_leak_into_the_next_run() {
    let mut vm = Vm::permissive();
    let (_c, throws) = vm.define_native_class(
        "leak/Throws",
        "m",
        "()V",
        true,
        Rc::new(|env, _| {
            let class = typed::find_class(env, "java/lang/RuntimeException")?;
            typed::throw_new(env, class, "boom")?;
            Err(JniError::Exception)
        }),
    );
    let (_c, double_free) = vm.define_native_class(
        "leak/DoubleFree",
        "m",
        "()V",
        true,
        Rc::new(|env, _| {
            let s = typed::new_string_utf(env, "x")?;
            typed::delete_local_ref(env, s)?;
            typed::delete_local_ref(env, s)?;
            Ok(JValue::Void)
        }),
    );
    let thread = vm.jvm().main_thread();
    let mut session = Session::new(vm);
    jinn::core::install(&mut session);
    for entry in [throws, double_free] {
        let first = session.run_native(thread, entry, &[]);
        assert!(
            matches!(
                first,
                RunOutcome::UncaughtException(_) | RunOutcome::CheckerException(_)
            ),
            "{first:?}"
        );
        let pending = session.vm().jvm().thread(thread).pending_exception();
        assert!(pending.is_none(), "exception left pending after {first:?}");
        let second = session.run_native(thread, entry, &[]);
        assert_eq!(second, first);
    }
}
