//! The sixteen microbenchmark programs.
//!
//! Each builds a tiny multilingual program whose native half (Rust
//! closures standing in for C) violates exactly one JNI constraint —
//! one error state of the eleven machines, covering every Table 1 pitfall
//! except pitfall 8 (whose bug lives in C memory accesses the boundary
//! cannot see).

use std::cell::RefCell;
use std::rc::Rc;

use minijni::{typed, Vm};
use minijvm::class::names;
use minijvm::{JRef, JValue, MemberFlags, MethodId};

use crate::{Program, Setup};

fn object_arg(vm: &mut Vm) -> JValue {
    let class = vm.jvm().find_class(names::OBJECT).expect("bootstrapped");
    let oop = vm.jvm_mut().alloc_object(class);
    let thread = vm.jvm().main_thread();
    JValue::Ref(vm.jvm_mut().new_local(thread, oop))
}

fn string_arg(vm: &mut Vm, text: &str) -> JValue {
    let oop = vm.jvm_mut().alloc_string(text);
    let thread = vm.jvm().main_thread();
    JValue::Ref(vm.jvm_mut().new_local(thread, oop))
}

fn single(vm: &mut Vm, entry: MethodId, first_args: Vec<JValue>) -> Setup {
    let _ = vm;
    Setup {
        entries: vec![entry],
        first_args,
    }
}

// --- 1. JNIEnv* used across threads (pitfall 14) -----------------------

fn build_env_mismatch(vm: &mut Vm) -> Setup {
    let other = vm.jvm_mut().spawn_thread();
    let cached_env = vm.jvm().thread(other).env();
    let (_, entry) = vm.define_native_class(
        "EnvMismatch",
        "call",
        "()V",
        true,
        Rc::new(move |env, _| {
            // C code cached another thread's JNIEnv* and uses it here.
            env.set_presented_env(cached_env);
            typed::get_version(env)?;
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![])
}

// --- 2. Exception state (pitfall 1; the Figure 9 benchmark) -------------

fn build_exception_state(vm: &mut Vm) -> Setup {
    let (_class, _foo) = vm.define_managed_class(
        "ExceptionState",
        "raise",
        "()V",
        true,
        Rc::new(|env, _| Err(env.java_throw(names::RUNTIME_EXCEPTION, "checked by native code"))),
    );
    let (_, entry) = vm.define_native_class(
        "ExceptionStateNative",
        "call",
        "()V",
        true,
        Rc::new(|env, _| {
            let clazz = typed::find_class(env, "ExceptionState")?;
            let raise = typed::get_static_method_id(env, clazz, "raise", "()V")?;
            // Java throws; the C code ignores the pending exception...
            let _ = typed::call_static_void_method_a(env, clazz, raise, &[]);
            // ...and keeps calling exception-sensitive JNI functions.
            let _ = typed::get_static_method_id(env, clazz, "raise", "()V");
            let _ = typed::call_static_void_method_a(env, clazz, raise, &[]);
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![])
}

// --- 3. JNI call inside a critical section (pitfall 16) -----------------

fn build_critical_call(vm: &mut Vm) -> Setup {
    let (_, entry) = vm.define_native_class(
        "CriticalState",
        "call",
        "()V",
        true,
        Rc::new(|env, _| {
            let s = typed::new_string_utf(env, "pinned data")?;
            let pin = typed::get_string_critical(env, s)?;
            // Any other JNI call is forbidden until the release.
            let _ = typed::get_version(env)?;
            typed::release_string_critical(env, s, pin)?;
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![])
}

// --- 4. Unmatched critical release --------------------------------------

fn build_critical_unmatched_release(vm: &mut Vm) -> Setup {
    let (_, entry) = vm.define_native_class(
        "CriticalRelease",
        "call",
        "()V",
        true,
        Rc::new(|env, _| {
            let s = typed::new_string_utf(env, "not critical")?;
            // Acquired through the non-critical getter...
            let pin = typed::get_string_chars(env, s)?;
            // ...but released through the critical one: unmatched.
            let _ = typed::release_string_critical(env, s, pin);
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![])
}

// --- 5. jclass confused with jobject (pitfall 3) -------------------------

fn build_jclass_confusion(vm: &mut Vm) -> Setup {
    let (_c, _m) = vm.define_managed_class(
        "ConfusionTarget",
        "run",
        "()V",
        true,
        Rc::new(|_env, _| Ok(JValue::Void)),
    );
    let (_, entry) = vm.define_native_class(
        "JclassConfusion",
        "call",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let plain_object = args[0].as_ref().expect("object argument");
            let clazz = typed::find_class(env, "ConfusionTarget")?;
            let mid = typed::get_static_method_id(env, clazz, "run", "()V")?;
            // A jobject where a jclass belongs.
            typed::call_static_void_method_a(env, plain_object, mid, &[])?;
            Ok(JValue::Void)
        }),
    );
    let arg = object_arg(vm);
    single(vm, entry, vec![arg])
}

// --- 6. Method ID confused with a reference (pitfall 6) ------------------

fn build_id_confusion(vm: &mut Vm) -> Setup {
    let (_, entry) = vm.define_native_class(
        "IdConfusion",
        "call",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("object argument");
            // C code cast a pointer-sized garbage value to jmethodID.
            let forged = minijvm::MethodId::forged(0xFFFF_FFF0);
            typed::call_void_method_a(env, obj, forged, &[])?;
            Ok(JValue::Void)
        }),
    );
    let arg = object_arg(vm);
    single(vm, entry, vec![arg])
}

// --- 7. Write to a final field (pitfall 9) -------------------------------

fn build_final_field_write(vm: &mut Vm) -> Setup {
    let class = vm
        .jvm_mut()
        .registry_mut()
        .define("ConfigHolder")
        .field("LIMIT", "I", MemberFlags::public().with_final(true))
        .build()
        .expect("fresh class");
    let oop = vm.jvm_mut().alloc_object(class);
    let thread = vm.jvm().main_thread();
    let arg = JValue::Ref(vm.jvm_mut().new_local(thread, oop));
    let (_, entry) = vm.define_native_class(
        "FinalFieldWrite",
        "call",
        "(LConfigHolder;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("holder argument");
            let clazz = typed::get_object_class(env, obj)?;
            let fid = typed::get_field_id(env, clazz, "LIMIT", "I")?;
            typed::set_int_field(env, obj, fid, 42)?;
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![arg])
}

// --- 8. Null argument to a JNI function (pitfall 2) ----------------------

fn build_null_argument(vm: &mut Vm) -> Setup {
    let (_c, _m) = vm.define_managed_class(
        "NullTarget",
        "ping",
        "()V",
        true,
        Rc::new(|_env, _| Ok(JValue::Void)),
    );
    let (_, entry) = vm.define_native_class(
        "NullArgument",
        "call",
        "()V",
        true,
        Rc::new(|env, _| {
            let clazz = typed::find_class(env, "NullTarget")?;
            let mid = typed::get_static_method_id(env, clazz, "ping", "()V")?;
            // NULL where a non-null class is required.
            typed::call_static_void_method_a(env, JRef::NULL, mid, &[])?;
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![])
}

// --- 9. Pinned buffer never released (pitfall 11) ------------------------

fn build_pin_leak(vm: &mut Vm) -> Setup {
    let arg = string_arg(vm, "The quick brown fox");
    let (_, entry) = vm.define_native_class(
        "PinLeak",
        "call",
        "(Ljava/lang/String;)V",
        true,
        Rc::new(|env, args| {
            let s = args[0].as_ref().expect("string argument");
            let pin = typed::get_string_utf_chars(env, s)?;
            let _contents = typed::read_utf_buffer(env, pin);
            // Missing ReleaseStringUTFChars: the buffer leaks.
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![arg])
}

// --- 10. Pinned buffer released twice -------------------------------------

fn build_pin_double_free(vm: &mut Vm) -> Setup {
    let (_, entry) = vm.define_native_class(
        "PinDoubleFree",
        "call",
        "()V",
        true,
        Rc::new(|env, _| {
            let arr = typed::new_int_array(env, 8)?;
            let pin = typed::get_int_array_elements(env, arr)?;
            typed::release_int_array_elements(env, arr, pin, 0)?;
            // Double free.
            let _ = typed::release_int_array_elements(env, arr, pin, 0);
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![])
}

// --- 11. Monitor never released -------------------------------------------

fn build_monitor_leak(vm: &mut Vm) -> Setup {
    let arg = object_arg(vm);
    let (_, entry) = vm.define_native_class(
        "MonitorLeak",
        "call",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("object argument");
            typed::monitor_enter(env, obj)?;
            // Missing MonitorExit: deadlock risk for the next contender.
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![arg])
}

// --- 12. Global reference never deleted (pitfall 11) -----------------------

fn build_global_leak(vm: &mut Vm) -> Setup {
    let arg = object_arg(vm);
    let (_, entry) = vm.define_native_class(
        "GlobalLeak",
        "call",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("object argument");
            let _g = typed::new_global_ref(env, obj)?;
            // Missing DeleteGlobalRef.
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![arg])
}

// --- 13. Use of a deleted global reference ---------------------------------

fn build_global_dangling(vm: &mut Vm) -> Setup {
    let arg = object_arg(vm);
    let (_, entry) = vm.define_native_class(
        "GlobalDangling",
        "call",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("object argument");
            let g = typed::new_global_ref(env, obj)?;
            typed::delete_global_ref(env, g)?;
            // Dangling use.
            typed::get_object_class(env, g)?;
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![arg])
}

// --- 14. Local reference overflow (pitfall 12) ------------------------------

fn build_local_overflow(vm: &mut Vm) -> Setup {
    let arg = object_arg(vm);
    let (_, entry) = vm.define_native_class(
        "LocalOverflow",
        "call",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("object argument");
            // 20 acquisitions without EnsureLocalCapacity/PushLocalFrame:
            // the JNI only guarantees 16.
            for _ in 0..20 {
                typed::new_local_ref(env, obj)?;
            }
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![arg])
}

// --- 15. Use of a dead local reference (pitfall 13; Figure 1 / GNOME) --------

fn build_local_dangling(vm: &mut Vm) -> Setup {
    let stash: Rc<RefCell<Option<JRef>>> = Rc::default();
    let arg = object_arg(vm);
    let (_, bind) = {
        let stash = Rc::clone(&stash);
        vm.define_native_class(
            "Callback",
            "bind",
            "(Ljava/lang/Object;)V",
            true,
            Rc::new(move |_env, args| {
                // cb->receiver = receiver: the local reference escapes
                // into a C heap structure (Figure 1, line 6).
                *stash.borrow_mut() = args[0].as_ref();
                Ok(JValue::Void)
            }),
        )
    };
    let (_, fire) = {
        let stash = Rc::clone(&stash);
        vm.define_native_class(
            "CallbackDispatch",
            "fire",
            "()V",
            true,
            Rc::new(move |env, _| {
                let receiver = stash.borrow().expect("bind ran first");
                // (*env)->CallStaticVoidMethodA(env, cb->receiver, ...):
                // cb->receiver is a dead local reference (Figure 1, line 15).
                typed::get_object_class(env, receiver)?;
                Ok(JValue::Void)
            }),
        )
    };
    Setup {
        entries: vec![bind, fire],
        first_args: vec![arg],
    }
}

// --- 16. Local reference deleted twice ---------------------------------------

fn build_local_double_free(vm: &mut Vm) -> Setup {
    let arg = object_arg(vm);
    let (_, entry) = vm.define_native_class(
        "LocalDoubleFree",
        "call",
        "(Ljava/lang/Object;)V",
        true,
        Rc::new(|env, args| {
            let obj = args[0].as_ref().expect("object argument");
            let r = typed::new_local_ref(env, obj)?;
            typed::delete_local_ref(env, r)?;
            let _ = typed::delete_local_ref(env, r);
            Ok(JValue::Void)
        }),
    );
    single(vm, entry, vec![arg])
}

/// All sixteen microbenchmarks, in machine order.
pub fn scenarios() -> Vec<Program> {
    vec![
        Program {
            name: "EnvMismatch".into(),
            pitfall: Some(14),
            machine: "jnienv-state",
            error_state: "Error:EnvMismatch",
            leaks: false,
            gc_period: None,
            build: Box::new(build_env_mismatch),
        },
        Program {
            name: "ExceptionState".into(),
            pitfall: Some(1),
            machine: "exception-state",
            error_state: "Error:SensitiveCallWithPending",
            leaks: false,
            gc_period: None,
            build: Box::new(build_exception_state),
        },
        Program {
            name: "CriticalCall".into(),
            pitfall: Some(16),
            machine: "critical-section",
            error_state: "Error:SensitiveCallInCritical",
            leaks: false,
            gc_period: None,
            build: Box::new(build_critical_call),
        },
        Program {
            name: "CriticalUnmatchedRelease".into(),
            pitfall: None,
            machine: "critical-section",
            error_state: "Error:UnmatchedRelease",
            leaks: false,
            gc_period: None,
            build: Box::new(build_critical_unmatched_release),
        },
        Program {
            name: "JclassConfusion".into(),
            pitfall: Some(3),
            machine: "fixed-typing",
            error_state: "Error:FixedTypeMismatch",
            leaks: false,
            gc_period: None,
            build: Box::new(build_jclass_confusion),
        },
        Program {
            name: "IdConfusion".into(),
            pitfall: Some(6),
            machine: "entity-typing",
            error_state: "Error:EntityTypeMismatch",
            leaks: false,
            gc_period: None,
            build: Box::new(build_id_confusion),
        },
        Program {
            name: "FinalFieldWrite".into(),
            pitfall: Some(9),
            machine: "access-control",
            error_state: "Error:FinalFieldWrite",
            leaks: false,
            gc_period: None,
            build: Box::new(build_final_field_write),
        },
        Program {
            name: "NullArgument".into(),
            pitfall: Some(2),
            machine: "nullness",
            error_state: "Error:Null",
            leaks: false,
            gc_period: None,
            build: Box::new(build_null_argument),
        },
        Program {
            name: "PinLeak".into(),
            pitfall: Some(11),
            machine: "pinned-buffer",
            error_state: "Error:Leak",
            leaks: true,
            gc_period: None,
            build: Box::new(build_pin_leak),
        },
        Program {
            name: "PinDoubleFree".into(),
            pitfall: None,
            machine: "pinned-buffer",
            error_state: "Error:DoubleFree",
            leaks: false,
            gc_period: None,
            build: Box::new(build_pin_double_free),
        },
        Program {
            name: "MonitorLeak".into(),
            pitfall: None,
            machine: "monitor",
            error_state: "Error:Leak",
            leaks: true,
            gc_period: None,
            build: Box::new(build_monitor_leak),
        },
        Program {
            name: "GlobalLeak".into(),
            pitfall: None,
            machine: "global-reference",
            error_state: "Error:Leak",
            leaks: true,
            gc_period: None,
            build: Box::new(build_global_leak),
        },
        Program {
            name: "GlobalDangling".into(),
            pitfall: None,
            machine: "global-reference",
            error_state: "Error:Dangling",
            leaks: false,
            gc_period: None,
            build: Box::new(build_global_dangling),
        },
        Program {
            name: "LocalOverflow".into(),
            pitfall: Some(12),
            machine: "local-reference",
            error_state: "Error:Overflow",
            leaks: true,
            gc_period: None,
            build: Box::new(build_local_overflow),
        },
        Program {
            name: "LocalRefDangling".into(),
            pitfall: Some(13),
            machine: "local-reference",
            error_state: "Error:Dangling",
            leaks: false,
            gc_period: None,
            build: Box::new(build_local_dangling),
        },
        Program {
            name: "LocalDoubleFree".into(),
            pitfall: None,
            machine: "local-reference",
            error_state: "Error:DoubleFree",
            leaks: false,
            gc_period: None,
            build: Box::new(build_local_double_free),
        },
    ]
}

#[cfg(test)]
mod tests {
    use crate::{run_scenario, scenarios, Behavior, Config};
    use jinn_vendors::Vendor;

    fn observe(name: &str, config: Config) -> Behavior {
        let s = scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .expect("scenario exists");
        run_scenario(&s, config).behavior
    }

    #[test]
    fn sixteen_scenarios() {
        assert_eq!(scenarios().len(), 16);
    }

    #[test]
    fn jinn_detects_every_scenario_on_both_vendors() {
        for vendor in Vendor::ALL {
            for s in scenarios() {
                let o = run_scenario(&s, Config::Jinn(vendor));
                assert_eq!(
                    o.behavior,
                    Behavior::JinnException,
                    "{} on {vendor}: {:?} (log: {:?})",
                    s.name,
                    o.behavior,
                    o.log
                );
            }
        }
    }

    #[test]
    fn table1_row1_exception_state() {
        assert_eq!(
            observe("ExceptionState", Config::Default(Vendor::HotSpot)),
            Behavior::Running
        );
        assert_eq!(
            observe("ExceptionState", Config::Default(Vendor::J9)),
            Behavior::Crash
        );
        assert_eq!(
            observe("ExceptionState", Config::Xcheck(Vendor::HotSpot)),
            Behavior::Warning
        );
        assert_eq!(
            observe("ExceptionState", Config::Xcheck(Vendor::J9)),
            Behavior::Error
        );
    }

    #[test]
    fn table1_row2_null_argument() {
        assert_eq!(
            observe("NullArgument", Config::Default(Vendor::HotSpot)),
            Behavior::Running
        );
        assert_eq!(
            observe("NullArgument", Config::Default(Vendor::J9)),
            Behavior::Crash
        );
        assert_eq!(
            observe("NullArgument", Config::Xcheck(Vendor::HotSpot)),
            Behavior::Running
        );
        assert_eq!(
            observe("NullArgument", Config::Xcheck(Vendor::J9)),
            Behavior::Crash
        );
    }

    #[test]
    fn table1_row3_jclass_confusion() {
        assert_eq!(
            observe("JclassConfusion", Config::Default(Vendor::HotSpot)),
            Behavior::Crash
        );
        assert_eq!(
            observe("JclassConfusion", Config::Default(Vendor::J9)),
            Behavior::Crash
        );
        assert_eq!(
            observe("JclassConfusion", Config::Xcheck(Vendor::HotSpot)),
            Behavior::Error
        );
        assert_eq!(
            observe("JclassConfusion", Config::Xcheck(Vendor::J9)),
            Behavior::Error
        );
    }

    #[test]
    fn table1_row9_final_field() {
        for vendor in Vendor::ALL {
            assert_eq!(
                observe("FinalFieldWrite", Config::Default(vendor)),
                Behavior::Npe
            );
            assert_eq!(
                observe("FinalFieldWrite", Config::Xcheck(vendor)),
                Behavior::Npe
            );
        }
    }

    #[test]
    fn table1_row12_local_overflow() {
        assert_eq!(
            observe("LocalOverflow", Config::Default(Vendor::HotSpot)),
            Behavior::Leak
        );
        assert_eq!(
            observe("LocalOverflow", Config::Xcheck(Vendor::HotSpot)),
            Behavior::Running
        );
        assert_eq!(
            observe("LocalOverflow", Config::Xcheck(Vendor::J9)),
            Behavior::Warning
        );
    }

    #[test]
    fn table1_row13_local_dangling() {
        assert_eq!(
            observe("LocalRefDangling", Config::Default(Vendor::HotSpot)),
            Behavior::Crash
        );
        assert_eq!(
            observe("LocalRefDangling", Config::Default(Vendor::J9)),
            Behavior::Crash
        );
        assert_eq!(
            observe("LocalRefDangling", Config::Xcheck(Vendor::HotSpot)),
            Behavior::Error
        );
        assert_eq!(
            observe("LocalRefDangling", Config::Xcheck(Vendor::J9)),
            Behavior::Error
        );
    }

    #[test]
    fn table1_row14_env_mismatch() {
        assert_eq!(
            observe("EnvMismatch", Config::Default(Vendor::HotSpot)),
            Behavior::Running
        );
        assert_eq!(
            observe("EnvMismatch", Config::Default(Vendor::J9)),
            Behavior::Crash
        );
        assert_eq!(
            observe("EnvMismatch", Config::Xcheck(Vendor::HotSpot)),
            Behavior::Error
        );
        assert_eq!(
            observe("EnvMismatch", Config::Xcheck(Vendor::J9)),
            Behavior::Crash
        );
    }

    #[test]
    fn table1_row16_critical() {
        assert_eq!(
            observe("CriticalCall", Config::Default(Vendor::HotSpot)),
            Behavior::Deadlock
        );
        assert_eq!(
            observe("CriticalCall", Config::Default(Vendor::J9)),
            Behavior::Deadlock
        );
        assert_eq!(
            observe("CriticalCall", Config::Xcheck(Vendor::HotSpot)),
            Behavior::Warning
        );
        assert_eq!(
            observe("CriticalCall", Config::Xcheck(Vendor::J9)),
            Behavior::Error
        );
    }

    #[test]
    fn section_6_3_coverage() {
        // Paper: Jinn 100%, HotSpot -Xcheck 56% (9/16), J9 -Xcheck 50% (8/16).
        let (jinn, total) = crate::coverage(Config::Jinn(Vendor::HotSpot));
        assert_eq!((jinn, total), (16, 16));
        let (hs, _) = crate::coverage(Config::Xcheck(Vendor::HotSpot));
        assert_eq!(hs, 9, "HotSpot -Xcheck should detect 9 of 16");
        let (j9, _) = crate::coverage(Config::Xcheck(Vendor::J9));
        assert_eq!(j9, 8, "J9 -Xcheck should detect 8 of 16");
    }

    #[test]
    fn vendors_disagree_on_many_benchmarks() {
        // "The dynamic checkers built into the HotSpot and J9 JVMs behave
        // inconsistently in more than half of our microbenchmarks."
        let mut disagreements = 0;
        for s in scenarios() {
            let hs = run_scenario(&s, Config::Xcheck(Vendor::HotSpot)).behavior;
            let j9 = run_scenario(&s, Config::Xcheck(Vendor::J9)).behavior;
            if hs != j9 {
                disagreements += 1;
            }
        }
        assert!(disagreements >= 8, "only {disagreements} disagreements");
    }
}
