//! The eleven state machines of the Jinn JNI specification.
//!
//! These are the paper's Figures 2, 6, 7 and 8, written in the
//! [`jinn_fsm`] specification language. Together with the function
//! registry of `minijni`, they encode the 1,500+ usage rules of the JNI
//! manual. The prose trigger selectors here are the human-readable face of
//! the `languageTransitionsFor` mapping; the machine-readable resolution
//! against the registry lives in [`crate::instrument`].

use jinn_fsm::{ConstraintClass, Direction, EntityKind, MachineSpec};

/// Every JNI function whose successful return pins a string or array
/// buffer (machine 8's `Acquire`). Mirrors the `PinAcquire` resolution
/// in the `instrument` module — kept in sync by a test there.
pub const PIN_ACQUIRE_FUNCS: [&str; 12] = [
    "GetStringChars",
    "GetStringUTFChars",
    "GetBooleanArrayElements",
    "GetByteArrayElements",
    "GetCharArrayElements",
    "GetShortArrayElements",
    "GetIntArrayElements",
    "GetLongArrayElements",
    "GetFloatArrayElements",
    "GetDoubleArrayElements",
    "GetStringCritical",
    "GetPrimitiveArrayCritical",
];

/// Every JNI function that releases a pinned buffer (machine 8's
/// `Release`, and the double-free trigger `ReleaseAgain`).
pub const PIN_RELEASE_FUNCS: [&str; 12] = [
    "ReleaseStringChars",
    "ReleaseStringUTFChars",
    "ReleaseBooleanArrayElements",
    "ReleaseByteArrayElements",
    "ReleaseCharArrayElements",
    "ReleaseShortArrayElements",
    "ReleaseIntArrayElements",
    "ReleaseLongArrayElements",
    "ReleaseFloatArrayElements",
    "ReleaseDoubleArrayElements",
    "ReleaseStringCritical",
    "ReleasePrimitiveArrayCritical",
];

/// Machine 1 (Figure 6): the `JNIEnv*` state constraint.
///
/// Every call from C must pass the `JNIEnv*` of the current thread.
pub fn jnienv_state() -> MachineSpec {
    MachineSpec::builder("jnienv-state", ConstraintClass::RuntimeState)
        .entity(EntityKind::Thread)
        .state("Matched")
        .error_state(
            "Error:EnvMismatch",
            "JNIEnv* does not belong to the current thread in {function}",
        )
        .transition("MismatchedCall", "Matched", "Error:EnvMismatch", |t| {
            t.on(Direction::CallCToJava, "any JNI function")
        })
        .build()
        .expect("jnienv-state is well-formed")
}

/// Machine 2 (Figure 6): the exception state constraint.
///
/// After a JNI call returns with an exception pending, only the 20
/// exception-oblivious functions may be called until the exception is
/// consumed or the native method returns.
pub fn exception_state() -> MachineSpec {
    MachineSpec::builder("exception-state", ConstraintClass::RuntimeState)
        .entity(EntityKind::Thread)
        .state("NoException")
        .state("ExceptionPending")
        .error_state(
            "Error:SensitiveCallWithPending",
            "an exception is pending in {function}",
        )
        .transition(
            "JniReturnWithException",
            "NoException",
            "ExceptionPending",
            |t| {
                t.on(
                    Direction::ReturnJavaToC,
                    "any JNI function, e.g. CallVoidMethod",
                )
            },
        )
        .transition(
            "ClearOrReturnToJava",
            "ExceptionPending",
            "NoException",
            |t| {
                t.on(Direction::ReturnJavaToC, "ExceptionClear")
                    .on(Direction::ReturnCToJava, "return from any native method")
            },
        )
        .transition(
            "ObliviousCall",
            "ExceptionPending",
            "ExceptionPending",
            |t| {
                t.on(
                    Direction::CallCToJava,
                    "small set of clean-up functions, e.g. ReleaseStringChars",
                )
            },
        )
        .transition(
            "SensitiveCall",
            "ExceptionPending",
            "Error:SensitiveCallWithPending",
            |t| {
                t.on(
                    Direction::CallCToJava,
                    "all other JNI functions, e.g. GetStringChars",
                )
            },
        )
        .build()
        .expect("exception-state is well-formed")
}

/// Machine 3 (Figure 6): the critical-section state constraint.
///
/// Between `Get*Critical` and the matching `Release*Critical`, C code may
/// only call the four critical-section-insensitive functions.
pub fn critical_section() -> MachineSpec {
    MachineSpec::builder("critical-section", ConstraintClass::RuntimeState)
        .entity(EntityKind::CriticalResource)
        .state("NotCritical")
        .state("InCritical")
        .error_state(
            "Error:SensitiveCallInCritical",
            "JNI critical section violation in {function}",
        )
        .error_state(
            "Error:UnmatchedRelease",
            "unmatched critical release in {function}",
        )
        .transition("Acquire", "NotCritical", "InCritical", |t| {
            t.on_funcs(
                Direction::ReturnJavaToC,
                "GetStringCritical or GetPrimitiveArrayCritical",
                ["GetStringCritical", "GetPrimitiveArrayCritical"],
            )
        })
        .transition("Release", "InCritical", "NotCritical", |t| {
            t.on_funcs(
                Direction::ReturnJavaToC,
                "ReleaseStringCritical or ReleasePrimitiveArrayCritical",
                ["ReleaseStringCritical", "ReleasePrimitiveArrayCritical"],
            )
        })
        .transition(
            "SensitiveCall",
            "InCritical",
            "Error:SensitiveCallInCritical",
            |t| {
                t.on(
                    Direction::CallCToJava,
                    "all other JNI functions, e.g. CallVoidMethod",
                )
            },
        )
        .transition("BadRelease", "NotCritical", "Error:UnmatchedRelease", |t| {
            t.on_funcs(
                Direction::CallCToJava,
                "Release*Critical without matching acquire",
                ["ReleaseStringCritical", "ReleasePrimitiveArrayCritical"],
            )
        })
        .build()
        .expect("critical-section is well-formed")
}

/// Machine 4 (Figure 7): fixed typing constraints.
///
/// Parameters whose Java type is fixed by the function itself (the
/// `clazz` of `CallStaticVoidMethod` must be a `java.lang.Class`, the
/// `str` of `GetStringLength` a `java.lang.String`, …).
pub fn fixed_typing() -> MachineSpec {
    MachineSpec::builder("fixed-typing", ConstraintClass::Type)
        .entity(EntityKind::Reference)
        .state("Unchecked")
        .error_state(
            "Error:FixedTypeMismatch",
            "actual does not conform to the fixed formal type in {function}",
        )
        .transition("MistypedCall", "Unchecked", "Error:FixedTypeMismatch", |t| {
            t.on(
                Direction::CallCToJava,
                "JNI function defining a parameter with a fixed type, e.g. clazz of CallStaticVoidMethod",
            )
        })
        .build()
        .expect("fixed-typing is well-formed")
}

/// Machine 5 (Figure 7): entity-specific typing constraints.
///
/// Method and field IDs constrain the other parameters: the receiver must
/// conform to the declaring class, actuals to the formals, staticness must
/// match, and the ID itself must be one the JVM issued.
pub fn entity_typing() -> MachineSpec {
    MachineSpec::builder("entity-typing", ConstraintClass::Type)
        .entity(EntityKind::EntityId)
        .state("Unknown")
        .state("Recorded")
        .error_state(
            "Error:EntityTypeMismatch",
            "parameters do not conform to the entity signature in {function}",
        )
        .transition("Record", "Unknown", "Recorded", |t| {
            t.on(Direction::ReturnJavaToC, "JNI function returning an entity ID, e.g. GetMethodID")
        })
        .transition("MistypedUse", "Recorded", "Error:EntityTypeMismatch", |t| {
            t.on(
                Direction::CallCToJava,
                "JNI function defining parameters with interrelated types, e.g. clazz and method of CallStaticVoidMethod",
            )
        })
        .transition("ForgedUse", "Unknown", "Error:EntityTypeMismatch", |t| {
            t.on(Direction::CallCToJava, "JNI function taking an entity ID the JVM never issued")
        })
        .build()
        .expect("entity-typing is well-formed")
}

/// Machine 6 (Figure 7): access-control constraints.
///
/// Writes through `Set<Type>Field`/`SetStatic<Type>Field` must not target
/// final fields (visibility is deliberately not checked — Section 6.5's
/// "correctness gray zone").
pub fn access_control() -> MachineSpec {
    MachineSpec::builder("access-control", ConstraintClass::Type)
        .entity(EntityKind::EntityId)
        .state("Writable")
        .error_state(
            "Error:FinalFieldWrite",
            "assignment to final field in {function}",
        )
        .transition("FinalWrite", "Writable", "Error:FinalFieldWrite", |t| {
            t.on(
                Direction::CallCToJava,
                "Set<Type>Field or SetStatic<Type>Field",
            )
        })
        .build()
        .expect("access-control is well-formed")
}

/// Machine 7 (Figure 7): nullness constraints.
pub fn nullness() -> MachineSpec {
    MachineSpec::builder("nullness", ConstraintClass::Type)
        .entity(EntityKind::Reference)
        .state("Unchecked")
        .error_state("Error:Null", "unexpected null value passed to {function}")
        .transition("NullArgument", "Unchecked", "Error:Null", |t| {
            t.on(
                Direction::CallCToJava,
                "JNI function defining a parameter that must not be null, e.g. method of CallStaticVoidMethod",
            )
        })
        .build()
        .expect("nullness is well-formed")
}

/// Machine 8 (Figure 8): pinned-or-copied string or array constraints.
pub fn pinned_buffer() -> MachineSpec {
    MachineSpec::builder("pinned-buffer", ConstraintClass::Resource)
        .entity(EntityKind::PinnedBuffer)
        .state("BeforeAcquire")
        .state("Acquired")
        .state("Released")
        .error_state(
            "Error:DoubleFree",
            "string or array buffer released twice in {function}",
        )
        .error_state(
            "Error:Leak",
            "string or array buffer never released (program termination)",
        )
        .transition("Acquire", "BeforeAcquire", "Acquired", |t| {
            t.on_funcs(
                Direction::ReturnJavaToC,
                "Get<Type>ArrayElements and similar getter functions",
                PIN_ACQUIRE_FUNCS,
            )
        })
        .transition("Release", "Acquired", "Released", |t| {
            t.on_funcs(
                Direction::ReturnJavaToC,
                "Release<Type>ArrayElements and similar release functions",
                PIN_RELEASE_FUNCS,
            )
        })
        .transition("ReleaseAgain", "Released", "Error:DoubleFree", |t| {
            t.on_funcs(
                Direction::CallCToJava,
                "second release of the same buffer",
                PIN_RELEASE_FUNCS,
            )
        })
        .transition("LeakAtExit", "Acquired", "Error:Leak", |t| {
            t.on(
                Direction::ReturnCToJava,
                "program termination (JVMTI callback)",
            )
        })
        .build()
        .expect("pinned-buffer is well-formed")
}

/// Machine 9 (Figure 8): monitor constraints.
pub fn monitor() -> MachineSpec {
    MachineSpec::builder("monitor", ConstraintClass::Resource)
        .entity(EntityKind::Monitor)
        .state("Free")
        .state("Held")
        .error_state(
            "Error:Leak",
            "monitor still held at program termination (deadlock risk)",
        )
        .transition("Acquire", "Free", "Held", |t| {
            // The paper's figure lists the call; the encoding commits on
            // the successful return.
            t.on_funcs(Direction::CallCToJava, "MonitorEnter", ["MonitorEnter"])
                .on_funcs(
                    Direction::ReturnJavaToC,
                    "MonitorEnter returns successfully",
                    ["MonitorEnter"],
                )
        })
        .transition("Release", "Held", "Free", |t| {
            t.on_funcs(Direction::CallCToJava, "MonitorExit", ["MonitorExit"])
                .on_funcs(
                    Direction::ReturnJavaToC,
                    "MonitorExit returns successfully",
                    ["MonitorExit"],
                )
        })
        .transition("LeakAtExit", "Held", "Error:Leak", |t| {
            t.on(
                Direction::ReturnCToJava,
                "program termination (JVMTI callback)",
            )
        })
        .build()
        .expect("monitor is well-formed")
}

/// Machine 10 (Figure 8): global and weak-global reference constraints.
pub fn global_ref() -> MachineSpec {
    MachineSpec::builder("global-reference", ConstraintClass::Resource)
        .entity(EntityKind::Reference)
        .state("BeforeAcquire")
        .state("Acquired")
        .state("Released")
        .error_state(
            "Error:Dangling",
            "use of deleted global reference in {function}",
        )
        .error_state(
            "Error:Leak",
            "global reference never deleted (program termination)",
        )
        .transition("Acquire", "BeforeAcquire", "Acquired", |t| {
            t.on_funcs(
                Direction::ReturnJavaToC,
                "NewGlobalRef and NewWeakGlobalRef",
                ["NewGlobalRef", "NewWeakGlobalRef"],
            )
        })
        .transition("Release", "Acquired", "Released", |t| {
            t.on_funcs(
                Direction::ReturnJavaToC,
                "DeleteGlobalRef and DeleteWeakGlobalRef",
                ["DeleteGlobalRef", "DeleteWeakGlobalRef"],
            )
        })
        .transition("UseAfterRelease", "Released", "Error:Dangling", |t| {
            t.on(
                Direction::CallCToJava,
                "JNI function taking reference, e.g. CallVoidMethod",
            )
            .on(
                Direction::ReturnCToJava,
                "native method returning reference",
            )
        })
        .transition("LeakAtExit", "Acquired", "Error:Leak", |t| {
            t.on(
                Direction::ReturnCToJava,
                "program termination (JVMTI callback)",
            )
        })
        .build()
        .expect("global-reference is well-formed")
}

/// Machine 11 (Figures 2 and 8): local reference constraints.
pub fn local_ref() -> MachineSpec {
    MachineSpec::builder("local-reference", ConstraintClass::Resource)
        .entity(EntityKind::Reference)
        .state("BeforeAcquire")
        .state("Acquired")
        .state("Released")
        .error_state(
            "Error:Dangling",
            "use of dangling local reference in {function}",
        )
        .error_state(
            "Error:DoubleFree",
            "local reference deleted twice in {function}",
        )
        .error_state(
            "Error:Overflow",
            "local reference frame exceeds its capacity in {function}",
        )
        .error_state(
            "Error:FrameLeak",
            "local frame pushed but never popped before return",
        )
        .transition("Acquire", "BeforeAcquire", "Acquired", |t| {
            t.on(
                Direction::CallJavaToC,
                "native method taking reference, e.g. Java_Callback_bind",
            )
            .on(
                Direction::ReturnJavaToC,
                "JNI function returning reference, e.g. GetObjectField",
            )
        })
        .transition("Release", "Acquired", "Released", |t| {
            t.on(Direction::ReturnJavaToC, "DeleteLocalRef or PopLocalFrame")
                .on(Direction::ReturnCToJava, "return from any native method")
        })
        .transition("UseAfterRelease", "Released", "Error:Dangling", |t| {
            t.on(
                Direction::CallCToJava,
                "JNI function taking reference, e.g. CallStaticVoidMethodA",
            )
            .on(
                Direction::ReturnCToJava,
                "native method returning reference, e.g. Class.getClassContext",
            )
        })
        .transition("DeleteAgain", "Released", "Error:DoubleFree", |t| {
            t.on(
                Direction::CallCToJava,
                "DeleteLocalRef of an already-released reference",
            )
        })
        .transition("AcquireBeyondCapacity", "Acquired", "Error:Overflow", |t| {
            t.on(
                Direction::ReturnJavaToC,
                "JNI function returning reference into a full frame",
            )
        })
        .transition(
            "UnpoppedFrameAtReturn",
            "Acquired",
            "Error:FrameLeak",
            |t| {
                t.on(
                    Direction::ReturnCToJava,
                    "native method returns with frames still pushed",
                )
            },
        )
        .build()
        .expect("local-reference is well-formed")
}

/// All eleven machines, in the paper's presentation order.
pub fn machines() -> Vec<MachineSpec> {
    vec![
        jnienv_state(),
        exception_state(),
        critical_section(),
        fixed_typing(),
        entity_typing(),
        access_control(),
        nullness(),
        pinned_buffer(),
        monitor(),
        global_ref(),
        local_ref(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_eleven_machines() {
        assert_eq!(
            machines().len(),
            11,
            "the paper specifies eleven state machines"
        );
    }

    #[test]
    fn three_constraint_classes_partition_the_machines() {
        let ms = machines();
        let runtime = ms
            .iter()
            .filter(|m| m.class() == ConstraintClass::RuntimeState)
            .count();
        let ty = ms
            .iter()
            .filter(|m| m.class() == ConstraintClass::Type)
            .count();
        let res = ms
            .iter()
            .filter(|m| m.class() == ConstraintClass::Resource)
            .count();
        assert_eq!(
            (runtime, ty, res),
            (3, 4, 4),
            "3 JVM-state + 4 type + 4 resource"
        );
    }

    #[test]
    fn every_machine_has_an_error_state() {
        for m in machines() {
            assert!(
                m.error_states().count() >= 1,
                "{} lacks an error state",
                m.name()
            );
        }
    }

    #[test]
    fn every_state_is_reachable() {
        for m in machines() {
            let reach = m.reachable_states();
            assert_eq!(
                reach.len(),
                m.states().len(),
                "{} has unreachable states",
                m.name()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let ms = machines();
        let mut names: Vec<_> = ms.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ms.len());
    }

    #[test]
    fn local_ref_machine_matches_figure_2() {
        let m = local_ref();
        let acq = m.transition_by_name("Acquire").expect("Acquire exists");
        assert_eq!(
            acq.triggers().len(),
            2,
            "Figure 2: acquire at two language transitions"
        );
        let use_after = m.transition_by_name("UseAfterRelease").expect("exists");
        assert_eq!(m.state(use_after.to()).name(), "Error:Dangling");
    }

    #[test]
    fn diagrams_render() {
        for m in machines() {
            let dot = jinn_fsm::dot(&m);
            assert!(dot.contains(m.name()));
            let table = jinn_fsm::ascii_table(&m);
            assert!(table.contains("State transition"));
        }
    }
}
