//! Raw (unchecked) JNI function semantics.
//!
//! This module is the "production JVM" side of each JNI function: it does
//! exactly what the JNI specification promises and **no more**. Where the
//! specification leaves behaviour undefined — dangling references, type
//! confusion, calls with exceptions pending, critical-section violations —
//! it consults the VM's [`crate::VendorModel`] to decide between silently
//! proceeding, crashing, NPE-ing, or deadlocking, which is how the
//! "Default Behavior" columns of the paper's Table 1 are reproduced.

use minijvm::class::names;
use minijvm::{
    Body, FieldId, FieldSlot, FieldType, JRef, JValue, MethodBody, MethodId, MonitorError, PinData,
    PinKind, PrimArray, PrimType, RefKind, Slot,
};

use crate::env::{Abort, JniEnv, RawResult, JNI_ABORT};
use crate::error::JniError;
use crate::interpose::{JniArg, JniRet, UbSituation};
use crate::registry::{CallMode, CallRet, FuncId, FuncSpec, Op, ParamKind};

// ----- argument extraction ---------------------------------------------

/// Whether `args` fit `spec`'s parameters: one argument per parameter,
/// each of a kind that the accessor below reading that parameter kind
/// accepts. The raw semantics panic on any other argument, so a replay
/// must reject it before it reaches them.
pub fn args_fit(spec: &FuncSpec, args: &[JniArg]) -> bool {
    args.len() == spec.params.len()
        && spec.params.iter().zip(args).all(|(p, a)| match p.kind {
            ParamKind::Ref => matches!(a, JniArg::Ref(_)),
            ParamKind::MethodId => matches!(a, JniArg::Method(_)),
            ParamKind::FieldId => matches!(a, JniArg::Field(_)),
            ParamKind::Prim(_) => matches!(a, JniArg::Val(_) | JniArg::Ref(_)),
            ParamKind::Size | ParamKind::Mode => matches!(
                a,
                JniArg::Size(_) | JniArg::Val(JValue::Int(_) | JValue::Long(_))
            ),
            ParamKind::Name => matches!(a, JniArg::Name(_) | JniArg::Opaque),
            ParamKind::Args => matches!(a, JniArg::Args(_) | JniArg::Opaque),
            // Read with `arg_buf` or a match with a fallback: anything goes.
            ParamKind::Buffer | ParamKind::IsCopyOut | ParamKind::VmOut => true,
        })
}

fn arg_ref(args: &[JniArg], i: usize) -> JRef {
    match args.get(i) {
        Some(JniArg::Ref(r)) => *r,
        other => panic!("argument {i} should be a reference, got {other:?}"),
    }
}

fn arg_method(args: &[JniArg], i: usize) -> MethodId {
    match args.get(i) {
        Some(JniArg::Method(m)) => *m,
        other => panic!("argument {i} should be a method id, got {other:?}"),
    }
}

fn arg_field(args: &[JniArg], i: usize) -> FieldId {
    match args.get(i) {
        Some(JniArg::Field(f)) => *f,
        other => panic!("argument {i} should be a field id, got {other:?}"),
    }
}

fn arg_size(args: &[JniArg], i: usize) -> i64 {
    match args.get(i) {
        Some(JniArg::Size(s)) => *s,
        Some(JniArg::Val(JValue::Int(v))) => *v as i64,
        Some(JniArg::Val(JValue::Long(v))) => *v,
        other => panic!("argument {i} should be a size, got {other:?}"),
    }
}

fn arg_name(args: &[JniArg], i: usize) -> Option<&str> {
    match args.get(i) {
        Some(JniArg::Name(s)) => Some(s),
        Some(JniArg::Opaque) | None => None,
        other => panic!("argument {i} should be a name, got {other:?}"),
    }
}

fn arg_vargs(args: &[JniArg], i: usize) -> Vec<JValue> {
    match args.get(i) {
        Some(JniArg::Args(v)) => v.clone(),
        Some(JniArg::Opaque) | None => Vec::new(),
        other => panic!("argument {i} should be a jvalue array, got {other:?}"),
    }
}

fn arg_val(args: &[JniArg], i: usize) -> JValue {
    match args.get(i) {
        Some(JniArg::Val(v)) => *v,
        Some(JniArg::Ref(r)) => JValue::Ref(*r),
        other => panic!("argument {i} should be a value, got {other:?}"),
    }
}

fn arg_buf(args: &[JniArg], i: usize) -> Option<minijvm::PinId> {
    match args.get(i) {
        Some(JniArg::Buf(p)) => Some(*p),
        _ => None,
    }
}

// ----- dispatch ----------------------------------------------------------

/// Executes the raw semantics of `func`.
pub(crate) fn execute(env: &mut JniEnv<'_>, func: FuncId, args: &[JniArg]) -> RawResult<JniRet> {
    let spec = func.spec();

    // JVM-state preconditions the *unchecked* JVM does not verify but
    // whose violation changes its behaviour (Table 1 defaults).
    let thread_env = env.jvm().thread(env.thread()).env();
    if env.presented_env() != thread_env {
        env.ub_continue(UbSituation::EnvMismatch { func: spec }, &spec.name)?;
    }
    if env.jvm().thread(env.thread()).in_critical_section() && !spec.critical_ok {
        env.ub_continue(UbSituation::CriticalViolation { func: spec }, &spec.name)?;
    }
    if env.jvm().thread(env.thread()).pending_exception().is_some() && !spec.exception_oblivious {
        env.ub_continue(UbSituation::ExceptionPending { func: spec }, &spec.name)?;
    }

    run_op(env, spec, args)
}

#[allow(clippy::too_many_lines)]
fn run_op(env: &mut JniEnv<'_>, spec: &'static FuncSpec, args: &[JniArg]) -> RawResult<JniRet> {
    let thread = env.thread();
    match spec.op {
        Op::GetVersion => Ok(JniRet::Val(JValue::Int(0x0001_0006))),

        Op::DefineClass => {
            let name = arg_name(args, 0).unwrap_or("<anonymous>").to_string();
            let class = match env.jvm().find_class(&name) {
                Some(c) => c,
                None => match env.jvm_mut().registry_mut().define(&name).build() {
                    Ok(c) => c,
                    Err(e) => {
                        return Err(Abort::Hard(
                            env.java_throw(names::NO_CLASS_DEF, &e.to_string()),
                        ))
                    }
                },
            };
            let mirror = env.jvm_mut().mirror_oop(class);
            Ok(JniRet::Ref(env.make_local(mirror)))
        }

        Op::FindClass => {
            let name = arg_name(args, 0).unwrap_or_default().to_string();
            match env.jvm().find_class(&name) {
                Some(class) => {
                    let mirror = env.jvm_mut().mirror_oop(class);
                    Ok(JniRet::Ref(env.make_local(mirror)))
                }
                None => Err(Abort::Hard(env.java_throw(names::NO_CLASS_DEF, &name))),
            }
        }

        Op::FromReflectedMethod | Op::FromReflectedField => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "method")?;
            let class = env.jvm().class_of(oop);
            let class_name = env.jvm().registry().class(class).name().to_string();
            let want_method = matches!(spec.op, Op::FromReflectedMethod);
            let ok_type = if want_method {
                class_name == names::REFLECT_METHOD || class_name == names::REFLECT_CONSTRUCTOR
            } else {
                class_name == names::REFLECT_FIELD
            };
            if !ok_type {
                env.ub_or_skip(
                    UbSituation::TypeConfusion {
                        func: spec,
                        expected: "reflected entity",
                    },
                    &spec.name,
                )?;
                return Err(Abort::Skip);
            }
            let fid = env
                .jvm()
                .registry()
                .resolve_field(class, "slot", "I", false)
                .expect("reflect classes have slot");
            let Slot::Int(slot) = env.jvm().get_instance_field(oop, fid) else {
                return Err(Abort::Skip);
            };
            if want_method {
                Ok(JniRet::Method(MethodId::forged(slot as u32 as u64)))
            } else {
                Ok(JniRet::Field(FieldId::forged(slot as u32 as u64)))
            }
        }

        Op::ToReflectedMethod | Op::ToReflectedField => {
            let _cls = env.expect_class(arg_ref(args, 0), spec, "cls")?;
            let want_method = matches!(spec.op, Op::ToReflectedMethod);
            let (slot_bits, mirror_class_name) = if want_method {
                let mid = arg_method(args, 1);
                if env.jvm().registry().method(mid).is_none() {
                    env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
                    return Err(Abort::Skip);
                }
                (mid.index() as i32, names::REFLECT_METHOD)
            } else {
                let fid = arg_field(args, 1);
                if env.jvm().registry().field(fid).is_none() {
                    env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
                    return Err(Abort::Skip);
                }
                (fid.index() as i32, names::REFLECT_FIELD)
            };
            let rclass = env
                .jvm()
                .find_class(mirror_class_name)
                .expect("bootstrapped");
            let obj = env.jvm_mut().alloc_object(rclass);
            let fid = env
                .jvm()
                .registry()
                .resolve_field(rclass, "slot", "I", false)
                .expect("slot field");
            env.jvm_mut()
                .set_instance_field(obj, fid, Slot::Int(slot_bits));
            Ok(JniRet::Ref(env.make_local(obj)))
        }

        Op::GetSuperclass => {
            let class = env.expect_class(arg_ref(args, 0), spec, "sub")?;
            match env.jvm().registry().class(class).superclass() {
                Some(sup) => {
                    let mirror = env.jvm_mut().mirror_oop(sup);
                    Ok(JniRet::Ref(env.make_local(mirror)))
                }
                None => Ok(JniRet::Ref(JRef::NULL)),
            }
        }

        Op::IsAssignableFrom => {
            let sub = env.expect_class(arg_ref(args, 0), spec, "sub")?;
            let sup = env.expect_class(arg_ref(args, 1), spec, "sup")?;
            Ok(JniRet::Val(JValue::Bool(
                env.jvm().registry().is_assignable(sub, sup),
            )))
        }

        Op::Throw => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "obj")?;
            env.jvm_mut().throw_existing(thread, oop);
            Ok(JniRet::Size(0))
        }

        Op::ThrowNew => {
            let class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
            let msg = arg_name(args, 1).unwrap_or("").to_string();
            let class_name = env.jvm().registry().class(class).name().to_string();
            env.jvm_mut().throw_new(thread, &class_name, &msg);
            Ok(JniRet::Size(0))
        }

        Op::ExceptionOccurred => match env.jvm().thread(thread).pending_exception() {
            Some(exc) => Ok(JniRet::Ref(env.make_local(exc))),
            None => Ok(JniRet::Ref(JRef::NULL)),
        },

        Op::ExceptionDescribe => {
            if let Some(exc) = env.jvm().thread(thread).pending_exception() {
                let desc = env.jvm().describe_exception(exc);
                env.log_line(format!("Exception description: {desc}"));
            }
            Ok(JniRet::Void)
        }

        Op::ExceptionClear => {
            env.jvm_mut().thread_mut(thread).set_pending_exception(None);
            Ok(JniRet::Void)
        }

        Op::ExceptionCheck => Ok(JniRet::Val(JValue::Bool(
            env.jvm().thread(thread).pending_exception().is_some(),
        ))),

        Op::FatalError => {
            let msg = arg_name(args, 0).unwrap_or("FatalError").to_string();
            Err(Abort::Hard(JniError::Death(minijvm::JvmDeath::fatal(msg))))
        }

        Op::PushLocalFrame => {
            let cap = arg_size(args, 0).max(0) as usize;
            env.jvm_mut().thread_mut(thread).push_frame(cap);
            Ok(JniRet::Size(0))
        }

        Op::PopLocalFrame => {
            let result = arg_ref(args, 0);
            let oop = if result.is_null() {
                None
            } else {
                env.raw_resolve(result, spec)?
            };
            if env.jvm_mut().thread_mut(thread).pop_frame().is_none() {
                // Popping the base frame is undefined.
                env.ub_or_skip(
                    UbSituation::RefFault {
                        fault: minijvm::RefFault::OutOfRange {
                            kind: RefKind::Local,
                        },
                        func: spec,
                    },
                    &spec.name,
                )?;
                return Err(Abort::Skip);
            }
            match oop {
                Some(o) => Ok(JniRet::Ref(env.make_local(o))),
                None => Ok(JniRet::Ref(JRef::NULL)),
            }
        }

        Op::NewGlobalRef => match env.raw_resolve(arg_ref(args, 0), spec)? {
            Some(oop) => Ok(JniRet::Ref(env.jvm_mut().new_global(oop))),
            None => Ok(JniRet::Ref(JRef::NULL)),
        },

        Op::DeleteGlobalRef => {
            let r = arg_ref(args, 0);
            if r.kind() != RefKind::Global {
                // Deleting a non-global through DeleteGlobalRef is UB.
                env.ub_or_skip(
                    UbSituation::TypeConfusion {
                        func: spec,
                        expected: "global reference",
                    },
                    &spec.name,
                )?;
                return Err(Abort::Skip);
            }
            if let Err(fault) = env.jvm_mut().delete_global(r) {
                env.ub_ref_fault(fault, spec)?;
            }
            Ok(JniRet::Void)
        }

        Op::NewWeakGlobalRef => match env.raw_resolve(arg_ref(args, 0), spec)? {
            Some(oop) => Ok(JniRet::Ref(env.jvm_mut().new_weak_global(oop))),
            None => Ok(JniRet::Ref(JRef::NULL)),
        },

        Op::DeleteWeakGlobalRef => {
            let r = arg_ref(args, 0);
            if r.kind() != RefKind::WeakGlobal {
                env.ub_or_skip(
                    UbSituation::TypeConfusion {
                        func: spec,
                        expected: "weak global reference",
                    },
                    &spec.name,
                )?;
                return Err(Abort::Skip);
            }
            if let Err(fault) = env.jvm_mut().delete_weak_global(r) {
                env.ub_ref_fault(fault, spec)?;
            }
            Ok(JniRet::Void)
        }

        Op::DeleteLocalRef => {
            let r = arg_ref(args, 0);
            if r.kind() != RefKind::Local {
                env.ub_or_skip(
                    UbSituation::TypeConfusion {
                        func: spec,
                        expected: "local reference",
                    },
                    &spec.name,
                )?;
                return Err(Abort::Skip);
            }
            let res = env.jvm_mut().thread_mut(thread).delete_local(r);
            if let Err(fault) = res {
                env.ub_ref_fault(fault, spec)?;
            }
            Ok(JniRet::Void)
        }

        Op::IsSameObject => {
            let a = env.raw_resolve(arg_ref(args, 0), spec)?;
            let b = env.raw_resolve(arg_ref(args, 1), spec)?;
            let same = match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => env.jvm().heap().id_of(x) == env.jvm().heap().id_of(y),
                _ => false,
            };
            Ok(JniRet::Val(JValue::Bool(same)))
        }

        Op::NewLocalRef => match env.raw_resolve(arg_ref(args, 0), spec)? {
            Some(oop) => Ok(JniRet::Ref(env.make_local(oop))),
            None => Ok(JniRet::Ref(JRef::NULL)),
        },

        Op::EnsureLocalCapacity => {
            let cap = arg_size(args, 0).max(0) as usize;
            env.jvm_mut().thread_mut(thread).ensure_capacity(cap);
            Ok(JniRet::Size(0))
        }

        Op::AllocObject => {
            let class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
            let oop = env.jvm_mut().alloc_object(class);
            Ok(JniRet::Ref(env.make_local(oop)))
        }

        Op::NewObject => {
            let class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
            let mid = arg_method(args, 1);
            let vargs = arg_vargs(args, 2);
            let oop = env.jvm_mut().alloc_object(class);
            let this = env.make_local(oop);
            // Run the constructor if one is bound; absent constructors are
            // tolerated (simulation classes usually have none).
            if let Some(info) = env.jvm().registry().method(mid).cloned() {
                let mut full = vec![JValue::Ref(this)];
                full.extend(vargs);
                match info.body {
                    MethodBody::Managed(_) => {
                        env.call_managed_method(mid, &full).map_err(Abort::Hard)?;
                    }
                    MethodBody::Native(Some(_)) => {
                        env.call_native_method(mid, &full).map_err(Abort::Hard)?;
                    }
                    _ => {}
                }
            }
            Ok(JniRet::Ref(this))
        }

        Op::GetObjectClass => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "obj")?;
            let class = env.jvm().class_of(oop);
            let mirror = env.jvm_mut().mirror_oop(class);
            Ok(JniRet::Ref(env.make_local(mirror)))
        }

        Op::IsInstanceOf => {
            let class = env.expect_class(arg_ref(args, 1), spec, "clazz")?;
            match env.raw_resolve(arg_ref(args, 0), spec)? {
                // null is an instance of every type, per the JNI spec.
                None => Ok(JniRet::Val(JValue::Bool(true))),
                Some(oop) => Ok(JniRet::Val(JValue::Bool(
                    env.jvm().is_instance_of(oop, class),
                ))),
            }
        }

        Op::GetObjectRefType => {
            let r = arg_ref(args, 0);
            let ty = match r.kind() {
                RefKind::Null => 0,
                RefKind::Local => {
                    if env.jvm().resolve_ignoring_thread(r).is_ok() {
                        1
                    } else {
                        0
                    }
                }
                RefKind::Global => {
                    if env.jvm().resolve(thread, r).is_ok() {
                        2
                    } else {
                        0
                    }
                }
                RefKind::WeakGlobal => {
                    if env.jvm().resolve(thread, r).is_ok() {
                        3
                    } else {
                        0
                    }
                }
            };
            Ok(JniRet::Val(JValue::Int(ty)))
        }

        Op::GetMethodId { stat } => {
            let class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
            let name = arg_name(args, 1).unwrap_or_default().to_string();
            let sig = arg_name(args, 2).unwrap_or_default().to_string();
            match env
                .jvm()
                .registry()
                .resolve_method(class, &name, &sig, stat)
            {
                Ok(mid) => Ok(JniRet::Method(mid)),
                Err(e) => Err(Abort::Hard(
                    env.java_throw(names::NO_SUCH_METHOD, &e.to_string()),
                )),
            }
        }

        Op::GetFieldId { stat } => {
            let class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
            let name = arg_name(args, 1).unwrap_or_default().to_string();
            let sig = arg_name(args, 2).unwrap_or_default().to_string();
            match env.jvm().registry().resolve_field(class, &name, &sig, stat) {
                Ok(fid) => Ok(JniRet::Field(fid)),
                Err(e) => Err(Abort::Hard(
                    env.java_throw(names::NO_SUCH_FIELD, &e.to_string()),
                )),
            }
        }

        Op::Call { mode, ret } => run_call(env, spec, args, mode, ret),

        Op::GetField { stat, ty } => run_get_field(env, spec, args, stat, ty),
        Op::SetField { stat, ty } => run_set_field(env, spec, args, stat, ty),

        Op::NewString => {
            let chars = match args.first() {
                Some(JniArg::Chars(c)) => c.clone(),
                _ => Vec::new(),
            };
            let oop = env.jvm_mut().alloc_string_utf16(chars);
            Ok(JniRet::Ref(env.make_local(oop)))
        }

        Op::GetStringLength => {
            let chars = expect_string(env, spec, arg_ref(args, 0))?;
            Ok(JniRet::Size(chars.len() as i64))
        }

        Op::GetStringChars => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "str")?;
            let chars = expect_string_at(env, spec, oop)?;
            let id = env.jvm().heap().id_of(oop);
            // NOT NUL-terminated — pitfall 8 lives here.
            let pin =
                env.jvm_mut()
                    .pins_mut()
                    .acquire(id, PinKind::StringChars, PinData::Utf16(chars));
            Ok(JniRet::Buf(pin))
        }

        Op::ReleaseStringChars => release_pin(env, spec, args, PinKind::StringChars),

        Op::NewStringUtf => {
            let s = arg_name(args, 0).unwrap_or_default().to_string();
            let oop = env.jvm_mut().alloc_string(&s);
            Ok(JniRet::Ref(env.make_local(oop)))
        }

        Op::GetStringUtfLength => {
            let chars = expect_string(env, spec, arg_ref(args, 0))?;
            Ok(JniRet::Size(minijvm::mutf8::encode(&chars).len() as i64))
        }

        Op::GetStringUtfChars => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "str")?;
            let chars = expect_string_at(env, spec, oop)?;
            let id = env.jvm().heap().id_of(oop);
            let mut bytes = minijvm::mutf8::encode(&chars);
            bytes.push(0); // modified-UTF-8 form IS NUL-terminated
            let pin =
                env.jvm_mut()
                    .pins_mut()
                    .acquire(id, PinKind::StringUtfChars, PinData::Utf8(bytes));
            Ok(JniRet::Buf(pin))
        }

        Op::ReleaseStringUtfChars => release_pin(env, spec, args, PinKind::StringUtfChars),

        Op::GetStringRegion | Op::GetStringUtfRegion => {
            let chars = expect_string(env, spec, arg_ref(args, 0))?;
            let start = arg_size(args, 1);
            let len = arg_size(args, 2);
            if start < 0 || len < 0 || (start + len) as usize > chars.len() {
                return Err(Abort::Hard(env.java_throw(
                    names::STRING_INDEX,
                    &format!(
                        "region [{start}, {}) of string length {}",
                        start + len,
                        chars.len()
                    ),
                )));
            }
            let slice = &chars[start as usize..(start + len) as usize];
            if matches!(spec.op, Op::GetStringRegion) {
                Ok(JniRet::Chars(slice.to_vec()))
            } else {
                Ok(JniRet::Bytes(minijvm::mutf8::encode(slice)))
            }
        }

        Op::GetStringCritical => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "string")?;
            let chars = expect_string_at(env, spec, oop)?;
            let id = env.jvm().heap().id_of(oop);
            let pin = env.jvm_mut().pins_mut().acquire(
                id,
                PinKind::StringCritical,
                PinData::Utf16(chars),
            );
            env.jvm_mut().thread_mut(thread).enter_critical(id);
            Ok(JniRet::Buf(pin))
        }

        Op::ReleaseStringCritical => {
            let result = release_pin(env, spec, args, PinKind::StringCritical);
            if let Some(pin) = arg_buf(args, 1) {
                if let Some(id) = env.jvm().pins().object(pin) {
                    env.jvm_mut().thread_mut(thread).exit_critical(id);
                }
            }
            result
        }

        Op::GetArrayLength => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "array")?;
            let len = match &env.jvm().heap().get(oop).body {
                Body::PrimArray(a) => a.len(),
                Body::RefArray { elems } => elems.len(),
                _ => {
                    env.ub_or_skip(
                        UbSituation::TypeConfusion {
                            func: spec,
                            expected: "array",
                        },
                        &spec.name,
                    )?;
                    return Err(Abort::Skip);
                }
            };
            Ok(JniRet::Size(len as i64))
        }

        Op::NewObjectArray => {
            let len = arg_size(args, 0).max(0) as usize;
            let class = env.expect_class(arg_ref(args, 1), spec, "clazz")?;
            let elem_name = env.jvm().registry().class(class).name().to_string();
            let elem_ty = if elem_name.starts_with('[') {
                FieldType::parse(&elem_name).unwrap_or(FieldType::object(names::OBJECT))
            } else {
                FieldType::object(elem_name)
            };
            let arr = env.jvm_mut().alloc_ref_array(elem_ty, len);
            let init = env.raw_resolve(arg_ref(args, 2), spec)?;
            if let Some(init_oop) = init {
                if let Body::RefArray { elems } = &mut env.jvm_mut().heap_mut().get_mut(arr).body {
                    for e in elems.iter_mut() {
                        *e = Some(init_oop);
                    }
                }
            }
            Ok(JniRet::Ref(env.make_local(arr)))
        }

        Op::GetObjectArrayElement => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "array")?;
            let index = arg_size(args, 1);
            let elem = match &env.jvm().heap().get(oop).body {
                Body::RefArray { elems } => {
                    if index < 0 || index as usize >= elems.len() {
                        return Err(Abort::Hard(env.java_throw(
                            names::ARRAY_INDEX,
                            &format!("index {index} of array length {}", elems.len()),
                        )));
                    }
                    elems[index as usize]
                }
                _ => {
                    env.ub_or_skip(
                        UbSituation::TypeConfusion {
                            func: spec,
                            expected: "object array",
                        },
                        &spec.name,
                    )?;
                    return Err(Abort::Skip);
                }
            };
            match elem {
                Some(e) => Ok(JniRet::Ref(env.make_local(e))),
                None => Ok(JniRet::Ref(JRef::NULL)),
            }
        }

        Op::SetObjectArrayElement => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "array")?;
            let index = arg_size(args, 1);
            let value = env.raw_resolve(arg_ref(args, 2), spec)?;
            match &mut env.jvm_mut().heap_mut().get_mut(oop).body {
                Body::RefArray { elems } => {
                    if index < 0 || index as usize >= elems.len() {
                        let len = elems.len();
                        return Err(Abort::Hard(env.java_throw(
                            names::ARRAY_INDEX,
                            &format!("index {index} of array length {len}"),
                        )));
                    }
                    elems[index as usize] = value;
                    Ok(JniRet::Void)
                }
                _ => {
                    env.ub_or_skip(
                        UbSituation::TypeConfusion {
                            func: spec,
                            expected: "object array",
                        },
                        &spec.name,
                    )?;
                    Err(Abort::Skip)
                }
            }
        }

        Op::NewPrimArray(ty) => {
            let len = arg_size(args, 0).max(0) as usize;
            let arr = env.jvm_mut().alloc_prim_array(ty, len);
            Ok(JniRet::Ref(env.make_local(arr)))
        }

        Op::GetArrayElements(ty) => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "array")?;
            let data = expect_prim_array(env, spec, oop, ty)?;
            let id = env.jvm().heap().id_of(oop);
            let pin =
                env.jvm_mut()
                    .pins_mut()
                    .acquire(id, PinKind::ArrayElements, PinData::Prim(data));
            Ok(JniRet::Buf(pin))
        }

        Op::ReleaseArrayElements(_ty) => {
            let mode = arg_size(args, 2);
            release_array_pin(env, spec, args, PinKind::ArrayElements, mode)
        }

        Op::GetArrayRegion(ty) => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "array")?;
            let data = expect_prim_array(env, spec, oop, ty)?;
            let start = arg_size(args, 1);
            let len = arg_size(args, 2);
            if start < 0 || len < 0 || (start + len) as usize > data.len() {
                return Err(Abort::Hard(env.java_throw(
                    names::ARRAY_INDEX,
                    &format!(
                        "region [{start}, {}) of array length {}",
                        start + len,
                        data.len()
                    ),
                )));
            }
            let mut out = PrimArray::zeroed(ty, len as usize);
            for i in 0..len as usize {
                out.set(i, data.get(start as usize + i));
            }
            Ok(JniRet::Prims(out))
        }

        Op::SetArrayRegion(ty) => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "array")?;
            let start = arg_size(args, 1);
            let len = arg_size(args, 2);
            let src = match args.get(3) {
                Some(JniArg::Prims(p)) => p.clone(),
                _ => PrimArray::zeroed(ty, 0),
            };
            match &mut env.jvm_mut().heap_mut().get_mut(oop).body {
                Body::PrimArray(a) if a.elem_type() == ty => {
                    if start < 0 || len < 0 || (start + len) as usize > a.len() {
                        let alen = a.len();
                        return Err(Abort::Hard(env.java_throw(
                            names::ARRAY_INDEX,
                            &format!("region [{start}, {}) of array length {alen}", start + len),
                        )));
                    }
                    for i in 0..(len as usize).min(src.len()) {
                        a.set(start as usize + i, src.get(i));
                    }
                    Ok(JniRet::Void)
                }
                _ => {
                    env.ub_or_skip(
                        UbSituation::TypeConfusion {
                            func: spec,
                            expected: "primitive array",
                        },
                        &spec.name,
                    )?;
                    Err(Abort::Skip)
                }
            }
        }

        Op::GetPrimitiveArrayCritical => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "array")?;
            let data = match &env.jvm().heap().get(oop).body {
                Body::PrimArray(a) => a.clone(),
                _ => {
                    env.ub_or_skip(
                        UbSituation::TypeConfusion {
                            func: spec,
                            expected: "primitive array",
                        },
                        &spec.name,
                    )?;
                    return Err(Abort::Skip);
                }
            };
            let id = env.jvm().heap().id_of(oop);
            let pin =
                env.jvm_mut()
                    .pins_mut()
                    .acquire(id, PinKind::ArrayCritical, PinData::Prim(data));
            env.jvm_mut().thread_mut(thread).enter_critical(id);
            Ok(JniRet::Buf(pin))
        }

        Op::ReleasePrimitiveArrayCritical => {
            let mode = arg_size(args, 2);
            let result = release_array_pin(env, spec, args, PinKind::ArrayCritical, mode);
            if let Some(pin) = arg_buf(args, 1) {
                if let Some(id) = env.jvm().pins().object(pin) {
                    env.jvm_mut().thread_mut(thread).exit_critical(id);
                }
            }
            result
        }

        Op::RegisterNatives => {
            // The actual closure binding happens in the typed wrapper
            // (closures cannot travel through the generic argument
            // representation); the raw semantics validate the class.
            let _class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
            Ok(JniRet::Size(0))
        }

        Op::UnregisterNatives => {
            let class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
            env.jvm_mut().registry_mut().unbind_natives(class);
            Ok(JniRet::Size(0))
        }

        Op::MonitorEnter => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "obj")?;
            match env.jvm_mut().monitor_enter(thread, oop) {
                Ok(()) => Ok(JniRet::Size(0)),
                Err(MonitorError::WouldBlock { owner }) => {
                    Err(Abort::Hard(JniError::Death(minijvm::JvmDeath::deadlock(
                        format!("MonitorEnter would block on monitor owned by {owner}"),
                    ))))
                }
                Err(MonitorError::NotOwner) => unreachable!("enter cannot fail with NotOwner"),
            }
        }

        Op::MonitorExit => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "obj")?;
            match env.jvm_mut().monitor_exit(thread, oop) {
                Ok(()) => Ok(JniRet::Size(0)),
                Err(_) => Err(Abort::Hard(
                    env.java_throw(names::ILLEGAL_MONITOR, "thread does not own monitor"),
                )),
            }
        }

        Op::GetJavaVm => Ok(JniRet::Size(0)),

        Op::NewDirectByteBuffer => {
            let address = arg_val(args, 0).as_long().unwrap_or(0);
            let capacity = arg_val(args, 1).as_long().unwrap_or(0);
            let class = env
                .jvm()
                .find_class(names::DIRECT_BYTE_BUFFER)
                .expect("bootstrapped");
            let oop = env.jvm_mut().alloc_object(class);
            let fa = env
                .jvm()
                .registry()
                .resolve_field(class, "address", "J", false)
                .expect("address field");
            let fc = env
                .jvm()
                .registry()
                .resolve_field(class, "capacity", "J", false)
                .expect("capacity field");
            env.jvm_mut()
                .set_instance_field(oop, fa, Slot::Long(address));
            env.jvm_mut()
                .set_instance_field(oop, fc, Slot::Long(capacity));
            Ok(JniRet::Ref(env.make_local(oop)))
        }

        Op::GetDirectBufferAddress | Op::GetDirectBufferCapacity => {
            let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "buf")?;
            let class = env.jvm().class_of(oop);
            if env.jvm().registry().class(class).name() != names::DIRECT_BYTE_BUFFER {
                env.ub_or_skip(
                    UbSituation::TypeConfusion {
                        func: spec,
                        expected: "direct buffer",
                    },
                    &spec.name,
                )?;
                return Err(Abort::Skip);
            }
            let field = if matches!(spec.op, Op::GetDirectBufferAddress) {
                "address"
            } else {
                "capacity"
            };
            let fid = env
                .jvm()
                .registry()
                .resolve_field(class, field, "J", false)
                .expect("buffer fields");
            let Slot::Long(v) = env.jvm().get_instance_field(oop, fid) else {
                return Err(Abort::Skip);
            };
            Ok(JniRet::Val(JValue::Long(v)))
        }
    }
}

// ----- family implementations -------------------------------------------

fn run_call(
    env: &mut JniEnv<'_>,
    spec: &'static FuncSpec,
    args: &[JniArg],
    mode: CallMode,
    ret: CallRet,
) -> RawResult<JniRet> {
    let (this_ref, mid, vargs) = match mode {
        CallMode::Virtual => (
            Some(arg_ref(args, 0)),
            arg_method(args, 1),
            arg_vargs(args, 2),
        ),
        CallMode::Nonvirtual => {
            // clazz (args[1]) names the dispatch class; the raw JVM trusts
            // the method id.
            (
                Some(arg_ref(args, 0)),
                arg_method(args, 2),
                arg_vargs(args, 3),
            )
        }
        CallMode::Static => (None, arg_method(args, 1), arg_vargs(args, 2)),
    };

    let Some(info) = env.jvm().registry().method(mid).cloned() else {
        env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
        return Err(Abort::Skip);
    };

    // Resolve the receiver / class argument. The raw JVM does NOT check
    // that the receiver conforms to the method's class, that staticness
    // matches, or that the named class declares the method (the Eclipse
    // SWT bug of Section 6.4.3 survives precisely because of this).
    let mut full_args = Vec::with_capacity(vargs.len() + 1);
    let target_mid = match mode {
        CallMode::Static => {
            let _class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
            mid
        }
        CallMode::Nonvirtual => {
            let this = arg_ref(args, 0);
            env.raw_resolve_nonnull(this, spec, "obj")?;
            let _class = env.expect_class(arg_ref(args, 1), spec, "clazz")?;
            full_args.push(JValue::Ref(this));
            mid
        }
        CallMode::Virtual => {
            let this = this_ref.expect("virtual call has receiver");
            let this_oop = env.raw_resolve_nonnull(this, spec, "obj")?;
            full_args.push(JValue::Ref(this));
            // Virtual dispatch: prefer an override on the dynamic class.
            let dynamic = env.jvm().class_of(this_oop);
            env.jvm()
                .registry()
                .resolve_method(dynamic, &info.name, &info.sig.descriptor(), false)
                .unwrap_or(mid)
        }
    };
    full_args.extend(vargs);

    let target = env
        .jvm()
        .registry()
        .method(target_mid)
        .cloned()
        .expect("resolved");
    let result = match target.body {
        MethodBody::Managed(_) => env.call_managed_method(target_mid, &full_args),
        MethodBody::Native(Some(_)) => env.call_native_method(target_mid, &full_args),
        MethodBody::Native(None) => Err(env.java_throw(
            names::RUNTIME_EXCEPTION,
            &format!("java.lang.UnsatisfiedLinkError: {}", target.name),
        )),
        MethodBody::Abstract => Err(env.java_throw(names::ABSTRACT_METHOD, &target.name)),
    };
    let value = result.map_err(Abort::Hard)?;

    Ok(coerce_ret(ret, value))
}

fn coerce_ret(ret: CallRet, value: JValue) -> JniRet {
    match ret {
        CallRet::Void => JniRet::Void,
        CallRet::Prim(p) => {
            if value.prim_type() == Some(p) {
                JniRet::Val(value)
            } else {
                // Type-confused call: garbage-but-stable default.
                JniRet::Val(JValue::default_of(p))
            }
        }
        CallRet::Object => match value {
            JValue::Ref(r) => JniRet::Ref(r),
            _ => JniRet::Ref(JRef::NULL),
        },
    }
}

fn run_get_field(
    env: &mut JniEnv<'_>,
    spec: &'static FuncSpec,
    args: &[JniArg],
    stat: bool,
    ty: CallRet,
) -> RawResult<JniRet> {
    let fid = arg_field(args, 1);
    let Some(info) = env.jvm().registry().field(fid).cloned() else {
        env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
        return Err(Abort::Skip);
    };
    let slot = if stat {
        let _class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
        match info.slot {
            FieldSlot::Static(_) => env.jvm().registry().static_slot(fid),
            FieldSlot::Instance(_) => {
                env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
                return Err(Abort::Skip);
            }
        }
    } else {
        let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "obj")?;
        match info.slot {
            FieldSlot::Instance(i) => {
                match &env.jvm().heap().get(oop).body {
                    Body::Object { fields } if (i as usize) < fields.len() => fields[i as usize],
                    // Field id from an unrelated class: out-of-bounds
                    // object access — classic silent corruption.
                    _ => {
                        env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
                        return Err(Abort::Skip);
                    }
                }
            }
            FieldSlot::Static(_) => {
                env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
                return Err(Abort::Skip);
            }
        }
    };
    match (ty, slot) {
        (CallRet::Object, Slot::Ref(Some(o))) => Ok(JniRet::Ref(env.make_local(o))),
        (CallRet::Object, Slot::Ref(None)) => Ok(JniRet::Ref(JRef::NULL)),
        (CallRet::Object, _) => Ok(JniRet::Ref(JRef::NULL)),
        (CallRet::Prim(p), s) => match s {
            Slot::Ref(_) => Ok(JniRet::Val(JValue::default_of(p))),
            prim => {
                let v = prim.to_prim();
                if v.prim_type() == Some(p) {
                    Ok(JniRet::Val(v))
                } else {
                    Ok(JniRet::Val(JValue::default_of(p)))
                }
            }
        },
        (CallRet::Void, _) => unreachable!("field families have no void type"),
    }
}

fn run_set_field(
    env: &mut JniEnv<'_>,
    spec: &'static FuncSpec,
    args: &[JniArg],
    stat: bool,
    ty: CallRet,
) -> RawResult<JniRet> {
    let fid = arg_field(args, 1);
    let Some(info) = env.jvm().registry().field(fid).cloned() else {
        env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
        return Err(Abort::Skip);
    };
    if info.flags.is_final {
        env.ub_continue(UbSituation::FinalFieldWrite { func: spec }, &spec.name)?;
    }
    let value = arg_val(args, 2);
    let slot_value = match (ty, value) {
        (CallRet::Object, JValue::Ref(r)) => Slot::Ref(env.raw_resolve(r, spec)?),
        (CallRet::Prim(p), v) if v.prim_type() == Some(p) => Slot::from_prim(v),
        // Type-confused write: skipped (storing garbage would corrupt the
        // simulation rather than simulate corruption).
        _ => return Err(Abort::Skip),
    };
    if stat {
        let _class = env.expect_class(arg_ref(args, 0), spec, "clazz")?;
        match info.slot {
            FieldSlot::Static(_) => {
                env.jvm_mut()
                    .registry_mut()
                    .set_static_slot(fid, slot_value);
                Ok(JniRet::Void)
            }
            FieldSlot::Instance(_) => {
                env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
                Err(Abort::Skip)
            }
        }
    } else {
        let oop = env.raw_resolve_nonnull(arg_ref(args, 0), spec, "obj")?;
        match info.slot {
            FieldSlot::Instance(i) => match &mut env.jvm_mut().heap_mut().get_mut(oop).body {
                Body::Object { fields } if (i as usize) < fields.len() => {
                    fields[i as usize] = slot_value;
                    Ok(JniRet::Void)
                }
                _ => {
                    env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
                    Err(Abort::Skip)
                }
            },
            FieldSlot::Static(_) => {
                env.ub_or_skip(UbSituation::BadEntityId { func: spec }, &spec.name)?;
                Err(Abort::Skip)
            }
        }
    }
}

// ----- shared helpers -----------------------------------------------------

fn expect_string(env: &mut JniEnv<'_>, spec: &'static FuncSpec, r: JRef) -> RawResult<Vec<u16>> {
    let oop = env.raw_resolve_nonnull(r, spec, "str")?;
    expect_string_at(env, spec, oop)
}

fn expect_string_at(
    env: &mut JniEnv<'_>,
    spec: &'static FuncSpec,
    oop: minijvm::Oop,
) -> RawResult<Vec<u16>> {
    match env.jvm().string_chars(oop) {
        Some(c) => Ok(c.to_vec()),
        None => {
            env.ub_or_skip(
                UbSituation::TypeConfusion {
                    func: spec,
                    expected: "java.lang.String",
                },
                &spec.name,
            )?;
            Err(Abort::Skip)
        }
    }
}

fn expect_prim_array(
    env: &mut JniEnv<'_>,
    spec: &'static FuncSpec,
    oop: minijvm::Oop,
    ty: PrimType,
) -> RawResult<PrimArray> {
    match &env.jvm().heap().get(oop).body {
        Body::PrimArray(a) if a.elem_type() == ty => Ok(a.clone()),
        _ => {
            env.ub_or_skip(
                UbSituation::TypeConfusion {
                    func: spec,
                    expected: "primitive array",
                },
                &spec.name,
            )?;
            Err(Abort::Skip)
        }
    }
}

/// Releases a string pin (`ReleaseStringChars` and friends); no copy-back
/// because strings are immutable.
fn release_pin(
    env: &mut JniEnv<'_>,
    spec: &'static FuncSpec,
    args: &[JniArg],
    kind: PinKind,
) -> RawResult<JniRet> {
    // The string argument may be dangling (the Subversion destructor bug);
    // many JVMs ignore it entirely, so only the vendor model sees a fault.
    let str_ref = arg_ref(args, 0);
    if !str_ref.is_null() {
        let _ = env.raw_resolve(str_ref, spec)?;
    }
    let Some(pin) = arg_buf(args, 1) else {
        return Ok(JniRet::Void);
    };
    if let Err(e) = env.jvm_mut().pins_mut().release(pin, kind) {
        env.ub_or_skip(
            UbSituation::PinFault {
                error: e,
                func: spec,
            },
            &spec.name,
        )?;
        return Err(Abort::Skip);
    }
    Ok(JniRet::Void)
}

/// Releases an array pin with copy-back semantics.
fn release_array_pin(
    env: &mut JniEnv<'_>,
    spec: &'static FuncSpec,
    args: &[JniArg],
    kind: PinKind,
    mode: i64,
) -> RawResult<JniRet> {
    let arr_ref = arg_ref(args, 0);
    let arr_oop = if arr_ref.is_null() {
        None
    } else {
        env.raw_resolve(arr_ref, spec)?
    };
    let Some(pin) = arg_buf(args, 1) else {
        return Ok(JniRet::Void);
    };
    match env.jvm_mut().pins_mut().release(pin, kind) {
        Ok((_id, PinData::Prim(data))) => {
            if mode != JNI_ABORT {
                if let Some(oop) = arr_oop {
                    if let Body::PrimArray(a) = &mut env.jvm_mut().heap_mut().get_mut(oop).body {
                        if a.elem_type() == data.elem_type() && a.len() == data.len() {
                            *a = data;
                        }
                    }
                }
            }
            Ok(JniRet::Void)
        }
        Ok(_) => Ok(JniRet::Void),
        Err(e) => {
            env.ub_or_skip(
                UbSituation::PinFault {
                    error: e,
                    func: spec,
                },
                &spec.name,
            )?;
            Err(Abort::Skip)
        }
    }
}
