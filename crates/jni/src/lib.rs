//! `minijni` — the full 229-function JNI surface over the simulated JVM,
//! with an interposition seam for dynamic checkers.
//!
//! This crate supplies three things:
//!
//! 1. **The function registry** ([`mod@registry`]): machine-readable metadata
//!    for every JNI 1.6 function — parameter kinds, nullability, fixed
//!    Java types, entity-ID parameters, exception obliviousness,
//!    critical-section sensitivity. The paper's Table 2 is computed from
//!    it.
//! 2. **Raw semantics** (private module `raw`): what an *unchecked*
//!    production JVM does for each function, including vendor-modelled
//!    undefined behaviour on misuse ([`VendorModel`]); this reproduces the
//!    "Default Behavior" columns of Table 1.
//! 3. **The interposition seam** ([`Interpose`]): hooks at all four
//!    language-transition directions, through which the `-Xcheck:jni`
//!    baselines (crate `jinn-vendors`) and Jinn itself (crate `jinn-core`)
//!    observe and veto calls.
//!
//! # Example: catching a JNI misuse with the raw VM
//!
//! ```
//! use minijni::{typed, JniError, Session, Vm};
//! use minijvm::JValue;
//! use std::rc::Rc;
//!
//! let mut vm = Vm::permissive();
//! // A native method that calls back into Java through the JNI.
//! let (_, method) = vm.define_native_class(
//!     "demo/Hello",
//!     "greet",
//!     "()Ljava/lang/String;",
//!     true,
//!     Rc::new(|env, _args| {
//!         let s = typed::new_string_utf(env, "hello from C")?;
//!         Ok(JValue::Ref(s))
//!     }),
//! );
//! let thread = vm.jvm().main_thread();
//! let mut session = Session::new(vm);
//! let result = session.env(thread).call_native_method(method, &[])?;
//! let r = result.as_ref().expect("string ref");
//! let oop = session.vm().jvm().resolve(thread, r)?.expect("non-null");
//! assert_eq!(session.vm().jvm().string_value(oop).as_deref(), Some("hello from C"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
mod error;
mod interpose;
mod raw;
pub mod registry;
pub mod tap;
pub mod typed;
mod vm;

pub use env::{JniEnv, JINN_EXCEPTION_CLASS, JNI_ABORT, JNI_COMMIT};
pub use error::JniError;
pub use interpose::{
    death_of, CallCx, Interpose, JniArg, JniRet, PermissiveVendor, Report, ReportAction, UbOutcome,
    UbSituation, VendorModel, Violation,
};
pub use raw::args_fit;
pub use registry::{registry, ConstraintCounts, FuncId, FuncSpec, Op, ParamKind, RetKind};
pub use tap::{BoundaryTap, ManagedOutcome};
pub use vm::{ManagedFn, NativeFn, RunOutcome, Session, TransitionStats, Vm};
