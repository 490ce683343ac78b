//! The JNI environment: the driver that fires interposition hooks around
//! every language transition and dispatches to the raw function semantics.
//!
//! A [`JniEnv`] is the simulated `JNIEnv*`: native code receives one and
//! performs every interaction with the VM through it. The flow of one JNI
//! call mirrors the paper's synthesized wrappers (Figures 3 and 4):
//!
//! ```text
//! invoke(F, args)
//!   ├─ safepoint (the GC may run here — references move)
//!   ├─ pre_jni hooks        (Call:C→Java transitions; may throw)
//!   ├─ raw semantics of F   (vendor-modelled UB on misuse)
//!   └─ post_jni hooks       (Return:Java→C transitions; may throw)
//! ```
//!
//! and of one native method call:
//!
//! ```text
//! call_native_method(M, args)
//!   ├─ safepoint; push local frame; re-register reference args
//!   ├─ native_enter hooks   (Call:Java→C; Acquire transitions)
//!   ├─ the native body (a Rust closure standing in for C)
//!   ├─ native_exit hooks    (Return:C→Java; Use + Release transitions)
//!   └─ pop local frame; translate the returned reference outward
//! ```

use jinn_obs::{forensics, VerdictAction};
use minijvm::class::names;
use minijvm::{
    EnvToken, JRef, JValue, Jvm, MethodBody, MethodId, Oop, RefFault, ThreadId,
    DEFAULT_LOCAL_CAPACITY,
};

use crate::error::JniError;
use crate::interpose::{
    death_of, CallCx, Interpose, JniArg, JniRet, Report, ReportAction, UbOutcome, UbSituation,
    Violation,
};
use crate::raw;
use crate::registry::{FuncId, FuncSpec, RetKind};
use crate::tap::ManagedOutcome;
use crate::vm::Vm;

/// The class of the exception Jinn throws at the point of failure.
pub const JINN_EXCEPTION_CLASS: &str = "jinn/JNIAssertionFailure";

/// Release mode: copy back and free the buffer.
pub const JNI_COMMIT: i64 = 1;
/// Release mode: free the buffer without copying back.
pub const JNI_ABORT: i64 = 2;

/// Flow control for raw semantics: abort hard (error propagates to the
/// caller) or skip the operation and return the function's default value
/// (the "keeps running with undefined results" outcome).
#[derive(Debug)]
pub(crate) enum Abort {
    Hard(JniError),
    Skip,
}

pub(crate) type RawResult<T> = Result<T, Abort>;

/// The simulated `JNIEnv*` handed to native code.
pub struct JniEnv<'s> {
    pub(crate) vm: &'s mut Vm,
    interposers: &'s mut Vec<Box<dyn Interpose>>,
    log: &'s mut Vec<String>,
    thread: ThreadId,
    presented: EnvToken,
}

impl std::fmt::Debug for JniEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JniEnv")
            .field("thread", &self.thread)
            .field("presented", &self.presented)
            .finish_non_exhaustive()
    }
}

impl<'s> JniEnv<'s> {
    pub(crate) fn new(
        vm: &'s mut Vm,
        interposers: &'s mut Vec<Box<dyn Interpose>>,
        log: &'s mut Vec<String>,
        thread: ThreadId,
        presented: EnvToken,
    ) -> JniEnv<'s> {
        JniEnv {
            vm,
            interposers,
            log,
            thread,
            presented,
        }
    }

    /// The executing thread.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The `JNIEnv*` token this environment presents to the VM.
    pub fn presented_env(&self) -> EnvToken {
        self.presented
    }

    /// Overrides the presented `JNIEnv*` token — the vehicle for
    /// simulating C code that cached another thread's env (pitfall 14).
    pub fn set_presented_env(&mut self, token: EnvToken) {
        self.presented = token;
    }

    /// Read access to the JVM (assertions in tests and examples).
    pub fn jvm(&self) -> &Jvm {
        &self.vm.jvm
    }

    /// Mutable access to the JVM (test setup through an env).
    pub fn jvm_mut(&mut self) -> &mut Jvm {
        &mut self.vm.jvm
    }

    /// Appends a line to the session's diagnostic log.
    pub fn log_line(&mut self, line: impl Into<String>) {
        self.log.push(line.into());
    }

    // ----- call stack (for Figure 9 style reports) -----------------------

    fn stack_snapshot(&self) -> Vec<String> {
        self.vm
            .stacks
            .get(self.thread.0 as usize)
            .map(|s| {
                // Innermost frame first, like a Java stack trace.
                s.iter().rev().cloned().collect()
            })
            .unwrap_or_default()
    }

    fn push_stack(&mut self, frame: String) {
        let idx = self.thread.0 as usize;
        if self.vm.stacks.len() <= idx {
            self.vm.stacks.resize(idx + 1, Vec::new());
        }
        self.vm.stacks[idx].push(frame);
    }

    fn pop_stack(&mut self) {
        if let Some(s) = self.vm.stacks.get_mut(self.thread.0 as usize) {
            s.pop();
        }
    }

    /// The current Java-style backtrace, innermost first.
    pub fn backtrace(&self) -> Vec<String> {
        self.stack_snapshot()
    }

    /// Pushes a synthetic "Java" frame (harness entry points use this so
    /// backtraces read like Figure 9's).
    pub fn enter_java_frame(&mut self, frame: impl Into<String>) {
        self.push_stack(frame.into());
    }

    /// Pops a synthetic frame pushed with [`JniEnv::enter_java_frame`].
    pub fn exit_java_frame(&mut self) {
        self.pop_stack();
    }

    // ----- report handling -----------------------------------------------

    fn handle_reports(&mut self, reports: Vec<Report>) -> Result<(), JniError> {
        let mut fatal: Option<JniError> = None;
        for Report { violation, action } in reports {
            if self.vm.recorder.is_enabled() {
                // Verdicts are rare: interning here (rather than caching
                // ids) keeps this cold path simple.
                let machine = self.vm.recorder.intern(violation.machine);
                let function = self.vm.recorder.intern(&violation.function);
                self.vm.recorder.verdict_id(
                    self.thread.0,
                    machine,
                    function,
                    match action {
                        ReportAction::Warn => VerdictAction::Warn,
                        ReportAction::AbortVm => VerdictAction::AbortVm,
                        ReportAction::ThrowException => VerdictAction::ThrowException,
                    },
                );
                self.vm.recorder.count("checks.violations", 1);
                // Bug forensics: snapshot the history that led to any
                // non-warning verdict (the JNIAssertionFailure / abort
                // moment), before the verdict mutates VM state.
                if action != ReportAction::Warn {
                    self.vm.last_forensics = Some(forensics::capture(
                        &self.vm.recorder,
                        self.vm.forensics_config,
                        violation.machine,
                        violation.error_state,
                        &violation.function,
                        &violation.message,
                        self.thread.0,
                        violation.backtrace.clone(),
                    ));
                }
            }
            match action {
                ReportAction::Warn => {
                    self.log.push(format!("WARNING: {violation}"));
                    for frame in &violation.backtrace {
                        self.log.push(format!("\tat {frame}"));
                    }
                }
                ReportAction::AbortVm => {
                    self.log.push(format!("FATAL: {violation}"));
                    for frame in &violation.backtrace {
                        self.log.push(format!("\tat {frame}"));
                    }
                    if fatal.is_none() {
                        fatal = Some(JniError::Death(minijvm::JvmDeath::fatal(format!(
                            "checker abort: {violation}"
                        ))));
                    }
                }
                ReportAction::ThrowException => {
                    if fatal.is_none() {
                        let class = if self.vm.jvm.find_class(JINN_EXCEPTION_CLASS).is_some() {
                            JINN_EXCEPTION_CLASS
                        } else {
                            names::RUNTIME_EXCEPTION
                        };
                        // Chain the exception that was already pending, as
                        // Jinn's reports do ("Caused by: ..." in Figure 9c).
                        let mut violation = violation;
                        if let Some(prev) = self.vm.jvm.thread(self.thread).pending_exception() {
                            let cause = self.vm.jvm.describe_exception(prev);
                            violation.message =
                                format!("{}\nCaused by: {cause}", violation.message);
                        }
                        self.vm
                            .jvm
                            .throw_new(self.thread, class, &violation.message);
                        fatal = Some(JniError::Detected(violation));
                    }
                }
            }
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // ----- the JNI call driver --------------------------------------------

    /// Invokes a JNI function through the full interposition pipeline.
    ///
    /// This is the generic core; the typed methods (e.g.
    /// [`crate::typed`]'s `find_class`) pack their arguments and delegate
    /// here.
    ///
    /// # Errors
    ///
    /// [`JniError::Exception`] when the call completes with a Java
    /// exception pending, [`JniError::Detected`] when an attached checker
    /// throws, and [`JniError::Death`] when the simulated process dies.
    pub fn invoke(&mut self, func: FuncId, args: Vec<JniArg>) -> Result<JniRet, JniError> {
        // Boundary tap: sees the call with full arguments and the
        // presented env token, before checkers run and after the call
        // settles. No tap = one branch.
        if let Some(tap) = self.vm.tap.clone() {
            tap.borrow_mut()
                .jni_enter(self.thread, self.presented, func, &args);
            let result = self.invoke_recorded(func, args);
            tap.borrow_mut().jni_exit(self.thread, func, &result);
            return result;
        }
        self.invoke_recorded(func, args)
    }

    fn invoke_recorded(&mut self, func: FuncId, args: Vec<JniArg>) -> Result<JniRet, JniError> {
        // Observability wrapper: when a recorder is attached, bracket the
        // call with Call:C→Java / Return:Java→C events and feed the
        // per-function latency histogram. Disabled recorder = one branch.
        if !self.vm.recorder.is_enabled() {
            return self.invoke_inner(func, args);
        }
        let label = self.vm.func_label(func);
        let thread = self.thread.0;
        self.vm.recorder.jni_enter_id(thread, label);
        let timer = self.vm.recorder.timer();
        let result = self.invoke_inner(func, args);
        let nanos = timer.map(|t| t.elapsed().as_nanos() as u64);
        let failed = result.is_err();
        self.vm.recorder.jni_exit_id(thread, label, nanos, failed);
        result
    }

    fn invoke_inner(&mut self, func: FuncId, args: Vec<JniArg>) -> Result<JniRet, JniError> {
        if let Some(d) = &self.vm.dead {
            return Err(JniError::Death(d.clone()));
        }
        self.vm.stats.c_to_java += 1;
        self.boundary_safepoint();
        // Fast path: with no agent attached there is no interposition
        // work at all — this is the production-run baseline of Table 3.
        if self.interposers.is_empty() {
            return match raw::execute(self, func, &args) {
                Ok(ret) => Ok(ret),
                Err(Abort::Hard(e)) => {
                    if let JniError::Death(d) = &e {
                        self.vm.dead.get_or_insert_with(|| d.clone());
                    }
                    Err(e)
                }
                Err(Abort::Skip) => Ok(default_ret(func.spec())),
            };
        }
        // Call:C→Java hooks. The stack is passed as a borrow (outermost
        // frame first); checkers reverse it only when building a report.
        let mut pre_reports = Vec::new();
        {
            let cx = CallCx {
                func,
                thread: self.thread,
                presented_env: self.presented,
                args: &args,
                stack: self
                    .vm
                    .stacks
                    .get(self.thread.0 as usize)
                    .map(Vec::as_slice)
                    .unwrap_or(&[]),
            };
            let jvm = &self.vm.jvm;
            for checker in self.interposers.iter_mut() {
                pre_reports.extend(guard_hook(checker.as_mut(), "pre_jni", |c| {
                    c.pre_jni(jvm, &cx)
                }));
            }
        }
        // A throwing checker prevents the wrapped function from running
        // (Figure 4: "return jinn_throw_JNIException(...)").
        if let Err(e) = self.handle_reports(pre_reports) {
            if let JniError::Death(d) = &e {
                self.vm.dead.get_or_insert_with(|| d.clone());
            }
            return Err(e);
        }

        // Raw semantics, with vendor-modelled UB.
        let result = match raw::execute(self, func, &args) {
            Ok(ret) => Ok(ret),
            Err(Abort::Hard(e)) => Err(e),
            Err(Abort::Skip) => Ok(default_ret(func.spec())),
        };

        // Return:Java→C hooks.
        let mut post_reports = Vec::new();
        {
            let cx = CallCx {
                func,
                thread: self.thread,
                presented_env: self.presented,
                args: &args,
                stack: self
                    .vm
                    .stacks
                    .get(self.thread.0 as usize)
                    .map(Vec::as_slice)
                    .unwrap_or(&[]),
            };
            let ret = result.as_ref().ok();
            let jvm = &self.vm.jvm;
            for checker in self.interposers.iter_mut() {
                post_reports.extend(guard_hook(checker.as_mut(), "post_jni", |c| {
                    c.post_jni(jvm, &cx, ret)
                }));
            }
        }
        let result = match self.handle_reports(post_reports) {
            Ok(()) => result,
            Err(e) => Err(e),
        };
        if let Err(JniError::Death(d)) = &result {
            self.vm.dead.get_or_insert_with(|| d.clone());
        }
        result
    }

    /// Calls a native method from "Java" — the `Call:Java→C` language
    /// transition. Reference arguments are re-registered as local
    /// references in the method's fresh frame; the returned reference (if
    /// any) is translated into the caller's frame.
    ///
    /// # Errors
    ///
    /// As for [`JniEnv::invoke`]; additionally, if the native method
    /// completes with a Java exception pending, the result is
    /// [`JniError::Exception`] (Java would rethrow at this point).
    ///
    /// # Panics
    ///
    /// Panics if `method` is not a registered method — a harness bug, not
    /// a simulated one.
    pub fn call_native_method(
        &mut self,
        method: MethodId,
        args: &[JValue],
    ) -> Result<JValue, JniError> {
        if let Some(d) = &self.vm.dead {
            return Err(JniError::Death(d.clone()));
        }
        // Boundary tap: the Call:Java→C transition with the *caller's*
        // view of the arguments (before frame-local re-registration).
        // The matching native_exit fires inside the inner driver, with
        // the body's raw result.
        if let Some(tap) = self.vm.tap.clone() {
            tap.borrow_mut().native_enter(self.thread, method, args);
        }
        if !self.vm.recorder.is_enabled() {
            let result = self.call_native_method_inner(method, args);
            if let Err(JniError::Death(d)) = &result {
                self.vm.dead.get_or_insert_with(|| d.clone());
            }
            return result;
        }
        // Observability wrapper: Call:Java→C / Return:C→Java events around
        // the native body.
        let label = self.vm.native_label(method);
        let thread = self.thread.0;
        self.vm.recorder.native_enter_id(thread, label);
        let timer = self.vm.recorder.timer();
        let result = self.call_native_method_inner(method, args);
        let nanos = timer.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
        let failed = result.is_err();
        self.vm
            .recorder
            .native_exit_id(thread, label, nanos, failed);
        self.vm.recorder.count_id(self.vm.native_calls_label, 1);
        if let Err(JniError::Death(d)) = &result {
            self.vm.dead.get_or_insert_with(|| d.clone());
        }
        result
    }

    fn call_native_method_inner(
        &mut self,
        method: MethodId,
        args: &[JValue],
    ) -> Result<JValue, JniError> {
        let info = self
            .vm
            .jvm
            .registry()
            .method(method)
            .unwrap_or_else(|| panic!("call_native_method: unknown method id {method}"))
            .clone();
        let MethodBody::Native(bound) = info.body else {
            panic!("call_native_method: `{}` is not native", info.name);
        };
        let Some(fn_idx) = bound else {
            self.java_throw(
                names::RUNTIME_EXCEPTION,
                &format!("java.lang.UnsatisfiedLinkError: {}", info.name),
            );
            let err = Err(JniError::Exception);
            if let Some(tap) = self.vm.tap.clone() {
                tap.borrow_mut().native_exit(self.thread, method, &err);
            }
            return err;
        };

        self.vm.stats.java_to_c += 1;
        self.boundary_safepoint();
        self.vm
            .jvm
            .thread_mut(self.thread)
            .push_frame(DEFAULT_LOCAL_CAPACITY);

        // Re-register reference arguments in the callee frame.
        let mut callee_args = Vec::with_capacity(args.len());
        let mut arg_refs = Vec::new();
        for v in args {
            match v {
                JValue::Ref(r) if !r.is_null() => match self.vm.jvm.resolve(self.thread, *r) {
                    Ok(Some(oop)) => {
                        let nr = self.vm.jvm.new_local(self.thread, oop);
                        arg_refs.push(nr);
                        callee_args.push(JValue::Ref(nr));
                    }
                    _ => callee_args.push(JValue::NULL),
                },
                other => callee_args.push(*other),
            }
        }

        let class_name = self.vm.jvm.registry().class(info.class).dotted_name();
        self.push_stack(format!("{}.{}(Native Method)", class_name, info.name));
        let stack = self.stack_snapshot();

        // Call:Java→C hooks (Acquire transitions for the argument refs).
        let mut reports = Vec::new();
        let (jvm, thread) = (&self.vm.jvm, self.thread);
        for checker in self.interposers.iter_mut() {
            reports.extend(guard_hook(checker.as_mut(), "native_enter", |c| {
                c.native_enter(jvm, thread, method, &arg_refs, &stack)
            }));
        }
        if let Err(e) = self.handle_reports(reports) {
            self.pop_stack();
            let _ = self.vm.jvm.thread_mut(self.thread).pop_frame();
            let err = Err(e);
            if let Some(tap) = self.vm.tap.clone() {
                tap.borrow_mut().native_exit(self.thread, method, &err);
            }
            return err;
        }

        // The native body itself.
        let f = self.vm.natives[fn_idx as usize].clone();
        let result = f(self, &callee_args);
        // Boundary tap: the body's raw result, before returned-reference
        // translation and before the frame pops — the substitution point
        // for deterministic replay.
        if let Some(tap) = self.vm.tap.clone() {
            tap.borrow_mut().native_exit(self.thread, method, &result);
        }

        // Return:C→Java hooks, fired before the frame pops: the checker
        // must see the frame's references while they are still live (Use
        // of the returned ref, then Release of the frame).
        let returned_ref = match &result {
            Ok(JValue::Ref(r)) if !r.is_null() => Some(*r),
            _ => None,
        };
        let stack = self.stack_snapshot();
        let mut reports = Vec::new();
        let (jvm, thread) = (&self.vm.jvm, self.thread);
        for checker in self.interposers.iter_mut() {
            reports.extend(guard_hook(checker.as_mut(), "native_exit", |c| {
                c.native_exit(jvm, thread, method, returned_ref, &stack)
            }));
        }
        let hook_result = self.handle_reports(reports);

        // Translate the returned reference out of the dying frame. The
        // raw JVM resolves it before the pop; a dangling returned ref is
        // vendor-defined behaviour.
        let mut ret_oop: Option<Oop> = None;
        let mut final_err: Option<JniError> = hook_result.err();
        if final_err.is_none() {
            if let (Some(r), Ok(_)) = (returned_ref, &result) {
                match self.vm.jvm.resolve(self.thread, r) {
                    Ok(o) => ret_oop = o,
                    Err(fault) => {
                        let spec = crate::func_id!("PopLocalFrame").spec();
                        let outcome = self.decide_ub(&UbSituation::RefFault { fault, func: spec });
                        match outcome {
                            UbOutcome::Proceed => {
                                ret_oop = self.vm.jvm.resolve_ignoring_thread(r).unwrap_or(None);
                            }
                            UbOutcome::Npe => {
                                self.java_throw(names::NPE, &fault.to_string());
                                final_err = Some(JniError::Exception);
                            }
                            other => {
                                final_err =
                                    death_of(&other, self.vm.vendor.name(), "native method return")
                                        .map(JniError::Death);
                            }
                        }
                    }
                }
            }
        }

        self.pop_stack();
        let _ = self.vm.jvm.thread_mut(self.thread).pop_frame();

        if let Some(e) = final_err {
            return Err(e);
        }
        let value = match result? {
            JValue::Ref(r) if !r.is_null() => match ret_oop {
                Some(oop) => JValue::Ref(self.vm.jvm.new_local(self.thread, oop)),
                None => JValue::NULL,
            },
            other => other,
        };
        // Returning to Java with an exception pending rethrows there.
        if self
            .vm
            .jvm
            .thread(self.thread)
            .pending_exception()
            .is_some()
        {
            return Err(JniError::Exception);
        }
        Ok(value)
    }

    /// Executes a managed ("Java") method body. Used by the raw `Call…`
    /// semantics; exposed for harness entry points that start in Java.
    ///
    /// # Errors
    ///
    /// Propagates whatever the managed body produces.
    ///
    /// # Panics
    ///
    /// Panics if `method` is not a managed method of this VM.
    pub fn call_managed_method(
        &mut self,
        method: MethodId,
        args: &[JValue],
    ) -> Result<JValue, JniError> {
        let info = self
            .vm
            .jvm
            .registry()
            .method(method)
            .unwrap_or_else(|| panic!("call_managed_method: unknown method id {method}"))
            .clone();
        let MethodBody::Managed(idx) = info.body else {
            panic!("call_managed_method: `{}` is not managed", info.name);
        };
        let class_name = self.vm.jvm.registry().class(info.class).dotted_name();
        let file = class_name.rsplit('.').next().unwrap_or("Unknown");
        let line = 5 + method.index() % 13;
        self.push_stack(format!(
            "{}.{}({}.java:{})",
            class_name, info.name, file, line
        ));
        if let Some(tap) = self.vm.tap.clone() {
            tap.borrow_mut().managed_enter(self.thread, method, args);
        }
        let f = self.vm.managed[idx as usize].clone();
        let result = f(self, args);
        if let Some(tap) = self.vm.tap.clone() {
            let outcome = match &result {
                Ok(v) => ManagedOutcome::Return(*v),
                Err(JniError::Exception) => {
                    let pending = self.vm.jvm.thread(self.thread).pending_exception();
                    let (class, message) = match pending {
                        Some(exc) => {
                            let class_id = self.vm.jvm.class_of(exc);
                            let class = self.vm.jvm.registry().class(class_id).name().to_string();
                            let message = self.vm.jvm.exception_message(exc).unwrap_or_default();
                            (class, message)
                        }
                        None => (names::THROWABLE.to_string(), String::new()),
                    };
                    ManagedOutcome::Threw { class, message }
                }
                Err(JniError::Death(_)) => ManagedOutcome::Died,
                Err(JniError::Detected(_)) => ManagedOutcome::Detected,
            };
            tap.borrow_mut().managed_exit(self.thread, method, &outcome);
        }
        self.pop_stack();
        result
    }

    /// Stores a native function body, returning its code index for
    /// binding (used by `RegisterNatives`).
    pub fn add_native_code(&mut self, f: crate::vm::NativeFn) -> u32 {
        self.vm.natives.push(f);
        self.vm.natives.len() as u32 - 1
    }

    /// Java-side throw: sets a pending exception *without* crossing the
    /// JNI (managed code throwing does not transit the boundary).
    pub fn java_throw(&mut self, class_name: &str, message: &str) -> JniError {
        self.vm.jvm.throw_new(self.thread, class_name, message);
        JniError::Exception
    }

    // ----- helpers shared with the raw semantics --------------------------

    pub(crate) fn make_local(&mut self, oop: Oop) -> JRef {
        self.vm.jvm.new_local(self.thread, oop)
    }

    /// Runs the boundary safepoint, reporting any collection that ran to
    /// the attached tap (GC schedule is part of a reproducible trace).
    fn boundary_safepoint(&mut self) {
        if let Some(stats) = self.vm.jvm.safepoint() {
            if let Some(tap) = self.vm.tap.clone() {
                tap.borrow_mut().gc_point(self.thread, &stats);
            }
        }
    }

    /// Single funnel for vendor undefined-behaviour decisions: consults
    /// the vendor model and reports the (situation, outcome) pair to the
    /// attached tap.
    pub(crate) fn decide_ub(&mut self, situation: &UbSituation<'_>) -> UbOutcome {
        let outcome = self.vm.vendor.on_violation(situation);
        if let Some(tap) = self.vm.tap.clone() {
            tap.borrow_mut().vendor_ub(self.thread, situation, &outcome);
        }
        outcome
    }

    /// Consults the vendor model for a UB situation where the operation
    /// *can* still proceed (exception pending, env mismatch, final write…).
    pub(crate) fn ub_continue(
        &mut self,
        situation: UbSituation<'_>,
        func_name: &str,
    ) -> RawResult<()> {
        let outcome = self.decide_ub(&situation);
        self.apply_ub(outcome, func_name)
    }

    /// Consults the vendor model for a UB situation where the operation is
    /// mechanically impossible; `Proceed` therefore means "skip it and
    /// return a garbage default".
    pub(crate) fn ub_or_skip(
        &mut self,
        situation: UbSituation<'_>,
        func_name: &str,
    ) -> RawResult<()> {
        let outcome = self.decide_ub(&situation);
        match outcome {
            UbOutcome::Proceed => Err(Abort::Skip),
            other => self.apply_ub(other, func_name),
        }
    }

    fn apply_ub(&mut self, outcome: UbOutcome, func_name: &str) -> RawResult<()> {
        match outcome {
            UbOutcome::Proceed => Ok(()),
            UbOutcome::Npe => {
                self.java_throw(names::NPE, &format!("in {func_name}"));
                Err(Abort::Hard(JniError::Exception))
            }
            other => {
                let death =
                    death_of(&other, self.vm.vendor.name(), func_name).expect("crash or deadlock");
                Err(Abort::Hard(JniError::Death(death)))
            }
        }
    }

    /// Resolves a possibly-null reference argument with vendor-modelled
    /// fault handling. `Ok(None)` means null (or cleared weak).
    pub(crate) fn raw_resolve(
        &mut self,
        r: JRef,
        spec: &'static FuncSpec,
    ) -> RawResult<Option<Oop>> {
        match self.vm.jvm.resolve(self.thread, r) {
            Ok(o) => Ok(o),
            Err(fault) => {
                let outcome = self.decide_ub(&UbSituation::RefFault { fault, func: spec });
                match outcome {
                    UbOutcome::Proceed => {
                        // Permissive JVMs "get lucky": mechanical resolution
                        // may still find an object (possibly the wrong one).
                        Ok(self.vm.jvm.resolve_ignoring_thread(r).unwrap_or(None))
                    }
                    UbOutcome::Npe => {
                        self.java_throw(names::NPE, &fault.to_string());
                        Err(Abort::Hard(JniError::Exception))
                    }
                    other => {
                        let death = death_of(&other, self.vm.vendor.name(), &spec.name)
                            .expect("crash or deadlock");
                        Err(Abort::Hard(JniError::Death(death)))
                    }
                }
            }
        }
    }

    /// Resolves a reference argument that must not be null.
    pub(crate) fn raw_resolve_nonnull(
        &mut self,
        r: JRef,
        spec: &'static FuncSpec,
        param: &'static str,
    ) -> RawResult<Oop> {
        match self.raw_resolve(r, spec)? {
            Some(oop) => Ok(oop),
            None => {
                self.ub_or_skip(UbSituation::NullArgument { func: spec, param }, &spec.name)?;
                Err(Abort::Skip)
            }
        }
    }

    /// Resolves a reference that must be a class mirror, with vendor UB on
    /// confusion (pitfall 3).
    pub(crate) fn expect_class(
        &mut self,
        r: JRef,
        spec: &'static FuncSpec,
        param: &'static str,
    ) -> RawResult<minijvm::ClassId> {
        let oop = self.raw_resolve_nonnull(r, spec, param)?;
        match self.vm.jvm.class_of_mirror(oop) {
            Some(c) => Ok(c),
            None => {
                self.ub_or_skip(
                    UbSituation::TypeConfusion {
                        func: spec,
                        expected: "java.lang.Class",
                    },
                    &spec.name,
                )?;
                Err(Abort::Skip)
            }
        }
    }

    /// Checks a reference fault without resolving (used by delete
    /// operations).
    pub(crate) fn ub_ref_fault(
        &mut self,
        fault: RefFault,
        spec: &'static FuncSpec,
    ) -> RawResult<()> {
        self.ub_or_skip(UbSituation::RefFault { fault, func: spec }, &spec.name)
    }
}

/// Extracts a printable message from a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// Runs one interposition hook, converting a checker panic into a fatal
/// `AbortVm` report instead of letting the unwind tear through the
/// driver mid-transition. A panicking checker must not poison the
/// `JniEnv`: the simulated process dies deterministically, with the
/// panic text as its diagnosis, and the VM's own state stays coherent
/// (frames are popped and death is latched by the normal report path).
/// The checker's name is read only on that path.
pub(crate) fn guard_hook(
    checker: &mut dyn Interpose,
    site: &'static str,
    hook: impl FnOnce(&mut dyn Interpose) -> Vec<Report>,
) -> Vec<Report> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(&mut *checker))) {
        Ok(reports) => reports,
        Err(payload) => vec![Report {
            violation: Violation {
                machine: "checker-internal",
                error_state: "Error:Panic",
                function: site.to_string(),
                message: format!(
                    "checker `{}` panicked during {site}: {}",
                    checker.name(),
                    panic_text(payload.as_ref())
                ),
                backtrace: Vec::new(),
            },
            action: ReportAction::AbortVm,
        }],
    }
}

/// The default ("garbage") return value when the raw JVM skips an
/// operation it cannot perform.
pub(crate) fn default_ret(spec: &FuncSpec) -> JniRet {
    match spec.ret {
        RetKind::Void => JniRet::Void,
        RetKind::Prim(p) => JniRet::Val(JValue::default_of(p)),
        RetKind::LocalRef | RetKind::GlobalRef | RetKind::WeakRef => JniRet::Ref(JRef::NULL),
        RetKind::MethodId => JniRet::Method(MethodId::forged(0xDEAD)),
        RetKind::FieldId => JniRet::Field(minijvm::FieldId::forged(0xDEAD)),
        RetKind::Size => JniRet::Size(-1),
        RetKind::Pin => JniRet::Buf(minijvm::PinId(u32::MAX)),
        RetKind::Address => JniRet::Val(JValue::Long(0)),
    }
}
