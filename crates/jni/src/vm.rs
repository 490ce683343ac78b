//! The `Vm` (simulated JVM + native/managed code tables) and the
//! `Session` (a VM plus its interposed checkers).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use jinn_obs::{BugReport, ForensicsConfig, LabelId, Recorder};
use minijvm::{
    ClassId, EnvToken, JValue, Jvm, JvmDeath, MemberFlags, MethodBody, MethodId, ThreadId,
};

use crate::env::JniEnv;
use crate::error::JniError;
use crate::interpose::{Interpose, PermissiveVendor, Report, ReportAction, VendorModel};
use crate::tap::BoundaryTap;

/// A native method body: Rust standing in for C. It receives the JNI
/// environment (through which *all* interaction with the VM must go) and
/// its arguments; reference arguments arrive as local references in the
/// method's fresh frame.
pub type NativeFn = Rc<dyn Fn(&mut JniEnv<'_>, &[JValue]) -> Result<JValue, JniError>>;

/// A managed ("Java") method body. Managed code may freely use VM
/// facilities; it exists so call chains like Java → C → Java → C can be
/// scripted.
pub type ManagedFn = Rc<dyn Fn(&mut JniEnv<'_>, &[JValue]) -> Result<JValue, JniError>>;

/// Counters of boundary crossings, the quantity Table 3's second column
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionStats {
    /// `Call:Java→C` crossings (native method invocations).
    pub java_to_c: u64,
    /// `Call:C→Java` crossings (JNI function invocations).
    pub c_to_java: u64,
}

impl TransitionStats {
    /// Total language transitions, counting each call and its return.
    pub fn total(&self) -> u64 {
        2 * (self.java_to_c + self.c_to_java)
    }
}

/// A simulated JVM instance together with its vendor model and the
/// registered native/managed code.
pub struct Vm {
    pub(crate) jvm: Jvm,
    pub(crate) vendor: Box<dyn VendorModel>,
    pub(crate) natives: Vec<NativeFn>,
    pub(crate) managed: Vec<ManagedFn>,
    pub(crate) stats: TransitionStats,
    /// Per-thread Java-style call stacks (frame text, outermost first).
    pub(crate) stacks: Vec<Vec<String>>,
    /// Once the simulated process dies (crash/deadlock/fatal error) it
    /// stays dead: every subsequent operation returns the same death.
    pub(crate) dead: Option<JvmDeath>,
    /// Observability handle; shared with the JVM substrate.
    pub(crate) recorder: Recorder,
    /// Interned trace label per JNI function, indexed by `FuncId`;
    /// filled lazily on each function's first recorded call so the
    /// record path carries only a `u32`.
    pub(crate) func_labels: Vec<Option<LabelId>>,
    /// Interned trace labels for native methods (`Class.method`), filled
    /// lazily on first call of each method.
    pub(crate) native_labels: HashMap<minijvm::MethodId, LabelId>,
    /// Interned id of the `native.calls` counter.
    pub(crate) native_calls_label: LabelId,
    /// Passive boundary observer (trace recording); see [`BoundaryTap`].
    pub(crate) tap: Option<Rc<RefCell<dyn BoundaryTap>>>,
    /// How much history bug reports keep.
    pub(crate) forensics_config: ForensicsConfig,
    /// The forensics report of the most recent checker verdict.
    pub(crate) last_forensics: Option<BugReport>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("vendor", &self.vendor.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Vm {
    /// Creates a VM with the given vendor model.
    pub fn new(vendor: Box<dyn VendorModel>) -> Vm {
        Vm {
            jvm: Jvm::new(),
            vendor,
            natives: Vec::new(),
            managed: Vec::new(),
            stats: TransitionStats::default(),
            stacks: Vec::new(),
            dead: None,
            recorder: Recorder::disabled(),
            func_labels: Vec::new(),
            native_labels: HashMap::new(),
            native_calls_label: LabelId(0),
            tap: None,
            forensics_config: ForensicsConfig::default(),
            last_forensics: None,
        }
    }

    /// Attaches (or with `None`, detaches) a passive [`BoundaryTap`].
    /// At most one tap is installed at a time; the caller typically keeps
    /// its own `Rc` clone to retrieve the accumulated trace afterwards.
    pub fn set_tap(&mut self, tap: Option<Rc<RefCell<dyn BoundaryTap>>>) {
        self.tap = tap;
    }

    /// Whether a boundary tap is installed.
    pub fn has_tap(&self) -> bool {
        self.tap.is_some()
    }

    /// Attaches an observability recorder to the whole stack: the JNI
    /// driver (boundary-crossing events, per-function metrics, verdict
    /// forensics) and the JVM substrate (GC and pin events).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.jvm.set_recorder(recorder.clone());
        // Label ids belong to one recorder: forget the old recorder's.
        // Function and native-method names are interned on first call.
        self.func_labels.clear();
        self.native_labels.clear();
        self.native_calls_label = recorder.intern("native.calls");
        self.recorder = recorder;
    }

    /// The interned trace label for a JNI function (recorder attached),
    /// computed on its first recorded call.
    #[inline]
    pub(crate) fn func_label(&mut self, func: crate::registry::FuncId) -> LabelId {
        let idx = func.0 as usize;
        if idx >= self.func_labels.len() {
            self.func_labels.resize(idx + 1, None);
        }
        let recorder = &self.recorder;
        *self.func_labels[idx].get_or_insert_with(|| recorder.intern(func.name()))
    }

    /// The interned trace label for a native method, `Class.method`,
    /// computed on its first recorded call.
    pub(crate) fn native_label(&mut self, method: minijvm::MethodId) -> LabelId {
        if let Some(&label) = self.native_labels.get(&method) {
            return label;
        }
        let label = match self.jvm.registry().method(method) {
            Some(info) => {
                let class = self.jvm.registry().class(info.class).dotted_name();
                self.recorder.intern(&format!("{class}.{}", info.name))
            }
            None => self.recorder.intern("<unknown native method>"),
        };
        self.native_labels.insert(method, label);
        label
    }

    /// The attached recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Configures how much history forensics reports keep.
    pub fn set_forensics_config(&mut self, config: ForensicsConfig) {
        self.forensics_config = config;
    }

    /// The forensics report captured at the most recent checker verdict,
    /// if any.
    pub fn last_bug_report(&self) -> Option<&BugReport> {
        self.last_forensics.as_ref()
    }

    /// Takes (and clears) the most recent forensics report.
    pub fn take_bug_report(&mut self) -> Option<BugReport> {
        self.last_forensics.take()
    }

    /// The recorded process death, if the simulated JVM has died.
    pub fn death(&self) -> Option<&JvmDeath> {
        self.dead.as_ref()
    }

    /// Creates a VM with the permissive spec-faithful vendor.
    pub fn permissive() -> Vm {
        Vm::new(Box::new(PermissiveVendor))
    }

    /// The underlying JVM.
    pub fn jvm(&self) -> &Jvm {
        &self.jvm
    }

    /// Mutable access to the underlying JVM (class definition, test
    /// setup).
    pub fn jvm_mut(&mut self) -> &mut Jvm {
        &mut self.jvm
    }

    /// The vendor model.
    pub fn vendor(&self) -> &dyn VendorModel {
        &*self.vendor
    }

    /// Language-transition counters.
    pub fn stats(&self) -> TransitionStats {
        self.stats
    }

    /// Stores a native function body and returns its code index (to be
    /// bound with [`minijvm::ClassRegistry::bind_native`] or
    /// `RegisterNatives`).
    pub fn add_native_code(&mut self, f: NativeFn) -> u32 {
        self.natives.push(f);
        self.natives.len() as u32 - 1
    }

    /// Stores a managed function body and returns its code index.
    pub fn add_managed_code(&mut self, f: ManagedFn) -> u32 {
        self.managed.push(f);
        self.managed.len() as u32 - 1
    }

    /// Convenience: defines a class with a single bound native method and
    /// returns `(class, method)`.
    ///
    /// # Panics
    ///
    /// Panics if the class already exists or the descriptor is malformed —
    /// setup-time errors in harness code.
    pub fn define_native_class(
        &mut self,
        class_name: &str,
        method_name: &str,
        descriptor: &str,
        is_static: bool,
        body: NativeFn,
    ) -> (ClassId, MethodId) {
        let idx = self.add_native_code(body);
        let class = self
            .jvm
            .registry_mut()
            .define(class_name)
            .method(
                method_name,
                descriptor,
                MemberFlags {
                    is_static,
                    ..Default::default()
                },
                MethodBody::Native(Some(idx)),
            )
            .build()
            .unwrap_or_else(|e| panic!("define_native_class({class_name}): {e}"));
        let method = self
            .jvm
            .registry()
            .resolve_method(class, method_name, descriptor, is_static)
            .expect("just defined");
        (class, method)
    }

    /// Convenience: adds a bound managed method to an existing or new
    /// class and returns `(class, method)`.
    ///
    /// # Panics
    ///
    /// As for [`Vm::define_native_class`].
    pub fn define_managed_class(
        &mut self,
        class_name: &str,
        method_name: &str,
        descriptor: &str,
        is_static: bool,
        body: ManagedFn,
    ) -> (ClassId, MethodId) {
        let idx = self.add_managed_code(body);
        let class = self
            .jvm
            .registry_mut()
            .define(class_name)
            .method(
                method_name,
                descriptor,
                MemberFlags {
                    is_static,
                    ..Default::default()
                },
                MethodBody::Managed(idx),
            )
            .build()
            .unwrap_or_else(|e| panic!("define_managed_class({class_name}): {e}"));
        let method = self
            .jvm
            .registry()
            .resolve_method(class, method_name, descriptor, is_static)
            .expect("just defined");
        (class, method)
    }
}

/// How a finished program run ended, as the harness observes it.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Completed normally with a value.
    Completed(JValue),
    /// Terminated with an uncaught Java exception (description attached).
    UncaughtException(String),
    /// The simulated process died.
    Died(JvmDeath),
    /// A checker aborted with a thrown checker exception.
    CheckerException(crate::interpose::Violation),
}

/// A VM plus its interposition stack and diagnostic log: one "java
/// process" launch, e.g. `java -agentlib:jinn Main`.
pub struct Session {
    vm: Vm,
    interposers: Vec<Box<dyn Interpose>>,
    log: Vec<String>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("vm", &self.vm)
            .field(
                "interposers",
                &self
                    .interposers
                    .iter()
                    .map(|i| i.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("log_lines", &self.log.len())
            .finish()
    }
}

impl Session {
    /// Creates a session around a VM with no checkers attached.
    pub fn new(vm: Vm) -> Session {
        Session {
            vm,
            interposers: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Attaches a checker (order matters: earlier checkers see calls
    /// first).
    pub fn attach(&mut self, checker: Box<dyn Interpose>) {
        self.interposers.push(checker);
    }

    /// The VM.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Mutable VM access (setup).
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// Attaches an observability recorder to the session's VM stack.
    /// Call before [`Session::attach`] so checkers can pick it up too.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.vm.set_recorder(recorder);
    }

    /// Attaches (or detaches) a passive [`BoundaryTap`] on the session's
    /// VM.
    pub fn set_tap(&mut self, tap: Option<Rc<RefCell<dyn BoundaryTap>>>) {
        self.vm.set_tap(tap);
    }

    /// The session's recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        self.vm.recorder()
    }

    /// The forensics report captured at the most recent checker verdict.
    pub fn last_bug_report(&self) -> Option<&BugReport> {
        self.vm.last_bug_report()
    }

    /// Takes (and clears) the most recent forensics report.
    pub fn take_bug_report(&mut self) -> Option<BugReport> {
        self.vm.take_bug_report()
    }

    /// Diagnostic log lines (checker warnings, `ExceptionDescribe` output).
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Takes and clears the log.
    pub fn take_log(&mut self) -> Vec<String> {
        std::mem::take(&mut self.log)
    }

    /// A JNI environment for `thread`, presenting the thread's own
    /// (correct) `JNIEnv*`.
    pub fn env(&mut self, thread: ThreadId) -> JniEnv<'_> {
        let token = self.vm.jvm.thread(thread).env();
        self.env_with_token(thread, token)
    }

    /// A JNI environment presenting an arbitrary `JNIEnv*` token — the
    /// vehicle for simulating pitfall 14 (cached env used on the wrong
    /// thread).
    pub fn env_with_token(&mut self, thread: ThreadId, token: EnvToken) -> JniEnv<'_> {
        JniEnv::new(
            &mut self.vm,
            &mut self.interposers,
            &mut self.log,
            thread,
            token,
        )
    }

    /// Runs a native method from "Java" (the program entry of most
    /// experiments) and classifies the outcome.
    pub fn run_native(
        &mut self,
        thread: ThreadId,
        method: MethodId,
        args: &[JValue],
    ) -> RunOutcome {
        let result = self.env(thread).call_native_method(method, args);
        // A crash or deadlock kills the process even when buggy native
        // code ignored the failing call's result.
        if let Some(d) = self.vm.death() {
            return RunOutcome::Died(d.clone());
        }
        match result {
            Ok(v) => RunOutcome::Completed(v),
            Err(JniError::Exception) => {
                let desc = self
                    .vm
                    .jvm
                    .thread(thread)
                    .pending_exception()
                    .map(|e| self.vm.jvm.describe_exception(e))
                    .unwrap_or_else(|| "unknown exception".to_string());
                RunOutcome::UncaughtException(desc)
            }
            Err(JniError::Death(d)) => RunOutcome::Died(d),
            Err(JniError::Detected(v)) => RunOutcome::CheckerException(v),
        }
    }

    /// Terminates the program: fires every checker's `vm_death` sweep
    /// (leak reports) and returns all reports. `Warn` reports are also
    /// appended to the log.
    pub fn shutdown(&mut self) -> Vec<Report> {
        let mut all = Vec::new();
        for checker in &mut self.interposers {
            let name = checker.name().to_string();
            let jvm = &self.vm.jvm;
            let reports = crate::env::guard_hook(&name, "vm_death", || checker.vm_death(jvm));
            for r in &reports {
                if r.action == ReportAction::Warn {
                    self.log
                        .push(format!("{}: {}", checker.name(), r.violation));
                }
            }
            all.extend(reports);
        }
        all
    }
}
